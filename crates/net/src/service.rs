//! The gateway's verifier: nonce allocation, verification totals and
//! the per-connection protocol state machine around one trust core.
//!
//! [`AttestationService`] owns an [`eilid_fleet::TrustCore`] provisioned
//! from a fleet verifier's [`ServiceSnapshot`] — same root key, same
//! golden measurements — and a reserved block of the verifier's
//! challenge-nonce domain, so networked challenges can never collide
//! with in-process sweep challenges on any device key.
//! Client-driven reports, the campaign engine's sweeps, probes and
//! rollback checks all verify through that one core.
//!
//! [`Session`] implements the per-connection state machine once; the
//! non-blocking TCP gateway and the in-memory [`serve_transport`] server
//! both drive it, so protocol behaviour cannot drift between the two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eilid_casu::{AttestError, Challenge, CryptoProvider, SoftwareProvider};
use eilid_fleet::trust::pmem_challenge;
use eilid_fleet::{HealthClass, ServiceSnapshot, TrustCore};
use eilid_workloads::WorkloadId;

use crate::error::NetError;
use crate::transport::Transport;
use crate::wire::{ErrorCode, Frame, WireHealth, PROTOCOL_VERSION};

/// Maps a fleet health class to its wire form.
pub fn health_to_wire(class: HealthClass) -> WireHealth {
    match class {
        HealthClass::Attested => WireHealth::Attested,
        HealthClass::Stale => WireHealth::Stale,
        HealthClass::Tampered => WireHealth::Tampered,
        HealthClass::Unverified => WireHealth::Unverified,
    }
}

/// Maps a wire health class back to the fleet's.
pub fn health_from_wire(class: WireHealth) -> HealthClass {
    match class {
        WireHealth::Attested => HealthClass::Attested,
        WireHealth::Stale => HealthClass::Stale,
        WireHealth::Tampered => HealthClass::Tampered,
        WireHealth::Unverified => HealthClass::Unverified,
    }
}

/// Running verification totals, updated atomically by worker threads.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Challenges issued.
    pub challenges_issued: AtomicU64,
    /// Reports verified, by class.
    pub attested: AtomicU64,
    /// Reports classified stale.
    pub stale: AtomicU64,
    /// Reports classified tampered.
    pub tampered: AtomicU64,
    /// Reports that failed cryptographic verification.
    pub unverified: AtomicU64,
}

impl ServiceStats {
    /// Total reports verified (any class).
    pub fn reports_verified(&self) -> u64 {
        self.attested.load(Ordering::Relaxed)
            + self.stale.load(Ordering::Relaxed)
            + self.tampered.load(Ordering::Relaxed)
            + self.unverified.load(Ordering::Relaxed)
    }

    fn record(&self, class: HealthClass) {
        let counter = match class {
            HealthClass::Attested => &self.attested,
            HealthClass::Stale => &self.stale,
            HealthClass::Tampered => &self.tampered,
            HealthClass::Unverified => &self.unverified,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The networked verifier: the gateway's [`TrustCore`] plus the
/// reserved challenge-nonce block and the verification totals. Thread
/// safe: the reactor issues challenges while pool workers verify
/// reports concurrently, and the campaign engine promotes goldens when
/// a gateway-resident rollout completes.
#[derive(Debug)]
pub struct AttestationService {
    trust: TrustCore,
    next_nonce: AtomicU64,
    nonce_end: u64,
    stats: ServiceStats,
}

impl AttestationService {
    /// Builds the service from a verifier's exported snapshot, on the
    /// default software crypto backend.
    pub fn new(snapshot: ServiceSnapshot) -> Self {
        Self::with_provider(snapshot, Arc::new(SoftwareProvider))
    }

    /// Builds the service on an explicit [`CryptoProvider`] backend —
    /// every HMAC and SHA of the service, its sweeps and its campaign
    /// probes runs on it.
    pub fn with_provider(snapshot: ServiceSnapshot, provider: Arc<dyn CryptoProvider>) -> Self {
        AttestationService {
            trust: TrustCore::new(snapshot.root, snapshot.scheme, snapshot.cohorts, provider),
            next_nonce: AtomicU64::new(snapshot.nonce_base),
            nonce_end: snapshot.nonce_base.saturating_add(snapshot.nonce_span),
            stats: ServiceStats::default(),
        }
    }

    /// The service's trust core.
    pub(crate) fn trust(&self) -> &TrustCore {
        &self.trust
    }

    /// The next unissued challenge nonce. An aggregated sweep snapshots
    /// this *before* minting its challenges as the sweep epoch: nonces
    /// are only ever consumed forward, so epochs are strictly
    /// monotone across sweeps that mint at least one challenge.
    pub fn nonce_watermark(&self) -> u64 {
        self.next_nonce.load(Ordering::Relaxed)
    }

    /// Verification totals so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Device keys currently cached across all shards.
    pub fn cached_keys(&self) -> usize {
        self.trust.cached_keys()
    }

    /// Key derivations ever performed — equal to
    /// [`AttestationService::cached_keys`], because every gateway path
    /// (client-driven reports, operator sweeps, campaign updates, probes
    /// and rollbacks) draws keys from the one derive-once cache.
    pub fn key_derivations(&self) -> u64 {
        self.trust.key_derivations()
    }

    /// Issues a fresh challenge over `cohort`'s PMEM range.
    ///
    /// Nonce reuse would break replay protection, so exhausting the
    /// reserved block is refused — a typed error the session turns into
    /// a retryable `Busy` frame, never a reused nonce and never a panic
    /// on the serving thread (a hostile client must not be able to
    /// spam-drain the block into a gateway crash). The default span of
    /// 2³² outlives any realistic deployment of one gateway process.
    ///
    /// # Errors
    ///
    /// [`ChallengeError::UnknownCohort`] for a cohort this service is
    /// not provisioned for; [`ChallengeError::NoncesExhausted`] once the
    /// reserved block runs dry.
    pub fn challenge_for(&self, cohort: WorkloadId) -> Result<Challenge, ChallengeError> {
        self.trust
            .with_cohort(cohort, |golden| {
                // fetch_add past the end is harmless: the overshot value
                // is never issued, and the counter cannot wrap a u64 in
                // practice.
                let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
                if nonce >= self.nonce_end {
                    return Err(ChallengeError::NoncesExhausted);
                }
                self.stats.challenges_issued.fetch_add(1, Ordering::Relaxed);
                Ok(pmem_challenge(&golden.layout, nonce))
            })
            .unwrap_or(Err(ChallengeError::UnknownCohort))
    }

    /// Verifies one report against the issued challenge and the
    /// cohort's golden history, using the shard-cached device key.
    /// Classification semantics are identical to the fleet verifier's.
    pub fn verify(
        &self,
        device: u64,
        cohort: WorkloadId,
        issued: &Challenge,
        report: &eilid_casu::AttestationReport,
    ) -> (HealthClass, Option<AttestError>) {
        let verdict = self.trust.pass().verify(device, cohort, issued, report);
        self.stats.record(verdict.0);
        verdict
    }

    /// Verifies a batch of reports in one [`TrustPass`](eilid_fleet::TrustPass),
    /// yielding exactly the verdicts [`AttestationService::verify`]
    /// would produce one at a time — the equivalence is property-tested
    /// over arbitrary mixes of good, tampered, stale and replayed
    /// reports.
    ///
    /// The point of batching is amortization: one golden read-lock for
    /// the batch, and consecutive tasks on the same key shard reuse one
    /// lock acquisition (the gateway batches per shard, so a whole batch
    /// typically costs a single lock); the per-job pool dispatch the
    /// gateway used to pay per report is paid per batch.
    pub fn verify_batch(&self, tasks: &[VerifyTask]) -> Vec<(HealthClass, Option<AttestError>)> {
        let mut pass = self.trust.pass();
        tasks
            .iter()
            .map(|task| {
                let verdict = pass.verify(task.device, task.cohort, &task.issued, &task.report);
                self.stats.record(verdict.0);
                verdict
            })
            .collect()
    }
}

/// Why [`AttestationService::challenge_for`] refused to mint a
/// challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChallengeError {
    /// The service holds no goldens for the requested cohort.
    UnknownCohort,
    /// The reserved nonce block ran dry; the gateway must be
    /// re-provisioned before it can issue fresh challenges.
    NoncesExhausted,
}

/// A report waiting to be verified — what the gateway hands to a pool
/// worker.
#[derive(Debug)]
pub struct VerifyTask {
    /// The reporting device.
    pub device: u64,
    /// Its cohort.
    pub cohort: WorkloadId,
    /// The challenge this service issued.
    pub issued: Challenge,
    /// The device's report.
    pub report: eilid_casu::AttestationReport,
}

impl VerifyTask {
    /// Runs the verification and builds the reply frame.
    pub fn run(self, service: &AttestationService) -> Frame {
        let (class, _) = service.verify(self.device, self.cohort, &self.issued, &self.report);
        Frame::AttestResult {
            device: self.device,
            class: health_to_wire(class),
        }
    }
}

/// What [`Session::handle`] wants done with one inbound frame.
#[derive(Debug)]
pub enum SessionOutput {
    /// Send these frames back, in order.
    Reply(Vec<Frame>),
    /// Verify this report (CPU-bound — the gateway offloads it to the
    /// worker pool; the in-memory server runs it inline).
    Verify(VerifyTask),
    /// Send these frames, then close the connection.
    ReplyAndClose(Vec<Frame>),
    /// Close the connection without a reply.
    Close,
    /// Register this connection as the push target for `device` and
    /// acknowledge (the gateway updates its device→connection registry;
    /// the in-memory server has no push plane and refuses).
    Attach {
        /// The device this connection serves.
        device: u64,
        /// Its firmware cohort.
        cohort: WorkloadId,
    },
    /// Route this operator-plane frame to the campaign engine, which
    /// replies asynchronously on this connection. Servers without an
    /// engine (the in-memory transport server) answer `Unsupported`.
    Operator(Frame),
    /// Route this device-plane reply (snapshot / probe / update result,
    /// or a device-scoped shed) to the campaign engine. Servers without
    /// an engine drop it.
    DeviceReply(Frame),
}

/// Hard cap on challenges outstanding per connection. A lockstep client
/// keeps one; a pipelining aggregator a few dozen; an attacker spamming
/// `AttestRequest`s with distinct device ids and never reporting would
/// otherwise grow the pending map without bound.
pub const MAX_PENDING_CHALLENGES: usize = 1024;

/// Per-connection protocol state machine (gateway side).
#[derive(Debug, Default)]
pub struct Session {
    negotiated: Option<u8>,
    /// Challenges issued on this connection, by device id, awaiting
    /// their report. Bounded by [`MAX_PENDING_CHALLENGES`].
    pending: HashMap<u64, (WorkloadId, Challenge)>,
}

impl Session {
    /// A fresh, un-negotiated session.
    pub fn new() -> Self {
        Session::default()
    }

    /// `true` once version negotiation succeeded.
    pub fn is_negotiated(&self) -> bool {
        self.negotiated.is_some()
    }

    /// Drives the state machine over one inbound frame.
    pub fn handle(&mut self, service: &AttestationService, frame: Frame) -> SessionOutput {
        match frame {
            Frame::Hello {
                min_version,
                max_version,
            } => {
                if self.negotiated.is_some() {
                    return SessionOutput::ReplyAndClose(vec![Frame::Error {
                        code: ErrorCode::UnexpectedFrame,
                    }]);
                }
                if (min_version..=max_version).contains(&PROTOCOL_VERSION) {
                    self.negotiated = Some(PROTOCOL_VERSION);
                    SessionOutput::Reply(vec![Frame::HelloAck {
                        version: PROTOCOL_VERSION,
                    }])
                } else {
                    SessionOutput::ReplyAndClose(vec![Frame::Error {
                        code: ErrorCode::UnsupportedVersion,
                    }])
                }
            }
            Frame::Bye => SessionOutput::Close,
            _ if self.negotiated.is_none() => SessionOutput::ReplyAndClose(vec![Frame::Error {
                code: ErrorCode::NotNegotiated,
            }]),
            Frame::AttestRequest { device, cohort } => {
                // Re-requesting for an already-pending device replaces
                // its challenge (doesn't grow the map); only genuinely
                // new outstanding ids count against the cap. Errors on
                // this path are *device-scoped* (`DeviceError`), so a
                // pipelining client can attribute and retry exactly the
                // affected exchange.
                if self.pending.len() >= MAX_PENDING_CHALLENGES
                    && !self.pending.contains_key(&device)
                {
                    return SessionOutput::Reply(vec![Frame::DeviceError {
                        device,
                        code: ErrorCode::Busy,
                    }]);
                }
                match service.challenge_for(cohort) {
                    Ok(challenge) => {
                        self.pending.insert(device, (cohort, challenge));
                        SessionOutput::Reply(vec![Frame::Challenge { device, challenge }])
                    }
                    Err(ChallengeError::UnknownCohort) => {
                        SessionOutput::Reply(vec![Frame::DeviceError {
                            device,
                            code: ErrorCode::UnknownCohort,
                        }])
                    }
                    // Out of nonces: shed load instead of minting a
                    // reused nonce (or crashing the serving thread).
                    Err(ChallengeError::NoncesExhausted) => {
                        SessionOutput::Reply(vec![Frame::DeviceError {
                            device,
                            code: ErrorCode::Busy,
                        }])
                    }
                }
            }
            Frame::Report { device, report } => match self.pending.remove(&device) {
                Some((cohort, issued)) => SessionOutput::Verify(VerifyTask {
                    device,
                    cohort,
                    issued,
                    report,
                }),
                None => SessionOutput::Reply(vec![Frame::Error {
                    code: ErrorCode::UnexpectedFrame,
                }]),
            },
            // Device-plane registration for gateway-initiated pushes.
            // Cohort validity is checked here so a bad attach is
            // rejected device-scoped before it reaches any registry.
            Frame::Attach { device, cohort } => {
                if service.trust().with_cohort(cohort, |_| ()).is_some() {
                    SessionOutput::Attach { device, cohort }
                } else {
                    SessionOutput::Reply(vec![Frame::DeviceError {
                        device,
                        code: ErrorCode::UnknownCohort,
                    }])
                }
            }
            // The operator plane: campaign lifecycle and gateway-driven
            // sweeps, executed by the campaign engine (which replies on
            // this connection asynchronously).
            frame @ (Frame::CampaignControl { .. }
            | Frame::OpBegin { .. }
            | Frame::OpStep { .. }
            | Frame::OpResume { .. }
            | Frame::OpCheckpoint { .. }
            | Frame::OpSweep
            | Frame::OpAggSweep
            | Frame::OpHealth
            | Frame::OpDrain
            | Frame::OpMetrics) => SessionOutput::Operator(frame),
            // Device-plane replies to engine-initiated pushes: update
            // acks, snapshot reports, probe results — and device-scoped
            // sheds (`DeviceError{Busy}`), which the engine retries.
            frame @ (Frame::UpdateResult { .. }
            | Frame::SnapshotReport { .. }
            | Frame::ProbeResult { .. }
            | Frame::DeviceError { .. }) => SessionOutput::DeviceReply(frame),
            // Update *requests* (full or delta) flow gateway → device;
            // one arriving at the gateway is refused.
            Frame::UpdateRequest { .. } | Frame::DeltaUpdateRequest { .. } => {
                SessionOutput::Reply(vec![Frame::Error {
                    code: ErrorCode::Unsupported,
                }])
            }
            // Server-bound frames arriving at the server are a protocol
            // violation.
            Frame::HelloAck { .. }
            | Frame::Challenge { .. }
            | Frame::AttestResult { .. }
            | Frame::AttachAck { .. }
            | Frame::SnapshotRequest { .. }
            | Frame::ProbeRequest { .. }
            | Frame::OpPaused { .. }
            | Frame::OpReport { .. }
            | Frame::OpSweepResult { .. }
            | Frame::OpAggSweepResult { .. }
            | Frame::OpHealthResult { .. }
            | Frame::OpDrained { .. }
            | Frame::OpMetricsResult { .. }
            | Frame::OpCheckpointAck { .. }
            | Frame::CampaignStatus { .. } => SessionOutput::ReplyAndClose(vec![Frame::Error {
                code: ErrorCode::UnexpectedFrame,
            }]),
            Frame::Error { .. } => SessionOutput::Close,
        }
    }
}

/// Serves one connection synchronously over any [`Transport`] — the
/// in-memory counterpart of the TCP gateway, sharing [`Session`]
/// verbatim (verification runs inline on this thread).
///
/// This server has no push plane or campaign engine: operator frames
/// and attach registrations are answered with a typed `Unsupported`
/// (drive campaigns over the wire through the TCP
/// [`Gateway`](crate::Gateway)); stray device-plane replies are dropped, exactly
/// as the gateway drops them when no campaign is in flight.
///
/// Returns when the peer says [`Frame::Bye`], hangs up, or breaks the
/// protocol.
///
/// # Errors
///
/// Propagates transport failures other than an orderly close.
pub fn serve_transport<T: Transport>(
    service: &AttestationService,
    transport: &mut T,
) -> Result<(), NetError> {
    let mut session = Session::new();
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(NetError::Closed) => return Ok(()),
            Err(err) => return Err(err),
        };
        match session.handle(service, frame) {
            SessionOutput::Reply(frames) => {
                for frame in frames {
                    transport.send(&frame)?;
                }
            }
            SessionOutput::Verify(task) => {
                let reply = task.run(service);
                transport.send(&reply)?;
            }
            SessionOutput::ReplyAndClose(frames) => {
                for frame in frames {
                    transport.send(&frame)?;
                }
                return Ok(());
            }
            SessionOutput::Close => return Ok(()),
            SessionOutput::Attach { .. } | SessionOutput::Operator(_) => {
                transport.send(&Frame::Error {
                    code: ErrorCode::Unsupported,
                })?;
            }
            SessionOutput::DeviceReply(_) => {}
        }
    }
}
