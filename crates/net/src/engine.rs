//! The gateway's campaign engine: the wire-driven [`WaveExecutor`]
//! behind the networked operator plane.
//!
//! The reactor thread never blocks on campaign work. Operator frames
//! (`OpBegin`/`OpStep`/`CampaignControl`/…) and device-plane replies
//! (`SnapshotReport`/`UpdateResult`/`ProbeResult`) are routed here over
//! an mpsc channel; the engine runs on its own thread, drives the
//! *shared* campaign decision logic ([`CampaignRun::step_with`] — the
//! exact code the in-process backend runs), and implements the
//! [`WaveExecutor`] mechanism by pushing frames to the device
//! connections registered in the gateway's [`Registry`]:
//!
//! ```text
//!  operator conn ── OpStep ──▶ engine ── SnapshotRequest ─▶ device conns
//!                                │  ◀── SnapshotReport ──────┘
//!                                ├── UpdateRequest ─▶  … ◀── UpdateResult
//!                                ├── ProbeRequest  ─▶  … ◀── ProbeResult
//!                                ▼
//!                        CampaignStatus (wave boundary) ─▶ operator conn
//! ```
//!
//! Campaign waves are *streamed*: instead of three fleet-wide phase
//! barriers (every snapshot, then every update, then every probe), each
//! device advances through its own phase chain — snapshot → delta (or
//! full) update → attest probe → verdict — the moment its previous
//! reply lands, with admission capped by a per-connection window
//! ([`ENGINE_WAVE_WINDOW`], the sweep client's window-of-32 pattern).
//! A slow or busy device therefore stalls only itself, never the wave.
//! The cohort-reference smoke probe runs once; byte-identical siblings
//! (attested equal to `expected_after`) inherit its verdict, so the
//! 2M-cycle reboot + smoke simulation leaves the per-device hot path.
//!
//! Outbound frames ride the gateway's existing completions channel (the
//! same coalesced-write path worker verdicts use), so the reactor
//! flushes them with its usual discipline. A device agent that cannot
//! serve a push right now sheds it with a device-scoped
//! [`Frame::DeviceError`] `Busy`; the engine schedules a bounded
//! exponential-backoff retry *inside its event loop* (the thread keeps
//! draining other devices' replies — it never sleeps through a backoff)
//! instead of counting it as a probe failure — backpressure is a
//! scheduling signal, not a health verdict.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eilid_casu::{AttestationReport, Challenge, DeltaUpdateRequest, UpdateAuthority, UpdateError};
use eilid_fleet::trust::shard_of;
use eilid_fleet::{
    Campaign, CampaignRun, CohortInfo, DeviceId, FleetError, HealthClass, Ledger, LedgerEvent,
    PausedCampaign, PreUpdateSnapshot, RollbackOutcome, WaveExecutor, WaveRollout, WaveSpec,
    SHARD_COUNT,
};
use eilid_workloads::WorkloadId;

use eilid_fleet::ops::class_index;

use crate::gateway::GatewayCounters;
use crate::metrics::{NetMetrics, TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE};
use crate::poller::Waker;
use crate::pool::WorkerPool;
use crate::service::{health_to_wire, AttestationService, VerifyTask};
use crate::wire::{
    CampaignOp, ErrorCode, Frame, ProbeMode, WireHealth, CAMPAIGN_STATE_FINISHED,
    CAMPAIGN_STATE_IDLE, CAMPAIGN_STATE_PAUSED, CAMPAIGN_STATE_RUNNING,
};

/// How many times the engine re-pushes an exchange a device agent shed
/// with a device-scoped `Busy` before giving up on that device.
pub const ENGINE_BUSY_RETRIES: usize = 8;

/// Per-connection cap on devices concurrently in flight during a
/// streamed campaign wave. Matches the sweep client's window-of-32:
/// enough to keep every agent's serve loop saturated, small enough
/// that one connection's outbox never balloons.
pub const ENGINE_WAVE_WINDOW: usize = 32;

/// Bounded exponential backoff before re-pushing a `Busy`-shed frame
/// (`attempts` counts from 1).
fn busy_backoff(attempts: usize) -> Duration {
    Duration::from_micros(500)
        .saturating_mul(1 << (attempts - 1).min(8) as u32)
        .min(Duration::from_millis(50))
}

/// The gateway's device→connection registry: which connection serves
/// which attached device, and under which cohort. Written by the
/// reactor (attach frames, connection drops), read by the engine when
/// it pushes campaign work.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    devices: HashMap<DeviceId, (u64, WorkloadId)>,
}

impl Registry {
    /// Registers (or re-homes) `device` on `conn`.
    pub(crate) fn attach(&mut self, device: DeviceId, conn: u64, cohort: WorkloadId) {
        self.devices.insert(device, (conn, cohort));
    }

    /// Drops every registration served by `conn`.
    pub(crate) fn drop_conn(&mut self, conn: u64) {
        self.devices.retain(|_, (c, _)| *c != conn);
    }

    /// Registered devices.
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    fn conn_of(&self, device: DeviceId) -> Option<u64> {
        self.devices.get(&device).map(|(conn, _)| *conn)
    }

    /// Device ids attached under `cohort`, in id order — the wave
    /// partition input, mirroring `Fleet::cohort_members`.
    fn members_of(&self, cohort: WorkloadId) -> Vec<DeviceId> {
        let mut members: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|(_, (_, c))| *c == cohort)
            .map(|(device, _)| *device)
            .collect();
        members.sort_unstable();
        members
    }

    /// Every registration as `(device, cohort)`, in id order.
    fn all(&self) -> Vec<(DeviceId, WorkloadId)> {
        let mut all: Vec<(DeviceId, WorkloadId)> = self
            .devices
            .iter()
            .map(|(device, (_, cohort))| (*device, *cohort))
            .collect();
        all.sort_unstable_by_key(|(device, _)| *device);
        all
    }
}

/// What the reactor routes to the engine.
#[derive(Debug)]
pub(crate) enum EngineInput {
    /// An operator-plane command, with the connection to answer on.
    Operator {
        /// The operator's connection token.
        conn: u64,
        /// The command frame.
        frame: Frame,
    },
    /// A device-plane reply to an engine push.
    Device {
        /// The reply frame.
        frame: Frame,
    },
    /// A batch of device-plane replies decoded in one reactor pass —
    /// one channel message (and one receiver wake) for the lot, in
    /// arrival order.
    Devices(Vec<Frame>),
    /// A connection disappeared (its registrations are already gone
    /// from the registry); pending exchanges on it should fail fast.
    ConnClosed(#[allow(dead_code)] u64),
}

/// One cohort's campaign slot: at most one loaded run, plus the
/// gateway-retained paused record for in-place resume.
#[derive(Debug, Default)]
struct CampaignSlot {
    run: Option<CampaignRun>,
    paused: Option<PausedCampaign>,
}

/// Which reply frame type an exchange expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyKind {
    Snapshot,
    UpdateAck,
    Probe,
}

impl ReplyKind {
    /// The device a reply of this kind names, if `frame` is one.
    fn device_of(self, frame: &Frame) -> Option<DeviceId> {
        match (self, frame) {
            (ReplyKind::Snapshot, Frame::SnapshotReport { device, .. })
            | (ReplyKind::UpdateAck, Frame::UpdateResult { device, .. })
            | (ReplyKind::Probe, Frame::ProbeResult { device, .. }) => Some(*device),
            _ => None,
        }
    }
}

/// Where a device sits in the streamed wave's phase chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WavePhase {
    /// Not yet admitted into the in-flight window.
    Queued,
    /// Snapshot request in flight.
    Snapshot,
    /// Update in flight; `delta` marks the sparse-segment attempt
    /// (a rejection falls back to the full image under the same nonce).
    Update { delta: bool },
    /// Post-update attest probe ([`ProbeMode::UpdateAttest`]) in
    /// flight.
    Attest,
    /// This device is the cohort reference: its real reboot + smoke
    /// probe ([`ProbeMode::UpdateProbe`]) is in flight.
    Reference,
}

/// Per-device progress through the streamed wave.
#[derive(Debug)]
struct WaveDevice {
    phase: WavePhase,
    /// The frame awaiting a reply, kept for `Busy` re-pushes.
    in_flight: Option<Frame>,
    /// `Busy` sheds of the current in-flight frame.
    attempts: usize,
    /// When the current in-flight frame was pushed (phase-latency
    /// histograms).
    pushed_at: Instant,
    nonce: u64,
    snapshot: Option<PreUpdateSnapshot>,
    /// The authorized full-image request, held while the delta attempt
    /// is in flight so a divergent device can fall back under the same
    /// nonce (the recorded outcome is always the final attempt's).
    fallback: Option<Frame>,
    challenge: Option<Challenge>,
    applied: bool,
    /// Device-side rejection code of the *final* update attempt.
    rejected: Option<u8>,
    attested: bool,
    /// The device's own probe verdict (probe-isolated devices, the
    /// reference itself, and measurement mismatches — which never
    /// inherit).
    verdict: Option<bool>,
    /// Verdict deferred to the cohort reference's smoke outcome.
    inherit: bool,
    done: bool,
}

impl WaveDevice {
    fn new(now: Instant) -> Self {
        WaveDevice {
            phase: WavePhase::Queued,
            in_flight: None,
            attempts: 0,
            pushed_at: now,
            nonce: 0,
            snapshot: None,
            fallback: None,
            challenge: None,
            applied: false,
            rejected: None,
            attested: false,
            verdict: None,
            inherit: false,
            done: false,
        }
    }
}

/// Wave-wide accounting the streamed loop threads through its
/// handlers.
#[derive(Debug, Default)]
struct WaveTally {
    /// Admitted-but-not-done devices (the window occupancy).
    live: usize,
    /// Devices not yet done (loop exit condition).
    remaining: usize,
    /// Smoke probes actually executed on a device.
    executed: u64,
    /// Verdicts inherited from the cohort reference.
    memoized: u64,
}

/// Retires a device from the wave (no further frames will be pushed to
/// it); idempotent.
fn finish(st: &mut WaveDevice, tally: &mut WaveTally) {
    if !st.done {
        st.done = true;
        st.in_flight = None;
        tally.live -= 1;
        tally.remaining -= 1;
    }
}

/// Per-device challenges minted for one sweep round, keyed by device
/// with the cohort each challenge was drawn from.
type SweepChallenges = BTreeMap<DeviceId, (WorkloadId, Challenge)>;

/// The engine proper: one per gateway, on its own thread.
pub(crate) struct OpsEngine {
    service: Arc<AttestationService>,
    registry: Arc<Mutex<Registry>>,
    rx: Receiver<EngineInput>,
    out: Sender<Vec<(u64, Frame)>>,
    waker: Waker,
    /// Idle ceiling per device exchange: the deadline extends on every
    /// received reply, so big waves are bounded by per-device progress,
    /// not wave size.
    timeout: Duration,
    campaigns: BTreeMap<WorkloadId, CampaignSlot>,
    ledger: Ledger,
    /// The reactor's counters, read for [`Frame::OpHealthResult`]'s
    /// supervision fields.
    counters: Arc<GatewayCounters>,
    /// The reactor's verification pool, queried (never submitted to)
    /// for the health report's queue depth.
    pool: Arc<WorkerPool>,
    /// Set on [`Frame::OpDrain`]; the reactor's accept path reads it.
    draining: Arc<AtomicBool>,
    /// The gateway's telemetry hub: wave-phase histograms and busy
    /// retries recorded here, the whole registry rendered on
    /// [`Frame::OpMetrics`].
    metrics: Arc<NetMetrics>,
}

impl OpsEngine {
    /// Spawns the engine thread. It exits when every sender of `rx`
    /// (held by the gateway) is dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        service: Arc<AttestationService>,
        registry: Arc<Mutex<Registry>>,
        rx: Receiver<EngineInput>,
        out: Sender<Vec<(u64, Frame)>>,
        waker: Waker,
        timeout: Duration,
        counters: Arc<GatewayCounters>,
        pool: Arc<WorkerPool>,
        draining: Arc<AtomicBool>,
        metrics: Arc<NetMetrics>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("eilid-ops".into())
            .spawn(move || {
                OpsEngine {
                    service,
                    registry,
                    rx,
                    out,
                    waker,
                    timeout,
                    campaigns: BTreeMap::new(),
                    ledger: Ledger::default(),
                    counters,
                    pool,
                    draining,
                    metrics,
                }
                .run();
            })
            .expect("spawning the ops engine thread")
    }

    fn run(mut self) {
        while let Ok(input) = self.rx.recv() {
            match input {
                EngineInput::Operator { conn, frame } => self.handle_operator(conn, frame),
                // Device replies outside an exchange (a late probe
                // result after a timeout, an unsolicited ack) carry no
                // pending state; drop them.
                EngineInput::Device { .. }
                | EngineInput::Devices(_)
                | EngineInput::ConnClosed(_) => {}
            }
        }
    }

    /// Queues one frame to `conn` through the reactor.
    fn send(&self, conn: u64, frame: Frame) {
        let _ = self.out.send(vec![(conn, frame)]);
        self.waker.wake();
    }

    fn send_error(&self, conn: u64, code: ErrorCode) {
        self.send(conn, Frame::Error { code });
    }

    fn status_frame(&self, cohort: WorkloadId) -> Frame {
        let (state, wave_cursor) = match self.campaigns.get(&cohort) {
            Some(slot) => match (&slot.run, &slot.paused) {
                (Some(run), _) if run.is_finished() => {
                    (CAMPAIGN_STATE_FINISHED, run.wave_cursor() as u32)
                }
                (Some(run), _) => (CAMPAIGN_STATE_RUNNING, run.wave_cursor() as u32),
                (None, Some(paused)) => (CAMPAIGN_STATE_PAUSED, paused.wave_cursor() as u32),
                (None, None) => (CAMPAIGN_STATE_IDLE, 0),
            },
            None => (CAMPAIGN_STATE_IDLE, 0),
        };
        Frame::CampaignStatus {
            cohort,
            state,
            wave_cursor,
        }
    }

    fn handle_operator(&mut self, conn: u64, frame: Frame) {
        match frame {
            Frame::OpBegin { config } => {
                let cohort = config.cohort;
                if self
                    .campaigns
                    .get(&cohort)
                    .is_some_and(|slot| slot.run.is_some() || slot.paused.is_some())
                {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                match Campaign::new(config).and_then(|campaign| campaign.begin_with(&mut *self)) {
                    Ok(run) => {
                        self.campaigns.entry(cohort).or_default().run = Some(run);
                        let status = self.status_frame(cohort);
                        self.send(conn, status);
                    }
                    Err(FleetError::UnknownCohort(_)) => {
                        self.send_error(conn, ErrorCode::UnknownCohort)
                    }
                    Err(_) => self.send_error(conn, ErrorCode::Unsupported),
                }
            }
            Frame::OpStep { cohort } => {
                let Some(mut run) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.run.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                let result = run.step_with(&mut *self);
                self.campaigns.entry(cohort).or_default().run = Some(run);
                match result {
                    Ok(_) => {
                        // The wave boundary: emit CampaignStatus to the
                        // operator (running or finished).
                        let status = self.status_frame(cohort);
                        self.send(conn, status);
                    }
                    // A backend-level wave failure (exhausted nonce
                    // block); the run state is intact, so the operator
                    // may retry.
                    Err(_) => self.send_error(conn, ErrorCode::Busy),
                }
            }
            Frame::OpResume { paused } => {
                let Ok(paused) = PausedCampaign::from_bytes(&paused) else {
                    return self.send_error(conn, ErrorCode::Unsupported);
                };
                let cohort = paused.cohort();
                if self
                    .campaigns
                    .get(&cohort)
                    .is_some_and(|slot| slot.run.is_some() || slot.paused.is_some())
                {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                self.campaigns.entry(cohort).or_default().run = Some(Campaign::resume(paused));
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            Frame::CampaignControl { cohort, op } => self.handle_control(conn, cohort, op),
            Frame::OpSweep => self.handle_sweep(conn),
            Frame::OpAggSweep => self.handle_agg_sweep(conn),
            Frame::OpHealth => {
                let attached = self.registry.lock().expect("registry lock").len() as u32;
                let active = self
                    .campaigns
                    .values()
                    .filter(|slot| slot.run.is_some())
                    .count() as u32;
                let paused = self
                    .campaigns
                    .values()
                    .filter(|slot| slot.paused.is_some())
                    .count() as u32;
                self.send(
                    conn,
                    Frame::OpHealthResult {
                        attached,
                        active_campaigns: active,
                        paused_campaigns: paused,
                        ledger_events: self.ledger.events().len() as u32,
                        live_sessions: self.counters.live_connections.load(Ordering::Relaxed)
                            as u32,
                        queue_depth: self.queue_depth_max() as u32,
                        batches_submitted: self.counters.batches_submitted.load(Ordering::Relaxed),
                    },
                );
            }
            Frame::OpDrain => {
                // Planned maintenance: refuse new peers from here on,
                // pause every running campaign between waves, and hand
                // all retained records back so a supervisor can re-seed
                // a replacement gateway via `OpResume`.
                self.draining.store(true, Ordering::Relaxed);
                self.waker.wake();
                let mut records: Vec<(WorkloadId, Vec<u8>)> = Vec::new();
                for (&cohort, slot) in self.campaigns.iter_mut() {
                    if let Some(run) = slot.run.take() {
                        if run.is_finished() {
                            // Nothing left to move; the report stays
                            // queryable until shutdown.
                            slot.run = Some(run);
                            continue;
                        }
                        slot.paused = Some(run.pause());
                    }
                    if let Some(paused) = slot.paused.as_ref() {
                        records.push((cohort, paused.to_bytes()));
                    }
                }
                // The frame ceiling bounds what can cross the wire;
                // records past it stay gateway-retained (exactly like
                // the oversized-Pause path) rather than producing an
                // unframeable reply.
                let mut total = 0usize;
                records.retain(|(_, bytes)| {
                    total += 5 + bytes.len();
                    total <= crate::wire::MAX_OP_PAYLOAD - 4
                });
                self.send(conn, Frame::OpDrained { paused: records });
            }
            Frame::OpCheckpoint { cohort, fetch } => {
                let Some(slot) = self.campaigns.get_mut(&cohort) else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                let (state, record) = match slot.run.take() {
                    Some(run) => {
                        if run.is_finished() {
                            slot.run = Some(run);
                            return self.send_error(conn, ErrorCode::NoCampaign);
                        }
                        // Checkpoint without stopping: snapshot the run
                        // through its pause format and resume the same
                        // bytes in place — the campaign keeps stepping
                        // while the gateway retains the record for a
                        // failover resume.
                        let paused = run.pause();
                        let bytes = paused.to_bytes();
                        let resumed = PausedCampaign::from_bytes(&bytes)
                            .expect("checkpoint record round-trips");
                        slot.run = Some(Campaign::resume(resumed));
                        slot.paused = Some(paused);
                        (CAMPAIGN_STATE_RUNNING, bytes)
                    }
                    None => match slot.paused.as_ref() {
                        Some(paused) => (CAMPAIGN_STATE_PAUSED, paused.to_bytes()),
                        None => return self.send_error(conn, ErrorCode::NoCampaign),
                    },
                };
                let paused = if fetch != 0 { record } else { Vec::new() };
                if paused.len() > crate::wire::MAX_OP_PAYLOAD {
                    // Retained fine, but unframeable on the wire — same
                    // discipline as the oversized-Pause path.
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(
                    conn,
                    Frame::OpCheckpointAck {
                        cohort,
                        state,
                        paused,
                    },
                );
            }
            Frame::OpMetrics => {
                // Refresh the point-in-time gauges, then render the
                // whole registry (plus the pre-registry atomics) as the
                // compact JSON the operator plane parses back.
                self.metrics.sample_pool(&self.pool);
                let snapshot = self
                    .metrics
                    .snapshot(&self.counters, &self.service)
                    .to_json()
                    .into_bytes();
                if snapshot.len() > crate::wire::MAX_OP_PAYLOAD {
                    // Unframeable reply (would need ~50k distinct
                    // metric names); refuse rather than truncate.
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(conn, Frame::OpMetricsResult { snapshot });
            }
            // The session only routes the frames above.
            _ => self.send_error(conn, ErrorCode::UnexpectedFrame),
        }
    }

    /// The hottest single worker's queued/running weight — the
    /// backpressure signal `OpHealthResult` reports. A shard-affine
    /// pool stalls when its *hottest* worker saturates, so the sum
    /// (which a balanced and a pathological fleet can share) goes to
    /// the metrics gauges instead; see `eilid_pool_queue_depth_sum`.
    fn queue_depth_max(&self) -> usize {
        let (_, max) = self.metrics.sample_pool(&self.pool);
        max as usize
    }

    /// Records one finished streamed wave into the trace ring. The
    /// per-phase latency histograms are fed per *device* (push →
    /// reply) by the wave loop; this is the wave-level span.
    fn note_wave(&self, started: Instant, devices: usize) {
        let elapsed = started.elapsed();
        self.metrics.trace().record(
            TRACE_CAT_ENGINE,
            TRACE_ENGINE_WAVE,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            devices as u64,
        );
    }

    fn handle_control(&mut self, conn: u64, cohort: WorkloadId, op: CampaignOp) {
        match op {
            CampaignOp::Pause => {
                let Some(run) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.run.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                if run.is_finished() {
                    // A finished run has nothing left to pause.
                    self.campaigns.entry(cohort).or_default().run = Some(run);
                    return self.send_error(conn, ErrorCode::NoCampaign);
                }
                let paused = run.pause();
                let bytes = paused.to_bytes();
                self.campaigns.entry(cohort).or_default().paused = Some(paused);
                // A record past the operator-plane frame ceiling cannot
                // cross the wire; the gateway still retains it (the
                // in-place Resume path keeps working) and tells the
                // operator with a typed error instead of emitting an
                // unframeable reply.
                if bytes.len() > crate::wire::MAX_OP_PAYLOAD {
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(
                    conn,
                    Frame::OpPaused {
                        cohort,
                        paused: bytes,
                    },
                );
            }
            CampaignOp::Resume => {
                if self
                    .campaigns
                    .get(&cohort)
                    .is_some_and(|slot| slot.run.is_some())
                {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                let Some(paused) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.paused.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                self.campaigns.entry(cohort).or_default().run = Some(Campaign::resume(paused));
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            CampaignOp::Status => {
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            CampaignOp::Report => {
                let report = self
                    .campaigns
                    .get(&cohort)
                    .and_then(|slot| slot.run.as_ref())
                    .and_then(CampaignRun::report);
                match report {
                    Some(report) => self.send(conn, Frame::OpReport { cohort, report }),
                    None => self.send_error(conn, ErrorCode::NoCampaign),
                }
            }
        }
    }

    /// Mints the probe requests for one sweep round: every device in a
    /// cohort is challenged with the same round nonce (SEDA-style).
    /// Per-device MAC keys already rule out cross-device replay, the
    /// exchange's pending map drops duplicate replies, and nonces still
    /// only move forward across rounds — so a 1000-device sweep consumes
    /// one nonce per cohort instead of one per device. A cohort whose
    /// mint fails (unprovisioned, nonces exhausted) is skipped once, not
    /// retried per device.
    fn sweep_requests(&self) -> (SweepChallenges, Vec<(DeviceId, Frame)>) {
        let targets = self.registry.lock().expect("registry lock").all();
        let mut round: BTreeMap<WorkloadId, Option<Challenge>> = BTreeMap::new();
        let mut challenges: BTreeMap<DeviceId, (WorkloadId, Challenge)> = BTreeMap::new();
        let mut requests = Vec::with_capacity(targets.len());
        for (device, cohort) in targets {
            let challenge = match round
                .entry(cohort)
                .or_insert_with(|| self.service.challenge_for(cohort).ok())
            {
                Some(challenge) => *challenge,
                None => continue,
            };
            challenges.insert(device, (cohort, challenge));
            requests.push((
                device,
                Frame::ProbeRequest {
                    device,
                    mode: ProbeMode::AttestOnly,
                    smoke_cycles: 0,
                    challenge,
                },
            ));
        }
        (challenges, requests)
    }

    /// The one verification pass behind both operator sweeps: pushes
    /// the round's attest-only probes and verifies every reply in
    /// per-shard batches through the service's trust core — the same
    /// keys, goldens and rule as the in-process verifier. Returns every
    /// challenged device in id order with its verdict and the report it
    /// judged; a lost or shed probe is a failed verification
    /// (`Unverified`, no report), not a silent omission.
    fn sweep_pass(
        &mut self,
        challenges: &SweepChallenges,
        requests: Vec<(DeviceId, Frame)>,
    ) -> Vec<(DeviceId, HealthClass, Option<AttestationReport>)> {
        let replies = self.exchange(requests, ReplyKind::Probe);
        let mut pass: Vec<(DeviceId, HealthClass, Option<AttestationReport>)> = challenges
            .keys()
            .map(|&device| (device, HealthClass::Unverified, None))
            .collect();
        // One batch per shard (one key-shard lock, and a batching
        // provider reuses HMAC schedules), remembering each task's slot.
        let mut shards: Vec<(Vec<usize>, Vec<VerifyTask>)> =
            (0..SHARD_COUNT).map(|_| Default::default()).collect();
        for (slot, (device, (cohort, challenge))) in challenges.iter().enumerate() {
            if let Some(Frame::ProbeResult { report, .. }) = replies.get(device) {
                let (slots, tasks) = &mut shards[shard_of(*device)];
                slots.push(slot);
                tasks.push(VerifyTask {
                    device: *device,
                    cohort: *cohort,
                    issued: *challenge,
                    report: *report,
                });
            }
        }
        for (slots, tasks) in &shards {
            let verdicts = self.service.verify_batch(tasks);
            for ((&slot, task), (class, _)) in slots.iter().zip(tasks).zip(verdicts) {
                pass[slot] = (task.device, class, Some(task.report));
            }
        }
        pass
    }

    /// Gateway-driven sweep: one verification pass over every attached
    /// device, answered with per-device verdicts.
    fn handle_sweep(&mut self, conn: u64) {
        let (challenges, requests) = self.sweep_requests();
        let pass = self.sweep_pass(&challenges, requests);
        let mut counts = [0u32; 4];
        let mut flagged = Vec::new();
        for &(device, class, _) in &pass {
            counts[class_index(class)] += 1;
            if class != HealthClass::Attested {
                flagged.push((device, health_to_wire(class)));
            }
        }
        self.send(
            conn,
            Frame::OpSweepResult {
                devices: pass.len() as u32,
                counts,
                flagged,
            },
        );
    }

    /// Gateway-driven *aggregated* sweep: the same verification pass as
    /// [`handle_sweep`](Self::handle_sweep), but instead of shipping a
    /// per-device verdict list, each shard's evidence is folded into an
    /// [`EvidenceTree`](eilid_casu::EvidenceTree) and published as one
    /// MAC'd [`AggProof`](eilid_casu::AggProof). The operator verifies at
    /// most [`SHARD_COUNT`] aggregate MACs; only non-Attested devices
    /// (and lost probes) appear individually, in the suspect list. Every
    /// per-device report MAC is still verified *here*, at the gateway —
    /// aggregation compresses the operator's work and the result frame,
    /// never the trust checks.
    ///
    /// The sweep epoch is the service's nonce watermark taken before any
    /// challenge is minted: challenge nonces only move forward, so a
    /// replayed aggregate from an earlier sweep can never carry the
    /// current epoch. A participant id span too wide for the result
    /// frame is refused with a typed `Unsupported` before any probe is
    /// pushed.
    fn handle_agg_sweep(&mut self, conn: u64) {
        let epoch = self.service.nonce_watermark();
        let (challenges, requests) = self.sweep_requests();
        let Some((bitmap_base, bitmap)) = participant_bitmap(&challenges) else {
            return self.send_error(conn, ErrorCode::Unsupported);
        };
        let pass = self.sweep_pass(&challenges, requests);

        // The pass is in id order, so every shard's members — and the
        // suspect list — come out in the canonical ascending order.
        let mut counts = [0u32; 4];
        let mut suspects: Vec<(u64, WireHealth)> = Vec::new();
        let mut shards: Vec<Vec<(DeviceId, Option<&AttestationReport>)>> =
            (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        let mut clean = [true; SHARD_COUNT];
        for (device, class, report) in &pass {
            counts[class_index(*class)] += 1;
            if *class != HealthClass::Attested {
                suspects.push((*device, health_to_wire(*class)));
                clean[shard_of(*device)] = false;
            }
            shards[shard_of(*device)].push((*device, report.as_ref()));
        }
        let trust = self.service.trust();
        let mut proofs = Vec::new();
        let mut short_circuited: u64 = 0;
        for (shard, members) in shards.into_iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            if clean[shard] {
                short_circuited += members.len() as u64;
            }
            proofs.push(trust.seal_shard(shard as u16, epoch, members));
        }

        self.metrics.agg_sweeps.inc();
        self.metrics.agg_roots_published.add(proofs.len() as u64);
        self.metrics.agg_suspects.add(suspects.len() as u64);
        self.metrics.agg_short_circuited.add(short_circuited);

        self.send(
            conn,
            Frame::OpAggSweepResult {
                epoch,
                devices: pass.len() as u32,
                counts,
                bitmap_base,
                bitmap,
                proofs,
                suspects,
            },
        );
    }

    /// Pushes one request frame per device and collects the matching
    /// replies. Device-scoped `Busy` sheds are re-pushed after a
    /// bounded exponential backoff that is scheduled *inside* the
    /// event loop (a due-time heap bounds `recv_timeout`), so one busy
    /// device never blocks the thread from draining every other
    /// device's reply. Devices whose connection is gone (or that never
    /// answer within the idle timeout) are simply absent from the
    /// result, which the callers turn into per-device failures.
    fn exchange(
        &mut self,
        requests: Vec<(DeviceId, Frame)>,
        kind: ReplyKind,
    ) -> HashMap<DeviceId, Frame> {
        let mut pending: HashMap<DeviceId, Frame> = HashMap::with_capacity(requests.len());
        let mut replies: HashMap<DeviceId, Frame> = HashMap::with_capacity(requests.len());
        let mut retries: HashMap<DeviceId, usize> = HashMap::new();
        let mut retry_at: BinaryHeap<Reverse<(Instant, DeviceId)>> = BinaryHeap::new();

        // Initial push, one coalesced completions message for the lot.
        let mut batch: Vec<(u64, Frame)> = Vec::with_capacity(requests.len());
        {
            let registry = self.registry.lock().expect("registry lock");
            for (device, frame) in requests {
                let Some(conn) = registry.conn_of(device) else {
                    continue; // unreachable device: absent from replies
                };
                batch.push((conn, frame.clone()));
                pending.insert(device, frame);
            }
        }
        if batch.is_empty() {
            return replies;
        }
        let _ = self.out.send(batch);
        self.waker.wake();

        // The deadline extends on progress: a wave of 1000 devices gets
        // `timeout` of *idle* tolerance, not `timeout` total.
        let mut deadline = Instant::now() + self.timeout;
        while !pending.is_empty() {
            // Re-push every backoff that has come due.
            let now = Instant::now();
            while let Some(&Reverse((when, device))) = retry_at.peek() {
                if when > now {
                    break;
                }
                retry_at.pop();
                let Some(request) = pending.get(&device).cloned() else {
                    continue;
                };
                let conn = self.registry.lock().expect("registry lock").conn_of(device);
                match conn {
                    Some(conn) => {
                        let _ = self.out.send(vec![(conn, request)]);
                        self.waker.wake();
                        deadline = now + self.timeout;
                    }
                    None => {
                        pending.remove(&device);
                    }
                }
            }
            if pending.is_empty() || now >= deadline {
                break;
            }
            let wake_at = retry_at
                .peek()
                .map_or(deadline, |&Reverse((when, _))| deadline.min(when));
            let frames = match self.rx.recv_timeout(wake_at.saturating_duration_since(now)) {
                Ok(EngineInput::Device { frame }) => vec![frame],
                // A reactor pass delivers a whole burst of replies as
                // one message; process them in arrival order.
                Ok(EngineInput::Devices(frames)) => frames,
                // An operator command arriving mid-wave: the engine is
                // single-threaded by design (campaign semantics are
                // strictly wave-ordered), so answer Busy immediately
                // instead of queueing it behind the wave.
                Ok(EngineInput::Operator { conn, .. }) => {
                    self.send_error(conn, ErrorCode::Busy);
                    continue;
                }
                Ok(EngineInput::ConnClosed(_)) => {
                    // Fail-fast every pending device that lost its
                    // connection (the reactor already cleaned the
                    // registry).
                    let registry = self.registry.lock().expect("registry lock");
                    pending.retain(|device, _| registry.conn_of(*device).is_some());
                    continue;
                }
                // A timeout here may just be a backoff coming due; the
                // loop head re-pushes it and the deadline check decides.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // One clock read per burst: progress anywhere in it extends
            // the idle deadline for the whole wave.
            let arrived = Instant::now();
            for frame in frames {
                // A non-retryable device-scoped error (unknown device,
                // refused push) fails that device fast — it must not
                // stall the wave for the idle timeout.
                if let Frame::DeviceError { device, code } = frame {
                    if code != ErrorCode::Busy {
                        if pending.remove(&device).is_some() {
                            deadline = arrived + self.timeout;
                        }
                        continue;
                    }
                    // Satellite fix: a busy shed during a campaign
                    // push is scheduled for a backoff retry, never
                    // counted as a probe failure — and never slept
                    // on: the loop keeps serving other devices.
                    if pending.contains_key(&device) {
                        let attempts = retries.entry(device).or_insert(0);
                        *attempts += 1;
                        self.metrics.engine_busy_retries.inc();
                        if *attempts > ENGINE_BUSY_RETRIES {
                            pending.remove(&device);
                            continue;
                        }
                        retry_at.push(Reverse((arrived + busy_backoff(*attempts), device)));
                    }
                    continue;
                }
                if let Some(device) = kind.device_of(&frame) {
                    if pending.remove(&device).is_some() {
                        replies.insert(device, frame);
                        deadline = arrived + self.timeout;
                    }
                }
            }
        }
        replies
    }

    /// Arms `frame` as `device`'s in-flight exchange and queues it on
    /// the device's connection; a connectionless device is retired on
    /// the spot.
    fn stream_push(
        &self,
        device: DeviceId,
        frame: Frame,
        st: &mut WaveDevice,
        tally: &mut WaveTally,
        outbox: &mut Vec<(u64, Frame)>,
    ) {
        let conn = self.registry.lock().expect("registry lock").conn_of(device);
        match conn {
            Some(conn) => {
                st.attempts = 0;
                st.pushed_at = Instant::now();
                st.in_flight = Some(frame.clone());
                outbox.push((conn, frame));
            }
            None => finish(st, tally),
        }
    }

    /// Authorizes `device`'s wave update off its reported nonce and
    /// pushes it — as sparse delta segments against the cohort golden
    /// when the campaign runs in delta mode, the full image otherwise.
    #[allow(clippy::too_many_arguments)]
    fn stream_update(
        &self,
        device: DeviceId,
        last_nonce: u64,
        spec: &WaveSpec<'_>,
        delta_base: Option<&[u8]>,
        st: &mut WaveDevice,
        tally: &mut WaveTally,
        outbox: &mut Vec<(u64, Frame)>,
    ) {
        let key = self.service.trust().device_key(device);
        let mut authority =
            UpdateAuthority::with_key_resuming(&key, last_nonce + 1).with_version(spec.version);
        let request = authority.authorize(spec.target, spec.payload);
        st.nonce = request.nonce;
        self.metrics
            .update_bytes_full
            .add(spec.payload.len() as u64);
        // Delta encoding only pays when the segments (plus their
        // offset+len framing) undercut the full image — a tiny patch
        // that is all-dirty ships as a plain full-image request.
        let delta = delta_base
            .map(|base| DeltaUpdateRequest::from_full(&request, base))
            .filter(|delta| delta.segments.len() * 8 + delta.delta_bytes() < request.payload.len());
        let frame = match delta {
            Some(delta) => {
                let wire = delta.segments.len() * 8 + delta.delta_bytes();
                self.metrics.update_bytes_wire.add(wire as u64);
                st.fallback = Some(Frame::UpdateRequest { device, request });
                st.phase = WavePhase::Update { delta: true };
                Frame::DeltaUpdateRequest {
                    device,
                    request: delta,
                }
            }
            None => {
                self.metrics
                    .update_bytes_wire
                    .add(request.payload.len() as u64);
                st.phase = WavePhase::Update { delta: false };
                Frame::UpdateRequest { device, request }
            }
        };
        self.stream_push(device, frame, st, tally, outbox);
    }

    /// Mints a cohort challenge and pushes a probe in `mode`,
    /// transitioning the device to `phase`. A mint failure (the cohort
    /// vanished mid-wave) reads as a lost probe.
    #[allow(clippy::too_many_arguments)]
    fn stream_probe(
        &self,
        device: DeviceId,
        mode: ProbeMode,
        phase: WavePhase,
        spec: &WaveSpec<'_>,
        st: &mut WaveDevice,
        tally: &mut WaveTally,
        outbox: &mut Vec<(u64, Frame)>,
    ) {
        let Ok(challenge) = self.service.challenge_for(spec.cohort) else {
            return finish(st, tally);
        };
        st.challenge = Some(challenge);
        st.phase = phase;
        self.stream_push(
            device,
            Frame::ProbeRequest {
                device,
                mode,
                smoke_cycles: spec.smoke_cycles,
                challenge,
            },
            st,
            tally,
            outbox,
        );
    }
}

/// Maps a device-side rejection code back to a representative
/// [`UpdateError`] for the engine's ledger (the device-local field
/// values do not cross the wire).
fn update_error_from_code(code: u8) -> UpdateError {
    match code {
        2 => UpdateError::StaleNonce {
            presented: 0,
            last_accepted: 0,
        },
        3 => UpdateError::TargetOutsidePmem { addr: 0 },
        4 => UpdateError::EmptyPayload,
        5 => UpdateError::RollbackVersion {
            presented: 0,
            current: 0,
        },
        6 => UpdateError::MalformedDelta,
        _ => UpdateError::BadMac,
    }
}

/// Bytes an [`Frame::OpAggSweepResult`] payload spends besides its
/// bitmap, at most: the fixed fields (epoch, device total, four class
/// counts, bitmap base and length, proof and suspect counts), one
/// 70-byte proof per shard, and a 9-byte suspect entry per participant.
fn agg_result_overhead(participants: usize) -> usize {
    48 + 70 * SHARD_COUNT + 9 * participants
}

/// The participant bitmap of an aggregated sweep: bit `id - base` set
/// for every challenged device, so the operator can tell "absent from
/// the fleet" apart from "hidden by a forged aggregate". Device ids are
/// device-controlled (`Frame::Attach` takes any `u64`), so the span is
/// bounded before anything is allocated: `None` when the bitmap would
/// not fit an operator frame beside the rest of the result.
fn participant_bitmap(challenges: &SweepChallenges) -> Option<(u64, Vec<u8>)> {
    let (Some(&base), Some(&last)) = (challenges.keys().next(), challenges.keys().next_back())
    else {
        return Some((0, Vec::new()));
    };
    let len = usize::try_from((last - base) / 8 + 1).ok().filter(|len| {
        len.checked_add(agg_result_overhead(challenges.len()))
            .is_some_and(|total| total <= crate::wire::MAX_OP_PAYLOAD)
    })?;
    let mut bitmap = vec![0u8; len];
    for device in challenges.keys() {
        let bit = device - base;
        bitmap[(bit / 8) as usize] |= 1 << (bit % 8);
    }
    Some((base, bitmap))
}

impl WaveExecutor for OpsEngine {
    fn cohort_info(&mut self, cohort: WorkloadId) -> Result<CohortInfo, FleetError> {
        let members = self
            .registry
            .lock()
            .expect("registry lock")
            .members_of(cohort);
        if members.is_empty() {
            return Err(FleetError::UnknownCohort(cohort));
        }
        let trust = self.service.trust();
        let (golden, layout) = trust
            .with_cohort(cohort, |state| (state.golden.clone(), state.layout.clone()))
            .ok_or(FleetError::UnknownCohort(cohort))?;
        Ok(CohortInfo {
            members,
            golden,
            layout,
            scheme: trust.scheme(),
        })
    }

    fn roll_out(
        &mut self,
        wave: &[DeviceId],
        spec: &WaveSpec<'_>,
    ) -> Result<WaveRollout, FleetError> {
        let wave_started = Instant::now();
        // The delta base: the cohort golden's bytes under the patch
        // range. In-sync devices ship sparse segments; a divergent (or
        // tampered) device's delta rejects device-side and falls back
        // to the full image under the same nonce.
        let delta_base: Option<Vec<u8>> = if spec.delta {
            self.service.trust().with_cohort(spec.cohort, |state| {
                let start = usize::from(spec.target);
                state
                    .golden
                    .slice(start..start + spec.payload.len())
                    .to_vec()
            })
        } else {
            None
        };

        let now = Instant::now();
        let mut states: BTreeMap<DeviceId, WaveDevice> = wave
            .iter()
            .map(|&device| (device, WaveDevice::new(now)))
            .collect();
        let mut queue: VecDeque<DeviceId> = wave.iter().copied().collect();
        // Admission cap: window-of-32 per distinct agent connection.
        let window = {
            let registry = self.registry.lock().expect("registry lock");
            let mut conns: Vec<u64> = wave.iter().filter_map(|&d| registry.conn_of(d)).collect();
            conns.sort_unstable();
            conns.dedup();
            ENGINE_WAVE_WINDOW * conns.len().max(1)
        };
        let mut tally = WaveTally {
            remaining: wave.len(),
            ..WaveTally::default()
        };
        let mut retry_at: BinaryHeap<Reverse<(Instant, DeviceId)>> = BinaryHeap::new();
        // The cohort reference and its smoke verdict, once resolved.
        let mut reference: Option<DeviceId> = None;
        let mut reference_verdict: Option<bool> = None;
        // The deadline extends on progress: the wave is bounded by
        // per-device idleness, not wave size.
        let mut deadline = Instant::now() + self.timeout;

        while tally.remaining > 0 {
            let mut outbox: Vec<(u64, Frame)> = Vec::new();
            let now = Instant::now();
            // Re-push every backoff that has come due; the thread never
            // sleeps through one.
            while let Some(&Reverse((when, device))) = retry_at.peek() {
                if when > now {
                    break;
                }
                retry_at.pop();
                let Some(st) = states.get_mut(&device) else {
                    continue;
                };
                if st.done {
                    continue;
                }
                let Some(frame) = st.in_flight.clone() else {
                    continue;
                };
                let conn = self.registry.lock().expect("registry lock").conn_of(device);
                match conn {
                    Some(conn) => {
                        outbox.push((conn, frame));
                        deadline = now + self.timeout;
                    }
                    None => finish(st, &mut tally),
                }
            }
            // Admit queued devices into freed window slots.
            while tally.live < window {
                let Some(device) = queue.pop_front() else {
                    break;
                };
                let st = states.get_mut(&device).expect("queued device state");
                st.phase = WavePhase::Snapshot;
                tally.live += 1;
                self.stream_push(
                    device,
                    Frame::SnapshotRequest {
                        device,
                        start: spec.target,
                        len: spec.payload.len() as u16,
                    },
                    st,
                    &mut tally,
                    &mut outbox,
                );
            }
            if !outbox.is_empty() {
                let _ = self.out.send(outbox);
                self.waker.wake();
            }
            if tally.remaining == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wake_at = retry_at
                .peek()
                .map_or(deadline, |&Reverse((when, _))| deadline.min(when));
            let first = match self.rx.recv_timeout(wake_at.saturating_duration_since(now)) {
                Ok(input) => input,
                // Possibly just a backoff coming due; the loop head
                // re-pushes it and the deadline check decides.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // Drain the burst that is already queued so one coalesced
            // completions message carries every frame this pass
            // produces. Reactor-batched `Devices` messages flatten into
            // per-frame items in arrival order — processing a
            // ConnClosed ahead of a same-burst reply would misclassify
            // an answered device.
            let mut burst: Vec<EngineInput> = Vec::new();
            let absorb = |burst: &mut Vec<EngineInput>, input: EngineInput| match input {
                EngineInput::Devices(frames) => {
                    burst.extend(
                        frames
                            .into_iter()
                            .map(|frame| EngineInput::Device { frame }),
                    );
                }
                other => burst.push(other),
            };
            absorb(&mut burst, first);
            while burst.len() < 1024 {
                match self.rx.try_recv() {
                    Ok(input) => absorb(&mut burst, input),
                    Err(_) => break,
                }
            }
            let mut outbox: Vec<(u64, Frame)> = Vec::new();
            for input in burst {
                match input {
                    // The engine is single-threaded by design (campaign
                    // semantics are strictly wave-ordered): operator
                    // commands mid-wave answer Busy immediately.
                    EngineInput::Operator { conn, .. } => {
                        self.send_error(conn, ErrorCode::Busy);
                    }
                    EngineInput::ConnClosed(_) => {
                        let registry = self.registry.lock().expect("registry lock");
                        for (&device, st) in states.iter_mut() {
                            if !st.done
                                && st.phase != WavePhase::Queued
                                && registry.conn_of(device).is_none()
                            {
                                finish(st, &mut tally);
                            }
                        }
                    }
                    // Batches were flattened into per-frame items when
                    // the burst was drained above.
                    EngineInput::Devices(_) => {}
                    EngineInput::Device { frame } => match frame {
                        Frame::DeviceError { device, code } => {
                            let Some(st) = states.get_mut(&device) else {
                                continue;
                            };
                            if st.done {
                                continue;
                            }
                            if code != ErrorCode::Busy {
                                // Non-retryable device-scoped error:
                                // fail that device fast.
                                finish(st, &mut tally);
                                deadline = Instant::now() + self.timeout;
                                continue;
                            }
                            // A busy shed is a scheduling signal: arm a
                            // backoff retry and keep draining everyone
                            // else.
                            st.attempts += 1;
                            self.metrics.engine_busy_retries.inc();
                            if st.attempts > ENGINE_BUSY_RETRIES {
                                finish(st, &mut tally);
                            } else {
                                retry_at.push(Reverse((
                                    Instant::now() + busy_backoff(st.attempts),
                                    device,
                                )));
                            }
                        }
                        Frame::SnapshotReport {
                            device,
                            last_nonce,
                            measurement,
                            data,
                            ..
                        } => {
                            let Some(st) = states.get_mut(&device) else {
                                continue;
                            };
                            if st.done || st.phase != WavePhase::Snapshot {
                                continue;
                            }
                            deadline = Instant::now() + self.timeout;
                            self.metrics
                                .phase_snapshot_us
                                .record_duration_us(st.pushed_at.elapsed());
                            st.snapshot = Some(PreUpdateSnapshot {
                                patch_range: data,
                                measurement,
                            });
                            self.stream_update(
                                device,
                                last_nonce,
                                spec,
                                delta_base.as_deref(),
                                st,
                                &mut tally,
                                &mut outbox,
                            );
                        }
                        Frame::UpdateResult { device, status } => {
                            let Some(st) = states.get_mut(&device) else {
                                continue;
                            };
                            if st.done {
                                continue;
                            }
                            let WavePhase::Update { delta } = st.phase else {
                                continue;
                            };
                            deadline = Instant::now() + self.timeout;
                            self.metrics
                                .phase_update_us
                                .record_duration_us(st.pushed_at.elapsed());
                            if status == 0 {
                                st.applied = true;
                                self.stream_probe(
                                    device,
                                    ProbeMode::UpdateAttest,
                                    WavePhase::Attest,
                                    spec,
                                    st,
                                    &mut tally,
                                    &mut outbox,
                                );
                            } else if delta {
                                // The sparse attempt rejected (divergent
                                // or tampered base): fall back to the
                                // full image under the same nonce. Only
                                // the final attempt is ledgered —
                                // bit-for-bit what the in-process
                                // executor records.
                                let frame =
                                    st.fallback.take().expect("delta attempt holds fallback");
                                self.metrics
                                    .update_bytes_wire
                                    .add(spec.payload.len() as u64);
                                st.phase = WavePhase::Update { delta: false };
                                self.stream_push(device, frame, st, &mut tally, &mut outbox);
                            } else {
                                st.rejected = Some(status);
                                finish(st, &mut tally);
                            }
                        }
                        Frame::ProbeResult {
                            device,
                            healthy,
                            report,
                        } => {
                            let Some(st) = states.get_mut(&device) else {
                                continue;
                            };
                            if st.done {
                                continue;
                            }
                            deadline = Instant::now() + self.timeout;
                            self.metrics
                                .phase_probe_us
                                .record_duration_us(st.pushed_at.elapsed());
                            match st.phase {
                                WavePhase::Attest => {
                                    let challenge =
                                        st.challenge.as_ref().expect("attest challenge");
                                    st.attested = self
                                        .service
                                        .trust()
                                        .verify_expecting(
                                            device,
                                            challenge,
                                            &report,
                                            &spec.expected_after,
                                        )
                                        .is_ok();
                                    if healthy == 2 {
                                        // Attest-only reply: no verdict
                                        // of its own; inherit-eligible
                                        // iff its post-update
                                        // measurement checked out.
                                        if !st.attested {
                                            // Measurement mismatch
                                            // never inherits a clean
                                            // verdict.
                                            st.verdict = Some(false);
                                            finish(st, &mut tally);
                                        } else if let Some(verdict) = reference_verdict {
                                            st.verdict = Some(verdict);
                                            tally.memoized += 1;
                                            finish(st, &mut tally);
                                        } else if reference.is_none() {
                                            // First eligible device:
                                            // it becomes the cohort
                                            // reference and runs the
                                            // one real smoke probe.
                                            reference = Some(device);
                                            self.stream_probe(
                                                device,
                                                ProbeMode::UpdateProbe,
                                                WavePhase::Reference,
                                                spec,
                                                st,
                                                &mut tally,
                                                &mut outbox,
                                            );
                                        } else {
                                            // Reference still running:
                                            // the verdict resolves at
                                            // assembly.
                                            st.inherit = true;
                                            tally.memoized += 1;
                                            finish(st, &mut tally);
                                        }
                                    } else {
                                        // A probe-isolated device ran
                                        // its own full probe; its
                                        // verdict is its own.
                                        st.verdict = Some(st.attested && healthy == 1);
                                        tally.executed += 1;
                                        finish(st, &mut tally);
                                    }
                                }
                                WavePhase::Reference => {
                                    let smoke_healthy = healthy != 0;
                                    reference_verdict = Some(smoke_healthy);
                                    st.verdict = Some(st.attested && smoke_healthy);
                                    tally.executed += 1;
                                    finish(st, &mut tally);
                                }
                                _ => {}
                            }
                        }
                        _ => {}
                    },
                }
            }
            if !outbox.is_empty() {
                let _ = self.out.send(outbox);
                self.waker.wake();
            }
        }

        // Compose per-device results in wave (id) order, mirroring the
        // in-process rollout's event sequences exactly. Anything still
        // in flight at deadline expiry is a lost exchange, exactly like
        // the old barrier's absent replies.
        let mut rollout = WaveRollout {
            probes_executed: tally.executed as usize,
            probes_memoized: tally.memoized as usize,
            ..Default::default()
        };
        self.metrics.probes_executed.add(tally.executed);
        self.metrics.probes_memoized.add(tally.memoized);
        for &device in wave {
            let st = &states[&device];
            if let Some(status) = st.rejected {
                rollout.events.push(LedgerEvent::UpdateRejected {
                    device,
                    error: update_error_from_code(status),
                });
                rollout.failures += 1;
                continue;
            }
            if !st.applied {
                // Transport loss before the update applied; the device
                // keeps its old firmware and the wave counts a failure.
                rollout.events.push(LedgerEvent::ProbeFailed { device });
                rollout.failures += 1;
                continue;
            }
            rollout.events.push(LedgerEvent::UpdateApplied {
                device,
                nonce: st.nonce,
            });
            rollout.updated.push(device);
            let snapshot = st.snapshot.clone().expect("applied device has a snapshot");
            rollout.snapshots.insert(device, snapshot);
            let healthy = match st.verdict {
                Some(verdict) => verdict,
                // Inherit-eligible: the reference's verdict, failing
                // closed when the reference probe was lost.
                None if st.inherit => reference_verdict.unwrap_or(false),
                // Probe lost in flight.
                None => false,
            };
            if !healthy {
                rollout.events.push(LedgerEvent::ProbeFailed { device });
                rollout.probe_failed.push(device);
                rollout.failures += 1;
            }
        }
        self.note_wave(wave_started, wave.len());
        Ok(rollout)
    }

    fn roll_back(
        &mut self,
        cohort: WorkloadId,
        ids: &[DeviceId],
        target: u16,
        snapshots: &BTreeMap<DeviceId, PreUpdateSnapshot>,
    ) -> Result<RollbackOutcome, FleetError> {
        // Fresh nonce query (the devices' engines advanced when the
        // campaign update applied).
        let nonce_requests: Vec<(DeviceId, Frame)> = ids
            .iter()
            .map(|&device| {
                (
                    device,
                    Frame::SnapshotRequest {
                        device,
                        start: 0,
                        len: 0,
                    },
                )
            })
            .collect();
        let nonce_replies = self.exchange(nonce_requests, ReplyKind::Snapshot);

        let mut update_requests = Vec::new();
        for &device in ids {
            let Some(Frame::SnapshotReport {
                last_nonce,
                version,
                ..
            }) = nonce_replies.get(&device)
            else {
                continue;
            };
            let Some(snapshot) = snapshots.get(&device) else {
                continue;
            };
            let key = self.service.trust().device_key(device);
            // Re-issue the pre-campaign bytes *at the device's current
            // version*: the monotonic anti-rollback counter refuses
            // anything older, so a sanctioned rollback rides the same
            // version the campaign update advanced the device to.
            let mut authority =
                UpdateAuthority::with_key_resuming(&key, last_nonce + 1).with_version(*version);
            let request = authority.authorize(target, &snapshot.patch_range);
            update_requests.push((device, Frame::UpdateRequest { device, request }));
        }
        let acks = self.exchange(update_requests, ReplyKind::UpdateAck);

        // Verification probes: reboot, then attest; the report's
        // measurement must equal the pre-campaign snapshot's.
        let mut probe_requests = Vec::new();
        let mut probe_challenges: HashMap<DeviceId, Challenge> = HashMap::new();
        for &device in ids {
            if !matches!(
                acks.get(&device),
                Some(Frame::UpdateResult { status: 0, .. })
            ) {
                continue;
            }
            let challenge = self.service.challenge_for(cohort).map_err(|err| {
                FleetError::InvalidCampaign(format!(
                    "gateway cannot mint probe challenges: {err:?}"
                ))
            })?;
            probe_challenges.insert(device, challenge);
            probe_requests.push((
                device,
                Frame::ProbeRequest {
                    device,
                    mode: ProbeMode::RollbackVerify,
                    smoke_cycles: 0,
                    challenge,
                },
            ));
        }
        let probes = self.exchange(probe_requests, ReplyKind::Probe);

        let mut outcome = RollbackOutcome::default();
        for &device in ids {
            let applied = matches!(
                acks.get(&device),
                Some(Frame::UpdateResult { status: 0, .. })
            );
            if !applied {
                // Mirror the in-process path: a rejected (or lost)
                // rollback leaves the device on campaign firmware —
                // operator attention required.
                if let Some(Frame::UpdateResult { status, .. }) = acks.get(&device) {
                    outcome.events.push(LedgerEvent::UpdateRejected {
                        device,
                        error: update_error_from_code(*status),
                    });
                }
                outcome
                    .events
                    .push(LedgerEvent::RollbackIncomplete { device });
                outcome.incomplete.push(device);
                continue;
            }
            let restored = match (probes.get(&device), snapshots.get(&device)) {
                (
                    Some(Frame::ProbeResult { report, .. }),
                    Some(PreUpdateSnapshot { measurement, .. }),
                ) => self
                    .service
                    .trust()
                    .verify_expecting(device, &probe_challenges[&device], report, measurement)
                    .is_ok(),
                _ => false,
            };
            if restored {
                outcome.events.push(LedgerEvent::RolledBack { device });
                outcome.rolled_back.push(device);
            } else {
                outcome
                    .events
                    .push(LedgerEvent::RollbackIncomplete { device });
                outcome.incomplete.push(device);
            }
        }
        Ok(outcome)
    }

    fn promote(
        &mut self,
        cohort: WorkloadId,
        golden: &eilid_msp430::Memory,
        measurement: [u8; 32],
    ) {
        self.service.trust().promote(cohort, golden, measurement);
    }

    fn record(&mut self, events: Vec<LedgerEvent>) {
        for event in events {
            self.ledger.record(event);
        }
    }
}
