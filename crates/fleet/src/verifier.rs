//! The fleet verifier: attestation sweeps on scoped threads
//! ([`parallel_map_mut`], one task per non-empty shard), judged by the
//! verifier's [`TrustCore`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eilid_casu::{
    AttestationReport, CryptoProvider, DeviceKey, MeasurementScheme, SoftwareProvider,
};
use eilid_workloads::WorkloadId;

use crate::device::{DeviceId, SimDevice};
use crate::exec::parallel_map_mut;
use crate::fleet::Fleet;
use crate::ops::{class_index, AggSweepSummary, SweepSummary};
use crate::report::{DeviceHealth, FleetReport, HealthClass, LedgerEvent};
use crate::trust::{pmem_challenge, shard_of, CohortSnapshot, TrustCore, SHARD_COUNT};

/// One shard's share of a verification pass: every verdict with the
/// report it judged, in ascending device-id order (the canonical leaf
/// order every aggregator must agree on).
#[derive(Debug)]
struct ShardPass {
    shard: u16,
    checked: Vec<(DeviceHealth, AttestationReport)>,
}

/// Exportable, self-contained snapshot of the verifier's trust state —
/// what the `eilid_net` attestation gateway is provisioned with. The
/// snapshot carries its own reserved block of the verifier's challenge
/// nonce domain, so networked challenges can never collide with
/// in-process sweep challenges.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// The fleet root key (device keys are derived from it).
    pub root: DeviceKey,
    /// The measurement scheme reports are verified under.
    pub scheme: MeasurementScheme,
    /// Per-cohort golden state.
    pub cohorts: BTreeMap<WorkloadId, CohortSnapshot>,
    /// First nonce of the block reserved for this snapshot.
    pub nonce_base: u64,
    /// Number of nonces reserved (exclusive upper bound is
    /// `nonce_base + nonce_span`).
    pub nonce_span: u64,
}

/// The trusted fleet verifier.
///
/// Owns the fleet's [`TrustCore`] (root key, goldens, the sharded
/// derive-once key cache, the crypto backend), the challenge nonce
/// state, and the number of threads sweeps run on.
#[derive(Debug, Clone)]
pub struct Verifier {
    trust: TrustCore,
    threads: usize,
    next_nonce: u64,
}

impl Verifier {
    /// Enrolls a fleet: records each cohort's golden measurement (under
    /// the fleet's measurement scheme, over the layout the cohort's
    /// devices were actually built with), measuring the cohorts on the
    /// fleet's threads; sweeps run on as many threads as the fleet.
    pub(crate) fn enroll(root: DeviceKey, fleet: &Fleet) -> Self {
        let scheme = fleet.scheme();
        // Besides spreading the golden hashing, spawning the fleet's
        // threads here, after the devices are allocated, keeps glibc from
        // returning a dropped fleet's heap to the OS before the next build
        // re-faults it: without it, rebuilding a 10k-device fleet took 2x
        // as long.
        let mut ids = fleet.cohort_ids();
        let goldens = parallel_map_mut(&mut ids, fleet.threads(), |cohort| {
            let state = fleet.cohort(*cohort).expect("cohort exists");
            CohortSnapshot {
                layout: state.layout.clone(),
                current: scheme.measure_pmem(&state.golden, &state.layout),
                previous: Vec::new(),
                golden: state.golden.clone(),
            }
        });
        let cohorts = ids.into_iter().zip(goldens).collect();
        Verifier {
            trust: TrustCore::new(root, scheme, cohorts, Arc::new(SoftwareProvider)),
            threads: fleet.threads(),
            next_nonce: 1,
        }
    }

    /// The verifier's trust core.
    pub(crate) fn trust(&self) -> &TrustCore {
        &self.trust
    }

    /// Routes the verifier's crypto through `provider`. Backends are
    /// bit-compatible, so this changes cost, never verdicts.
    pub fn set_provider(&mut self, provider: Arc<dyn CryptoProvider>) {
        self.trust.set_provider(provider);
    }

    /// The crypto backend sweeps run on.
    pub fn provider(&self) -> &Arc<dyn CryptoProvider> {
        self.trust.provider()
    }

    /// Re-derives the key of `device` from the fleet root.
    pub fn device_key(&self, device: DeviceId) -> DeviceKey {
        self.trust.root().derive(device)
    }

    /// The measurement scheme this verifier checks reports against.
    pub fn scheme(&self) -> MeasurementScheme {
        self.trust.scheme()
    }

    /// Number of device keys currently cached across all shards.
    pub fn cached_keys(&self) -> usize {
        self.trust.cached_keys()
    }

    /// Total key derivations ever performed. With stable shards this
    /// equals [`Verifier::cached_keys`] no matter how often the
    /// parallelism changes — each device key is derived exactly once.
    pub fn key_derivations(&self) -> u64 {
        self.trust.key_derivations()
    }

    /// Number of threads sweeps run on.
    pub fn parallelism(&self) -> usize {
        self.threads
    }

    /// Changes the number of threads sweeps run on (at least 1). The
    /// stable shard set (and every cached key in it) is untouched: only
    /// the shard→thread split changes, so resizing between sweeps never
    /// costs a re-derivation.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The current golden measurement for `cohort`.
    pub fn expected_measurement(&self, cohort: WorkloadId) -> Option<[u8; 32]> {
        self.trust.with_cohort(cohort, |golden| golden.current)
    }

    /// Exports a self-contained [`ServiceSnapshot`] for a networked
    /// attestation gateway, reserving `nonce_span` nonces from the
    /// verifier's single strictly increasing challenge-nonce domain so
    /// gateway challenges and in-process sweep challenges can never
    /// collide on a device key.
    pub fn service_snapshot(&mut self, nonce_span: u64) -> ServiceSnapshot {
        let nonce_base = self.next_nonce;
        self.next_nonce += nonce_span;
        ServiceSnapshot {
            root: self.trust.root().clone(),
            scheme: self.trust.scheme(),
            cohorts: self.trust.cohorts(),
            nonce_base,
            nonce_span,
        }
    }

    /// Reserves challenge nonces for the devices in `ids` and returns a
    /// base such that `base + id` is a never-before-issued nonce for
    /// every listed id. All attestation challenges for the fleet —
    /// sweeps and campaign post-update probes alike — MUST allocate
    /// through this one strictly increasing domain, so no two challenges
    /// to the same device key can ever share a nonce.
    pub(crate) fn reserve_challenge_nonces(&mut self, ids: &[DeviceId]) -> u64 {
        // Span to the max id so `base + id` is unique even for a sparse
        // subset of high device ids.
        let span = ids.iter().copied().max().unwrap_or(0) + 1;
        let base = self.next_nonce;
        self.next_nonce += span;
        base
    }

    /// Challenges, verifies and classifies one shard's devices in one
    /// [`TrustPass`](crate::TrustPass). Only keys (immutable per device)
    /// are cached; classification always uses the fresh report.
    fn check_shard(
        trust: &TrustCore,
        shard: usize,
        targets: &mut [&mut SimDevice],
        nonce_base: u64,
    ) -> ShardPass {
        let mut pass = trust.pass();
        let checked = targets
            .iter_mut()
            .map(|device| {
                // Offset nonces so no two devices ever share one.
                let challenge = pmem_challenge(device.device().layout(), nonce_base + device.id());
                let report = device.attest(challenge);
                let (class, error) = pass.verify(device.id(), device.cohort(), &challenge, &report);
                let health = DeviceHealth {
                    device: device.id(),
                    cohort: device.cohort(),
                    class,
                    error,
                };
                (health, report)
            })
            .collect();
        ShardPass {
            shard: shard as u16,
            checked,
        }
    }

    /// Partitions `targets` into the stable shards (`id % SHARD_COUNT`):
    /// the non-empty ones in ascending shard order, each in ascending id
    /// order.
    fn partition(targets: Vec<&mut SimDevice>) -> Vec<(usize, Vec<&mut SimDevice>)> {
        let mut shards: Vec<Vec<&mut SimDevice>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for device in targets {
            shards[shard_of(device.id())].push(device);
        }
        shards
            .into_iter()
            .enumerate()
            .filter(|(_, targets)| !targets.is_empty())
            .map(|(shard, mut targets)| {
                targets.sort_by_key(|device| device.id());
                (shard, targets)
            })
            .collect()
    }

    /// The one verification pass behind every sweep flavour: challenges
    /// each device in `ids` under a freshly reserved nonce block and
    /// judges its report. [`parallel_map_mut`] checks the non-empty
    /// shards on up to [`Verifier::parallelism`] threads, each shard on
    /// one thread under one [`TrustPass`](crate::TrustPass) (one thread
    /// runs them inline — deterministic and profiler-friendly). Returns
    /// the nonce base, which aggregated sweeps use as their epoch, the
    /// per-shard results in ascending shard order, and the time the
    /// shard checks took.
    fn verify_pass(
        &mut self,
        fleet: &mut Fleet,
        ids: &[DeviceId],
    ) -> (u64, Vec<ShardPass>, Duration) {
        let nonce_base = self.reserve_challenge_nonces(ids);
        let trust = &self.trust;
        let mut shards = Self::partition(fleet.devices_by_ids_mut(ids));
        let started = Instant::now();
        let passes = parallel_map_mut(&mut shards, self.threads, |(shard, targets)| {
            Self::check_shard(trust, *shard, targets, nonce_base)
        });
        (nonce_base, passes, started.elapsed())
    }

    /// Flattens a pass over `ids` into a [`FleetReport`] (id order) and
    /// records every flagged device in the fleet ledger. Ids that
    /// matched no device were never challenged; they are surfaced as
    /// `missing` rather than letting the report silently shrink.
    fn report(
        fleet: &mut Fleet,
        ids: &[DeviceId],
        passes: Vec<ShardPass>,
        elapsed: Duration,
        threads: usize,
    ) -> FleetReport {
        let mut healths: Vec<DeviceHealth> = passes
            .into_iter()
            .flat_map(|pass| pass.checked.into_iter().map(|(health, _)| health))
            .collect();
        // Shard partitioning interleaves ids; reports stay in id order.
        healths.sort_by_key(|h| h.device);
        let missing = ids
            .iter()
            .copied()
            .filter(|id| healths.binary_search_by_key(id, |h| h.device).is_err())
            .collect();
        for health in &healths {
            if health.class != HealthClass::Attested {
                fleet.ledger_mut().record(LedgerEvent::AttestationFlagged {
                    device: health.device,
                    class: health.class,
                });
            }
        }
        FleetReport {
            devices: healths,
            missing,
            elapsed,
            threads,
            scheme: fleet.scheme(),
        }
    }

    /// Issues one batched attestation sweep across the whole fleet.
    ///
    /// Every device gets a fresh challenge over its full application PMEM
    /// range. Devices are partitioned into stable shards by
    /// `id % SHARD_COUNT` and each non-empty shard is checked on one
    /// thread under its key-cache shard, so keys are derived once per
    /// device *ever*, not once per sweep. Flagged devices are recorded
    /// in the fleet ledger.
    pub fn sweep(&mut self, fleet: &mut Fleet) -> FleetReport {
        let ids: Vec<DeviceId> = fleet.devices().iter().map(|d| d.id()).collect();
        self.sweep_devices(fleet, &ids)
    }

    /// Issues a batched attestation sweep over a subset of devices.
    ///
    /// Shard assignment is `id % SHARD_COUNT` — stable across sweeps
    /// (and parallelism changes) so key caches keep hitting, and evenly
    /// balanced for dense id sets (the whole-fleet sweep). The report's
    /// `threads` field records the threads that actually checked shards
    /// — `min(parallelism, non-empty shards)` — not the configured
    /// count.
    pub fn sweep_devices(&mut self, fleet: &mut Fleet, ids: &[DeviceId]) -> FleetReport {
        let (_, passes, elapsed) = self.verify_pass(fleet, ids);
        let threads = self.threads.min(passes.len()).max(1);
        Self::report(fleet, ids, passes, elapsed, threads)
    }

    /// Issues one *aggregated* attestation sweep across the whole
    /// fleet.
    ///
    /// Trust semantics are identical to [`Verifier::sweep`] — it is the
    /// same verification pass — but the evidence is folded into one
    /// signed aggregate root per shard, and an all-clean shard
    /// short-circuits per-device verdict assembly: the operator-side
    /// check verifies at most [`SHARD_COUNT`] aggregate root MACs,
    /// descending to per-device verdicts only for the suspects each
    /// shard reports.
    pub fn sweep_aggregated(&mut self, fleet: &mut Fleet) -> AggSweepSummary {
        let ids: Vec<DeviceId> = fleet.devices().iter().map(|d| d.id()).collect();
        self.sweep_devices_aggregated(fleet, &ids)
    }

    /// Aggregated sweep over a subset of devices (see
    /// [`Verifier::sweep_aggregated`]). The sweep's reserved
    /// challenge-nonce base doubles as the aggregation **epoch** —
    /// strictly increasing, so no aggregate proof can be replayed into
    /// a later sweep.
    pub fn sweep_devices_aggregated(
        &mut self,
        fleet: &mut Fleet,
        ids: &[DeviceId],
    ) -> AggSweepSummary {
        let (epoch, passes, _) = self.verify_pass(fleet, ids);
        let provider = &**self.trust.provider();
        let mut summary = SweepSummary {
            devices: 0,
            counts: [0; 4],
            flagged: Vec::new(),
        };
        let mut shard_roots = Vec::with_capacity(passes.len());
        let mut short_circuited = 0usize;
        for pass in &passes {
            let proof = self.trust.seal_shard(
                pass.shard,
                epoch,
                pass.checked
                    .iter()
                    .map(|(health, report)| (health.device, Some(report))),
            );
            // Operator-side assembly: one MAC verification per shard
            // aggregate covers its whole clean population; per-device
            // verdicts are assembled only from the suspects.
            assert!(
                proof.verify(provider, &self.trust.agg_shard_key(pass.shard)),
                "shard {} aggregate root failed verification",
                pass.shard
            );
            let before = summary.flagged.len();
            for (health, _) in &pass.checked {
                summary.counts[class_index(health.class)] += 1;
                if health.class != HealthClass::Attested {
                    summary.flagged.push((health.device, health.class));
                }
            }
            if summary.flagged.len() == before {
                short_circuited += pass.checked.len();
            }
            summary.devices += pass.checked.len();
            shard_roots.push((pass.shard, proof.root));
        }
        summary.flagged.sort_by_key(|(id, _)| *id);
        for (device, class) in &summary.flagged {
            fleet.ledger_mut().record(LedgerEvent::AttestationFlagged {
                device: *device,
                class: *class,
            });
        }
        AggSweepSummary {
            summary,
            epoch,
            shards: passes.len(),
            roots_verified: passes.len(),
            short_circuited,
            fleet_root: eilid_casu::agg::fleet_root(provider, &shard_roots),
            shard_roots,
        }
    }
}
