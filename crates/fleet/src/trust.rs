//! The trust core: the one place a verifier-side trust decision is made.
//!
//! EILID inherits CASU's verifier contract: for every device the
//! operator decides exactly one thing — is the report MAC'd under that
//! device's key, and is its measurement the golden one? [`TrustCore`]
//! holds everything that decision needs — the fleet root key, the
//! per-cohort goldens ([`CohortSnapshot`]), a [`SHARD_COUNT`]-sharded
//! derive-once device-key cache and the [`CryptoProvider`] every MAC
//! and hash runs on — and is the only code that derives a verifier-side
//! key, builds an [`AttestationVerifier`], classifies a report or
//! promotes a golden.
//!
//! The in-process [`Verifier`](crate::Verifier) and the networked
//! gateway's `AttestationService` each own one `TrustCore`, so a sweep,
//! an aggregated sweep, a campaign probe and a rollback check judge a
//! report identically wherever they run. Verification happens in a
//! [`TrustPass`]: one read of the goldens and at most one key-shard lock
//! held at a time, re-taken only when the shard changes.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use eilid_casu::agg::{evidence_leaf, missing_leaf, shard_agg_key, AggProof, EvidenceTree};
use eilid_casu::{
    AttestError, AttestationReport, AttestationVerifier, Challenge, CryptoProvider, DeviceKey,
    MeasurementScheme, MemoryLayout,
};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::device::DeviceId;
use crate::report::HealthClass;

/// Number of key-cache (and sweep) shards.
///
/// Deliberately **independent of the worker-thread count** and fixed for
/// a trust core's lifetime: devices map to shards by `id % SHARD_COUNT`
/// forever, so changing the sweep parallelism between sweeps re-routes
/// shards to workers but can never orphan a cached key.
pub const SHARD_COUNT: usize = 16;

/// The shard `device` belongs to.
pub fn shard_of(device: DeviceId) -> usize {
    (device % SHARD_COUNT as u64) as usize
}

/// A challenge over the application PMEM range of `layout`.
pub fn pmem_challenge(layout: &MemoryLayout, nonce: u64) -> Challenge {
    Challenge {
        nonce,
        start: *layout.pmem.start(),
        end: *layout.pmem.end(),
    }
}

/// One cohort's golden state: the layout its devices attest over, the
/// current measurement, every previous still-authentic ("stale")
/// measurement, and the golden memory image itself — what a campaign
/// patches (on a copy) to compute the expected post-update measurement,
/// and promotes on completion.
#[derive(Debug, Clone)]
pub struct CohortSnapshot {
    /// Layout the cohort's devices attest over.
    pub layout: MemoryLayout,
    /// The current golden measurement.
    pub current: [u8; 32],
    /// Previous still-authentic measurements ("stale").
    pub previous: Vec<[u8; 32]>,
    /// The golden memory image.
    pub golden: Memory,
}

impl CohortSnapshot {
    /// The classification rule: a report that failed verification is
    /// `Unverified`; a verified one is `Attested` on the current golden,
    /// `Stale` on a previous one and `Tampered` otherwise.
    /// Allocation-free — it runs once per verified report.
    pub fn classify(
        &self,
        verified: Result<(), AttestError>,
        measurement: &[u8; 32],
    ) -> (HealthClass, Option<AttestError>) {
        match verified {
            Err(error) => (HealthClass::Unverified, Some(error)),
            Ok(()) if *measurement == self.current => (HealthClass::Attested, None),
            Ok(()) if self.previous.contains(measurement) => (HealthClass::Stale, None),
            Ok(()) => (
                HealthClass::Tampered,
                Some(AttestError::UnexpectedMeasurement),
            ),
        }
    }
}

/// One shard of the device-key cache.
#[derive(Debug, Clone, Default)]
struct ShardKeys {
    /// Device keys derived once from the fleet root, then reused.
    keys: HashMap<DeviceId, DeviceKey>,
    /// Derivations this shard ever performed — each device key is
    /// derived exactly once, so this always equals `keys.len()`.
    derivations: u64,
}

impl ShardKeys {
    /// The cached (or newly derived and cached) key of `device`.
    fn key(&mut self, root: &DeviceKey, device: DeviceId) -> &DeviceKey {
        let derivations = &mut self.derivations;
        self.keys.entry(device).or_insert_with(|| {
            *derivations += 1;
            root.derive(device)
        })
    }
}

/// The verifier-side trust state and the one verification rule. Thread
/// safe: passes on different shards run concurrently, goldens are read
/// under a shared lock and written only by [`TrustCore::promote`].
#[derive(Debug)]
pub struct TrustCore {
    root: DeviceKey,
    scheme: MeasurementScheme,
    cohorts: RwLock<BTreeMap<WorkloadId, CohortSnapshot>>,
    shards: Vec<Mutex<ShardKeys>>,
    provider: Arc<dyn CryptoProvider>,
}

impl Clone for TrustCore {
    fn clone(&self) -> Self {
        TrustCore {
            root: self.root.clone(),
            scheme: self.scheme,
            cohorts: RwLock::new(self.cohorts()),
            shards: self
                .shards
                .iter()
                .map(|shard| Mutex::new(shard.lock().expect("key shard lock").clone()))
                .collect(),
            provider: Arc::clone(&self.provider),
        }
    }
}

impl TrustCore {
    /// A trust core over `cohorts`' goldens with an empty key cache.
    pub fn new(
        root: DeviceKey,
        scheme: MeasurementScheme,
        cohorts: BTreeMap<WorkloadId, CohortSnapshot>,
        provider: Arc<dyn CryptoProvider>,
    ) -> Self {
        TrustCore {
            root,
            scheme,
            cohorts: RwLock::new(cohorts),
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            provider,
        }
    }

    /// The fleet root key.
    pub(crate) fn root(&self) -> &DeviceKey {
        &self.root
    }

    /// The measurement scheme reports are verified under.
    pub fn scheme(&self) -> MeasurementScheme {
        self.scheme
    }

    /// The crypto backend every MAC and hash of this core runs on.
    pub fn provider(&self) -> &Arc<dyn CryptoProvider> {
        &self.provider
    }

    /// Swaps the crypto backend. Backends are bit-compatible, so this
    /// changes cost, never verdicts.
    pub fn set_provider(&mut self, provider: Arc<dyn CryptoProvider>) {
        self.provider = provider;
    }

    /// The (cached) key of `device`, derived once ever from the root.
    pub fn device_key(&self, device: DeviceId) -> DeviceKey {
        self.shards[shard_of(device)]
            .lock()
            .expect("key shard lock")
            .key(&self.root, device)
            .clone()
    }

    /// Device keys currently cached across all shards.
    pub fn cached_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("key shard lock").keys.len())
            .sum()
    }

    /// Key derivations ever performed; equals [`TrustCore::cached_keys`]
    /// because each device key is derived exactly once.
    pub fn key_derivations(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("key shard lock").derivations)
            .sum()
    }

    /// Runs `read` on `cohort`'s golden state, if the cohort is enrolled.
    pub fn with_cohort<R>(
        &self,
        cohort: WorkloadId,
        read: impl FnOnce(&CohortSnapshot) -> R,
    ) -> Option<R> {
        self.cohorts
            .read()
            .expect("cohort lock")
            .get(&cohort)
            .map(read)
    }

    /// A copy of every cohort's golden state.
    pub fn cohorts(&self) -> BTreeMap<WorkloadId, CohortSnapshot> {
        self.cohorts.read().expect("cohort lock").clone()
    }

    /// Promotes `measurement` (taken over `golden`) to `cohort`'s current
    /// golden state, demoting the old measurement to "stale but
    /// authentic".
    pub fn promote(&self, cohort: WorkloadId, golden: &Memory, measurement: [u8; 32]) {
        let mut cohorts = self.cohorts.write().expect("cohort lock");
        if let Some(snapshot) = cohorts.get_mut(&cohort) {
            if snapshot.current != measurement {
                let old = snapshot.current;
                snapshot.previous.push(old);
                snapshot.current = measurement;
                snapshot.golden = golden.clone();
            }
        }
    }

    /// Opens a verification pass. Hold it for a batch of reports, not
    /// across a golden promotion on the same thread.
    pub fn pass(&self) -> TrustPass<'_> {
        TrustPass {
            core: self,
            cohorts: self.cohorts.read().expect("cohort lock"),
            held: None,
        }
    }

    /// Checks a report against the issued challenge and an explicit
    /// expected measurement (campaign probes and rollback checks, which
    /// judge against a post-patch or pre-campaign state, not the cohort
    /// golden).
    ///
    /// # Errors
    ///
    /// The first check that failed.
    pub fn verify_expecting(
        &self,
        device: DeviceId,
        issued: &Challenge,
        report: &AttestationReport,
        expected: &[u8; 32],
    ) -> Result<(), AttestError> {
        let mut shard = self.shards[shard_of(device)]
            .lock()
            .expect("key shard lock");
        AttestationVerifier::with_key(shard.key(&self.root, device)).verify_with(
            &*self.provider,
            issued,
            report,
            Some(expected),
        )
    }

    /// The aggregation key of `shard`, derived from the root under the
    /// shard-key domain tag.
    pub fn agg_shard_key(&self, shard: u16) -> [u8; 32] {
        shard_agg_key(&*self.provider, self.root.as_bytes(), shard)
    }

    /// Folds one shard's evidence — `(device, report)` in ascending id
    /// order, `None` for a device whose report never arrived — into an
    /// evidence tree and signs its root for `epoch`.
    pub fn seal_shard<'r>(
        &self,
        shard: u16,
        epoch: u64,
        evidence: impl IntoIterator<Item = (DeviceId, Option<&'r AttestationReport>)>,
    ) -> AggProof {
        let provider = &*self.provider;
        let leaves: Vec<[u8; 32]> = evidence
            .into_iter()
            .map(|(device, report)| match report {
                Some(report) => evidence_leaf(provider, device, report),
                None => missing_leaf(provider, device),
            })
            .collect();
        let tree = EvidenceTree::from_leaves(provider, &leaves);
        AggProof::sign(
            provider,
            &self.agg_shard_key(shard),
            shard,
            epoch,
            leaves.len() as u32,
            tree.root(),
        )
    }
}

/// An open verification pass over a [`TrustCore`]: the goldens stay
/// read-locked for the pass, and the key shard of the last verified
/// device stays locked until a device of another shard comes along
/// (runs of same-shard reports — the common case by construction — cost
/// one lock). The old shard guard always drops before the next is
/// taken, so concurrent passes can never deadlock on two shards.
#[derive(Debug)]
pub struct TrustPass<'a> {
    core: &'a TrustCore,
    cohorts: RwLockReadGuard<'a, BTreeMap<WorkloadId, CohortSnapshot>>,
    held: Option<(usize, MutexGuard<'a, ShardKeys>)>,
}

impl TrustPass<'_> {
    /// Verifies one report under `device`'s cached key and classifies
    /// it against `cohort`'s goldens. A cohort the core never enrolled
    /// leaves nothing to verify against: `Unverified`, no error, and no
    /// key is derived.
    pub fn verify(
        &mut self,
        device: DeviceId,
        cohort: WorkloadId,
        issued: &Challenge,
        report: &AttestationReport,
    ) -> (HealthClass, Option<AttestError>) {
        let Some(golden) = self.cohorts.get(&cohort) else {
            return (HealthClass::Unverified, None);
        };
        let shard = shard_of(device);
        if self.held.as_ref().map(|(index, _)| *index) != Some(shard) {
            drop(self.held.take());
            let guard = self.core.shards[shard].lock().expect("key shard lock");
            self.held = Some((shard, guard));
        }
        let (_, keys) = self.held.as_mut().expect("shard guard held");
        let verified = AttestationVerifier::with_key(keys.key(&self.core.root, device))
            .verify_with(&*self.core.provider, issued, report, None);
        golden.classify(verified, &report.measurement)
    }
}
