//! Pluggable cryptographic backends ([`CryptoProvider`]) for
//! verifier-side bulk crypto.
//!
//! Device-side code keeps calling [`crate::hmac::hmac_sha256`] directly
//! — a 6 KiB-PMEM MCU has no batch to amortize. The *verifier* side
//! (gateway shards sweeping thousands of devices, the aggregation trees
//! of [`crate::agg`]) routes its HMAC and SHA-256 work through a
//! [`CryptoProvider`] so the same sweep code can run on:
//!
//! * [`SoftwareProvider`] — the existing scalar code paths, the
//!   default: every call goes straight to [`crate::sha256::sha256`] /
//!   [`crate::hmac::hmac_sha256`].
//! * [`BatchedProvider`] — identical arithmetic, but the HMAC key
//!   schedule (the ipad/opad midstates, two SHA-256 compressions per
//!   key) is computed once per key and *cloned* per message. Device
//!   keys are stable across sweeps, so on a warm cache the HMAC of a
//!   short message drops from four compressions to two.
//! * [`SimHwProvider`] — a simulated ECC608-style cryptoprocessor
//!   offload: bit-identical outputs computed in software, plus op and
//!   byte counters from which `eilid_hwcost` prices the latency a real
//!   serial-bus secure element would add. The simulation accounts time;
//!   it never sleeps.
//!
//! Every backend is bit-compatible with the scalar implementation: the
//! RFC 4231 vectors and randomized cross-checks below pin
//! `provider.hmac(k, m) == hmac_sha256(k, m)` for all three.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hmac::{hmac_sha256, HmacSchedule, TAG_SIZE};
use crate::sha256::{sha256, DIGEST_SIZE};

/// A backend for the verifier-side hash/MAC workload.
///
/// Implementations MUST be bit-compatible with
/// [`crate::sha256::sha256`] and [`crate::hmac::hmac_sha256`]: a
/// provider changes *where and how fast* the arithmetic runs, never
/// what it computes. Trait objects are used (`Arc<dyn CryptoProvider>`)
/// so a gateway can be provisioned with any backend at run time.
pub trait CryptoProvider: Send + Sync + std::fmt::Debug {
    /// Short stable backend name (`"software"`, `"batched"`,
    /// `"sim-hw"`) — used in benches, metrics and the hwcost table.
    fn name(&self) -> &'static str;

    /// SHA-256 of `data`.
    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE];

    /// `HMAC-SHA256(key, message)`.
    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE];

    /// MACs a batch of messages under one key. Backends with per-key
    /// amortization (the batched key schedule) override this; the
    /// default is the obvious loop.
    fn hmac_batch(&self, key: &[u8], messages: &[&[u8]]) -> Vec<[u8; TAG_SIZE]> {
        messages.iter().map(|m| self.hmac(key, m)).collect()
    }

    /// Hashes a batch of inputs.
    fn sha256_batch(&self, items: &[&[u8]]) -> Vec<[u8; DIGEST_SIZE]> {
        items.iter().map(|i| self.sha256(i)).collect()
    }

    /// Cumulative operation counters, for backends that keep them
    /// (the simulated offload; others report zeros).
    fn stats(&self) -> ProviderStats {
        ProviderStats::default()
    }
}

/// Cumulative operation counters of a [`CryptoProvider`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderStats {
    /// HMAC operations performed.
    pub hmac_ops: u64,
    /// Standalone SHA-256 operations performed.
    pub sha_ops: u64,
    /// Total message bytes processed (HMAC messages + hash inputs).
    pub bytes_processed: u64,
    /// HMAC key schedules served from cache instead of recomputed
    /// (always zero for backends without a schedule cache).
    pub schedules_cached: u64,
}

/// The default backend: the scalar software code paths, unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftwareProvider;

impl CryptoProvider for SoftwareProvider {
    fn name(&self) -> &'static str {
        "software"
    }

    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        sha256(data)
    }

    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
        hmac_sha256(key, message)
    }
}

/// Keeping every device key of a large fleet cached is the point, but a
/// hostile caller cycling arbitrary keys must not grow the cache
/// without bound; past this many schedules the cache resets.
const MAX_CACHED_SCHEDULES: usize = 1 << 16;

/// A backend that amortizes HMAC key schedules across calls.
///
/// The first MAC under a key pays the full four compressions and
/// caches the ipad/opad midstates; every later MAC under the same key
/// (same sweep or a later one — device keys are immutable) clones the
/// midstates and pays only the message compressions. For the 44-byte
/// attestation-report message that halves the compression count.
#[derive(Debug, Default)]
pub struct BatchedProvider {
    schedules: Mutex<HashMap<Vec<u8>, HmacSchedule>>,
    cache_hits: AtomicU64,
}

impl BatchedProvider {
    /// A provider with an empty schedule cache.
    pub fn new() -> Self {
        BatchedProvider::default()
    }

    /// Key schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.schedules.lock().expect("schedule cache lock").len()
    }

    /// MACs served from a cached schedule (the amortization witness).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// The cached (or newly derived and cached) schedule for `key`.
    fn schedule(&self, key: &[u8]) -> HmacSchedule {
        let mut schedules = self.schedules.lock().expect("schedule cache lock");
        if schedules.len() >= MAX_CACHED_SCHEDULES && !schedules.contains_key(key) {
            schedules.clear();
        }
        match schedules.get(key) {
            Some(schedule) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                schedule.clone()
            }
            None => {
                let schedule = HmacSchedule::derive(key);
                schedules.insert(key.to_vec(), schedule.clone());
                schedule
            }
        }
    }
}

impl CryptoProvider for BatchedProvider {
    fn name(&self) -> &'static str {
        "batched"
    }

    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        sha256(data)
    }

    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
        self.schedule(key).mac(message)
    }

    fn hmac_batch(&self, key: &[u8], messages: &[&[u8]]) -> Vec<[u8; TAG_SIZE]> {
        // One cache lookup (one lock acquisition) for the whole batch.
        let schedule = self.schedule(key);
        if !messages.is_empty() {
            // The lookup above counted one hit/miss; the remaining
            // messages all reuse the schedule.
            self.cache_hits
                .fetch_add(messages.len() as u64 - 1, Ordering::Relaxed);
        }
        messages.iter().map(|m| schedule.mac(m)).collect()
    }
}

/// Latency model of a simulated serial-bus secure element, in the style
/// of an ATECC608: a fixed per-command execution-plus-bus cost and a
/// per-byte transfer cost. Defaults follow the ECC608 datasheet's
/// SHA-256 command class (~1.1 ms typical execution) plus I²C transfer
/// at 1 MHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimHwParams {
    /// Fixed cost per offloaded command, in microseconds (command
    /// dispatch + execution + wake/response overhead).
    pub op_micros: f64,
    /// Transfer cost per message byte, in microseconds.
    pub byte_micros: f64,
}

impl SimHwParams {
    /// ECC608-style defaults: 1100 µs per command, 8 bits at 1 MHz
    /// (~1 µs) per transferred byte.
    pub fn ecc608() -> Self {
        SimHwParams {
            op_micros: 1100.0,
            byte_micros: 1.0,
        }
    }
}

impl Default for SimHwParams {
    fn default() -> Self {
        SimHwParams::ecc608()
    }
}

/// A simulated cryptoprocessor offload.
///
/// Outputs are bit-identical to the software path (the "hardware" is
/// simulated by the same arithmetic); what the backend adds is an
/// account of the offloaded work — command and byte counters — that
/// [`SimHwProvider::simulated_micros`] converts into the wall time a
/// real secure element on a serial bus would have spent. `eilid_hwcost`
/// uses exactly this model to price offload against the software and
/// batched backends.
#[derive(Debug, Default)]
pub struct SimHwProvider {
    params: SimHwParams,
    hmac_ops: AtomicU64,
    sha_ops: AtomicU64,
    bytes: AtomicU64,
}

impl SimHwProvider {
    /// A simulated offload with ECC608-style default pricing.
    pub fn new() -> Self {
        SimHwProvider::default()
    }

    /// A simulated offload with explicit pricing.
    pub fn with_params(params: SimHwParams) -> Self {
        SimHwProvider {
            params,
            ..SimHwProvider::default()
        }
    }

    /// The latency model in effect.
    pub fn params(&self) -> SimHwParams {
        self.params
    }

    /// Total microseconds the modelled hardware would have spent on the
    /// work counted so far.
    pub fn simulated_micros(&self) -> f64 {
        let ops =
            (self.hmac_ops.load(Ordering::Relaxed) + self.sha_ops.load(Ordering::Relaxed)) as f64;
        let bytes = self.bytes.load(Ordering::Relaxed) as f64;
        ops * self.params.op_micros + bytes * self.params.byte_micros
    }

    fn account(&self, counter: &AtomicU64, bytes: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl CryptoProvider for SimHwProvider {
    fn name(&self) -> &'static str {
        "sim-hw"
    }

    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        self.account(&self.sha_ops, data.len());
        sha256(data)
    }

    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
        self.account(&self.hmac_ops, message.len());
        hmac_sha256(key, message)
    }

    fn stats(&self) -> ProviderStats {
        ProviderStats {
            hmac_ops: self.hmac_ops.load(Ordering::Relaxed),
            sha_ops: self.sha_ops.load(Ordering::Relaxed),
            bytes_processed: self.bytes.load(Ordering::Relaxed),
            schedules_cached: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn providers() -> Vec<Box<dyn CryptoProvider>> {
        vec![
            Box::new(SoftwareProvider),
            Box::new(BatchedProvider::new()),
            Box::new(SimHwProvider::new()),
        ]
    }

    #[test]
    fn all_backends_pin_rfc4231_case_2() {
        for provider in providers() {
            let tag = provider.hmac(b"Jefe", b"what do ya want for nothing?");
            assert_eq!(
                hex(&tag),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                "backend {}",
                provider.name()
            );
        }
    }

    #[test]
    fn all_backends_match_scalar_paths_across_key_and_message_shapes() {
        // Key lengths straddle the block size (the hash-down path) and
        // messages straddle compression boundaries.
        let keys: Vec<Vec<u8>> = [0usize, 1, 16, 63, 64, 65, 131]
            .iter()
            .map(|&n| (0..n).map(|i| i as u8).collect())
            .collect();
        let messages: Vec<Vec<u8>> = [0usize, 1, 44, 55, 56, 64, 100, 257]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7) as u8).collect())
            .collect();
        for provider in providers() {
            for key in &keys {
                for message in &messages {
                    assert_eq!(
                        provider.hmac(key, message),
                        hmac_sha256(key, message),
                        "backend {} diverged (key {} bytes, message {} bytes)",
                        provider.name(),
                        key.len(),
                        message.len()
                    );
                    assert_eq!(provider.sha256(message), sha256(message));
                }
            }
        }
    }

    #[test]
    fn batched_provider_amortizes_key_schedules() {
        let provider = BatchedProvider::new();
        let _ = provider.hmac(b"stable-device-key", b"first");
        assert_eq!(provider.cached_schedules(), 1);
        assert_eq!(provider.cache_hits(), 0);
        let _ = provider.hmac(b"stable-device-key", b"second");
        assert_eq!(provider.cached_schedules(), 1);
        assert_eq!(provider.cache_hits(), 1);

        let messages: Vec<&[u8]> = vec![b"a", b"b", b"c"];
        let batch = provider.hmac_batch(b"stable-device-key", &messages);
        assert_eq!(batch[0], hmac_sha256(b"stable-device-key", b"a"));
        assert_eq!(provider.cache_hits(), 4);
    }

    #[test]
    fn batched_hmac_batch_matches_singles() {
        let provider = BatchedProvider::new();
        let messages: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; i]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let tags = provider.hmac_batch(b"k", &refs);
        for (message, tag) in messages.iter().zip(&tags) {
            assert_eq!(*tag, hmac_sha256(b"k", message));
        }
    }

    #[test]
    fn sim_hw_provider_accounts_offloaded_work() {
        let provider = SimHwProvider::with_params(SimHwParams {
            op_micros: 1000.0,
            byte_micros: 1.0,
        });
        let _ = provider.hmac(b"key", &[0u8; 44]);
        let _ = provider.sha256(&[0u8; 6]);
        let stats = provider.stats();
        assert_eq!(stats.hmac_ops, 1);
        assert_eq!(stats.sha_ops, 1);
        assert_eq!(stats.bytes_processed, 50);
        // 2 ops * 1000 µs + 50 bytes * 1 µs.
        assert!((provider.simulated_micros() - 2050.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_cache_is_bounded() {
        let provider = BatchedProvider::new();
        // Far below the real bound, but exercises the reset path by
        // constructing at the boundary directly.
        let mut schedules = provider.schedules.lock().unwrap();
        for i in 0..8 {
            schedules.insert(vec![i], HmacSchedule::derive(&[i]));
        }
        drop(schedules);
        assert_eq!(provider.cached_schedules(), 8);
        assert!(provider.cached_schedules() <= MAX_CACHED_SCHEDULES);
    }
}
