//! Cost model for the pluggable [`CryptoProvider`](eilid_casu::CryptoProvider)
//! backends.
//!
//! The collective-attestation verifier routes its bulk hash/MAC work
//! through a [`CryptoProvider`](eilid_casu::CryptoProvider); this
//! module prices a sweep's crypto under each backend the same way
//! [`crate::model`] prices the monitor: structurally, from operation
//! counts, with per-component costs calibrated against the published
//! figures the simulation follows (SHA-256 compression counts for the
//! software paths, the ECC608 datasheet command model for the offload).
//!
//! Two workload shapes are priced:
//!
//! * a **per-device sweep** — one report-MAC verification per device,
//!   and the operator re-verifies nothing (the gateway ships per-device
//!   verdicts);
//! * an **aggregated sweep** — the gateway additionally folds evidence
//!   leaves into per-shard trees and MACs one root per shard, and the
//!   operator verifies at most `shards` root MACs instead of trusting
//!   per-device verdicts.
//!
//! The aggregation overhead (leaves + nodes + root MACs) and the
//! operator-side saving (`devices` → `shards` verifications) both fall
//! out of the counts, so the rendered matrix doubles as the "is the
//! tree worth it" calculation at any fleet size.

use serde::{Deserialize, Serialize};

use eilid_casu::SimHwParams;

/// SHA-256 compressions to hash a `len`-byte message (9 bytes of
/// mandatory padding, 64-byte blocks).
pub fn sha_compressions(len: u64) -> u64 {
    (len + 9).div_ceil(64)
}

/// Bytes of the attestation-report MAC message (domain tag + challenge
/// + measurement).
pub const REPORT_MAC_MESSAGE_BYTES: u64 = 15 + 44;
/// Bytes of an aggregate evidence leaf preimage (tag + device + nonce +
/// range + measurement + report MAC).
pub const AGG_LEAF_MESSAGE_BYTES: u64 = 17 + 84;
/// Bytes of an aggregate interior-node preimage (tag + two children).
pub const AGG_NODE_MESSAGE_BYTES: u64 = 17 + 64;
/// Bytes of an aggregate root MAC message (tag + shard + epoch + count
/// + root).
pub const AGG_ROOT_MESSAGE_BYTES: u64 = 17 + 46;

/// Compressions of one cold HMAC (ipad + opad absorbs, inner message
/// finalize, outer digest finalize).
pub fn hmac_compressions_cold(message_len: u64) -> u64 {
    3 + sha_compressions(message_len)
}

/// Compressions of one warm HMAC from cached ipad/opad midstates — what
/// the batched backend pays per MAC once a device key's schedule is
/// cached.
pub fn hmac_compressions_warm(message_len: u64) -> u64 {
    1 + sha_compressions(message_len)
}

/// The verifier-side crypto operations one sweep performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CryptoWorkload {
    /// Devices swept (one report MAC verification each, device-unique
    /// keys).
    pub devices: u64,
    /// Non-empty shards (zero for a per-device sweep: nothing is
    /// aggregated, the operator trusts per-device verdicts instead).
    pub shards: u64,
    /// Evidence-leaf hashes (aggregated sweeps only: one per device).
    pub leaf_hashes: u64,
    /// Interior-node hashes (≈ one per leaf across all shard trees,
    /// padding included).
    pub node_hashes: u64,
    /// Aggregate-root MACs minted by the gateway — and the *only* MACs
    /// the operator must verify.
    pub root_macs: u64,
}

impl CryptoWorkload {
    /// A per-device sweep over `devices`: report MACs only.
    pub fn per_device_sweep(devices: u64) -> Self {
        CryptoWorkload {
            devices,
            shards: 0,
            leaf_hashes: 0,
            node_hashes: 0,
            root_macs: 0,
        }
    }

    /// An aggregated sweep over `devices` partitioned into `shards`
    /// trees: report MACs plus leaves, interior nodes and one root MAC
    /// per shard.
    pub fn aggregated_sweep(devices: u64, shards: u64) -> Self {
        CryptoWorkload {
            devices,
            shards,
            leaf_hashes: devices,
            node_hashes: devices,
            root_macs: shards,
        }
    }

    /// MAC verifications the *operator* performs to accept this sweep:
    /// every root MAC for an aggregated sweep, every device otherwise.
    pub fn operator_verifications(&self) -> u64 {
        if self.root_macs > 0 {
            self.root_macs
        } else {
            self.devices
        }
    }
}

/// One priced backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProviderPrice {
    /// Backend name, as [`CryptoProvider::name`](eilid_casu::CryptoProvider::name)
    /// reports it.
    pub provider: &'static str,
    /// SHA-256 compressions the host CPU runs.
    pub host_compressions: u64,
    /// Microseconds a serial-bus secure element spends (zero for the
    /// software backends).
    pub offload_micros: f64,
}

impl ProviderPrice {
    /// Total sweep-crypto microseconds at `compression_micros` per
    /// host compression. The constant is the caller's to measure: the
    /// scalar schedule in `eilid_casu::sha256` runs ~0.33 µs per
    /// compression on a typical x86-64 core, the SHA-NI path ~0.08 µs
    /// — the compression *counts* priced here are identical either
    /// way, which is why the model is parametric in the constant.
    pub fn total_micros(&self, compression_micros: f64) -> f64 {
        self.host_compressions as f64 * compression_micros + self.offload_micros
    }
}

fn workload_hash_compressions(workload: &CryptoWorkload) -> u64 {
    workload.leaf_hashes * sha_compressions(AGG_LEAF_MESSAGE_BYTES)
        + workload.node_hashes * sha_compressions(AGG_NODE_MESSAGE_BYTES)
}

/// Prices `workload` under the software backend: every MAC is cold
/// (four-compression key schedule included), every hash runs on the
/// host.
pub fn price_software(workload: &CryptoWorkload) -> ProviderPrice {
    ProviderPrice {
        provider: "software",
        host_compressions: workload.devices * hmac_compressions_cold(REPORT_MAC_MESSAGE_BYTES)
            + workload.root_macs * hmac_compressions_cold(AGG_ROOT_MESSAGE_BYTES)
            + workload_hash_compressions(workload),
        offload_micros: 0.0,
    }
}

/// Prices `workload` under the batched backend: device keys are stable
/// across sweeps, so every report MAC runs warm from a cached schedule
/// (the steady state the schedule cache exists for); shard keys too.
pub fn price_batched(workload: &CryptoWorkload) -> ProviderPrice {
    ProviderPrice {
        provider: "batched",
        host_compressions: workload.devices * hmac_compressions_warm(REPORT_MAC_MESSAGE_BYTES)
            + workload.root_macs * hmac_compressions_warm(AGG_ROOT_MESSAGE_BYTES)
            + workload_hash_compressions(workload),
        offload_micros: 0.0,
    }
}

/// Prices `workload` under the simulated ECC608-style offload: every
/// MAC and hash becomes one serial-bus command (fixed execution cost
/// plus per-byte transfer), and the host runs no compressions.
pub fn price_sim_hw(workload: &CryptoWorkload, params: SimHwParams) -> ProviderPrice {
    let ops = workload.devices + workload.root_macs + workload.leaf_hashes + workload.node_hashes;
    let bytes = workload.devices * REPORT_MAC_MESSAGE_BYTES
        + workload.root_macs * AGG_ROOT_MESSAGE_BYTES
        + workload.leaf_hashes * AGG_LEAF_MESSAGE_BYTES
        + workload.node_hashes * AGG_NODE_MESSAGE_BYTES;
    ProviderPrice {
        provider: "sim-hw",
        host_compressions: 0,
        offload_micros: ops as f64 * params.op_micros + bytes as f64 * params.byte_micros,
    }
}

/// All three backends priced for `workload`, in provider order.
pub fn price_providers(workload: &CryptoWorkload) -> Vec<ProviderPrice> {
    vec![
        price_software(workload),
        price_batched(workload),
        price_sim_hw(workload, SimHwParams::ecc608()),
    ]
}

/// Renders the provider comparison matrix for a fleet of `devices`
/// across `shards` shards: one row per backend and sweep shape, plus
/// the operator-verification comparison row the aggregation tree earns
/// its keep with.
pub fn render_provider_matrix(devices: u64, shards: u64, compression_micros: f64) -> String {
    let per_device = CryptoWorkload::per_device_sweep(devices);
    let aggregated = CryptoWorkload::aggregated_sweep(devices, shards);
    let mut out = format!(
        "CryptoProvider cost matrix ({devices} devices, {shards} shards, \
         {compression_micros} µs/compression)\n\
         provider  sweep       host compressions   offload µs   total µs\n"
    );
    for (label, workload) in [("per-device", &per_device), ("aggregated", &aggregated)] {
        for price in price_providers(workload) {
            out.push_str(&format!(
                "{:<9} {:<11} {:>17} {:>12.0} {:>10.0}\n",
                price.provider,
                label,
                price.host_compressions,
                price.offload_micros,
                price.total_micros(compression_micros),
            ));
        }
    }
    out.push_str(&format!(
        "operator  verifications: per-device {} vs aggregated {} ({}x fewer)\n",
        per_device.operator_verifications(),
        aggregated.operator_verifications(),
        per_device.operator_verifications() / aggregated.operator_verifications().max(1),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_counts_follow_block_structure() {
        assert_eq!(sha_compressions(0), 1);
        assert_eq!(sha_compressions(55), 1);
        assert_eq!(sha_compressions(56), 2);
        assert_eq!(sha_compressions(64), 2);
        assert_eq!(sha_compressions(119), 2);
        assert_eq!(sha_compressions(120), 3);
        // The 59-byte report message straddles the padding boundary.
        assert_eq!(hmac_compressions_cold(REPORT_MAC_MESSAGE_BYTES), 5);
        assert_eq!(hmac_compressions_warm(REPORT_MAC_MESSAGE_BYTES), 3);
    }

    #[test]
    fn batched_beats_software_and_offload_scales_with_ops() {
        let sweep = CryptoWorkload::per_device_sweep(1000);
        let software = price_software(&sweep);
        let batched = price_batched(&sweep);
        assert_eq!(software.host_compressions, 5000);
        assert_eq!(batched.host_compressions, 3000);
        assert!(batched.host_compressions < software.host_compressions);

        let sim = price_sim_hw(&sweep, SimHwParams::ecc608());
        assert_eq!(sim.host_compressions, 0);
        // 1000 commands at 1100 µs + 59 000 transferred bytes at 1 µs.
        assert!((sim.offload_micros - 1_159_000.0).abs() < 1e-6);
    }

    #[test]
    fn aggregation_compresses_operator_work_sublinearly() {
        let per_device = CryptoWorkload::per_device_sweep(1000);
        let aggregated = CryptoWorkload::aggregated_sweep(1000, 16);
        assert_eq!(per_device.operator_verifications(), 1000);
        assert_eq!(aggregated.operator_verifications(), 16);
        // The gateway pays for the tree (leaves + nodes + root MACs)...
        let gateway_overhead = price_software(&aggregated).host_compressions
            - price_software(&per_device).host_compressions;
        assert!(gateway_overhead > 0);
        // ...but stays linear in devices, while the operator drops from
        // O(devices) to O(shards).
        assert!(gateway_overhead < 6 * 1000);
    }

    #[test]
    fn matrix_renders_every_backend_and_the_operator_row() {
        let matrix = render_provider_matrix(1000, 16, 0.25);
        for name in ["software", "batched", "sim-hw"] {
            assert!(matrix.contains(name), "missing {name}");
        }
        assert!(matrix.contains("per-device"));
        assert!(matrix.contains("aggregated"));
        assert!(matrix.contains("per-device 1000 vs aggregated 16 (62x fewer)"));
    }
}
