//! # eilid-fleet — fleet-scale orchestration for EILID devices
//!
//! EILID/CASU target deployments of *many* low-end devices, but the rest
//! of this workspace simulates one MSP430 at a time. This crate adds the
//! verifier-side fleet layer:
//!
//! * [`Fleet`] / [`FleetBuilder`] — spawns N concurrent simulated EILID
//!   devices with heterogeneous firmware (the seven
//!   [`eilid_workloads`] applications) and per-device keys derived from a
//!   single fleet root key ([`eilid_casu::DeviceKey::derive`]). Device
//!   construction instruments each distinct firmware once and clones the
//!   prototype, so spinning up thousands of devices stays cheap.
//! * [`TrustCore`] — the one verifier-side trust decision: root key,
//!   per-cohort goldens ([`CohortSnapshot`]), a derive-once device-key
//!   cache sharded by `device_id % SHARD_COUNT`, the classification
//!   rule, golden promotion and the [`eilid_casu::CryptoProvider`] every
//!   MAC runs on. The fleet [`Verifier`] and the `eilid_net` gateway
//!   each own one, so the two cannot drift.
//! * [`Verifier`] — issues batched attestation challenges across the
//!   fleet and verifies the reports on scoped threads
//!   ([`exec::parallel_map_mut`], one task per non-empty shard, no
//!   async runtime, no persistent pool), aggregating per-device health
//!   into a [`FleetReport`]. Per-device and aggregated sweeps are one
//!   verification pass; aggregation only folds its reports into
//!   evidence trees. [`Fleet::run_slice`], campaigns and sweeps share
//!   that one scheduler.
//! * incremental measurement — by default
//!   ([`eilid_casu::MeasurementScheme::Merkle`]) devices answer
//!   challenges from an [`eilid_casu::IncrementalMeasurer`]: a chunked
//!   Merkle tree over PMEM kept coherent by the simulated bus's
//!   dirty-granule tracking, so a sweep over a clean fleet re-hashes
//!   nothing and a patched device re-hashes only the patched leaves.
//!   [`FleetBuilder::measurement`] selects the flat SHA-256 scheme for
//!   comparison benches and legacy compatibility.
//! * [`Campaign`] — drives staged OTA rollouts (canary wave → full wave)
//!   through the authenticated-update protocol
//!   ([`eilid_casu::UpdateAuthority`] / [`eilid_casu::UpdateEngine`]),
//!   with automatic halt-and-rollback when a wave's post-update health
//!   check fails beyond a configured threshold, and per-device rollback
//!   of the stray probe failures in waves that pass it.
//! * violation telemetry — devices that trip the
//!   [`eilid_casu::CasuMonitor`] report their
//!   [`eilid_casu::Violation`] upstream; the fleet [`Ledger`] records the
//!   reset and subsequent recovery.
//!
//! # Threat model
//!
//! The *verifier* (and everything in this crate that runs on it: root
//! key, update authority, golden images) is trusted. The *transport* is
//! attacker-controlled: reports and update requests may be dropped,
//! replayed or mangled, which the MAC/nonce checks in [`eilid_casu`]
//! must catch. *Devices* may be compromised up to the paper's threat
//! model — software adversaries are contained by CASU/EILID, and a
//! physically tampered device is expected to be *flagged* by
//! attestation, not prevented.
//!
//! # Examples
//!
//! ```
//! use eilid_casu::DeviceKey;
//! use eilid_fleet::{FleetBuilder, HealthClass};
//!
//! let root = DeviceKey::new(b"fleet-root-key-0123456789abcdef")?;
//! let (mut fleet, mut verifier) = FleetBuilder::new(root)
//!     .devices(16)
//!     .threads(2)
//!     .build()?;
//!
//! let report = verifier.sweep(&mut fleet);
//! assert_eq!(report.count(HealthClass::Attested), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod device;
pub mod error;
pub mod exec;
pub mod fixtures;
pub mod fleet;
pub mod ops;
pub mod report;
pub mod trust;
pub mod verifier;

pub use campaign::{
    partition_waves, Campaign, CampaignConfig, CampaignOutcome, CampaignReport, CampaignRun,
    CampaignStatus, CohortInfo, LocalExecutor, PausedCampaign, PreUpdateSnapshot, RollbackOutcome,
    WaveExecutor, WaveReport, WaveRollout, WaveSpec,
};
pub use device::{DeviceId, SimDevice};
pub use eilid_casu::MeasurementScheme;
pub use error::FleetError;
pub use fleet::{Fleet, FleetBuilder, SliceReport};
pub use ops::{
    merge_agg_sweeps, merge_health, merge_phases, merge_reports, merge_sweeps, AggSweepSummary,
    CampaignPhase, FleetOps, LocalOps, OpsError, OpsHealth, SweepSummary,
};
pub use report::{DeviceHealth, FleetReport, HealthClass, Ledger, LedgerEvent};
pub use trust::{CohortSnapshot, TrustCore, TrustPass, SHARD_COUNT};
pub use verifier::{ServiceSnapshot, Verifier};
