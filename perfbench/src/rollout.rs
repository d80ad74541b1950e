//! `rollout_ota`: one operator console runs one versioned delta OTA
//! campaign per cohort across all seven cohorts (the *rollout*) through
//! one gateway. A seeded 5% of devices are probe-isolated, so they leave
//! the memoized-probe fast path and run the reboot+smoke probe on the
//! simulator.
//!
//! A gateway refuses a second campaign on a cohort whose run finished,
//! so every rollout gets a fresh fleet and gateway (its set-up).

use std::sync::Arc;
use std::time::Instant;

use eilid_casu::CryptoProvider;
use eilid_fleet::{
    partition_waves, CampaignConfig, CampaignOutcome, CampaignReport, Fleet, FleetBuilder,
    FleetOps, OpsError,
};
use eilid_net::{with_attached_fleet, AttestationService, Gateway, RemoteOps};
use eilid_obs::RegistrySnapshot;

use crate::inputs::{rollout_inputs, RolloutInputs};
use crate::probe::{alloc_counts, median, set_alloc_counting, CountingProvider, HostSpeed};
use crate::report::{Metrics, Tally};
use crate::sweep::{gateway_config, parallelism, root_key, AGENTS};

/// First PMEM byte of the shipped image.
const PATCH_TARGET: u16 = 0xE000;
/// One past the last PMEM byte of the shipped image.
const PATCH_END: usize = 0xF700;
/// Offset (into the image) of the changed bytes: the unused PMEM gap
/// below the runtime, so the smoke runs are unaffected.
const PATCH_GAP: usize = 0xF600 - PATCH_TARGET as usize;
/// The firmware version every campaign ships.
const VERSION: u64 = 1;

/// What the phase measured.
#[derive(Debug, Default)]
pub struct RolloutRun {
    /// Oracle tally.
    pub tally: Tally,
    /// Set-up durations (s): fleet, gateway, agent and console.
    pub setup_s: Vec<f64>,
    /// Untraced rollout wall times (s).
    pub rollout_s: Vec<f64>,
    /// Update wire bytes per updated device (exact).
    pub update_bytes_per_device: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

/// One campaign per cohort, each shipping the cohort's golden image with
/// four seeded bytes changed in the PMEM gap.
fn campaigns(fleet: &Fleet, inputs: &RolloutInputs) -> Vec<CampaignConfig> {
    fleet
        .cohort_ids()
        .into_iter()
        .map(|cohort| {
            let first = fleet.cohort_members(cohort)[0];
            let memory = &fleet
                .device(first)
                .expect("cohort member")
                .device()
                .cpu()
                .memory;
            let mut image = memory.slice(usize::from(PATCH_TARGET)..PATCH_END).to_vec();
            for (byte, mask) in image[PATCH_GAP..].iter_mut().zip(inputs.patch_xor) {
                *byte ^= mask;
            }
            let mut config = CampaignConfig::new(cohort, PATCH_TARGET, image);
            config.version = VERSION;
            config
        })
        .collect()
}

/// Probes a campaign must execute: per wave, every probe-isolated
/// device plus one cohort reference when the wave has any other device.
fn expected_probes(fleet: &Fleet, config: &CampaignConfig, isolated: &[u64]) -> u64 {
    let members = fleet.cohort_members(config.cohort);
    partition_waves(&members, &[config.canary_fraction, 1.0])
        .iter()
        .map(|wave| {
            let own = wave.iter().filter(|id| isolated.contains(id)).count() as u64;
            own + u64::from(own < wave.len() as u64)
        })
        .sum()
}

fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// One rollout's measurements.
struct Rollout {
    setup: f64,
    seconds: f64,
    before: RegistrySnapshot,
    after: RegistrySnapshot,
    allocs: (u64, u64),
    hmac: (u64, u64),
    /// Merkle leaves the rollout re-hashed, fleet-wide (traced only).
    leaves_rehashed: u64,
    /// Post-update smoke-run host ns per simulated cycle (traced only).
    smoke_ns_per_cycle: f64,
}

fn rollout(
    inputs: &RolloutInputs,
    traced: bool,
    provider: Option<&Arc<CountingProvider>>,
    tally: &mut Tally,
) -> Option<Rollout> {
    let start = Instant::now();
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(inputs.devices)
        .threads(parallelism())
        .build()
        .expect("rollout fleet builds");
    for &id in &inputs.isolated {
        fleet.devices_mut()[id as usize].set_probe_isolated(true);
    }
    let configs = campaigns(&fleet, inputs);
    let expected: Vec<u64> = configs
        .iter()
        .map(|c| expected_probes(&fleet, c, &inputs.isolated))
        .collect();
    let cohort_sizes: Vec<usize> = configs
        .iter()
        .map(|c| fleet.cohort_members(c.cohort).len())
        .collect();
    let snapshot = verifier.service_snapshot(1 << 32);
    let service = Arc::new(match provider {
        Some(p) => {
            AttestationService::with_provider(snapshot, Arc::clone(p) as Arc<dyn CryptoProvider>)
        }
        None => AttestationService::new(snapshot),
    });
    let handle = Gateway::bind(("127.0.0.1", 0), service, gateway_config())
        .expect("gateway binds on loopback")
        .spawn();
    let addr = handle.addr();

    let session = with_attached_fleet(&mut fleet, AGENTS, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let setup = start.elapsed().as_secs_f64();
        let before = ops.metrics()?;
        let crypto = provider.map(|p| p.counts());
        set_alloc_counting(traced);
        let allocs = alloc_counts();
        let t = Instant::now();
        let reports: Vec<Result<CampaignReport, OpsError>> =
            configs.iter().map(|c| ops.run_campaign(c)).collect();
        let seconds = t.elapsed().as_secs_f64();
        let allocs_after = alloc_counts();
        set_alloc_counting(false);
        let hmac = match (provider, crypto) {
            (Some(p), Some(c)) => {
                let d = p.counts().since(c);
                (d.hmac_ops, d.hmac_bytes)
            }
            _ => (0, 0),
        };
        let after = ops.metrics()?;
        Ok::<_, OpsError>((
            Rollout {
                setup,
                seconds,
                before,
                after,
                allocs: (allocs_after.0 - allocs.0, allocs_after.1 - allocs.1),
                hmac,
                leaves_rehashed: 0,
                smoke_ns_per_cycle: 0.0,
            },
            reports,
        ))
    });
    if handle.shutdown().is_err() {
        tally.check(false, || "gateway shutdown failed".to_string());
    }
    let (mut measured, reports) = match session {
        Ok(Ok(session)) => session,
        Ok(Err(err)) => {
            tally.check(false, || format!("operator console failed: {err}"));
            return None;
        }
        Err(err) => {
            tally.check(false, || format!("device agent failed: {err}"));
            return None;
        }
    };

    // Oracle: every campaign completed on its whole cohort with nothing
    // quarantined, and the rollout executed exactly the expected probes.
    for ((report, config), size) in reports.iter().zip(&configs).zip(&cohort_sizes) {
        tally.check(
            matches!(report, Ok(r) if r.outcome == CampaignOutcome::Completed { updated: *size }
                && r.quarantined.is_empty()
                && r.rollback_incomplete.is_empty()),
            || format!("{} campaign did not complete: {report:?}", config.cohort),
        );
    }
    let executed = counter(&measured.after, "eilid_ops_probes_executed_total")
        - counter(&measured.before, "eilid_ops_probes_executed_total");
    let memoized = counter(&measured.after, "eilid_ops_probes_memoized_total")
        - counter(&measured.before, "eilid_ops_probes_memoized_total");
    let want: u64 = expected.iter().sum();
    tally.check(
        executed == want && executed + memoized == inputs.devices as u64,
        || format!("probes executed {executed} memoized {memoized}, expected {want} executed"),
    );
    // Every device now holds the shipped bytes.
    let patched = fleet.devices().iter().all(|device| {
        let config = configs
            .iter()
            .find(|c| c.cohort == device.cohort())
            .expect("cohort campaign");
        let changed = usize::from(PATCH_TARGET) + PATCH_GAP;
        let memory = &device.device().cpu().memory;
        memory.slice(changed..changed + 4) == &config.payload[PATCH_GAP..PATCH_GAP + 4]
    });
    tally.check(patched, || {
        "a device does not hold the shipped image".to_string()
    });

    if traced {
        measured.leaves_rehashed = fleet
            .devices()
            .iter()
            .filter_map(|d| d.measurer_stats())
            .map(|s| s.leaves_rehashed)
            .sum();
        measured.smoke_ns_per_cycle = smoke_ns_per_cycle(&fleet, &configs);
    }
    Some(measured)
}

/// Host ns per simulated cycle of the post-update smoke run, one updated
/// device per cohort, timed around `Device::run_for`.
fn smoke_ns_per_cycle(fleet: &Fleet, configs: &[CampaignConfig]) -> f64 {
    let (mut nanos, mut cycles) = (0u128, 0u64);
    for config in configs {
        let first = fleet.cohort_members(config.cohort)[0];
        let mut device = fleet.device(first).expect("member").device().clone();
        device.reboot();
        let t = Instant::now();
        let outcome = device.run_for(config.smoke_cycles);
        nanos += t.elapsed().as_nanos();
        cycles += outcome.cycles();
    }
    nanos as f64 / cycles.max(1) as f64
}

/// The phase, stepped one rollout at a time.
pub struct RolloutPhase {
    inputs: RolloutInputs,
    provider: Option<Arc<CountingProvider>>,
    run: RolloutRun,
    smoke_ns_per_cycle: Vec<f64>,
    traced_s: Vec<f64>,
    traced_rollout: Option<Rollout>,
    wire_bytes: Option<u64>,
}

impl RolloutPhase {
    /// Draws the inputs; `counting` installs the counting crypto
    /// provider in every rollout's gateway (traced runs).
    pub fn new(seed: u64, devices: usize, counting: bool) -> Self {
        RolloutPhase {
            inputs: rollout_inputs(seed, devices),
            provider: counting.then(CountingProvider::shared),
            run: RolloutRun::default(),
            smoke_ns_per_cycle: Vec::new(),
            traced_s: Vec::new(),
            traced_rollout: None,
            wire_bytes: None,
        }
    }

    /// Rollouts run so far.
    pub fn rollouts(&self) -> usize {
        self.run.rollout_s.len() + self.traced_s.len()
    }

    /// Sets up and runs one rollout; a traced one counts allocations and
    /// feeds the per-layer ledger.
    pub fn step(&mut self, traced: bool) {
        let speed = HostSpeed::start();
        let measured = rollout(
            &self.inputs,
            traced,
            self.provider.as_ref(),
            &mut self.run.tally,
        );
        let k = speed.finish();
        let Some(measured) = measured else {
            return;
        };
        let wire = counter(&measured.after, "eilid_ops_update_bytes_wire_total")
            - counter(&measured.before, "eilid_ops_update_bytes_wire_total");
        self.run
            .tally
            .check(self.wire_bytes.is_none_or(|w| w == wire), || {
                format!("update wire bytes changed between rollouts: {wire}")
            });
        self.wire_bytes = Some(wire);
        self.run.setup_s.push(measured.setup * k);
        if traced {
            self.traced_s.push(measured.seconds * k);
            self.smoke_ns_per_cycle
                .push(measured.smoke_ns_per_cycle * k);
            self.traced_rollout.get_or_insert(measured);
        } else {
            self.run.rollout_s.push(measured.seconds * k);
        }
    }

    /// The measurements, with the per-layer ledger when any rollout was
    /// traced.
    pub fn finish(mut self) -> RolloutRun {
        let devices = self.inputs.devices as f64;
        self.run.update_bytes_per_device = self.wire_bytes.unwrap_or(0) as f64 / devices;
        let Some(measured) = self.traced_rollout else {
            return self.run;
        };
        let delta = |name: &str| counter(&measured.after, name) - counter(&measured.before, name);
        let p50 = |name: &str| {
            measured
                .after
                .histograms
                .get(name)
                .map_or(0.0, |h| h.p50() as f64)
        };
        let layers = &mut self.run.layers;
        layers.put(
            "msp430.ns_per_cycle",
            median(&self.smoke_ns_per_cycle),
            "ns",
        );
        layers.put(
            "casu.merkle.leaves_rehashed_per_device",
            measured.leaves_rehashed as f64 / devices,
            "count",
        );
        layers.put(
            "casu.hmac_ops_per_device",
            measured.hmac.0 as f64 / devices,
            "count",
        );
        layers.put(
            "casu.hmac_bytes_per_device",
            measured.hmac.1 as f64 / devices,
            "B",
        );
        layers.put(
            "net.engine.phase_snapshot_us_p50",
            p50("eilid_ops_phase_snapshot_us"),
            "us",
        );
        layers.put(
            "net.engine.phase_update_us_p50",
            p50("eilid_ops_phase_update_us"),
            "us",
        );
        layers.put(
            "net.engine.phase_probe_us_p50",
            p50("eilid_ops_phase_probe_us"),
            "us",
        );
        layers.count(
            "net.engine.probes_executed",
            delta("eilid_ops_probes_executed_total"),
        );
        layers.count(
            "net.engine.probes_memoized",
            delta("eilid_ops_probes_memoized_total"),
        );
        layers.count(
            "net.wire.update_bytes_wire",
            delta("eilid_ops_update_bytes_wire_total"),
        );
        layers.count(
            "net.wire.update_bytes_full",
            delta("eilid_ops_update_bytes_full_total"),
        );
        layers.put(
            "net.gateway.frames_per_device",
            delta("eilid_gateway_frames_received_total") as f64 / devices,
            "count",
        );
        layers.put(
            "net.gateway.wakes_per_device",
            delta("eilid_gateway_reactor_wakes_total") as f64 / devices,
            "count",
        );
        layers.count(
            "net.gateway.busy_rejections",
            delta("eilid_gateway_busy_rejections_total"),
        );
        layers.put(
            "alloc.allocs_per_device",
            measured.allocs.0 as f64 / devices,
            "count",
        );
        layers.put(
            "alloc.bytes_per_device",
            measured.allocs.1 as f64 / devices,
            "B",
        );
        layers.put(
            "trace.overhead_pct",
            (median(&self.traced_s) / median(&self.run.rollout_s) - 1.0) * 100.0,
            "%",
        );
        self.run
    }
}
