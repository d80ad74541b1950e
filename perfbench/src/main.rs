//! The repository benchmark: three seeded workloads driven from outside
//! through the workspace crates' public APIs, every result checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_sweep|rollout_ota|device_exec --seed N --seconds S --trace 0|1 \
//!     [--scale full|tiny]
//! ```
//!
//! A run gives the named workload its full size and `--seconds` of
//! measurement (its *focus* phase). With `--trace 0` the other two
//! phases run beside it at a small fixed size (the *companions*, their
//! operations spread evenly over the same time), so every end-to-end
//! metric is reported on every workload; the focus metrics are the ones
//! a workload exists for (see `README.md`). With
//! `--trace 1` only the focus phase runs, with counters on, and the run
//! reports the per-layer ledger; layers the focus phase does not touch
//! read 0. Every time the benchmark takes is scaled to a reference host
//! speed (`probe::HostSpeed`). The last line of standard output is the
//! JSON result.

mod device;
mod inputs;
mod probe;
mod report;
mod rollout;
mod sweep;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use device::DevicePhase;
use inputs::{ISOLATED_PERCENT, SUSPECT_SHARDS, TAMPER_PPM};
use probe::{median, peak_rss_mb, quantile};
use report::{render_json, Metrics, Tally};
use rollout::RolloutPhase;
use sweep::{SweepConfig, SweepSession};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The per-layer metrics of a traced run, in report order, with units.
const PER_LAYER: [(&str, &str); 53] = [
    ("msp430.ns_per_cycle", "ns"),
    ("msp430.cycles_per_instruction", "cycle/instr"),
    ("eilid.extra_cycles.LightSensor", "count"),
    ("eilid.extra_cycles.UltrasonicRanger", "count"),
    ("eilid.extra_cycles.FireSensor", "count"),
    ("eilid.extra_cycles.SyringePump", "count"),
    ("eilid.extra_cycles.TempSensor", "count"),
    ("eilid.extra_cycles.Charlieplexing", "count"),
    ("eilid.extra_cycles.LcdSensor", "count"),
    ("eilid.extra_bytes.LightSensor", "count"),
    ("eilid.extra_bytes.UltrasonicRanger", "count"),
    ("eilid.extra_bytes.FireSensor", "count"),
    ("eilid.extra_bytes.SyringePump", "count"),
    ("eilid.extra_bytes.TempSensor", "count"),
    ("eilid.extra_bytes.Charlieplexing", "count"),
    ("eilid.extra_bytes.LcdSensor", "count"),
    ("eilid.analyze_us", "us"),
    ("eilid.rewrite_us", "us"),
    ("asm.assemble_us", "us"),
    ("casu.hmac_ops_per_device", "count"),
    ("casu.hmac_bytes_per_device", "B"),
    ("casu.hmac_ns", "ns"),
    ("casu.agg.hmac_ops_per_device", "count"),
    ("casu.merkle.leaves_rehashed_per_device", "count"),
    ("casu.agg.roots_verified", "count"),
    ("casu.agg.short_circuited_share", "share"),
    ("casu.agg.suspects", "count"),
    ("casu.monitor.violations_per_attack", "count"),
    ("fleet.inproc_sweep_ns_per_device", "ns"),
    ("fleet.pool.job_us_p50", "us"),
    ("fleet.pool.queue_depth_max", "count"),
    ("net.service.verify_batch_ns_per_report", "ns"),
    ("net.pipe_sweep_ns_per_device", "ns"),
    ("net.tcp_sweep_ns_per_device", "ns"),
    ("net.ops.sweep_ns_per_device", "ns"),
    ("net.ops.agg_sweep_ns_per_device", "ns"),
    ("net.gateway.frames_per_device", "count"),
    ("net.gateway.wakes_per_device", "count"),
    ("net.gateway.busy_rejections", "count"),
    ("net.engine.phase_snapshot_us_p50", "us"),
    ("net.engine.phase_update_us_p50", "us"),
    ("net.engine.phase_probe_us_p50", "us"),
    ("net.engine.probes_executed", "count"),
    ("net.engine.probes_memoized", "count"),
    ("net.wire.update_bytes_wire", "B"),
    ("net.wire.update_bytes_full", "B"),
    ("obs.record_ns", "ns"),
    ("obs.records_per_device", "count"),
    ("alloc.allocs_per_device", "count"),
    ("alloc.bytes_per_device", "B"),
    ("trace.overhead_pct", "%"),
    ("host.reference_pass_us", "us"),
    ("failed_share", "share"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetSweep,
    RolloutOta,
    DeviceExec,
}

/// Phase sizes.
#[derive(Debug, Clone, Copy)]
struct Scale {
    sweep_devices: usize,
    companion_sweep_devices: usize,
    rollout_devices: usize,
    companion_rollout_devices: usize,
    /// Fewest sweep pairs a focus run times: p90 needs ten samples
    /// beyond it.
    min_pairs: usize,
    companion_pairs: usize,
    companion_rollouts: usize,
    companion_rounds: usize,
}

const FULL: Scale = Scale {
    sweep_devices: 10_000,
    companion_sweep_devices: 2_500,
    rollout_devices: 2_100,
    companion_rollout_devices: 350,
    min_pairs: 100,
    companion_pairs: 150,
    companion_rollouts: 10,
    companion_rounds: 12,
};

/// Small enough for the benchmark's own tests.
const TINY: Scale = Scale {
    sweep_devices: 64,
    companion_sweep_devices: 32,
    rollout_devices: 70,
    companion_rollout_devices: 28,
    min_pairs: 100,
    companion_pairs: 100,
    companion_rollouts: 2,
    companion_rounds: 2,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = FULL;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fleet_sweep" => Workload::FleetSweep,
                    "rollout_ota" => Workload::RolloutOta,
                    "device_exec" => Workload::DeviceExec,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => FULL,
                    "tiny" => TINY,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

fn describe(args: &Args) -> String {
    let s = &args.scale;
    match args.workload {
        Workload::FleetSweep => format!(
            "fleet_sweep seed {}: {} devices in 7 cohorts, {} ppm tampered inside {} of 16 \
             shards; closed loop, one console, {} agent connection, OpSweep/OpAggSweep pairs",
            args.seed,
            s.sweep_devices,
            TAMPER_PPM,
            SUSPECT_SHARDS,
            sweep::AGENTS
        ),
        Workload::RolloutOta => format!(
            "rollout_ota seed {}: {} devices in 7 cohorts, {}% probe-isolated; closed loop, \
             one console, {} agent connection, 7 delta campaigns per rollout",
            args.seed,
            s.rollout_devices,
            ISOLATED_PERCENT,
            sweep::AGENTS
        ),
        Workload::DeviceExec => format!(
            "device_exec seed {}: 7 apps baseline + EILID per round, 4 seeded attacks per round; \
             single thread, no network",
            args.seed
        ),
    }
}

/// Operations each phase has run so far.
fn done(
    phase: Workload,
    sweeps: &SweepSession<'_>,
    rollouts: &RolloutPhase,
    devices: &DevicePhase,
) -> usize {
    match phase {
        Workload::FleetSweep => sweeps.pairs(),
        Workload::RolloutOta => rollouts.rollouts(),
        Workload::DeviceExec => devices.rounds(),
    }
}

/// Runs the workload untraced and reports every end-to-end metric.
///
/// The focus phase runs for `--seconds` (and at least its minimum
/// sample count); the companion operations are spread evenly over the
/// same time, so every metric samples the whole run.
fn end_to_end(args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let s = args.scale;
    let focus = args.workload;
    let duration = Duration::from_secs(args.seconds);
    let on = |phase| focus == phase;
    let sweep_devices = if on(Workload::FleetSweep) {
        s.sweep_devices
    } else {
        s.companion_sweep_devices
    };
    let rollout_devices = if on(Workload::RolloutOta) {
        s.rollout_devices
    } else {
        s.companion_rollout_devices
    };
    // The focus phase's set-up is timed several times (median reported);
    // a rollout sets up afresh for every sample anyway.
    let config = SweepConfig {
        devices: sweep_devices,
        setups: if on(Workload::FleetSweep) { 3 } else { 1 },
        counting: false,
    };
    let device_setups = if on(Workload::DeviceExec) { 5 } else { 1 };
    let (sweep, parts) = sweep::with_session(args.seed, config, |sweeps| {
        let mut rollouts = RolloutPhase::new(args.seed, rollout_devices, false);
        let mut devices = DevicePhase::new(args.seed, device_setups);
        let plan: Vec<(Workload, usize)> = [
            (Workload::FleetSweep, s.companion_pairs),
            (Workload::RolloutOta, s.companion_rollouts),
            (Workload::DeviceExec, s.companion_rounds),
        ]
        .into_iter()
        .filter(|(phase, _)| *phase != focus)
        .collect();
        let focus_min = match focus {
            Workload::FleetSweep => s.min_pairs,
            _ => 3,
        };
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed();
            let count = |phase| done(phase, sweeps, &rollouts, &devices);
            // Companion operation k of n falls due at (k + 1)/(n + 1) of
            // the run.
            let due = plan.iter().find(|(phase, n)| {
                let k = count(*phase);
                k < *n && elapsed >= duration.mul_f64((k + 1) as f64 / (*n + 1) as f64)
            });
            let next = match due {
                Some((phase, _)) => *phase,
                None if elapsed < duration || count(focus) < focus_min => focus,
                None => match plan.iter().find(|(phase, n)| count(*phase) < *n) {
                    Some((phase, _)) => *phase,
                    None => break,
                },
            };
            match next {
                Workload::FleetSweep => sweeps.step(false),
                Workload::RolloutOta => rollouts.step(false),
                Workload::DeviceExec => devices.step(false),
            }
        }
        (rollouts.finish(), devices.finish())
    });
    let Some((rollout, device)) = parts else {
        tally.add(sweep.tally);
        return;
    };
    for part in [sweep.tally, rollout.tally, device.tally] {
        tally.add(part);
    }

    metrics.put("sweep_ms_p50", median(&sweep.sweep_ms), "ms");
    metrics.put("sweep_ms_p90", quantile(&sweep.sweep_ms, 0.9), "ms");
    metrics.put("agg_sweep_ms_p50", median(&sweep.agg_ms), "ms");
    metrics.put("agg_sweep_ms_p90", quantile(&sweep.agg_ms, 0.9), "ms");
    metrics.put("rollout_s", median(&rollout.rollout_s), "s");
    metrics.put(
        "update_bytes_per_device",
        rollout.update_bytes_per_device,
        "B",
    );
    metrics.put(
        "sim_mcycles_per_s",
        median(&device.mcycles_per_s),
        "Mcycle/s",
    );
    metrics.put(
        "eilid_runtime_overhead_pct",
        device.runtime_overhead_pct(),
        "%",
    );
    metrics.put("eilid_size_overhead_pct", device.size_overhead_pct(), "%");
    metrics.put("eilid_build_ms", median(&device.build_ms), "ms");
    metrics.put("ok_share", 1.0 - tally.failed_share(), "share");
    let setup = match focus {
        Workload::FleetSweep => &sweep.setup_s,
        Workload::RolloutOta => &rollout.setup_s,
        Workload::DeviceExec => &device.setup_s,
    };
    metrics.put("setup_s", median(setup), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");

    println!(
        "samples: {} OpSweep + {} OpAggSweep ({sweep_devices} devices), {} rollouts \
         ({rollout_devices} devices), {} device rounds, {} set-ups; host reference pass \
         {:.1} us (median), times below scaled to a {:.1} us pass",
        sweep.sweep_ms.len(),
        sweep.agg_ms.len(),
        rollout.rollout_s.len(),
        device.build_ms.len(),
        setup.len(),
        probe::median_reference_pass_s() * 1e6,
        probe::REFERENCE_PASS_S * 1e6,
    );
    if focus == Workload::DeviceExec {
        print!("{}", device.render_table());
    }
}

/// Runs the focus phase traced and reports every per-layer metric.
/// Traced and untraced operations alternate, so `trace.overhead_pct`
/// compares samples of the same stretch of time.
fn per_layer(args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let s = args.scale;
    let duration = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let more = |ops: usize, min: usize| start.elapsed() < duration || ops < min;
    let (part, layers) = match args.workload {
        Workload::FleetSweep => {
            let config = SweepConfig {
                devices: s.sweep_devices,
                setups: 1,
                counting: true,
            };
            let (run, _) = sweep::with_session(args.seed, config, |sweeps| {
                while more(sweeps.pairs(), s.min_pairs) {
                    sweeps.step(sweeps.pairs() % 2 == 1);
                }
            });
            (run.tally, run.layers)
        }
        Workload::RolloutOta => {
            let mut rollouts = RolloutPhase::new(args.seed, s.rollout_devices, true);
            while more(rollouts.rollouts(), 2) {
                rollouts.step(rollouts.rollouts() % 2 == 1);
            }
            let run = rollouts.finish();
            (run.tally, run.layers)
        }
        Workload::DeviceExec => {
            let mut devices = DevicePhase::new(args.seed, 1);
            while more(devices.rounds(), 2) {
                devices.step(devices.rounds() % 2 == 1);
            }
            let run = devices.finish();
            (run.tally, run.layers)
        }
    };
    tally.add(part);
    for (name, unit) in PER_LAYER {
        let value = match name {
            "failed_share" => tally.failed_share(),
            "host.reference_pass_us" => probe::median_reference_pass_s() * 1e6,
            // A layer the focus phase does not touch did no work.
            _ => layers.get(name).unwrap_or(0.0),
        };
        metrics.put(name, value, unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}; {} hardware threads",
        describe(&args),
        sweep::parallelism()
    );
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(&args, &mut tally, &mut metrics);
    } else {
        end_to_end(&args, &mut tally, &mut metrics);
    }
    for metric in &metrics.0 {
        println!("{:<42} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "oracle: {} operations attempted, {} failed",
        tally.attempted, tally.failed
    );
    println!("{}", render_json(tally, &metrics));
    ExitCode::SUCCESS
}
