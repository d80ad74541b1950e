//! `device_exec`: the paper's seven Table IV apps, built baseline and
//! EILID and run to completion on the simulator, with a seeded schedule
//! of injected control-flow attacks. No crypto, no network.
//!
//! One *round* builds the seven EILID images (timed: `eilid_build_ms`),
//! runs every baseline and EILID image to completion (timed:
//! `sim_mcycles_per_s`) and injects the round's four scheduled attacks.
//! The oracle checks that every benign EILID run exits like its baseline
//! and, for apps without interrupts (whose tick counts grow with run
//! time), prints exactly what it prints; and that every attack is
//! detected as expected with one monitor reset.

use std::time::{Duration, Instant};

use eilid::{analyze, Device, DeviceBuilder, EilidConfig, RunOutcome, Runtime};
use eilid_asm::{assemble_program, parse};
use eilid_bench::paper_reference::paper_table4;
use eilid_casu::{CasuPolicy, MemoryLayout};
use eilid_workloads::{inject, WorkloadId};

use crate::inputs::AttackSchedule;
use crate::probe::{alloc_counts, median, set_alloc_counting, HostSpeed};
use crate::report::{Metrics, Tally};

/// Cycle budget of a benign run (every app completes far below it).
const RUN_BUDGET: u64 = 20_000_000;
/// Cycle budget of an attacked run.
const ATTACK_BUDGET: u64 = 60_000_000;

/// Exact per-app figures (identical every round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRow {
    /// The app.
    pub app: WorkloadId,
    /// Simulated cycles of the baseline run.
    pub base_cycles: u64,
    /// Simulated cycles of the EILID run.
    pub eilid_cycles: u64,
    /// Baseline application binary size.
    pub base_bytes: usize,
    /// EILID application binary size.
    pub eilid_bytes: usize,
}

impl AppRow {
    fn runtime_overhead_pct(&self) -> f64 {
        (self.eilid_cycles as f64 / self.base_cycles as f64 - 1.0) * 100.0
    }

    fn size_overhead_pct(&self) -> f64 {
        (self.eilid_bytes as f64 / self.base_bytes as f64 - 1.0) * 100.0
    }
}

/// What the phase measured.
#[derive(Debug, Default)]
pub struct DeviceRun {
    /// Oracle tally.
    pub tally: Tally,
    /// Set-up durations (s).
    pub setup_s: Vec<f64>,
    /// Per untraced round: wall time of the seven EILID builds (ms).
    pub build_ms: Vec<f64>,
    /// Per untraced round: simulated Mcycles per host second.
    pub mcycles_per_s: Vec<f64>,
    /// Per-app exact figures.
    pub rows: Vec<AppRow>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

impl DeviceRun {
    /// Mean simulated EILID runtime overhead over the apps (%).
    pub fn runtime_overhead_pct(&self) -> f64 {
        mean(self.rows.iter().map(AppRow::runtime_overhead_pct))
    }

    /// Mean EILID binary-size overhead over the apps (%).
    pub fn size_overhead_pct(&self) -> f64 {
        mean(self.rows.iter().map(AppRow::size_overhead_pct))
    }

    /// The simulated overheads beside the paper's Table IV.
    pub fn render_table(&self) -> String {
        let paper = paper_table4();
        let mut out = String::from(
            "device_exec vs paper Table IV (the paper measured openMSP430 on Vivado \
             behavioural simulation; these rows come from this repository's cycle model)\n\
             app                 runtime%  paper%  err(pp) | size%   paper%  err(pp)\n",
        );
        let (mut paper_rt, mut paper_sz) = (Vec::new(), Vec::new());
        for row in &self.rows {
            let reference = paper
                .iter()
                .find(|p| p.workload == row.app)
                .expect("every app has a paper row");
            let (rt, sz) = (
                reference.runtime_overhead() * 100.0,
                reference.size_overhead() * 100.0,
            );
            paper_rt.push(rt);
            paper_sz.push(sz);
            out.push_str(&format!(
                "{:<18} {:>8.2} {:>7.2} {:>+8.2} | {:>6.2} {:>7.2} {:>+8.2}\n",
                row.app.name(),
                row.runtime_overhead_pct(),
                rt,
                row.runtime_overhead_pct() - rt,
                row.size_overhead_pct(),
                sz,
                row.size_overhead_pct() - sz,
            ));
        }
        let (rt, sz) = (mean(paper_rt.into_iter()), mean(paper_sz.into_iter()));
        out.push_str(&format!(
            "{:<18} {:>8.2} {:>7.2} {:>+8.2} | {:>6.2} {:>7.2} {:>+8.2}\n",
            "mean",
            self.runtime_overhead_pct(),
            rt,
            self.runtime_overhead_pct() - rt,
            self.size_overhead_pct(),
            sz,
            self.size_overhead_pct() - sz,
        ));
        out
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// The baseline images and their reference outcomes.
struct Baselines {
    devices: Vec<Device>,
    outcomes: Vec<RunOutcome>,
    interrupt_driven: Vec<bool>,
}

fn set_up() -> Baselines {
    let builder = DeviceBuilder::new();
    let workloads: Vec<_> = WorkloadId::ALL.iter().map(|app| app.workload()).collect();
    let devices: Vec<Device> = workloads
        .iter()
        .map(|w| builder.build_baseline(&w.source).expect("baseline builds"))
        .collect();
    let outcomes = devices
        .iter()
        .map(|device| device.clone().run_for(RUN_BUDGET))
        .collect();
    Baselines {
        devices,
        outcomes,
        interrupt_driven: workloads.iter().map(|w| w.uses_interrupts).collect(),
    }
}

/// One round's timings and its per-layer counts.
struct Round {
    /// The seven EILID builds, scaled to reference host speed.
    build: Duration,
    sim: Duration,
    cycles: u64,
    total: Duration,
    allocs: (u64, u64),
    violations: u64,
    attacks: u64,
}

fn output_of(outcome: &RunOutcome) -> Option<(u16, &[u16])> {
    match outcome {
        RunOutcome::Completed {
            exit_code, output, ..
        } => Some((*exit_code, output)),
        _ => None,
    }
}

fn round(
    baselines: &Baselines,
    schedule: &mut AttackSchedule,
    rows: &mut Vec<AppRow>,
    tally: &mut Tally,
    count_allocs: bool,
) -> Round {
    let start = Instant::now();
    set_alloc_counting(count_allocs);
    let allocs_before = alloc_counts();

    let builder = DeviceBuilder::new();
    let build_speed = HostSpeed::start();
    let build_start = Instant::now();
    let eilid: Vec<Device> = WorkloadId::ALL
        .iter()
        .map(|app| {
            builder
                .build_eilid(&app.workload().source)
                .expect("EILID image builds")
        })
        .collect();
    let build = build_start.elapsed().mul_f64(build_speed.finish());

    let mut sim = Duration::ZERO;
    let mut cycles = 0u64;
    let mut fresh_rows = Vec::with_capacity(WorkloadId::ALL.len());
    for (index, app) in WorkloadId::ALL.iter().enumerate() {
        let mut base = baselines.devices[index].clone();
        let mut protected = eilid[index].clone();
        let run_start = Instant::now();
        let base_outcome = base.run_for(RUN_BUDGET);
        let eilid_outcome = protected.run_for(RUN_BUDGET);
        sim += run_start.elapsed();
        cycles += base_outcome.cycles() + eilid_outcome.cycles();

        tally.check(base_outcome == baselines.outcomes[index], || {
            format!("{app}: baseline run diverged: {base_outcome}")
        });
        // Interrupt-driven apps report tick counts that legitimately
        // grow with run time; every other output must match exactly.
        let transparent = match (
            output_of(&baselines.outcomes[index]),
            output_of(&eilid_outcome),
        ) {
            (Some((base_exit, base_out)), Some((exit, out))) => {
                base_exit == exit && (baselines.interrupt_driven[index] || base_out == out)
            }
            _ => false,
        };
        tally.check(transparent, || {
            format!("{app}: EILID run differs from baseline: {eilid_outcome}")
        });
        let metrics = eilid[index].artifacts().expect("EILID artifacts").metrics;
        fresh_rows.push(AppRow {
            app: *app,
            base_cycles: base_outcome.cycles(),
            eilid_cycles: eilid_outcome.cycles(),
            base_bytes: metrics.original_binary_bytes,
            eilid_bytes: metrics.instrumented_binary_bytes,
        });
    }
    if rows.is_empty() {
        *rows = fresh_rows;
    } else {
        tally.check(*rows == fresh_rows, || {
            "simulated cycles or sizes changed between rounds".to_string()
        });
    }

    let mut violations = 0u64;
    let mut attacks = 0u64;
    for (app, attack) in schedule.next_round() {
        let index = WorkloadId::ALL.iter().position(|a| *a == app).unwrap();
        let mut device = eilid[index].clone();
        let before = device.monitor().map_or(0, |m| m.violations_detected());
        let result = inject(&mut device, attack, ATTACK_BUDGET);
        let after = device.monitor().map_or(0, |m| m.violations_detected());
        violations += after - before;
        attacks += 1;
        tally.check(
            matches!(&result, Ok(r) if r.detected_as_expected())
                && device.resets() == 1
                && after - before == 1,
            || format!("{app}: {attack} not detected as expected: {result:?}"),
        );
    }

    let allocs_after = alloc_counts();
    set_alloc_counting(false);
    Round {
        build,
        sim,
        cycles,
        total: start.elapsed(),
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        violations,
        attacks,
    }
}

/// The phase, stepped one round at a time.
pub struct DevicePhase {
    baselines: Baselines,
    schedule: AttackSchedule,
    run: DeviceRun,
    untraced_total: Vec<f64>,
    traced_total: Vec<f64>,
    traced_ns_per_cycle: Vec<f64>,
    /// The first traced round: a fixed amount of seeded work, so its
    /// counts repeat exactly.
    first_traced: Option<Round>,
    stages: Vec<[f64; 3]>,
}

impl DevicePhase {
    /// Sets up `setups` times (the last set-up is kept) and checks the
    /// baseline reference runs.
    pub fn new(seed: u64, setups: usize) -> Self {
        let mut run = DeviceRun::default();
        let mut baselines = None;
        for _ in 0..setups.max(1) {
            let speed = HostSpeed::start();
            let start = Instant::now();
            baselines = Some(set_up());
            let seconds = start.elapsed().as_secs_f64();
            run.setup_s.push(seconds * speed.finish());
        }
        let baselines = baselines.expect("at least one set-up");
        for (index, outcome) in baselines.outcomes.iter().enumerate() {
            run.tally.check(outcome.is_completed(), || {
                format!(
                    "{} baseline did not complete: {outcome}",
                    WorkloadId::ALL[index]
                )
            });
        }
        DevicePhase {
            baselines,
            schedule: AttackSchedule::new(seed),
            run,
            untraced_total: Vec::new(),
            traced_total: Vec::new(),
            traced_ns_per_cycle: Vec::new(),
            first_traced: None,
            stages: Vec::new(),
        }
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.untraced_total.len() + self.traced_total.len()
    }

    /// Runs one round; a traced round counts allocations and replays the
    /// build pipeline layer by layer afterwards.
    pub fn step(&mut self, traced: bool) {
        let speed = HostSpeed::start();
        let r = round(
            &self.baselines,
            &mut self.schedule,
            &mut self.run.rows,
            &mut self.run.tally,
            traced,
        );
        let k = speed.finish();
        let sim_s = r.sim.as_secs_f64() * k;
        if traced {
            self.traced_total.push(r.total.as_secs_f64() * k);
            self.traced_ns_per_cycle.push(sim_s * 1e9 / r.cycles as f64);
            let speed = HostSpeed::start();
            let stages = pipeline_stages(&mut self.run.tally);
            let k = speed.finish();
            self.stages.push(stages.map(|us| us * k));
            self.first_traced.get_or_insert(r);
        } else {
            self.untraced_total.push(r.total.as_secs_f64() * k);
            self.run.build_ms.push(r.build.as_secs_f64() * 1e3);
            self.run.mcycles_per_s.push(r.cycles as f64 / sim_s / 1e6);
        }
    }

    /// The measurements, with the per-layer ledger when any round was
    /// traced.
    pub fn finish(mut self) -> DeviceRun {
        let Some(first) = self.first_traced else {
            return self.run;
        };
        let layers = &mut self.run.layers;
        layers.put(
            "msp430.ns_per_cycle",
            median(&self.traced_ns_per_cycle),
            "ns",
        );
        let (cycles, instructions) = instruction_counts(&self.baselines);
        layers.put(
            "msp430.cycles_per_instruction",
            cycles as f64 / instructions as f64,
            "cycle/instr",
        );
        for row in &self.run.rows {
            layers.count(
                format!("eilid.extra_cycles.{}", row.app.name()),
                row.eilid_cycles - row.base_cycles,
            );
            layers.count(
                format!("eilid.extra_bytes.{}", row.app.name()),
                (row.eilid_bytes - row.base_bytes) as u64,
            );
        }
        let stage = |i: usize| median(&self.stages.iter().map(|s| s[i]).collect::<Vec<_>>());
        layers.put("eilid.analyze_us", stage(0), "us");
        layers.put("eilid.rewrite_us", stage(1), "us");
        layers.put("asm.assemble_us", stage(2), "us");
        layers.put(
            "casu.monitor.violations_per_attack",
            first.violations as f64 / first.attacks.max(1) as f64,
            "count",
        );
        // Per simulated device run: every baseline and EILID run of the
        // round plus its attacked runs (the round's builds included).
        let runs = (2 * WorkloadId::ALL.len() as u64 + first.attacks) as f64;
        layers.put(
            "alloc.allocs_per_device",
            first.allocs.0 as f64 / runs,
            "count",
        );
        layers.put("alloc.bytes_per_device", first.allocs.1 as f64 / runs, "B");
        layers.put(
            "trace.overhead_pct",
            (median(&self.traced_total) / median(&self.untraced_total) - 1.0) * 100.0,
            "%",
        );
        self.run
    }
}

/// Replays the EILID build pipeline stage by stage through the public
/// toolchain functions, timing each layer over the seven apps:
/// `[analyze µs, rewrite µs, assemble µs]`. The replayed image must be
/// byte-identical to what `DeviceBuilder::build_eilid` produced.
fn pipeline_stages(tally: &mut Tally) -> [f64; 3] {
    let config = EilidConfig::default();
    let runtime = Runtime::build(&config, &MemoryLayout::default(), &CasuPolicy::default())
        .expect("runtime builds");
    let trampolines = runtime.trampoline_symbols();
    let (mut analyze_t, mut rewrite_t, mut assemble_t) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for app in WorkloadId::ALL {
        let source = app.workload().source;
        let t = Instant::now();
        let program = parse(&source).expect("app parses");
        let _original = assemble_program(&program).expect("app assembles");
        assemble_t += t.elapsed();

        let t = Instant::now();
        let analysis = analyze(&program);
        analyze_t += t.elapsed();

        let t = Instant::now();
        let mut rewritten = eilid::instrument::rewrite(&program, &analysis, &trampolines, &config)
            .expect("app instruments");
        rewrite_t += t.elapsed();

        let t = Instant::now();
        let shifted = assemble_program(&rewritten.program).expect("instrumented app assembles");
        assemble_t += t.elapsed();

        let t = Instant::now();
        eilid::instrument::patch_return_addresses(
            &mut rewritten.program,
            &rewritten.patch_points,
            &shifted.listing,
        )
        .expect("return addresses patch");
        rewrite_t += t.elapsed();

        let t = Instant::now();
        let image = assemble_program(&rewritten.program).expect("final image assembles");
        assemble_t += t.elapsed();

        let built = DeviceBuilder::new()
            .build_eilid(&app.workload().source)
            .expect("EILID image builds");
        let expected = &built.artifacts().expect("artifacts").instrumented_image;
        tally.check(image.segments == expected.segments, || {
            format!("{app}: replayed pipeline image differs from build_eilid")
        });
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    [us(analyze_t), us(rewrite_t), us(assemble_t)]
}

/// Simulated cycles and executed instructions over every baseline and
/// EILID benign run (instructions counted with `run_with_hook`).
fn instruction_counts(baselines: &Baselines) -> (u64, u64) {
    let builder = DeviceBuilder::new();
    let (mut cycles, mut instructions) = (0u64, 0u64);
    for (index, app) in WorkloadId::ALL.iter().enumerate() {
        let eilid = builder
            .build_eilid(&app.workload().source)
            .expect("EILID image builds");
        for mut device in [baselines.devices[index].clone(), eilid] {
            let mut steps = 0u64;
            let outcome = device.run_with_hook(RUN_BUDGET, |_, _| steps += 1);
            cycles += outcome.cycles();
            instructions += steps;
        }
    }
    (cycles, instructions)
}
