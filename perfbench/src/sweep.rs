//! `fleet_sweep`: one operator console alternates `OpSweep` and
//! `OpAggSweep` against one gateway serving a seven-cohort fleet through
//! one device-agent connection. A seeded 0.1% of devices are tampered,
//! all inside a seeded quarter of the shards, so the aggregated sweep
//! short-circuits clean shards and descends into suspect ones.
//!
//! The traced run adds the net layer ledger on the same fleet, one layer
//! thicker at a time: `Verifier::sweep` in process,
//! `AttestationService::verify_batch` alone, a client-driven sweep over
//! the in-memory pipe, the same over loopback TCP, and the operator-plane
//! sweeps.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eilid_casu::{CryptoProvider, DeviceKey, SoftwareProvider};
use eilid_fleet::{
    AggSweepSummary, Fleet, FleetBuilder, FleetOps, HealthClass, OpsError, SweepSummary,
};
use eilid_net::{
    serve_transport, sweep_fleet_tcp_windowed, sweep_fleet_windowed, with_attached_fleet,
    AttestationService, Gateway, GatewayConfig, GatewayHandle, PipeTransport, RemoteOps,
    TcpTransport, VerifyTask,
};
use eilid_obs::{Histogram, RegistrySnapshot};

use crate::inputs::{shard_of, sweep_inputs, SweepInputs, TAMPER_ADDR};
use crate::probe::{alloc_counts, median, set_alloc_counting, CountingProvider, HostSpeed};
use crate::report::{Metrics, Tally};

/// The fleet root key (also what the console re-derives shard aggregate
/// keys from).
pub const ROOT: &[u8] = b"perfbench-root-key-0123456789abc";
/// Device-agent connections serving the fleet.
pub const AGENTS: usize = 1;
/// Exchanges in flight per connection in the client-driven ledger
/// sweeps.
const WINDOW: usize = 32;
/// Repetitions of each ledger layer (the median is reported).
const LEDGER_REPS: usize = 5;

/// The fleet's root key.
pub fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).expect("root key length")
}

/// Worker threads for the fleet, the verifier and the gateway: the
/// machine's parallelism, so the load never oversubscribes it.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, usize::from)
}

/// Gateway configuration shared by every phase.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: parallelism(),
        queue_depth: 512,
        ..GatewayConfig::default()
    }
}

/// How big, and whether the run counts.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Fleet size.
    pub devices: usize,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
    /// Traced run: count crypto, frames and allocations, and run the
    /// layer ledger.
    pub counting: bool,
}

/// What the phase measured.
#[derive(Debug, Default)]
pub struct SweepRun {
    /// Oracle tally.
    pub tally: Tally,
    /// Set-up durations (s).
    pub setup_s: Vec<f64>,
    /// Untraced `OpSweep` wall times (ms).
    pub sweep_ms: Vec<f64>,
    /// Untraced `OpAggSweep` wall times (ms).
    pub agg_ms: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

/// Flips one PMEM byte of every tampered device.
fn tamper(fleet: &mut Fleet, tampered: &[u64]) {
    for &id in tampered {
        let memory = &mut fleet.devices_mut()[id as usize]
            .device_mut()
            .cpu_mut()
            .memory;
        let original = memory.read_byte(TAMPER_ADDR);
        memory.write_byte(TAMPER_ADDR, original ^ 0x01);
    }
}

/// The per-device verdicts the seeded tamper set implies.
fn expected_summary(inputs: &SweepInputs) -> SweepSummary {
    let tampered = inputs.tampered.len();
    SweepSummary {
        devices: inputs.devices,
        counts: [inputs.devices - tampered, 0, tampered, 0],
        flagged: inputs
            .tampered
            .iter()
            .map(|&id| (id, HealthClass::Tampered))
            .collect(),
    }
}

fn check_agg(tally: &mut Tally, inputs: &SweepInputs, sweep: &Result<AggSweepSummary, OpsError>) {
    let expected = expected_summary(inputs);
    let short_circuited = inputs.devices - inputs.devices_in_suspect_shards();
    tally.check(
        matches!(sweep, Ok(agg) if agg.summary == expected
            && agg.short_circuited == short_circuited
            && agg.roots_verified == agg.shards),
        || format!("OpAggSweep verdicts differ from the seeded expectation: {sweep:?}"),
    );
}

fn check_sweep(tally: &mut Tally, inputs: &SweepInputs, sweep: &Result<SweepSummary, OpsError>) {
    let expected = expected_summary(inputs);
    tally.check(matches!(sweep, Ok(s) if *s == expected), || {
        format!("OpSweep verdicts differ from the seeded expectation: {sweep:?}")
    });
}

/// Counter and histogram-count deltas between two scrapes.
fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    let get = |snap: &RegistrySnapshot| snap.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

fn histogram_records(snap: &RegistrySnapshot) -> u64 {
    snap.histograms.values().map(|h| h.count).sum()
}

/// Per-layer counts of one traced operation.
#[derive(Debug, Default, Clone, Copy)]
struct OpCounts {
    hmac_ops: u64,
    hmac_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
    frames: u64,
    wakes: u64,
    busy: u64,
    records: u64,
}

/// Runs `op` with counting on and returns its result and counts.
fn counted<R>(
    provider: &CountingProvider,
    ops: &mut RemoteOps<TcpTransport>,
    op: impl FnOnce(&mut RemoteOps<TcpTransport>) -> R,
) -> Result<(R, OpCounts), OpsError> {
    let before = ops.metrics()?;
    let crypto = provider.counts();
    set_alloc_counting(true);
    let allocs = alloc_counts();
    let result = op(ops);
    let allocs = {
        let now = alloc_counts();
        (now.0 - allocs.0, now.1 - allocs.1)
    };
    set_alloc_counting(false);
    let crypto = provider.counts().since(crypto);
    let after = ops.metrics()?;
    Ok((
        result,
        OpCounts {
            hmac_ops: crypto.hmac_ops,
            hmac_bytes: crypto.hmac_bytes,
            allocs: allocs.0,
            alloc_bytes: allocs.1,
            frames: counter_delta(&before, &after, "eilid_gateway_frames_received_total"),
            wakes: counter_delta(&before, &after, "eilid_gateway_reactor_wakes_total"),
            busy: counter_delta(&before, &after, "eilid_gateway_busy_rejections_total"),
            records: histogram_records(&after).saturating_sub(histogram_records(&before)),
        },
    ))
}

/// What the traced run measures inside the attached session.
#[derive(Default)]
struct Trace {
    traced_sweep_ms: Vec<f64>,
    traced_agg_ms: Vec<f64>,
    sweep_counts: OpCounts,
    agg_counts: OpCounts,
    last_agg: Option<AggSweepSummary>,
}

/// A live console against the attached fleet, stepped one
/// `OpSweep`/`OpAggSweep` pair at a time.
pub struct SweepSession<'a> {
    ops: RemoteOps<TcpTransport>,
    inputs: &'a SweepInputs,
    run: &'a mut SweepRun,
    trace: Trace,
}

impl<'a> SweepSession<'a> {
    /// Connects the console and runs the checked warm-up pair (key
    /// caches, Merkle roots); a counting session also takes the exact
    /// per-layer counts of one traced pair.
    fn open(
        mut ops: RemoteOps<TcpTransport>,
        inputs: &'a SweepInputs,
        run: &'a mut SweepRun,
        provider: Option<&Arc<CountingProvider>>,
    ) -> Result<Self, OpsError> {
        ops.set_agg_root_key(ROOT);
        let warm = ops.sweep();
        check_sweep(&mut run.tally, inputs, &warm);
        let warm_agg = ops.sweep_aggregated();
        check_agg(&mut run.tally, inputs, &warm_agg);
        let mut trace = Trace::default();
        if let Some(provider) = provider {
            ops.set_provider(Arc::clone(provider) as Arc<dyn CryptoProvider>);
            let (sweep, counts) = counted(provider, &mut ops, |ops| ops.sweep())?;
            check_sweep(&mut run.tally, inputs, &sweep);
            trace.sweep_counts = counts;
            let (agg, counts) = counted(provider, &mut ops, |ops| ops.sweep_aggregated())?;
            check_agg(&mut run.tally, inputs, &agg);
            trace.agg_counts = counts;
            trace.last_agg = agg.ok();
        }
        Ok(SweepSession {
            ops,
            inputs,
            run,
            trace,
        })
    }

    /// Pairs timed so far.
    pub fn pairs(&self) -> usize {
        self.run.sweep_ms.len() + self.trace.traced_sweep_ms.len()
    }

    /// Times and checks one pair; `traced` counts its allocations and
    /// files its times with the traced samples.
    pub fn step(&mut self, traced: bool) {
        let speed = HostSpeed::start();
        set_alloc_counting(traced);
        let t = Instant::now();
        let sweep = self.ops.sweep();
        let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let agg = self.ops.sweep_aggregated();
        let agg_ms = t.elapsed().as_secs_f64() * 1e3;
        set_alloc_counting(false);
        let k = speed.finish();
        let (sweep_ms, agg_ms) = (sweep_ms * k, agg_ms * k);
        check_sweep(&mut self.run.tally, self.inputs, &sweep);
        check_agg(&mut self.run.tally, self.inputs, &agg);
        if traced {
            self.trace.traced_sweep_ms.push(sweep_ms);
            self.trace.traced_agg_ms.push(agg_ms);
        } else {
            self.run.sweep_ms.push(sweep_ms);
            self.run.agg_ms.push(agg_ms);
        }
    }
}

/// Builds the fleet and its gateway: the part of a set-up before the
/// agent attaches.
fn set_up(
    inputs: &SweepInputs,
    provider: Option<&Arc<CountingProvider>>,
) -> (
    Fleet,
    eilid_fleet::Verifier,
    Arc<AttestationService>,
    GatewayHandle,
) {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(inputs.devices)
        .threads(parallelism())
        .build()
        .expect("sweep fleet builds");
    tamper(&mut fleet, &inputs.tampered);
    let snapshot = verifier.service_snapshot(1 << 32);
    let service = Arc::new(match provider {
        Some(p) => {
            AttestationService::with_provider(snapshot, Arc::clone(p) as Arc<dyn CryptoProvider>)
        }
        None => AttestationService::new(snapshot),
    });
    let handle = Gateway::bind(("127.0.0.1", 0), Arc::clone(&service), gateway_config())
        .expect("gateway binds on loopback")
        .spawn();
    (fleet, verifier, service, handle)
}

/// Sets the phase up `config.setups` times (fleet, gateway, attached
/// agent, connected console) and hands the last set-up's session to
/// `body`. A counting configuration then runs the layer ledger on the
/// same fleet and gateway.
pub fn with_session<R>(
    seed: u64,
    config: SweepConfig,
    body: impl FnOnce(&mut SweepSession<'_>) -> R,
) -> (SweepRun, Option<R>) {
    let inputs = sweep_inputs(seed, config.devices);
    let mut run = SweepRun::default();
    let provider = config.counting.then(CountingProvider::shared);
    let mut body = Some(body);
    let mut output = None;
    let setups = config.setups.max(1);
    for setup in 0..setups {
        let job = if setup + 1 == setups {
            body.take()
        } else {
            None
        };
        let speed = HostSpeed::start();
        let start = Instant::now();
        let (mut fleet, mut verifier, service, handle) = set_up(&inputs, provider.as_ref());
        let addr = handle.addr();
        let run_ref = &mut run;
        let (inputs_ref, provider_ref) = (&inputs, provider.as_ref());
        let session =
            with_attached_fleet(&mut fleet, AGENTS, addr, move || -> Result<_, OpsError> {
                let connect = RemoteOps::connect(addr);
                let setup_s = start.elapsed().as_secs_f64();
                run_ref.setup_s.push(setup_s * speed.finish());
                let Some(job) = job else {
                    return Ok(None);
                };
                let ops = connect.map_err(|e| OpsError::Backend(e.to_string()))?;
                let mut session = SweepSession::open(ops, inputs_ref, run_ref, provider_ref)?;
                let result = job(&mut session);
                Ok(Some((result, session.trace)))
            });
        let session = match session {
            Ok(Ok(session)) => session,
            Ok(Err(err)) => {
                run.tally
                    .check(false, || format!("operator console failed: {err}"));
                None
            }
            Err(err) => {
                run.tally
                    .check(false, || format!("device agent failed: {err}"));
                None
            }
        };
        if let Some((result, trace)) = session {
            if config.counting {
                ledger(
                    &inputs,
                    &mut fleet,
                    &mut verifier,
                    &service,
                    &handle,
                    &trace,
                    &mut run,
                );
            }
            output = Some(result);
        }
        if handle.shutdown().is_err() {
            run.tally
                .check(false, || "gateway shutdown failed".to_string());
        }
    }
    (run, output)
}

/// The traced layer ledger, on the same fleet and gateway.
#[allow(clippy::too_many_arguments)]
fn ledger(
    inputs: &SweepInputs,
    fleet: &mut Fleet,
    verifier: &mut eilid_fleet::Verifier,
    service: &Arc<AttestationService>,
    handle: &GatewayHandle,
    trace: &Trace,
    run: &mut SweepRun,
) {
    let devices = inputs.devices as f64;
    let expected = expected_summary(inputs);
    let per_device_ns = |elapsed: Duration| elapsed.as_nanos() as f64 / devices;

    // Layer: the in-process sweep on the verifier's worker pool.
    let mut inproc = Vec::new();
    for _ in 0..LEDGER_REPS {
        let speed = HostSpeed::start();
        let t = Instant::now();
        let report = verifier.sweep(fleet);
        inproc.push(per_device_ns(t.elapsed()) * speed.finish());
        run.tally
            .check(SweepSummary::from(&report) == expected, || {
                "in-process sweep verdicts differ".to_string()
            });
    }

    // Layer: the trust core alone — the gateway's per-shard batches.
    let tasks: Vec<VerifyTask> = fleet
        .devices_mut()
        .iter_mut()
        .map(|device| {
            let issued = service
                .challenge_for(device.cohort())
                .expect("service issues challenges");
            let report = device.attest(issued);
            VerifyTask {
                device: device.id(),
                cohort: device.cohort(),
                issued,
                report,
            }
        })
        .collect();
    let mut by_shard: BTreeMap<u16, Vec<VerifyTask>> = BTreeMap::new();
    for task in tasks {
        by_shard
            .entry(shard_of(task.device))
            .or_default()
            .push(task);
    }
    let batch = gateway_config().batch_max;
    let mut verify = Vec::new();
    for _ in 0..LEDGER_REPS {
        let mut tampered = 0usize;
        let speed = HostSpeed::start();
        let t = Instant::now();
        for tasks in by_shard.values() {
            for chunk in tasks.chunks(batch) {
                let verdicts = service.verify_batch(chunk);
                tampered += verdicts
                    .iter()
                    .filter(|(class, _)| *class == HealthClass::Tampered)
                    .count();
            }
        }
        verify.push(per_device_ns(t.elapsed()) * speed.finish());
        run.tally.check(tampered == inputs.tampered.len(), || {
            format!("verify_batch found {tampered} tampered")
        });
    }

    // Layers: client-driven sweeps over the in-memory pipe, then over
    // loopback TCP into the gateway.
    let mut pipe = Vec::new();
    let mut tcp = Vec::new();
    for _ in 0..LEDGER_REPS {
        let speed = HostSpeed::start();
        let servers = Mutex::new(Vec::new());
        let report = sweep_fleet_windowed(fleet, AGENTS, WINDOW, || {
            let (client, mut server) = PipeTransport::pair();
            let service = Arc::clone(service);
            servers
                .lock()
                .expect("server list")
                .push(std::thread::spawn(move || {
                    let _ = serve_transport(&service, &mut server);
                }));
            Ok(client)
        });
        let k = speed.finish();
        for server in servers.into_inner().expect("server list") {
            let _ = server.join();
        }
        check_net(&mut run.tally, &expected, "pipe", &report);
        if let Ok(report) = report {
            pipe.push(per_device_ns(report.elapsed) * k);
        }

        let speed = HostSpeed::start();
        let report = sweep_fleet_tcp_windowed(fleet, AGENTS, WINDOW, handle.addr());
        let k = speed.finish();
        check_net(&mut run.tally, &expected, "tcp", &report);
        if let Ok(report) = report {
            tcp.push(per_device_ns(report.elapsed) * k);
        }
    }
    // The gateway's worker pool verifies client-driven reports (operator
    // sweeps verify on the engine thread). One more, untimed, TCP sweep
    // with a console scraping the pool's queue depth while it runs.
    let pool = pool_under_load(fleet, handle, &expected, &mut run.tally);

    // The operator-plane layers, from the traced pairs.
    let ms_to_ns = |ms: f64| ms * 1e6 / devices;
    let sweep = &trace.sweep_counts;
    let agg = &trace.agg_counts;
    let layers = &mut run.layers;
    layers.put("fleet.inproc_sweep_ns_per_device", median(&inproc), "ns");
    layers.put(
        "net.service.verify_batch_ns_per_report",
        median(&verify),
        "ns",
    );
    layers.put("net.pipe_sweep_ns_per_device", median(&pipe), "ns");
    layers.put("net.tcp_sweep_ns_per_device", median(&tcp), "ns");
    layers.put(
        "net.ops.sweep_ns_per_device",
        ms_to_ns(median(&trace.traced_sweep_ms)),
        "ns",
    );
    layers.put(
        "net.ops.agg_sweep_ns_per_device",
        ms_to_ns(median(&trace.traced_agg_ms)),
        "ns",
    );
    layers.put(
        "casu.hmac_ops_per_device",
        sweep.hmac_ops as f64 / devices,
        "count",
    );
    layers.put(
        "casu.hmac_bytes_per_device",
        sweep.hmac_bytes as f64 / devices,
        "B",
    );
    layers.put(
        "casu.agg.hmac_ops_per_device",
        agg.hmac_ops as f64 / devices,
        "count",
    );
    layers.put("casu.hmac_ns", hmac_ns(), "ns");
    if let Some(last) = &trace.last_agg {
        layers.count("casu.agg.roots_verified", last.roots_verified as u64);
        layers.put(
            "casu.agg.short_circuited_share",
            last.short_circuited as f64 / devices,
            "share",
        );
        layers.count("casu.agg.suspects", last.summary.flagged.len() as u64);
    }
    if let Some((job_us_p50, depth_max)) = pool {
        layers.put("fleet.pool.job_us_p50", job_us_p50, "us");
        layers.count("fleet.pool.queue_depth_max", depth_max);
    }
    layers.put(
        "net.gateway.frames_per_device",
        sweep.frames as f64 / devices,
        "count",
    );
    layers.put(
        "net.gateway.wakes_per_device",
        sweep.wakes as f64 / devices,
        "count",
    );
    layers.count("net.gateway.busy_rejections", sweep.busy + agg.busy);
    layers.put("obs.record_ns", obs_record_ns(), "ns");
    layers.put(
        "obs.records_per_device",
        sweep.records as f64 / devices,
        "count",
    );
    layers.put(
        "alloc.allocs_per_device",
        sweep.allocs as f64 / devices,
        "count",
    );
    layers.put(
        "alloc.bytes_per_device",
        sweep.alloc_bytes as f64 / devices,
        "B",
    );
    let untraced = median(&run.sweep_ms);
    layers.put(
        "trace.overhead_pct",
        (median(&trace.traced_sweep_ms) / untraced - 1.0) * 100.0,
        "%",
    );
}

/// Runs one client-driven TCP sweep while a console scrapes the
/// gateway every few milliseconds; returns the pool's job-latency p50
/// (µs) and the deepest hottest-worker queue seen.
fn pool_under_load(
    fleet: &mut Fleet,
    handle: &GatewayHandle,
    expected: &SweepSummary,
    tally: &mut Tally,
) -> Option<(f64, u64)> {
    let addr = handle.addr();
    let mut ops = RemoteOps::connect(addr).ok()?;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (report, depth_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut depth_max = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(scrape) = ops.metrics() {
                    let depth = scrape.gauges.get("eilid_pool_queue_depth_max");
                    depth_max = depth_max.max(depth.copied().unwrap_or(0));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            depth_max
        });
        let report = sweep_fleet_tcp_windowed(fleet, AGENTS, WINDOW, addr);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (report, sampler.join().expect("pool sampler"))
    });
    check_net(tally, expected, "tcp", &report);
    let scrape = ops.metrics().ok()?;
    let job_us_p50 = scrape
        .histograms
        .get("eilid_pool_job_us")
        .map_or(0.0, |h| h.p50() as f64);
    Some((job_us_p50, depth_max))
}

fn check_net(
    tally: &mut Tally,
    expected: &SweepSummary,
    layer: &str,
    report: &Result<eilid_net::NetSweepReport, eilid_net::NetError>,
) {
    tally.check(
        matches!(report, Ok(r) if r.counts == expected.counts && r.flagged == expected.flagged),
        || format!("{layer} sweep verdicts differ from the seeded expectation: {report:?}"),
    );
}

/// Median ns of one HMAC over a report-sized message, on the provider
/// the gateway verifies with by default.
fn hmac_ns() -> f64 {
    let provider = SoftwareProvider;
    let key = [0x5Au8; 32];
    let message = [0xA5u8; 80];
    let mut samples = Vec::new();
    for _ in 0..LEDGER_REPS {
        let speed = HostSpeed::start();
        let t = Instant::now();
        for _ in 0..2_000 {
            std::hint::black_box(provider.hmac(&key, std::hint::black_box(&message)));
        }
        samples.push(t.elapsed().as_nanos() as f64 / 2_000.0 * speed.finish());
    }
    median(&samples)
}

/// Median ns of one `Histogram::record`.
fn obs_record_ns() -> f64 {
    let histogram = Histogram::new();
    let mut samples = Vec::new();
    for _ in 0..LEDGER_REPS {
        let speed = HostSpeed::start();
        let t = Instant::now();
        for value in 0..100_000u64 {
            histogram.record(std::hint::black_box(value));
        }
        samples.push(t.elapsed().as_nanos() as f64 / 100_000.0 * speed.finish());
    }
    median(&samples)
}
