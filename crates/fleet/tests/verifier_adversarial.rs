//! Adversarial tests against the *optimised* verifier path: the sharded
//! sweep with cached device keys and the incremental (Merkle) device
//! measurers. Every optimisation is a place where stale state could leak
//! into a trust decision; these tests pin down that none does:
//!
//! * stale-cache attack — tamper a device's PMEM *between* sweeps and
//!   assert the next incremental sweep classifies it `Tampered` (the
//!   device-side Merkle cache must be invalidated by the write, and the
//!   verifier must never echo a previous sweep's verdict);
//! * cross-device replay — present device A's honestly produced report
//!   as device B's answer and assert the cached-key verifier rejects it
//!   (per-device keys, challenge binding);
//! * schedule independence — the thread count a sweep runs on must
//!   never change its evidence: verdicts, shard roots and fleet root.

use eilid_casu::{AttestError, AttestationVerifier, Attestor, DeviceKey, MeasurementScheme};
use eilid_fleet::{FleetBuilder, HealthClass};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

/// Tampering after a clean sweep must flip the device to `Tampered` on
/// the next sweep — across repeated sweeps (warm key caches, warm Merkle
/// trees), and back to `Attested` after an authenticated repair.
#[test]
fn stale_cache_attack_is_flagged_on_the_next_sweep() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(8)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    assert_eq!(fleet.scheme(), MeasurementScheme::Merkle);

    // Several clean sweeps first: key caches and Merkle trees are warm,
    // and the devices' measurers have served cached roots repeatedly.
    for _ in 0..3 {
        let report = verifier.sweep(&mut fleet);
        assert_eq!(report.count(HealthClass::Attested), 8);
    }
    assert_eq!(verifier.cached_keys(), 8);
    let clean_stats = *fleet.devices()[3].measurer_stats().unwrap();
    assert_eq!(
        clean_stats.leaves_rehashed, 0,
        "clean sweeps must not re-hash any leaf"
    );

    // The attacker flips one byte on device 3 *after* the sweeps.
    {
        let device = &mut fleet.devices_mut()[3];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }

    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 7);
    assert_eq!(report.devices_in(HealthClass::Tampered), vec![3]);
    // Detection cost: exactly the one dirtied leaf was re-hashed.
    let stats = *fleet.devices()[3].measurer_stats().unwrap();
    assert_eq!(stats.leaves_rehashed, 1);

    // The flag is sticky across further sweeps (the engine keeps
    // reporting the tampered content, never a cached pre-tamper root).
    let again = verifier.sweep(&mut fleet);
    assert_eq!(again.devices_in(HealthClass::Tampered), vec![3]);

    // Authenticated repair through the update path clears it.
    {
        let good: Vec<u8> = fleet.devices()[0]
            .device()
            .cpu()
            .memory
            .slice(0xE010..0xE011)
            .to_vec();
        let key = verifier.device_key(3);
        let device = &mut fleet.devices_mut()[3];
        let mut authority =
            eilid_casu::UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
        let request = authority.authorize(0xE010, &good);
        device.apply_update(&request).unwrap();
    }
    let healed = verifier.sweep(&mut fleet);
    assert_eq!(healed.count(HealthClass::Attested), 8);
}

/// Device A's honest report must never verify as device B's: the shard
/// key cache hands back *B's* key for B's challenge, under which A's MAC
/// is garbage — and the challenge binding catches mismatched nonces
/// first when the attacker replays wholesale.
#[test]
fn cross_device_report_replay_is_rejected() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(4)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    // Warm the verifier's key caches so the replay hits cached keys.
    verifier.sweep(&mut fleet);
    assert_eq!(verifier.cached_keys(), 4);

    let key_a = verifier.device_key(0);
    let key_b = verifier.device_key(1);
    let verifier_b = AttestationVerifier::with_key(&key_b);
    let layout = fleet.devices()[0].device().layout().clone();

    // The verifier challenges device B; the attacker answers with a
    // report honestly produced by (clean) device A under A's key.
    let challenge_b = verifier_b.challenge_pmem(&layout, 10_001);
    let report_a = fleet.devices_mut()[0].attest(challenge_b);
    assert_eq!(
        verifier_b.verify(&challenge_b, &report_a, None),
        Err(AttestError::BadMac),
        "a report MACed under device A's key must not verify as device B"
    );

    // Wholesale replay of A's *previous* report (answering A's own
    // challenge) against B's fresh challenge dies on challenge binding
    // even before the MAC check.
    let attestor_a = Attestor::with_key(&key_a);
    let challenge_a = AttestationVerifier::with_key(&key_a).challenge_pmem(&layout, 10_000);
    let recorded_a = attestor_a.attest(&fleet.devices()[0].device().cpu().memory, challenge_a);
    assert_eq!(
        verifier_b.verify(&challenge_b, &recorded_a, None),
        Err(AttestError::ChallengeMismatch)
    );

    // And the sweep as a whole still attests the untampered fleet clean:
    // replay attempts leave no residue in cached state.
    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 4);
}

/// Regression test for the sweep thread-count guard: shard assignment is
/// keyed by the verifier's *fixed* shard count, never by the requested
/// parallelism, so changing the worker count between sweeps (1 → 4 → 2)
/// must reuse every cached key — zero re-derivations — and keep
/// classifications exact.
#[test]
fn changing_parallelism_between_sweeps_never_orphans_cached_keys() {
    const DEVICES: usize = 24;
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(DEVICES)
        .threads(1)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    assert_eq!(verifier.parallelism(), 1);
    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), DEVICES);
    assert_eq!(verifier.cached_keys(), DEVICES);
    assert_eq!(
        verifier.key_derivations(),
        DEVICES as u64,
        "first sweep derives each key exactly once"
    );

    // Tamper one device so later sweeps must prove they still verify
    // against real per-device keys, not stale aggregate state.
    {
        let device = &mut fleet.devices_mut()[7];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }

    for workers in [4usize, 2] {
        verifier.set_parallelism(workers);
        assert_eq!(verifier.parallelism(), workers);
        let report = verifier.sweep(&mut fleet);
        assert_eq!(report.count(HealthClass::Attested), DEVICES - 1);
        assert_eq!(report.devices_in(HealthClass::Tampered), vec![7]);
        assert_eq!(
            verifier.cached_keys(),
            DEVICES,
            "cache size is stable across parallelism changes"
        );
        assert_eq!(
            verifier.key_derivations(),
            DEVICES as u64,
            "re-sweeping at {workers} workers must not re-derive any key"
        );
    }
}

/// The key cache must be populated lazily and shard-stably: sweeping a
/// subset caches only that subset's keys, and re-sweeping reuses them
/// (correctness witnessed by classifications staying exact).
#[test]
fn subset_sweeps_cache_lazily_and_stay_correct() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(6)
        .threads(3)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    let subset = [0u64, 2, 4];
    let report = verifier.sweep_devices(&mut fleet, &subset);
    assert_eq!(report.devices.len(), 3);
    assert_eq!(report.count(HealthClass::Attested), 3);
    assert_eq!(verifier.cached_keys(), 3);

    // Unknown ids are surfaced as missing, not silently dropped, and do
    // not pollute the cache.
    let report = verifier.sweep_devices(&mut fleet, &[1, 99]);
    assert_eq!(report.count(HealthClass::Attested), 1);
    assert_eq!(report.missing, vec![99]);
    assert_eq!(verifier.cached_keys(), 4);

    // Full sweep: the four cached keys are reused, two more derived.
    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 6);
    assert_eq!(verifier.cached_keys(), 6);
}

/// The schedule never changes evidence: the same fleet (with tampered
/// devices in several shards) swept on 1, 2, 3 and 16 threads yields
/// bit-identical aggregated evidence — epoch, every shard root, the
/// fleet root — and identical per-device verdicts.
#[test]
fn sweep_evidence_is_independent_of_parallelism() {
    const DEVICES: usize = 40;
    let (mut fleet, verifier) = FleetBuilder::new(root_key())
        .devices(DEVICES)
        .threads(2)
        .build()
        .unwrap();
    for index in [3usize, 17, 22] {
        let device = &mut fleet.devices_mut()[index];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }

    let runs: Vec<_> = [1usize, 2, 3, 16]
        .into_iter()
        .map(|threads| {
            let (mut fleet, mut verifier) = (fleet.clone(), verifier.clone());
            verifier.set_parallelism(threads);
            let agg = verifier.sweep_aggregated(&mut fleet);
            let report = verifier.sweep(&mut fleet);
            assert_eq!(report.threads, threads.min(agg.shards));
            (threads, agg, report)
        })
        .collect();

    let (_, reference_agg, reference) = &runs[0];
    assert_eq!(reference.devices_in(HealthClass::Tampered), vec![3, 17, 22]);
    assert_eq!(reference.count(HealthClass::Attested), DEVICES - 3);
    for (threads, agg, report) in &runs[1..] {
        assert_eq!(agg.epoch, reference_agg.epoch, "{threads} threads");
        assert_eq!(
            agg.shard_roots, reference_agg.shard_roots,
            "{threads} threads"
        );
        assert_eq!(
            agg.fleet_root, reference_agg.fleet_root,
            "{threads} threads"
        );
        assert_eq!(agg, reference_agg, "{threads} threads");
        assert_eq!(report.devices, reference.devices, "{threads} threads");
    }
}
