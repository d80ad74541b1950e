//! The gateway's trust core on every path: campaign probes and rollback
//! checks run on the service's `CryptoProvider`, each device key is
//! derived once no matter which gateway path asks for it, and an
//! aggregated sweep over device-chosen ids far apart is refused with a
//! typed error instead of taking the gateway down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eilid_casu::{CryptoProvider, DeviceKey, SoftwareProvider, DIGEST_SIZE, TAG_SIZE};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, Fleet, FleetBuilder, FleetOps, HealthClass, OpsError, Verifier,
};
use eilid_net::{
    sweep_fleet_tcp, with_attached_fleet, AttestationService, Frame, Gateway, GatewayConfig,
    GatewayHandle, RemoteOps, TcpTransport, Transport, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const COHORT: WorkloadId = WorkloadId::LightSensor;

/// A software backend that counts the HMACs it computes.
#[derive(Debug, Default)]
struct CountingProvider {
    hmacs: AtomicU64,
}

impl CryptoProvider for CountingProvider {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        SoftwareProvider.sha256(data)
    }

    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
        self.hmacs.fetch_add(1, Ordering::Relaxed);
        SoftwareProvider.hmac(key, message)
    }
}

fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[COHORT])
        .build()
        .unwrap()
}

fn spawn_gateway(service: &Arc<AttestationService>, ops_timeout: Duration) -> GatewayHandle {
    Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(service),
        GatewayConfig {
            workers: 2,
            ops_timeout,
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn()
}

fn delta_campaign() -> CampaignConfig {
    let mut config = CampaignConfig::new(COHORT, BENIGN_PATCH_TARGET, benign_patch());
    config.smoke_cycles = 200_000;
    config.delta = true;
    config
}

/// Every post-update attest probe (memoized, probe-isolated and the
/// cohort reference alike) and every rollback check of a
/// gateway-resident delta campaign is verified on the service's
/// provider: one HMAC per updated device plus one per rollback.
#[test]
fn gateway_campaign_probes_and_rollbacks_run_on_the_provider() {
    const DEVICES: usize = 14;
    let (mut fleet, mut verifier) = build(DEVICES);
    // Device 3 leaves the memoized-probe path; device 5 is tampered
    // outside the patch range, so its delta applies but its post-update
    // measurement mismatches: probe failure, quarantine, rollback.
    fleet.devices_mut()[3].set_probe_isolated(true);
    {
        let memory = &mut fleet.devices_mut()[5].device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }
    let provider = Arc::new(CountingProvider::default());
    let service = Arc::new(AttestationService::with_provider(
        verifier.service_snapshot(1 << 20),
        Arc::clone(&provider) as Arc<dyn CryptoProvider>,
    ));
    let handle = spawn_gateway(&service, Duration::from_secs(10));
    let addr = handle.addr();

    let (report, hmacs) = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let before = provider.hmacs.load(Ordering::Relaxed);
        let report = ops.run_campaign(&delta_campaign())?;
        Ok::<_, OpsError>((report, provider.hmacs.load(Ordering::Relaxed) - before))
    })
    .expect("device agents served cleanly")
    .expect("campaign runs");
    handle.shutdown().unwrap();

    assert_eq!(
        report.outcome,
        CampaignOutcome::Completed {
            updated: DEVICES - 1
        }
    );
    assert_eq!(report.quarantined, vec![5]);
    assert!(report.rollback_incomplete.is_empty());
    assert_eq!(
        hmacs,
        (DEVICES + report.quarantined.len()) as u64,
        "one provider HMAC per attest probe and per rollback check"
    );
}

/// Client-driven reports, operator sweeps (per-device and aggregated)
/// and a full campaign all draw device keys from the one derive-once
/// cache.
#[test]
fn every_gateway_path_derives_each_key_once() {
    const DEVICES: usize = 12;
    let (mut fleet, mut verifier) = build(DEVICES);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = spawn_gateway(&service, Duration::from_secs(10));
    let addr = handle.addr();

    let client = sweep_fleet_tcp(&mut fleet, 2, addr).expect("client-driven sweep");
    assert_eq!(client.count(HealthClass::Attested), DEVICES);
    assert_eq!(service.cached_keys(), DEVICES);

    let (sweep, agg, report) = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(ROOT);
        let sweep = ops.sweep()?;
        let agg = ops.sweep_aggregated()?;
        let report = ops.run_campaign(&delta_campaign())?;
        Ok::<_, OpsError>((sweep, agg, report))
    })
    .expect("device agents served cleanly")
    .expect("operator plane runs");
    handle.shutdown().unwrap();

    assert_eq!(sweep.count(HealthClass::Attested), DEVICES);
    assert_eq!(agg.summary, sweep);
    assert_eq!(
        report.outcome,
        CampaignOutcome::Completed { updated: DEVICES }
    );
    assert_eq!(service.cached_keys(), DEVICES);
    assert_eq!(service.key_derivations(), DEVICES as u64);
}

/// `Frame::Attach` takes any `u64` id. A peer attaching ids 0 and
/// `u64::MAX` makes the aggregated sweep's participant bitmap span 2⁶¹
/// bytes; the gateway must refuse that sweep with a typed error and
/// keep serving, not abort on the allocation.
#[test]
fn aggregated_sweep_over_far_apart_ids_is_refused_not_fatal() {
    let (_fleet, mut verifier) = build(1);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = spawn_gateway(&service, Duration::from_millis(200));
    let addr = handle.addr();

    // The raw device-plane peer: attaches, then never answers a probe.
    let mut peer = TcpTransport::connect(addr).unwrap();
    peer.send(&Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    })
    .unwrap();
    assert!(matches!(peer.recv().unwrap(), Frame::HelloAck { .. }));
    for device in [0, u64::MAX] {
        peer.send(&Frame::Attach {
            device,
            cohort: COHORT,
        })
        .unwrap();
        assert!(matches!(peer.recv().unwrap(), Frame::AttachAck { .. }));
    }

    let mut ops = RemoteOps::connect(addr).unwrap();
    ops.set_op_timeout(Duration::from_secs(10));
    ops.set_agg_root_key(ROOT);
    assert!(
        ops.sweep_aggregated().is_err(),
        "an unframeable participant bitmap is refused"
    );

    // Same gateway, same attachments: the per-device sweep still runs,
    // and the silent peer's two devices read as failed verifications.
    let sweep = ops.sweep().expect("gateway still serves OpSweep");
    assert_eq!(sweep.devices, 2);
    assert_eq!(sweep.count(HealthClass::Unverified), 2);
    drop(peer);
    handle.shutdown().unwrap();
}
