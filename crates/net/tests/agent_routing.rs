//! Device-agent request routing: every pushed request reaches the
//! device it names, whatever the order of the served slice. Driven over
//! the in-memory pipe with the test acting as the gateway end.

use std::sync::atomic::AtomicBool;

use eilid_casu::{AttestationVerifier, Challenge, DeviceKey, MeasurementScheme, MemoryLayout};
use eilid_fleet::{FleetBuilder, SimDevice, Verifier};
use eilid_net::{
    DeviceAgent, ErrorCode, Frame, PipeTransport, ProbeMode, Transport, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn build(devices: usize) -> (Vec<SimDevice>, Verifier) {
    let (fleet, verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(1)
        .workloads(&[WorkloadId::LightSensor, WorkloadId::TempSensor])
        .build()
        .unwrap();
    (fleet.devices().to_vec(), verifier)
}

fn challenge(nonce: u64) -> Challenge {
    let layout = MemoryLayout::default();
    Challenge {
        nonce,
        start: *layout.pmem.start(),
        end: *layout.pmem.end(),
    }
}

/// Serves one attest-only probe per id in `ids` from `devices` and
/// returns the replies, in request order.
fn probe(devices: &mut [SimDevice], ids: &[u64]) -> Vec<Frame> {
    let (mut gateway, agent_end) = PipeTransport::pair();
    gateway
        .send(&Frame::HelloAck {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
    let mut agent = DeviceAgent::connect(agent_end, MeasurementScheme::FlatSha256).unwrap();
    assert!(matches!(gateway.recv().unwrap(), Frame::Hello { .. }));
    let mut requests: Vec<Frame> = ids
        .iter()
        .map(|&device| Frame::ProbeRequest {
            device,
            mode: ProbeMode::AttestOnly,
            smoke_cycles: 0,
            challenge: challenge(1000 + device),
        })
        .collect();
    requests.push(Frame::Bye);
    gateway.send_batch(&requests).unwrap();
    agent.serve(devices, &AtomicBool::new(false)).unwrap();
    ids.iter().map(|_| gateway.recv().unwrap()).collect()
}

/// Whether `reply` is a probe result for `id` whose report verifies
/// under that device's key.
fn verifies(verifier: &Verifier, id: u64, reply: &Frame) -> bool {
    let Frame::ProbeResult { device, report, .. } = reply else {
        panic!("device {id}: expected a probe result, got {reply:?}");
    };
    assert_eq!(*device, id);
    AttestationVerifier::with_key(&verifier.device_key(id))
        .verify(&challenge(1000 + id), report, None)
        .is_ok()
}

#[test]
fn each_probe_is_answered_by_the_device_it_names() {
    let (mut devices, verifier) = build(24);
    // A fixed shuffle: slot order no longer follows id order.
    for i in (1..devices.len()).rev() {
        devices.swap(i, (i * 7 + 3) % (i + 1));
    }
    assert!(devices
        .iter()
        .enumerate()
        .any(|(slot, d)| d.id() != slot as u64));
    let ids: Vec<u64> = (0..24).rev().collect();
    for (&id, reply) in ids.iter().zip(&probe(&mut devices, &ids)) {
        assert!(verifies(&verifier, id, reply), "device {id}");
    }
}

#[test]
fn unknown_device_gets_a_device_error() {
    let (mut devices, _) = build(4);
    let replies = probe(&mut devices, &[99]);
    assert!(matches!(
        replies[0],
        Frame::DeviceError {
            device: 99,
            code: ErrorCode::UnknownDevice
        }
    ));
}

#[test]
fn first_occurrence_of_a_repeated_id_answers() {
    let (devices, verifier) = build(4);
    let mut impostor = devices[2].clone();
    impostor.corrupt_attestation_key();

    // Genuine device first: its report verifies.
    let mut genuine_first = devices.clone();
    genuine_first.push(impostor.clone());
    let replies = probe(&mut genuine_first, &[2]);
    assert!(verifies(&verifier, 2, &replies[0]));

    // Impostor first: it answers, and its report does not verify.
    let mut impostor_first = vec![impostor];
    impostor_first.extend(devices);
    let replies = probe(&mut impostor_first, &[2]);
    assert!(!verifies(&verifier, 2, &replies[0]));
}
