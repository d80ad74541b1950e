//! Seeded input generation shared by all three workloads.
//!
//! The seed is a benchmark argument; the program under test only ever
//! sees what this module derives from it: which devices are tampered
//! (and so which shards are suspect), which devices are probe-isolated,
//! the OTA patch bytes, and the attack schedule. The same seed always
//! gives the same inputs; every property's share is fixed, so two seeds
//! differ in *which* inputs carry a property, never in how many.

use eilid_fleet::SHARD_COUNT;
use eilid_workloads::{CfiAttack, WorkloadId};

/// Share of fleet devices whose PMEM is tampered, in parts per million
/// (0.1%).
pub const TAMPER_PPM: usize = 1_000;
/// Shards the tampered devices are confined to (a quarter of
/// [`SHARD_COUNT`]).
pub const SUSPECT_SHARDS: usize = SHARD_COUNT / 4;
/// Share of rollout devices marked probe-isolated, in percent.
pub const ISOLATED_PERCENT: usize = 5;
/// PMEM byte the tamper flips (inside every application's code).
pub const TAMPER_ADDR: u16 = 0xE010;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose`, derived from the run seed, so adding a
    /// draw to one stream never shifts another.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut state = seed ^ 0x005E_ED0F_E11D;
        for byte in purpose.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is far below
    /// anything these inputs could show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Inputs of one `fleet_sweep` fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepInputs {
    /// Fleet size.
    pub devices: usize,
    /// The shards tampered devices sit in, ascending; every one holds
    /// at least one tampered device.
    pub suspect_shards: Vec<u16>,
    /// Tampered device ids, ascending.
    pub tampered: Vec<u64>,
}

impl SweepInputs {
    /// Devices in a suspect shard: the ones an aggregated sweep must
    /// descend into instead of short-circuiting.
    pub fn devices_in_suspect_shards(&self) -> usize {
        (0..self.devices as u64)
            .filter(|id| self.suspect_shards.contains(&shard_of(*id)))
            .count()
    }
}

/// The shard a device id belongs to (the fleet's `id % SHARD_COUNT`
/// discipline).
pub fn shard_of(device: u64) -> u16 {
    (device % SHARD_COUNT as u64) as u16
}

/// Draws the tamper set: [`SUSPECT_SHARDS`] seeded shards, and
/// `devices × TAMPER_PPM` tampered devices (at least one per suspect
/// shard) dealt round-robin over them.
pub fn sweep_inputs(seed: u64, devices: usize) -> SweepInputs {
    assert!(devices >= SHARD_COUNT, "a sweep fleet fills every shard");
    let mut rng = Rng::new(seed, "fleet_sweep");
    let mut shards: Vec<u16> = (0..SHARD_COUNT as u16).collect();
    rng.shuffle(&mut shards);
    shards.truncate(SUSPECT_SHARDS);
    shards.sort_unstable();

    let count = (devices * TAMPER_PPM / 1_000_000).max(SUSPECT_SHARDS);
    let mut tampered: Vec<u64> = Vec::with_capacity(count);
    for i in 0..count {
        let shard = u64::from(shards[i % shards.len()]);
        let members = (devices as u64 - shard).div_ceil(SHARD_COUNT as u64);
        loop {
            let id = shard + SHARD_COUNT as u64 * rng.below(members as usize) as u64;
            if !tampered.contains(&id) {
                tampered.push(id);
                break;
            }
        }
    }
    tampered.sort_unstable();
    SweepInputs {
        devices,
        suspect_shards: shards,
        tampered,
    }
}

/// Inputs of one `rollout_ota` rollout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutInputs {
    /// Fleet size.
    pub devices: usize,
    /// Probe-isolated device ids, ascending.
    pub isolated: Vec<u64>,
    /// XOR masks applied to the patched bytes of every cohort image
    /// (never zero, so each patch really changes its granule).
    pub patch_xor: [u8; 4],
}

/// Draws the probe-isolated set (`ISOLATED_PERCENT` of the fleet) and
/// the patch bytes.
pub fn rollout_inputs(seed: u64, devices: usize) -> RolloutInputs {
    let mut rng = Rng::new(seed, "rollout_ota");
    let mut ids: Vec<u64> = (0..devices as u64).collect();
    rng.shuffle(&mut ids);
    ids.truncate(devices * ISOLATED_PERCENT / 100);
    ids.sort_unstable();
    let mut patch_xor = [0u8; 4];
    for byte in &mut patch_xor {
        *byte = 1 + rng.below(255) as u8;
    }
    RolloutInputs {
        devices,
        isolated: ids,
        patch_xor,
    }
}

/// Attacks applicable to a workload (the attack matrix's rule).
pub fn applicable(attack: CfiAttack, app: WorkloadId) -> bool {
    let workload = app.workload();
    match attack {
        CfiAttack::ReturnAddressOverwrite | CfiAttack::CodeInjectionJump => true,
        CfiAttack::IsrContextTamper => workload.uses_interrupts,
        CfiAttack::IndirectCallHijack => workload.uses_indirect_calls,
    }
}

/// The `device_exec` attack schedule: per round, each of the four
/// attacks once, into a seeded app it applies to, in seeded order.
#[derive(Debug, Clone)]
pub struct AttackSchedule {
    rng: Rng,
    targets: Vec<(CfiAttack, Vec<WorkloadId>)>,
}

impl AttackSchedule {
    /// The schedule for `seed`.
    pub fn new(seed: u64) -> Self {
        let targets = CfiAttack::ALL
            .iter()
            .map(|&attack| {
                let apps = WorkloadId::ALL
                    .iter()
                    .copied()
                    .filter(|&app| applicable(attack, app))
                    .collect();
                (attack, apps)
            })
            .collect();
        AttackSchedule {
            rng: Rng::new(seed, "device_exec"),
            targets,
        }
    }

    /// The next round's `(app, attack)` injections.
    pub fn next_round(&mut self) -> Vec<(WorkloadId, CfiAttack)> {
        let mut round: Vec<(WorkloadId, CfiAttack)> = self
            .targets
            .iter()
            .map(|(attack, apps)| (apps[self.rng.below(apps.len())], *attack))
            .collect();
        self.rng.shuffle(&mut round);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_fixed_shares() {
        assert_eq!(sweep_inputs(7, 10_000), sweep_inputs(7, 10_000));
        assert_eq!(rollout_inputs(7, 2_100), rollout_inputs(7, 2_100));
        let a = sweep_inputs(7, 10_000);
        let b = sweep_inputs(8, 10_000);
        assert_eq!(a.tampered.len(), 10);
        assert_eq!(b.tampered.len(), 10);
        assert_eq!(a.suspect_shards.len(), SUSPECT_SHARDS);
        assert_ne!(a, b, "another seed draws another tamper set");
        for shard in &a.suspect_shards {
            assert!(a.tampered.iter().any(|id| shard_of(*id) == *shard));
        }
        assert!(a.tampered.iter().all(|id| *id < 10_000));
        assert_eq!(rollout_inputs(3, 2_100).isolated.len(), 105);
    }

    #[test]
    fn schedule_only_injects_applicable_attacks() {
        let mut schedule = AttackSchedule::new(11);
        for _ in 0..50 {
            let round = schedule.next_round();
            assert_eq!(round.len(), CfiAttack::ALL.len());
            assert!(round.iter().all(|(app, attack)| applicable(*attack, *app)));
        }
    }
}
