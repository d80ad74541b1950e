//! The run loops record into one reused `StepTrace`; a reference loop over
//! the public `Device::step` (a fresh trace per step) must end every run
//! in exactly the same place.
//!
//! Covered: all seven Table IV apps, baseline and EILID, through
//! `Device::run_for`; and the four `CfiAttack`s on every EILID app they
//! apply to, through `Device::run_with_hook` and through the production
//! injector `eilid_workloads::inject`.

use eilid::{Device, DeviceBuilder, EilidError, RunOutcome};
use eilid_msp430::{Cpu, StepTrace};
use eilid_workloads::{inject, CfiAttack, WorkloadId};

/// Cycle budget of a benign run (every app completes far below it).
const RUN_BUDGET: u64 = 20_000_000;
/// Cycle budget of an attacked run.
const ATTACK_BUDGET: u64 = 60_000_000;

/// `Device::run_with_hook`, written against the public per-step API.
fn reference_run<F>(device: &mut Device, max_cycles: u64, mut hook: F) -> RunOutcome
where
    F: FnMut(&mut Cpu, &StepTrace),
{
    let start = device.cycles();
    loop {
        let elapsed = device.cycles() - start;
        let peripherals = &device.cpu().peripherals;
        if peripherals.sim_done() {
            return RunOutcome::Completed {
                cycles: elapsed,
                exit_code: peripherals.exit_code(),
                output: peripherals.sim_output().to_vec(),
            };
        }
        if elapsed >= max_cycles {
            return RunOutcome::Timeout { cycles: elapsed };
        }
        match device.step() {
            Ok((trace, None)) => hook(device.cpu_mut(), &trace),
            Ok((_, Some(violation))) => {
                let cycles = device.cycles() - start;
                device.reset();
                return RunOutcome::Violation { violation, cycles };
            }
            Err(EilidError::Step(fault)) => {
                return RunOutcome::Fault {
                    pc: fault.address,
                    cycles: device.cycles() - start,
                };
            }
            Err(other) => panic!("Device::step returned a non-step error: {other}"),
        }
    }
}

/// Everything a run leaves behind that the two loops must agree on.
#[derive(Debug, PartialEq)]
struct RunEnd {
    outcome: RunOutcome,
    violations_detected: Option<u64>,
    resets: u64,
    vetoed_writes: u64,
    total_cycles: u64,
}

fn end_of(device: &Device, outcome: RunOutcome) -> RunEnd {
    RunEnd {
        outcome,
        violations_detected: device.monitor().map(|m| m.violations_detected()),
        resets: device.resets(),
        vetoed_writes: device.cpu().vetoed_writes(),
        total_cycles: device.cpu().total_cycles(),
    }
}

/// The injector's hook for `attack` on an EILID device, rebuilt from the
/// image's symbols so the reference loop can run the same adversary.
fn attack_hook(device: &Device, attack: CfiAttack) -> impl FnMut(&mut Cpu, &StepTrace) {
    let image = &device
        .artifacts()
        .expect("attacks run on EILID devices")
        .instrumented_image;
    let symbol = |name: &str| image.symbol(name).unwrap_or(0);
    let (attack_point, gadget) = (symbol("attack_point"), symbol("main"));
    let (isr_point, pointer, rogue) = (
        symbol("isr_attack_point"),
        symbol("PATTERN_PTR"),
        symbol("attack_gadget"),
    );
    move |cpu: &mut Cpu, trace: &StepTrace| match attack {
        CfiAttack::ReturnAddressOverwrite if trace.pc == attack_point => {
            let sp = cpu.regs.sp();
            cpu.memory.write_word(sp, gadget);
        }
        // The EILID prologue pushes r4/r6/r7 before the ISR body, so the
        // saved PC sits 8 bytes up the frame.
        CfiAttack::IsrContextTamper if trace.pc == isr_point => {
            let slot = cpu.regs.sp().wrapping_add(8);
            cpu.memory.write_word(slot, gadget);
        }
        CfiAttack::IndirectCallHijack if trace.pc == attack_point => {
            cpu.memory.write_word(pointer, rogue);
        }
        CfiAttack::CodeInjectionJump if trace.pc == attack_point => {
            // Payload `jmp $` in DMEM, and the return address aimed at it.
            cpu.memory.write_word(0x0380, 0x3FFF);
            let sp = cpu.regs.sp();
            cpu.memory.write_word(sp, 0x0380);
        }
        _ => {}
    }
}

fn applies(attack: CfiAttack, app: WorkloadId) -> bool {
    let workload = app.workload();
    match attack {
        CfiAttack::ReturnAddressOverwrite | CfiAttack::CodeInjectionJump => true,
        CfiAttack::IsrContextTamper => workload.uses_interrupts,
        CfiAttack::IndirectCallHijack => workload.uses_indirect_calls,
    }
}

#[test]
fn table4_runs_match_the_per_step_reference() {
    let builder = DeviceBuilder::new();
    for app in WorkloadId::ALL {
        let source = app.workload().source;
        let images = [
            builder.build_baseline(&source).expect("baseline builds"),
            builder.build_eilid(&source).expect("EILID builds"),
        ];
        for image in images {
            let mut fast = image.clone();
            let mut reference = image;
            let outcome = fast.run_for(RUN_BUDGET);
            assert!(outcome.is_completed(), "{app}: {outcome}");
            let expected = reference_run(&mut reference, RUN_BUDGET, |_, _| {});
            assert_eq!(
                end_of(&fast, outcome),
                end_of(&reference, expected),
                "{app}, protected = {}",
                fast.is_protected()
            );
        }
    }
}

#[test]
fn attacked_runs_match_the_per_step_reference() {
    let builder = DeviceBuilder::new();
    let mut covered = 0;
    for attack in CfiAttack::ALL {
        for app in WorkloadId::ALL
            .into_iter()
            .filter(|&app| applies(attack, app))
        {
            let image = builder
                .build_eilid(&app.workload().source)
                .expect("EILID builds");
            let label = format!("{app}: {attack}");

            let mut injected = image.clone();
            let result = inject(&mut injected, attack, ATTACK_BUDGET).expect("attack applies");
            assert!(result.detected_as_expected(), "{label}: {}", result.outcome);
            let injected = end_of(&injected, result.outcome);

            let mut hooked = image.clone();
            let outcome = hooked.run_with_hook(ATTACK_BUDGET, attack_hook(&image, attack));
            let hooked = end_of(&hooked, outcome);

            let mut reference = image.clone();
            let outcome = reference_run(&mut reference, ATTACK_BUDGET, attack_hook(&image, attack));
            let reference = end_of(&reference, outcome);

            assert_eq!(hooked, reference, "{label}");
            assert_eq!(
                injected, hooked,
                "{label}: injector and rebuilt hook differ"
            );
            covered += 1;
        }
    }
    // 7 apps × (RA overwrite + code injection) + 2 ISR apps + 1
    // indirect-call app.
    assert_eq!(covered, 7 * 2 + 2 + 1);
}
