//! A reused [`StepTrace`] must never carry data from an earlier step.
//!
//! `Cpu::step_into` overwrites a caller-owned trace and refills its
//! vectors in place, while `Cpu::step` records into a fresh trace. These
//! tests step two clones of one core in lockstep — one through `step`, one
//! through `step_into` on a single trace that starts out full of junk —
//! and require every trace field and the core state to agree at every
//! step. Random instruction streams run with the timer interrupt enabled,
//! low-power sleeps and a write gate over program memory; directed
//! programs pin the four step kinds where a stale buffer would show:
//! interrupt taken, low-power idle, a vetoed store, and a register-only
//! step right after a memory-heavy one.
//!
//! The vendored proptest stub cannot shrink. A failing case panics with
//! its program words; save them as a new directed test below.

use eilid_msp430::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
use eilid_msp430::{
    encode, AccessKind, Condition, Cpu, Instruction, MemAccess, Memory, OneOpOpcode, Operand, Reg,
    StepEvent, StepTrace, TwoOpOpcode, Width, WriteGate, IVT_BASE, RESET_VECTOR,
};
use proptest::prelude::*;

const PROLOGUE: u16 = 0xF000;
const ISR: u16 = 0xE100;
/// Stores into `0xE000..=0xFFFF` (ISR, program, vectors) are vetoed.
const PROTECTED: (u16, u16) = (0xE000, 0xFFFF);
const CPUOFF_GIE: u16 = 0x0018;

fn two(opcode: TwoOpOpcode, src: Operand, dst: Operand) -> Instruction {
    Instruction::TwoOp {
        opcode,
        width: Width::Word,
        src,
        dst,
    }
}

/// `bis #(GIE|CPUOFF), sr`: sleep until the next interrupt.
fn sleep() -> Instruction {
    two(
        TwoOpOpcode::Bis,
        Operand::Immediate(CPUOFF_GIE),
        Operand::Register(Reg::SR),
    )
}

/// A core loaded with: a prologue that points r4–r15 into RAM, arms the
/// timer interrupt every `timer_compare` ticks and sets GIE; then `body`;
/// then a branch back to the start of `body`. The timer ISR acknowledges
/// the interrupt and clears CPUOFF in the stacked SR, so a sleeping body
/// wakes up. Program memory and the vector table sit behind a write gate.
fn core_with(body: &[Instruction], timer_compare: u16) -> Cpu {
    let mut prologue: Vec<Instruction> = (4..16)
        .map(|i| {
            two(
                TwoOpOpcode::Mov,
                Operand::Immediate(0x0200 + 0x20 * i),
                Operand::Register(Reg::from_index(i).expect("r4..r15")),
            )
        })
        .collect();
    prologue.extend([
        two(
            TwoOpOpcode::Mov,
            Operand::Immediate(timer_compare),
            Operand::Absolute(TIMER_COMPARE),
        ),
        two(
            TwoOpOpcode::Mov,
            Operand::Immediate(3),
            Operand::Absolute(TIMER_CTL),
        ),
        two(
            TwoOpOpcode::Bis,
            Operand::Immediate(8),
            Operand::Register(Reg::SR),
        ),
    ]);
    let isr = [
        two(
            TwoOpOpcode::Mov,
            Operand::Immediate(7),
            Operand::Absolute(TIMER_CTL),
        ),
        two(
            TwoOpOpcode::Bic,
            Operand::Immediate(0x0010),
            Operand::Indexed {
                reg: Reg::SP,
                offset: 0,
            },
        ),
        Instruction::OneOp {
            opcode: OneOpOpcode::Reti,
            width: Width::Word,
            operand: Operand::Register(Reg::CG),
        },
    ];

    let mut mem = Memory::new();
    let mut at = ISR;
    for instruction in &isr {
        at = place(&mut mem, at, instruction);
    }
    at = PROLOGUE;
    for instruction in &prologue {
        at = place(&mut mem, at, instruction);
    }
    let body_start = at;
    for instruction in body {
        at = place(&mut mem, at, instruction);
    }
    place(
        &mut mem,
        at,
        &two(
            TwoOpOpcode::Mov,
            Operand::Immediate(body_start),
            Operand::Register(Reg::PC),
        ),
    );
    mem.write_word(IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2, ISR);
    mem.write_word(RESET_VECTOR, PROLOGUE);

    let mut cpu = Cpu::new(mem);
    let mut gate = WriteGate::new();
    gate.protect(PROTECTED.0, PROTECTED.1);
    cpu.set_write_gate(Some(gate));
    cpu.reset();
    cpu
}

fn place(mem: &mut Memory, at: u16, instruction: &Instruction) -> u16 {
    let words = encode(instruction).expect("test programs are encodable");
    for (i, word) in words.iter().enumerate() {
        mem.write_word(at + 2 * i as u16, *word);
    }
    at + 2 * words.len() as u16
}

/// A trace full of junk, so a field the core forgets to overwrite shows.
fn junk_trace() -> StepTrace {
    let junk = MemAccess {
        addr: 0xBAD0,
        value: 0xDEAD,
        width: Width::Byte,
        kind: AccessKind::Write,
    };
    StepTrace {
        pc: 0xBAD0,
        next_pc: 0xBAD2,
        event: StepEvent::DecodeFault { word: 0xFFFF },
        instruction: Some(sleep()),
        instruction_size: 6,
        fetch_addresses: vec![0xBAD0; 5],
        reads: vec![junk; 7],
        writes: vec![junk; 7],
        cycles: 99,
        total_cycles: 999_999,
    }
}

/// How often each step kind occurred in a lockstep run.
#[derive(Debug, Default)]
struct Kinds {
    interrupts: usize,
    idle: usize,
    vetoed: usize,
    quiet_after_busy: usize,
}

/// Steps two clones of `cpu` in lockstep, one through `Cpu::step` and one
/// through `Cpu::step_into` on a single reused trace, and asserts they
/// agree on every trace and on the core state. Stops after `steps` steps
/// or at the first (identical) decode error.
fn lockstep(cpu: &Cpu, steps: usize, label: &str) -> Kinds {
    let mut fresh = cpu.clone();
    let mut reused = cpu.clone();
    let mut trace = junk_trace();
    let mut kinds = Kinds::default();
    let mut prev_accesses = 0;
    for step in 0..steps {
        let vetoed_before = reused.vetoed_writes();
        let expected = fresh.step();
        let got = reused.step_into(&mut trace).map(|()| trace.clone());
        assert_eq!(got, expected, "{label}: trace differs at step {step}");
        assert_eq!(reused.regs, fresh.regs, "{label}: registers, step {step}");
        assert_eq!(reused.state(), fresh.state(), "{label}: state, step {step}");
        assert_eq!(reused.total_cycles(), fresh.total_cycles());
        assert_eq!(reused.vetoed_writes(), fresh.vetoed_writes());
        let Ok(expected) = expected else { break };

        let accesses = expected.reads.len() + expected.writes.len();
        match expected.event {
            StepEvent::InterruptTaken { .. } => kinds.interrupts += 1,
            StepEvent::Idle => {
                assert!(
                    trace.reads.is_empty()
                        && trace.writes.is_empty()
                        && trace.fetch_addresses.is_empty(),
                    "{label}: idle step {step} carries accesses: {trace:?}"
                );
                kinds.idle += 1;
            }
            _ => {}
        }
        if reused.vetoed_writes() > vetoed_before {
            kinds.vetoed += 1;
        }
        if prev_accesses >= 3 && accesses == 0 {
            kinds.quiet_after_busy += 1;
        }
        prev_accesses = accesses;
    }
    assert!(reused.memory == fresh.memory, "{label}: memory differs");
    assert_eq!(
        reused.peripherals, fresh.peripherals,
        "{label}: peripherals"
    );
    kinds
}

fn words_of(body: &[Instruction]) -> Vec<u16> {
    body.iter()
        .flat_map(|i| encode(i).expect("encodable"))
        .collect()
}

fn arb_gp_reg() -> impl Strategy<Value = Reg> {
    (4u16..16).prop_map(|i| Reg::from_index(i).expect("in range"))
}

/// RAM, or a protected address whose store the gate vetoes.
fn arb_store_address() -> impl Strategy<Value = u16> {
    prop_oneof![0x0200u16..0x0400, PROTECTED.0..0xE200]
}

fn arb_src() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_gp_reg().prop_map(Operand::Register),
        (arb_gp_reg(), -8i16..8).prop_map(|(reg, offset)| Operand::Indexed { reg, offset }),
        arb_gp_reg().prop_map(Operand::Indirect),
        arb_gp_reg().prop_map(Operand::IndirectAutoInc),
        any::<u16>().prop_map(Operand::Immediate),
        any::<u16>().prop_map(Operand::Absolute),
    ]
}

fn arb_dst() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_gp_reg().prop_map(Operand::Register),
        (arb_gp_reg(), -8i16..8).prop_map(|(reg, offset)| Operand::Indexed { reg, offset }),
        arb_store_address().prop_map(Operand::Absolute),
    ]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (
            prop_oneof![
                Just(TwoOpOpcode::Mov),
                Just(TwoOpOpcode::Add),
                Just(TwoOpOpcode::Sub),
                Just(TwoOpOpcode::Cmp),
                Just(TwoOpOpcode::Xor),
                Just(TwoOpOpcode::Bis),
            ],
            prop_oneof![Just(Width::Word), Just(Width::Byte)],
            arb_src(),
            arb_dst(),
        )
            .prop_map(|(opcode, width, src, dst)| Instruction::TwoOp {
                opcode,
                width,
                src,
                dst,
            }),
        (
            prop_oneof![
                Just(OneOpOpcode::Rrc),
                Just(OneOpOpcode::Swpb),
                Just(OneOpOpcode::Push),
            ],
            arb_src(),
        )
            .prop_map(|(opcode, operand)| Instruction::OneOp {
                opcode,
                width: Width::Word,
                operand,
            }),
        (
            prop_oneof![Just(Condition::Jne), Just(Condition::Jeq)],
            0i16..3
        )
            .prop_map(|(condition, offset)| Instruction::Jump { condition, offset }),
        Just(sleep()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random streams: the reused trace matches a fresh one at every step.
    #[test]
    fn reused_trace_matches_fresh_trace(
        body in prop::collection::vec(arb_instruction(), 1..24),
        timer_compare in 1u16..6,
    ) {
        let cpu = core_with(&body, timer_compare);
        let label = format!("timer_compare {timer_compare}, body {:04x?}", words_of(&body));
        lockstep(&cpu, 400, &label);
    }
}

#[test]
fn interrupt_taken_overwrites_the_trace() {
    let body = [Instruction::Jump {
        condition: Condition::Jmp,
        offset: -1,
    }];
    let kinds = lockstep(&core_with(&body, 2), 300, "jmp $");
    assert!(kinds.interrupts > 2, "{kinds:?}");
}

#[test]
fn low_power_idle_leaves_every_vector_empty() {
    // The ISR's bic/reti and the prologue stores are memory-heavy steps;
    // the idle steps right after waking must still read as empty.
    let kinds = lockstep(&core_with(&[sleep()], 4), 400, "sleep loop");
    assert!(kinds.idle > 10, "{kinds:?}");
    assert!(kinds.interrupts > 2, "{kinds:?}");
}

#[test]
fn vetoed_store_is_traced_like_a_fresh_step() {
    let body = [
        two(
            TwoOpOpcode::Mov,
            Operand::Immediate(0x1234),
            Operand::Absolute(0xE010),
        ),
        two(
            TwoOpOpcode::Mov,
            Operand::Immediate(0x5678),
            Operand::Absolute(0x0300),
        ),
    ];
    let kinds = lockstep(&core_with(&body, 5), 200, "vetoed store");
    assert!(kinds.vetoed > 2, "{kinds:?}");
}

#[test]
fn register_step_after_a_memory_heavy_step_has_no_leftovers() {
    let body = [
        // Two reads and a write, then a push (a write), then register-only.
        two(
            TwoOpOpcode::Add,
            Operand::IndirectAutoInc(Reg::R4),
            Operand::Indexed {
                reg: Reg::R5,
                offset: 2,
            },
        ),
        two(
            TwoOpOpcode::Mov,
            Operand::Register(Reg::R6),
            Operand::Register(Reg::R7),
        ),
        Instruction::OneOp {
            opcode: OneOpOpcode::Push,
            width: Width::Word,
            operand: Operand::Indexed {
                reg: Reg::R8,
                offset: 0,
            },
        },
        two(
            TwoOpOpcode::Mov,
            Operand::Register(Reg::R9),
            Operand::Register(Reg::R10),
        ),
    ];
    let kinds = lockstep(&core_with(&body, 5), 300, "memory-heavy then register-only");
    assert!(kinds.quiet_after_busy > 5, "{kinds:?}");
}
