//! The simulated CPU core.
//!
//! [`Cpu`] ties together the register file, the flat memory, the peripheral
//! page and the interrupt logic, and exposes a [`Cpu::step_into`] method
//! that executes one instruction (or accepts one interrupt) and records the
//! observable bus activity into a reusable [`StepTrace`] ([`Cpu::step`]
//! returns a fresh one). External monitors — the CASU hardware and the
//! EILID extension — consume those traces to enforce their policies,
//! exactly as the real hardware taps the core's bus signals.

use serde::{Deserialize, Serialize};

use crate::bus::{AccessKind, MemAccess, StepEvent, StepTrace};
use crate::cycles::{cycle_count, INTERRUPT_CYCLES};
use crate::decoder::decode_instruction;
use crate::execute::execute;
use crate::flags::{StatusFlags, Width};
use crate::gate::WriteGate;
use crate::instruction::Instruction;
use crate::memory::Memory;
use crate::peripherals::Peripherals;
use crate::registers::RegisterFile;

/// Number of interrupt vectors in the vector table at `0xFFE0..=0xFFFF`.
pub const NUM_VECTORS: u8 = 16;

/// Execution state of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuState {
    /// Executing instructions normally.
    Running,
    /// Low-power mode (`CPUOFF` set); only interrupts resume execution.
    LowPower,
}

/// The simulated MSP430 core.
///
/// # Examples
///
/// Running a two-instruction program that loads a register and halts by
/// looping forever:
///
/// ```
/// use eilid_msp430::{Cpu, Memory, Reg};
///
/// let mut mem = Memory::new();
/// // mov #0x1234, r10 ; jmp $
/// mem.write_word(0xF000, 0x403A);
/// mem.write_word(0xF002, 0x1234);
/// mem.write_word(0xF004, 0x3FFF);
/// mem.write_word(0xFFFE, 0xF000); // reset vector
///
/// let mut cpu = Cpu::new(mem);
/// cpu.reset();
/// cpu.step().expect("mov executes");
/// assert_eq!(cpu.regs.read(Reg::R10), 0x1234);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cpu {
    /// Register file (public so monitors and tests can inspect it).
    pub regs: RegisterFile,
    /// Flat 64 KiB memory.
    pub memory: Memory,
    /// Memory-mapped peripherals.
    pub peripherals: Peripherals,
    state: CpuState,
    total_cycles: u64,
    initial_sp: u16,
    irq_inhibited: bool,
    /// Pre-commit bus write gate installed by the hardware monitor;
    /// `None` for unprotected (baseline) cores.
    write_gate: Option<WriteGate>,
    /// Bus writes vetoed by the gate since construction.
    vetoed_writes: u64,
    #[serde(skip)]
    pending_reads: Vec<MemAccess>,
    #[serde(skip)]
    pending_writes: Vec<MemAccess>,
}

/// Error returned by [`Cpu::step`] and [`Cpu::step_into`] when the
/// instruction stream is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepError {
    /// Address of the undecodable word.
    pub address: u16,
    /// The undecodable word.
    pub word: u16,
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot decode instruction word {:#06x} at {:#06x}",
            self.word, self.address
        )
    }
}

impl std::error::Error for StepError {}

impl Cpu {
    /// Creates a core around a pre-loaded memory image.
    pub fn new(memory: Memory) -> Self {
        Cpu {
            regs: RegisterFile::new(),
            memory,
            peripherals: Peripherals::new(),
            state: CpuState::Running,
            total_cycles: 0,
            initial_sp: 0x0400,
            irq_inhibited: false,
            write_gate: None,
            vetoed_writes: 0,
            pending_reads: Vec::new(),
            pending_writes: Vec::new(),
        }
    }

    /// Installs (or removes, with `None`) the pre-commit bus write gate.
    ///
    /// The CASU/EILID monitor builds the gate from its layout and policy
    /// (see the companion crate); the core then vetoes any bus write the
    /// gate blocks *before* it commits to memory, exactly as the real
    /// hardware blocks the flash write in the violating cycle. The
    /// attempted write still appears in the [`StepTrace`], so monitors
    /// observe — and punish — the transaction as before.
    pub fn set_write_gate(&mut self, gate: Option<WriteGate>) {
        self.write_gate = gate;
    }

    /// The installed write gate, if any.
    pub fn write_gate(&self) -> Option<&WriteGate> {
        self.write_gate.as_ref()
    }

    /// Opens/closes the gate's authorised update window (no-op without a
    /// gate). The device layer mirrors the monitor's update-session state
    /// here before every step.
    pub fn set_write_gate_window(&mut self, window: Option<(u16, u16)>) {
        if let Some(gate) = &mut self.write_gate {
            gate.set_window(window);
        }
    }

    /// Number of bus writes the gate has vetoed since construction.
    pub fn vetoed_writes(&self) -> u64 {
        self.vetoed_writes
    }

    /// Sets the stack pointer value installed by [`Cpu::reset`].
    pub fn set_initial_sp(&mut self, sp: u16) {
        self.initial_sp = sp;
    }

    /// Masks or unmasks the external interrupt request line.
    ///
    /// The CASU/EILID hardware gates interrupt delivery while trusted
    /// software executes in the secure ROM (this is how the atomicity of
    /// secure execution is preserved on the real core); the device layer
    /// drives this line from the current program counter's region. Pending
    /// peripheral interrupts stay pending and are delivered once the line is
    /// unmasked.
    pub fn set_irq_inhibited(&mut self, inhibited: bool) {
        self.irq_inhibited = inhibited;
    }

    /// `true` while the interrupt request line is masked.
    pub fn irq_inhibited(&self) -> bool {
        self.irq_inhibited
    }

    /// Performs a power-up/watchdog reset: clears registers, loads the PC
    /// from the reset vector and installs the initial stack pointer.
    pub fn reset(&mut self) {
        self.regs = RegisterFile::new();
        self.regs.set_pc(self.memory.reset_vector());
        self.regs.set_sp(self.initial_sp);
        self.state = CpuState::Running;
    }

    /// Total clock cycles consumed since construction.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Current execution state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Typed view of the status register.
    pub fn flags(&self) -> StatusFlags {
        StatusFlags::from_word(self.regs.sr())
    }

    pub(crate) fn bus_read(&mut self, addr: u16, width: Width) -> u16 {
        let value = if Peripherals::contains(addr) {
            let word = self.peripherals.read(addr);
            match width {
                Width::Word => word,
                Width::Byte => {
                    if addr & 1 == 0 {
                        word & 0xFF
                    } else {
                        word >> 8
                    }
                }
            }
        } else {
            match width {
                Width::Word => self.memory.read_word(addr),
                Width::Byte => u16::from(self.memory.read_byte(addr)),
            }
        };
        self.pending_reads.push(MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Read,
        });
        value
    }

    pub(crate) fn bus_write(&mut self, addr: u16, value: u16, width: Width) {
        if Peripherals::contains(addr) {
            self.peripherals.write(addr, value);
        } else if self.write_blocked(addr, width) {
            // Pre-commit veto: the store is observable on the bus (and
            // lands in the trace below, where the monitor will flag it)
            // but never reaches the memory array.
            self.vetoed_writes += 1;
        } else {
            match width {
                Width::Word => self.memory.write_word(addr, value),
                Width::Byte => self.memory.write_byte(addr, (value & 0xFF) as u8),
            }
        }
        self.pending_writes.push(MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Write,
        });
    }

    /// `true` when the installed gate vetoes a write of `width` at
    /// `addr` (any covered byte blocked blocks the whole access, like a
    /// bus-level abort of the transaction).
    fn write_blocked(&self, addr: u16, width: Width) -> bool {
        let Some(gate) = &self.write_gate else {
            return false;
        };
        match width {
            Width::Byte => gate.blocks(addr),
            Width::Word => {
                let aligned = addr & !1;
                gate.blocks(aligned) || gate.blocks(aligned.wrapping_add(1))
            }
        }
    }

    pub(crate) fn push_word(&mut self, value: u16) {
        let sp = self.regs.sp().wrapping_sub(2);
        self.regs.set_sp(sp);
        self.bus_write(sp, value, Width::Word);
    }

    pub(crate) fn pop_word(&mut self) -> u16 {
        let sp = self.regs.sp();
        let value = self.bus_read(sp, Width::Word);
        self.regs.set_sp(sp.wrapping_add(2));
        value
    }

    /// Executes one step: accepts a pending interrupt if possible, otherwise
    /// executes the instruction at the current program counter.
    ///
    /// This returns a freshly allocated trace per call; a loop that steps
    /// many times should hold one trace and call [`Cpu::step_into`].
    ///
    /// # Errors
    ///
    /// Returns [`StepError`] when the word at the program counter is not a
    /// valid instruction. The core is left unchanged in that case so a
    /// monitor can treat the fault as a violation.
    pub fn step(&mut self) -> Result<StepTrace, StepError> {
        let mut trace = StepTrace::default();
        self.step_into(&mut trace)?;
        Ok(trace)
    }

    /// Executes one step exactly like [`Cpu::step`], recording it into a
    /// caller-owned `trace`.
    ///
    /// Every field of `trace` is overwritten, whatever the step kind
    /// (executed, interrupt taken or low-power idle), so nothing from the
    /// trace's previous step survives. Its vectors are refilled in place:
    /// the read and write buffers are swapped with the core's own, so both
    /// keep their capacity, and a loop that reuses one trace allocates
    /// nothing per step.
    ///
    /// # Errors
    ///
    /// Returns [`StepError`] when the word at the program counter is not a
    /// valid instruction. The core and `trace` are left unchanged in that
    /// case.
    pub fn step_into(&mut self, trace: &mut StepTrace) -> Result<(), StepError> {
        let pc = self.regs.pc();

        // Interrupt acceptance: GIE must be set, the IRQ line must not be
        // gated by the hardware monitor, and a peripheral must be requesting
        // service.
        if self.flags().gie() && !self.irq_inhibited {
            if let Some(vector) = self.peripherals.irq_pending() {
                self.take_interrupt(pc, vector);
                self.record(trace, pc, StepEvent::InterruptTaken { vector }, None, 0);
                return Ok(());
            }
        }

        if self.state == CpuState::LowPower {
            // CPU is off; burn one cycle waiting for an interrupt.
            self.peripherals.tick(1);
            self.total_cycles += 1;
            self.record(trace, pc, StepEvent::Idle, None, 1);
            return Ok(());
        }

        let Ok((instruction, size_bytes)) = decode_instruction(&self.memory, pc) else {
            let word = self.memory.read_word(pc);
            return Err(StepError { address: pc, word });
        };

        // Advance the PC past the instruction before executing it, so that
        // `call` pushes the correct return address and PC-relative reads see
        // the next instruction's address.
        self.regs.set_pc(pc.wrapping_add(size_bytes));
        execute(self, &instruction);

        // Entering low-power mode happens by setting CPUOFF in SR.
        self.state = if self.flags().cpu_off() {
            CpuState::LowPower
        } else {
            CpuState::Running
        };

        let cycles = cycle_count(&instruction);
        self.total_cycles += cycles;
        self.peripherals.tick(cycles);

        self.record(
            trace,
            pc,
            StepEvent::Executed,
            Some((instruction, size_bytes)),
            cycles,
        );
        Ok(())
    }

    fn take_interrupt(&mut self, pc: u16, vector: u8) {
        // Hardware interrupt sequence: push PC, push SR, clear SR (which
        // clears GIE and wakes the CPU from low-power mode), load the vector.
        self.push_word(pc);
        self.push_word(self.regs.sr());
        self.regs.set_sr(0);
        let handler = self.memory.interrupt_vector(vector);
        // Reading the vector is a visible bus access.
        self.pending_reads.push(MemAccess {
            addr: crate::memory::IVT_BASE.wrapping_add(u16::from(vector) * 2),
            value: handler,
            width: Width::Word,
            kind: AccessKind::Read,
        });
        self.regs.set_pc(handler);
        self.state = CpuState::Running;

        self.total_cycles += INTERRUPT_CYCLES;
        self.peripherals.tick(INTERRUPT_CYCLES);
    }

    /// Overwrites every field of `trace` with the step that just ran from
    /// `pc`. The step's bus accesses move into the trace by swapping
    /// buffers, and the core's buffers are left empty for the next step.
    fn record(
        &mut self,
        trace: &mut StepTrace,
        pc: u16,
        event: StepEvent,
        executed: Option<(Instruction, u16)>,
        cycles: u64,
    ) {
        let size_bytes = executed.map_or(0, |(_, size)| size);
        trace.pc = pc;
        trace.next_pc = self.regs.pc();
        trace.event = event;
        trace.instruction = executed.map(|(instruction, _)| instruction);
        trace.instruction_size = size_bytes;
        trace.fetch_addresses.clear();
        trace
            .fetch_addresses
            .extend((0..size_bytes).step_by(2).map(|o| pc.wrapping_add(o)));
        std::mem::swap(&mut self.pending_reads, &mut trace.reads);
        std::mem::swap(&mut self.pending_writes, &mut trace.writes);
        self.pending_reads.clear();
        self.pending_writes.clear();
        trace.cycles = cycles;
        trace.total_cycles = self.total_cycles;
    }

    /// Runs until the application signals completion through the simulation
    /// control register, an error occurs, or `max_cycles` elapse.
    ///
    /// Returns the number of cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from [`Cpu::step_into`].
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, StepError> {
        let start = self.total_cycles;
        let mut trace = StepTrace::default();
        while !self.peripherals.sim_done() && self.total_cycles - start < max_cycles {
            self.step_into(&mut trace)?;
        }
        Ok(self.total_cycles - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::Reg;

    /// Builds a CPU with `words` loaded at 0xF000 and the reset vector set.
    fn cpu_with_program(words: &[u16]) -> Cpu {
        let mut mem = Memory::new();
        for (i, w) in words.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu
    }

    #[test]
    fn reset_installs_vector_and_stack() {
        let cpu = cpu_with_program(&[0x4303]); // nop
        assert_eq!(cpu.regs.pc(), 0xF000);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn mov_immediate_and_trace() {
        let mut cpu = cpu_with_program(&[0x403A, 0x1234]); // mov #0x1234, r10
        let trace = cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0x1234);
        assert_eq!(trace.pc, 0xF000);
        assert_eq!(trace.next_pc, 0xF004);
        assert_eq!(trace.fetch_addresses, vec![0xF000, 0xF002]);
        assert_eq!(trace.cycles, 2);
    }

    #[test]
    fn call_pushes_return_address() {
        // call #0xF100 at 0xF000 (4 bytes) => return address 0xF004.
        let mut cpu = cpu_with_program(&[0x12B0, 0xF100]);
        let trace = cpu.step().unwrap();
        assert_eq!(cpu.regs.pc(), 0xF100);
        assert_eq!(cpu.regs.sp(), 0x03FE);
        assert_eq!(cpu.memory.read_word(0x03FE), 0xF004);
        assert!(trace
            .writes
            .iter()
            .any(|w| w.addr == 0x03FE && w.value == 0xF004));
        assert_eq!(trace.cycles, 5);
    }

    #[test]
    fn call_ret_roundtrip() {
        // 0xF000: call #0xF100
        // 0xF004: jmp $            (landing point)
        // 0xF100: ret
        let mut cpu = cpu_with_program(&[0x12B0, 0xF100, 0x3FFF]);
        cpu.memory.write_word(0xF100, 0x4130);
        cpu.step().unwrap(); // call
        let trace = cpu.step().unwrap(); // ret
        assert!(trace.instruction.unwrap().is_ret());
        assert_eq!(cpu.regs.pc(), 0xF004);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn push_pop_roundtrip() {
        // mov #0xBEEF, r10 ; push r10 ; pop r11 (pop = mov @sp+, r11)
        let mut cpu = cpu_with_program(&[0x403A, 0xBEEF, 0x120A, 0x413B]);
        cpu.step().unwrap();
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0x03FE), 0xBEEF);
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R11), 0xBEEF);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        // mov #1, r10 ; cmp #1, r10 ; jeq +1 ; mov #0, r11 ; mov #1, r12 ; jmp $
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x431A, // mov #1, r10
            0x931A, // cmp #1, r10
            0x2401, // jeq +1 word (skip next single-word instruction)
            0x430B, // mov #0, r11  (skipped)
            0x431C, // mov #1, r12
            0x3FFF, // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        for _ in 0..4 {
            cpu.step().unwrap();
        }
        assert_eq!(cpu.regs.read(Reg::R11), 0, "jeq should skip the mov to r11");
        assert_eq!(cpu.regs.read(Reg::R12), 1);
    }

    #[test]
    fn arithmetic_flags_drive_branches() {
        // mov #5, r10 ; sub #5, r10 ; jz taken
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x403A, 0x0005, // mov #5, r10
            0x803A, 0x0005, // sub #5, r10
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.step().unwrap();
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0);
        assert!(cpu.flags().zero());
        assert!(cpu.flags().carry());
    }

    #[test]
    fn peripheral_write_is_visible_in_trace() {
        // mov #0x00FF, &0x0100  (SIM_CTL done magic)
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x40B2, 0x00FF, 0x0100];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        let trace = cpu.step().unwrap();
        assert!(cpu.peripherals.sim_done());
        assert!(trace.wrote_to(0x0100));
    }

    #[test]
    fn run_stops_on_sim_done() {
        // mov #0x00FF, &0x0100 ; jmp $
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x40B2, 0x00FF, 0x0100, 0x3FFF];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        let cycles = cpu.run(1_000).unwrap();
        assert!(cpu.peripherals.sim_done());
        assert!(cycles < 1_000);
    }

    #[test]
    fn run_times_out_on_infinite_loop() {
        let mut cpu = cpu_with_program(&[0x3FFF]); // jmp $
        let cycles = cpu.run(100).unwrap();
        assert!(cycles >= 100);
        assert!(!cpu.peripherals.sim_done());
    }

    #[test]
    fn interrupt_pushes_context_and_vectors() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        // Program: enable GIE, enable timer, loop. ISR at 0xE100: reti.
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0002,
            TIMER_COMPARE, // mov #2, &TIMER_COMPARE
            0x40B2,
            0x0003,
            TIMER_CTL, // mov #3, &TIMER_CTL (enable + irq)
            0xD232,    // bis #8, sr (GIE) via constant generator
            0x3FFF,    // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();

        let mut took_interrupt = false;
        let mut returned = false;
        for _ in 0..200 {
            let trace = cpu.step().unwrap();
            if trace.interrupt_taken() {
                took_interrupt = true;
                assert_eq!(cpu.regs.pc(), 0xE100);
                // PC and SR must have been pushed onto the main stack.
                assert_eq!(trace.writes.len(), 2);
            }
            if took_interrupt {
                if let Some(instr) = &trace.instruction {
                    if instr.is_reti() {
                        returned = true;
                    }
                }
            }
            if returned {
                break;
            }
        }
        assert!(took_interrupt, "timer interrupt was never taken");
        assert!(returned, "ISR never returned");
        // After reti the CPU is back in the main loop with GIE restored.
        assert!(cpu.flags().gie());
    }

    #[test]
    fn low_power_mode_waits_for_interrupt() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        // enable timer/GIE then set CPUOFF; ISR clears CPUOFF on the stacked SR.
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0002,
            TIMER_COMPARE,
            0x40B2,
            0x0003,
            TIMER_CTL,
            0xD232, // bis #8, sr (GIE)
            0xD132, // bis #16(=CPUOFF? constant gen can't do 16)
        ];
        // Replace the last word with an explicit immediate form: bis #0x0010, sr
        let mut words = program;
        words.pop();
        words.push(0xD032);
        words.push(0x0010);
        words.push(0x3FFF); // jmp $
        for (i, w) in words.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();

        let mut saw_idle = false;
        let mut took_interrupt = false;
        for _ in 0..500 {
            let trace = cpu.step().unwrap();
            if trace.event == StepEvent::Idle {
                saw_idle = true;
            }
            if trace.interrupt_taken() {
                took_interrupt = true;
                break;
            }
        }
        assert!(saw_idle, "CPU never entered low-power idle");
        assert!(took_interrupt, "interrupt never woke the CPU");
    }

    #[test]
    fn irq_inhibit_defers_interrupts() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0001,
            TIMER_COMPARE,
            0x40B2,
            0x0003,
            TIMER_CTL,
            0xD232, // bis #8, sr (GIE)
            0x3FFF, // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.set_irq_inhibited(true);
        assert!(cpu.irq_inhibited());
        for _ in 0..100 {
            let trace = cpu.step().unwrap();
            assert!(!trace.interrupt_taken(), "interrupt taken while inhibited");
        }
        // Unmasking delivers the pending interrupt promptly.
        cpu.set_irq_inhibited(false);
        let mut taken = false;
        for _ in 0..5 {
            if cpu.step().unwrap().interrupt_taken() {
                taken = true;
                break;
            }
        }
        assert!(taken, "pending interrupt not delivered after unmask");
    }

    #[test]
    fn write_gate_vetoes_before_commit_but_keeps_the_trace() {
        // mov #0x1234, &0xE010 (a protected store) then mov #0x5678, &0x0200.
        let mut cpu = cpu_with_program(&[0x40B2, 0x1234, 0xE010, 0x40B2, 0x5678, 0x0200]);
        cpu.memory.write_word(0xE010, 0xAAAA);
        let mut gate = crate::gate::WriteGate::new();
        gate.protect(0xE000, 0xF7FF);
        cpu.set_write_gate(Some(gate));

        let trace = cpu.step().unwrap();
        // The attempted store is on the bus for the monitor to see...
        assert!(trace.wrote_to(0xE010));
        assert_eq!(trace.written_value(0xE010), Some(0x1234));
        // ...but never committed.
        assert_eq!(cpu.memory.read_word(0xE010), 0xAAAA);
        assert_eq!(cpu.vetoed_writes(), 1);

        // Unprotected stores still commit.
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0x0200), 0x5678);
        assert_eq!(cpu.vetoed_writes(), 1);

        // An open update window re-admits the protected store.
        cpu.regs.set_pc(0xF000);
        cpu.set_write_gate_window(Some((0xE010, 0xE011)));
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0xE010), 0x1234);
        assert_eq!(cpu.vetoed_writes(), 1);
    }

    #[test]
    fn word_write_straddling_the_gate_boundary_is_vetoed() {
        // A word store whose low byte is unprotected but whose high byte
        // is protected must be vetoed whole (bus transactions are atomic).
        let mut cpu = cpu_with_program(&[0x40B2, 0xBEEF, 0xDFFE]);
        let mut gate = crate::gate::WriteGate::new();
        gate.protect(0xDFFF, 0xF7FF);
        cpu.set_write_gate(Some(gate));
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0xDFFE), 0);
        assert_eq!(cpu.vetoed_writes(), 1);
    }

    #[test]
    fn step_error_on_illegal_instruction() {
        let mut cpu = cpu_with_program(&[0x0FFF]);
        let err = cpu.step().unwrap_err();
        assert_eq!(err.address, 0xF000);
        assert_eq!(err.word, 0x0FFF);
        assert!(err.to_string().contains("cannot decode"));
    }

    #[test]
    fn byte_operations_clear_upper_register_byte() {
        // mov #0xFFFF, r10 ; mov.b #0x12, r10
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x433A, 0x407A, 0x0012];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0xFFFF);
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0x0012);
    }
}
