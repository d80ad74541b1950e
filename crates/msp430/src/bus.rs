//! Bus-level observation types.
//!
//! Every simulator step produces a [`StepTrace`] describing the hardware
//! signals an external monitor (such as the CASU/EILID hardware) can observe
//! on the real core: the program counter, instruction fetch addresses, and
//! every data read and write with its address. The EILID hardware is a
//! passive observer of these signals that triggers a reset when a policy is
//! violated, so the trace is the natural integration point between the
//! simulator and the monitor crate.

use serde::{Deserialize, Serialize};

use crate::flags::Width;
use crate::instruction::Instruction;

/// Direction of a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// A single data-memory access observed on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Accessed address.
    pub addr: u16,
    /// Value read or written.
    pub value: u16,
    /// Access width.
    pub width: Width,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// `true` if the access is a write.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }

    /// Inclusive range of byte addresses touched by this access.
    pub fn byte_range(&self) -> (u16, u16) {
        match self.width {
            Width::Byte => (self.addr, self.addr),
            Width::Word => (self.addr & !1, (self.addr & !1).wrapping_add(1)),
        }
    }
}

/// Why a simulator step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepEvent {
    /// A regular instruction was fetched and executed.
    Executed,
    /// An interrupt was accepted instead of executing an instruction.
    InterruptTaken {
        /// Interrupt vector index (0–15).
        vector: u8,
    },
    /// The CPU is idle in a low-power mode waiting for an interrupt.
    Idle,
    /// The instruction word could not be decoded; the core signals an error.
    DecodeFault {
        /// The undecodable instruction word.
        word: u16,
    },
}

/// Full record of the hardware signals produced by one simulator step.
///
/// A trace is also a reusable buffer: [`Cpu::step_into`](crate::Cpu::step_into)
/// overwrites every field of a caller-owned trace and refills its vectors
/// in place, so a run loop that keeps one trace allocates nothing per
/// step once the vectors have grown to the largest step seen. Nothing
/// from an earlier step survives an overwrite; a reference to the trace
/// describes the latest step only. [`StepTrace::default`] is an empty
/// buffer to start from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTrace {
    /// Program counter at the start of the step.
    pub pc: u16,
    /// Program counter after the step (start of the next instruction).
    pub next_pc: u16,
    /// What happened during this step.
    pub event: StepEvent,
    /// The executed instruction, when [`StepEvent::Executed`].
    pub instruction: Option<Instruction>,
    /// Encoded size of the executed instruction in bytes (0 otherwise).
    pub instruction_size: u16,
    /// Addresses of the instruction words fetched this step.
    pub fetch_addresses: Vec<u16>,
    /// Data reads performed this step (stack pops, operand loads, vector
    /// fetches).
    pub reads: Vec<MemAccess>,
    /// Data writes performed this step (stack pushes, operand stores).
    pub writes: Vec<MemAccess>,
    /// Clock cycles consumed by this step.
    pub cycles: u64,
    /// Total clock cycles consumed since reset, including this step.
    pub total_cycles: u64,
}

impl Default for StepTrace {
    /// An empty trace (an idle step of zero cycles at address 0), to be
    /// filled by [`Cpu::step_into`](crate::Cpu::step_into).
    fn default() -> Self {
        StepTrace {
            pc: 0,
            next_pc: 0,
            event: StepEvent::Idle,
            instruction: None,
            instruction_size: 0,
            fetch_addresses: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            cycles: 0,
            total_cycles: 0,
        }
    }
}

impl StepTrace {
    /// `true` if this step wrote to `addr` (any width overlapping it).
    pub fn wrote_to(&self, addr: u16) -> bool {
        self.writes.iter().any(|w| {
            let (lo, hi) = w.byte_range();
            addr >= lo && addr <= hi
        })
    }

    /// Returns the last value written to `addr` during this step, if any.
    pub fn written_value(&self, addr: u16) -> Option<u16> {
        self.writes
            .iter()
            .rev()
            .find(|w| {
                let (lo, hi) = w.byte_range();
                addr >= lo && addr <= hi
            })
            .map(|w| w.value)
    }

    /// `true` if an interrupt was accepted during this step.
    pub fn interrupt_taken(&self) -> bool {
        matches!(self.event, StepEvent::InterruptTaken { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(addr: u16, value: u16, width: Width) -> MemAccess {
        MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn byte_range_word_access() {
        let acc = write(0x0201, 0xBEEF, Width::Word);
        assert_eq!(acc.byte_range(), (0x0200, 0x0201));
        let acc = write(0x0203, 0xAB, Width::Byte);
        assert_eq!(acc.byte_range(), (0x0203, 0x0203));
    }

    #[test]
    fn trace_write_queries() {
        let trace = StepTrace {
            pc: 0xF000,
            next_pc: 0xF004,
            event: StepEvent::Executed,
            instruction: None,
            instruction_size: 4,
            fetch_addresses: vec![0xF000, 0xF002],
            reads: vec![],
            writes: vec![
                write(0x0200, 0x1234, Width::Word),
                write(0x0300, 0x55, Width::Byte),
            ],
            cycles: 5,
            total_cycles: 5,
        };
        assert!(trace.wrote_to(0x0200));
        assert!(trace.wrote_to(0x0201));
        assert!(!trace.wrote_to(0x0202));
        assert_eq!(trace.written_value(0x0200), Some(0x1234));
        assert_eq!(trace.written_value(0x0300), Some(0x55));
        assert_eq!(trace.written_value(0x0400), None);
        assert!(!trace.interrupt_taken());
    }

    #[test]
    fn interrupt_event_query() {
        let trace = StepTrace {
            pc: 0xF000,
            next_pc: 0xE100,
            event: StepEvent::InterruptTaken { vector: 8 },
            instruction: None,
            instruction_size: 0,
            fetch_addresses: vec![],
            reads: vec![],
            writes: vec![],
            cycles: 6,
            total_cycles: 100,
        };
        assert!(trace.interrupt_taken());
    }
}
