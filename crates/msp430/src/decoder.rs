//! Instruction decoder.
//!
//! Converts raw instruction words fetched from memory into the typed
//! [`Instruction`] model. Symbolic (PC-relative) operands are resolved to
//! absolute addresses at decode time, because the decoder knows the address
//! of each extension word.

use std::fmt;

use crate::flags::Width;
use crate::instruction::{Condition, Instruction, OneOpOpcode, Operand, TwoOpOpcode};
use crate::memory::Memory;
use crate::registers::Reg;

/// A decoded instruction together with its raw encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The decoded instruction.
    pub instruction: Instruction,
    /// Address the instruction was fetched from.
    pub address: u16,
    /// Encoded size in bytes (2, 4, or 6).
    pub size_bytes: u16,
    /// Raw instruction words, in fetch order.
    pub words: Vec<u16>,
}

impl Decoded {
    /// Address of the instruction following this one.
    pub fn next_address(&self) -> u16 {
        self.address.wrapping_add(self.size_bytes)
    }
}

/// Error produced when an instruction word cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The word does not correspond to any MSP430 instruction format.
    IllegalOpcode {
        /// Offending instruction word.
        word: u16,
        /// Address it was fetched from.
        address: u16,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::IllegalOpcode { word, address } => write!(
                f,
                "illegal opcode {:#06x} at address {:#06x}",
                word, address
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Fetches the words of one instruction into a fixed buffer: an MSP430
/// instruction is at most three words (opcode plus two extension words).
struct WordFetcher<'a> {
    memory: &'a Memory,
    next: u16,
    words: [u16; 3],
    len: usize,
}

impl<'a> WordFetcher<'a> {
    fn new(memory: &'a Memory, pc: u16) -> Self {
        WordFetcher {
            memory,
            next: pc,
            words: [0; 3],
            len: 0,
        }
    }

    fn fetch(&mut self) -> u16 {
        let word = self.memory.read_word(self.next);
        self.words[self.len] = word;
        self.len += 1;
        self.next = self.next.wrapping_add(2);
        word
    }

    /// Address of the next word that `fetch` would return.
    fn next_address(&self) -> u16 {
        self.next
    }

    /// Encoded size in bytes of the words fetched so far.
    fn size_bytes(&self) -> u16 {
        (self.len * 2) as u16
    }
}

/// Decodes the instruction stored at `pc`.
///
/// # Errors
///
/// Returns [`DecodeError::IllegalOpcode`] if the word at `pc` does not match
/// any of the three MSP430 instruction formats.
///
/// # Examples
///
/// ```
/// use eilid_msp430::{decode, Memory};
///
/// let mut mem = Memory::new();
/// // mov #0xe200, r6  => 0x4036 0xe200
/// mem.write_word(0xF000, 0x4036);
/// mem.write_word(0xF002, 0xE200);
/// let decoded = decode(&mem, 0xF000)?;
/// assert_eq!(decoded.instruction.to_string(), "mov #0xe200, r6");
/// assert_eq!(decoded.size_bytes, 4);
/// # Ok::<(), eilid_msp430::DecodeError>(())
/// ```
pub fn decode(memory: &Memory, pc: u16) -> Result<Decoded, DecodeError> {
    let mut fetcher = WordFetcher::new(memory, pc);
    let instruction = decode_fetched(pc, &mut fetcher)?;
    Ok(Decoded {
        instruction,
        address: pc,
        size_bytes: fetcher.size_bytes(),
        words: fetcher.words[..fetcher.len].to_vec(),
    })
}

/// The simulator's decode: the instruction at `pc` and its encoded size
/// in bytes, without collecting the raw words.
pub(crate) fn decode_instruction(
    memory: &Memory,
    pc: u16,
) -> Result<(Instruction, u16), DecodeError> {
    let mut fetcher = WordFetcher::new(memory, pc);
    let instruction = decode_fetched(pc, &mut fetcher)?;
    Ok((instruction, fetcher.size_bytes()))
}

fn decode_fetched(pc: u16, fetcher: &mut WordFetcher<'_>) -> Result<Instruction, DecodeError> {
    let word = fetcher.fetch();
    if word >> 13 == 0b001 {
        Ok(decode_jump(word))
    } else if word >> 10 == 0b000100 {
        decode_one_op(word, pc, fetcher)
    } else if TwoOpOpcode::from_encoding(word >> 12).is_some() {
        Ok(decode_two_op(word, fetcher))
    } else {
        Err(DecodeError::IllegalOpcode { word, address: pc })
    }
}

fn decode_jump(word: u16) -> Instruction {
    let condition =
        Condition::from_encoding((word >> 10) & 0b111).expect("3-bit condition is always valid");
    let raw = word & 0x03FF;
    // Sign-extend the 10-bit offset.
    let offset = if raw & 0x0200 != 0 {
        (raw | 0xFC00) as i16
    } else {
        raw as i16
    };
    Instruction::Jump { condition, offset }
}

fn decode_one_op(
    word: u16,
    pc: u16,
    fetcher: &mut WordFetcher<'_>,
) -> Result<Instruction, DecodeError> {
    let opcode = OneOpOpcode::from_encoding((word >> 7) & 0b111)
        .ok_or(DecodeError::IllegalOpcode { word, address: pc })?;
    let width = if word & 0x0040 != 0 {
        Width::Byte
    } else {
        Width::Word
    };
    if opcode == OneOpOpcode::Reti {
        return Ok(Instruction::OneOp {
            opcode,
            width: Width::Word,
            operand: Operand::Register(Reg::CG),
        });
    }
    let as_bits = (word >> 4) & 0b11;
    let reg = Reg::from_index(word & 0xF).expect("4-bit register index");
    let operand = decode_source(reg, as_bits, fetcher);
    Ok(Instruction::OneOp {
        opcode,
        width,
        operand,
    })
}

fn decode_two_op(word: u16, fetcher: &mut WordFetcher<'_>) -> Instruction {
    let opcode = TwoOpOpcode::from_encoding(word >> 12).expect("caller checked format I range");
    let src_reg = Reg::from_index((word >> 8) & 0xF).expect("4-bit register index");
    let ad = (word >> 7) & 0b1;
    let width = if word & 0x0040 != 0 {
        Width::Byte
    } else {
        Width::Word
    };
    let as_bits = (word >> 4) & 0b11;
    let dst_reg = Reg::from_index(word & 0xF).expect("4-bit register index");

    let src = decode_source(src_reg, as_bits, fetcher);
    let dst = decode_destination(dst_reg, ad, fetcher);
    Instruction::TwoOp {
        opcode,
        width,
        src,
        dst,
    }
}

fn decode_source(reg: Reg, as_bits: u16, fetcher: &mut WordFetcher<'_>) -> Operand {
    match (reg, as_bits) {
        // Constant generator 2 (r3).
        (Reg::CG, 0b00) => Operand::Immediate(0),
        (Reg::CG, 0b01) => Operand::Immediate(1),
        (Reg::CG, 0b10) => Operand::Immediate(2),
        (Reg::CG, 0b11) => Operand::Immediate(0xFFFF),
        // Constant generator 1 (r2) for As = 10/11; absolute for As = 01.
        (Reg::SR, 0b10) => Operand::Immediate(4),
        (Reg::SR, 0b11) => Operand::Immediate(8),
        (Reg::SR, 0b01) => Operand::Absolute(fetcher.fetch()),
        // PC-based modes: symbolic and immediate.
        (Reg::PC, 0b01) => {
            let ext_addr = fetcher.next_address();
            let offset = fetcher.fetch();
            Operand::Absolute(ext_addr.wrapping_add(offset))
        }
        (Reg::PC, 0b11) => Operand::Immediate(fetcher.fetch()),
        // Generic modes.
        (r, 0b00) => Operand::Register(r),
        (r, 0b01) => Operand::Indexed {
            reg: r,
            offset: fetcher.fetch() as i16,
        },
        (r, 0b10) => Operand::Indirect(r),
        (r, _) => Operand::IndirectAutoInc(r),
    }
}

fn decode_destination(reg: Reg, ad: u16, fetcher: &mut WordFetcher<'_>) -> Operand {
    if ad == 0 {
        Operand::Register(reg)
    } else {
        match reg {
            Reg::SR => Operand::Absolute(fetcher.fetch()),
            Reg::PC => {
                let ext_addr = fetcher.next_address();
                let offset = fetcher.fetch();
                Operand::Absolute(ext_addr.wrapping_add(offset))
            }
            r => Operand::Indexed {
                reg: r,
                offset: fetcher.fetch() as i16,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode;

    fn decode_words(words: &[u16]) -> Decoded {
        let mut mem = Memory::new();
        for (i, w) in words.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        decode(&mem, 0xF000).expect("valid encoding")
    }

    #[test]
    fn decode_register_mov() {
        // mov r10, r11 = 0x4A0B
        let d = decode_words(&[0x4A0B]);
        assert_eq!(d.instruction.to_string(), "mov r10, r11");
        assert_eq!(d.size_bytes, 2);
        assert_eq!(d.next_address(), 0xF002);
    }

    #[test]
    fn decode_immediate_mov() {
        let d = decode_words(&[0x4036, 0xE200]);
        assert_eq!(
            d.instruction,
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                width: Width::Word,
                src: Operand::Immediate(0xE200),
                dst: Operand::Register(Reg::R6),
            }
        );
    }

    #[test]
    fn decode_constant_generator_sources() {
        // mov #1, r6: r3 with As=01 => 0x4316 + dst r6 => src reg 3, As 01.
        // word = 0x4000 | (3 << 8) | (0 << 7) | (0 << 6) | (1 << 4) | 6
        let d = decode_words(&[0x4316]);
        assert_eq!(
            d.instruction,
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                width: Width::Word,
                src: Operand::Immediate(1),
                dst: Operand::Register(Reg::R6),
            }
        );
        assert_eq!(d.size_bytes, 2);
    }

    #[test]
    fn decode_indexed_and_absolute() {
        // mov 2(r1), r6: src reg 1, As=01, ext = 2
        let word = 0x4000 | (1 << 8) | (1 << 4) | 6;
        let d = decode_words(&[word, 0x0002]);
        assert_eq!(d.instruction.to_string(), "mov 2(r1), r6");

        // mov r6, &0x0140: dst reg=SR, Ad=1, ext=0x0140
        let word = 0x4000 | (6 << 8) | (1 << 7) | 2;
        let d = decode_words(&[word, 0x0140]);
        assert_eq!(d.instruction.to_string(), "mov r6, &0x0140");
    }

    #[test]
    fn decode_call_and_reti() {
        // call #0xE000: opcode call, As=11 with PC => immediate.
        let word = 0x1000 | (0b101 << 7) | (0b11 << 4);
        let d = decode_words(&[word, 0xE000]);
        assert!(d.instruction.is_call());
        assert_eq!(d.size_bytes, 4);

        // call r13 (indirect through register value): As=00, reg 13.
        let word = 0x1000 | (0b101 << 7) | 13;
        let d = decode_words(&[word]);
        assert_eq!(
            d.instruction,
            Instruction::OneOp {
                opcode: OneOpOpcode::Call,
                width: Width::Word,
                operand: Operand::Register(Reg::R13),
            }
        );

        // reti
        let word = 0x1000 | (0b110 << 7);
        let d = decode_words(&[word]);
        assert!(d.instruction.is_reti());
    }

    #[test]
    fn decode_ret_emulated() {
        // ret = mov @sp+, pc = 0x4130
        let d = decode_words(&[0x4130]);
        assert!(d.instruction.is_ret());
    }

    #[test]
    fn decode_jumps_with_sign_extension() {
        // jmp $-2 => offset -2 bytes from next => word offset -2/2 - 1 = -2
        // Encode: cond=jmp(111), offset=-2 (0x3FE)
        let word = 0x2000 | (0b111 << 10) | 0x03FE;
        let d = decode_words(&[word]);
        assert_eq!(
            d.instruction,
            Instruction::Jump {
                condition: Condition::Jmp,
                offset: -2
            }
        );
        let word = 0x2000 | (0b001 << 10) | 0x0003;
        let d = decode_words(&[word]);
        assert_eq!(
            d.instruction,
            Instruction::Jump {
                condition: Condition::Jeq,
                offset: 3
            }
        );
    }

    #[test]
    fn decode_rejects_illegal_opcode() {
        // 0x0000 is not a valid instruction (format II with opcode beyond RETI range decodes
        // to opcode 000 = RRC; use top nibble 0..=3 outside jump/format-II instead).
        let mut mem = Memory::new();
        mem.write_word(0xF000, 0x3FFF & 0x0FFF); // 0x0FFF: top nibble 0 -> illegal
        let err = decode(&mem, 0xF000).unwrap_err();
        assert!(matches!(err, DecodeError::IllegalOpcode { .. }));
        assert!(err.to_string().contains("illegal opcode"));
    }

    #[test]
    fn decode_symbolic_source_resolves_to_absolute() {
        // mov TARGET, r6 where TARGET is PC-relative: src reg PC, As=01.
        // ext word holds (target - ext_addr).
        let word = 0x4000 | (1 << 4) | 6;
        let ext_addr: u16 = 0xF002;
        let target: u16 = 0xE400;
        let d = decode_words(&[word, target.wrapping_sub(ext_addr)]);
        assert_eq!(
            d.instruction,
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                width: Width::Word,
                src: Operand::Absolute(0xE400),
                dst: Operand::Register(Reg::R6),
            }
        );
    }

    #[test]
    fn encode_decode_roundtrip_spot_checks() {
        let samples = [
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Add,
                width: Width::Word,
                src: Operand::Immediate(0x1234),
                dst: Operand::Indexed {
                    reg: Reg::R12,
                    offset: -4,
                },
            },
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Xor,
                width: Width::Byte,
                src: Operand::Indirect(Reg::R9),
                dst: Operand::Register(Reg::R10),
            },
            Instruction::OneOp {
                opcode: OneOpOpcode::Push,
                width: Width::Word,
                operand: Operand::Register(Reg::R4),
            },
            Instruction::Jump {
                condition: Condition::Jl,
                offset: -100,
            },
        ];
        for instr in samples {
            let words = encode(&instr).expect("encodable");
            let decoded = decode_words(&words);
            assert_eq!(decoded.instruction, instr, "roundtrip failed for {instr}");
        }
    }
}
