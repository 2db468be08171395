//! Binary instruction encoding — the assembler's target format.
//!
//! The software stack of paper Fig 12 passes scheduled programs through an
//! *assembler* that emits a machine-code binary per TSP. This module
//! defines that binary: a fixed 8-byte word per instruction
//! (opcode, three operand bytes, and a 32-bit immediate), chosen so a
//! schedule's issue cycles live *outside* the instruction stream — the
//! ICUs replay words in order, and timing comes from the deterministic
//! pipeline, exactly as the statically-scheduled hardware works.

use crate::instr::{Instruction, VectorOpcode};
use crate::{Direction, IsaError, StreamId};

/// Encoded size of one instruction word.
pub const WORD_BYTES: usize = 8;

/// Opcode byte values (stable ABI for the binary format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Opcode {
    Nop = 0x00,
    Sync = 0x01,
    Notify = 0x02,
    Deskew = 0x03,
    RuntimeDeskew = 0x04,
    Transmit = 0x05,
    Receive = 0x06,
    Send = 0x07,
    Read = 0x08,
    Write = 0x09,
    MatMul = 0x0A,
    InstallWeight = 0x0D,
    VectorOp = 0x0B,
    Permute = 0x0C,
}

fn vop_code(op: VectorOpcode) -> u8 {
    match op {
        VectorOpcode::Add => 0,
        VectorOpcode::Sub => 1,
        VectorOpcode::Mul => 2,
        VectorOpcode::Rsqrt => 3,
        VectorOpcode::Splat => 4,
    }
}

fn vop_decode(code: u8) -> Result<VectorOpcode, IsaError> {
    Ok(match code {
        0 => VectorOpcode::Add,
        1 => VectorOpcode::Sub,
        2 => VectorOpcode::Mul,
        3 => VectorOpcode::Rsqrt,
        4 => VectorOpcode::Splat,
        got => return Err(IsaError::BadOpcode { got }),
    })
}

/// Encodes one instruction into its 8-byte word.
pub fn encode(instr: &Instruction) -> [u8; WORD_BYTES] {
    let mut w = [0u8; WORD_BYTES];
    match instr {
        Instruction::Nop => w[0] = Opcode::Nop as u8,
        Instruction::Sync => w[0] = Opcode::Sync as u8,
        Instruction::Notify => w[0] = Opcode::Notify as u8,
        Instruction::Deskew => w[0] = Opcode::Deskew as u8,
        Instruction::RuntimeDeskew { target_cycles } => {
            w[0] = Opcode::RuntimeDeskew as u8;
            w[4..8].copy_from_slice(&target_cycles.to_le_bytes());
        }
        Instruction::Transmit { port } => {
            w[0] = Opcode::Transmit as u8;
            w[1] = *port;
        }
        Instruction::Receive { port, stream } => {
            w[0] = Opcode::Receive as u8;
            w[1] = *port;
            w[2] = stream.index() as u8;
        }
        Instruction::Send { port, stream } => {
            w[0] = Opcode::Send as u8;
            w[1] = *port;
            w[2] = stream.index() as u8;
        }
        Instruction::Read {
            slice,
            offset,
            stream,
            dir,
        } => {
            w[0] = Opcode::Read as u8;
            w[1] = *slice;
            w[2] = stream.index() as u8;
            w[3] = matches!(dir, Direction::West) as u8;
            w[4..6].copy_from_slice(&offset.to_le_bytes());
        }
        Instruction::Write {
            slice,
            offset,
            stream,
        } => {
            w[0] = Opcode::Write as u8;
            w[1] = *slice;
            w[2] = stream.index() as u8;
            w[4..6].copy_from_slice(&offset.to_le_bytes());
        }
        Instruction::MatMul { input, output } => {
            w[0] = Opcode::MatMul as u8;
            w[1] = input.index() as u8;
            w[2] = output.index() as u8;
        }
        Instruction::InstallWeight { stream } => {
            w[0] = Opcode::InstallWeight as u8;
            w[1] = stream.index() as u8;
        }
        Instruction::VectorOp { op, a, b, dest } => {
            w[0] = Opcode::VectorOp as u8;
            w[1] = a.index() as u8;
            w[2] = b.index() as u8;
            w[3] = dest.index() as u8;
            w[4] = vop_code(*op);
        }
        Instruction::Permute { input, output } => {
            w[0] = Opcode::Permute as u8;
            w[1] = input.index() as u8;
            w[2] = output.index() as u8;
        }
    }
    w
}

/// Decodes one 8-byte word back into an instruction.
pub fn decode(w: &[u8; WORD_BYTES]) -> Result<Instruction, IsaError> {
    let stream = |b: u8| StreamId::new(b);
    Ok(match w[0] {
        x if x == Opcode::Nop as u8 => Instruction::Nop,
        x if x == Opcode::Sync as u8 => Instruction::Sync,
        x if x == Opcode::Notify as u8 => Instruction::Notify,
        x if x == Opcode::Deskew as u8 => Instruction::Deskew,
        x if x == Opcode::RuntimeDeskew as u8 => Instruction::RuntimeDeskew {
            target_cycles: u32::from_le_bytes(w[4..8].try_into().expect("4 bytes")),
        },
        x if x == Opcode::Transmit as u8 => Instruction::Transmit { port: w[1] },
        x if x == Opcode::Receive as u8 => Instruction::Receive {
            port: w[1],
            stream: stream(w[2])?,
        },
        x if x == Opcode::Send as u8 => Instruction::Send {
            port: w[1],
            stream: stream(w[2])?,
        },
        x if x == Opcode::Read as u8 => Instruction::Read {
            slice: w[1],
            offset: u16::from_le_bytes(w[4..6].try_into().expect("2 bytes")),
            stream: stream(w[2])?,
            dir: if w[3] == 0 {
                Direction::East
            } else {
                Direction::West
            },
        },
        x if x == Opcode::Write as u8 => Instruction::Write {
            slice: w[1],
            offset: u16::from_le_bytes(w[4..6].try_into().expect("2 bytes")),
            stream: stream(w[2])?,
        },
        x if x == Opcode::MatMul as u8 => Instruction::MatMul {
            input: stream(w[1])?,
            output: stream(w[2])?,
        },
        x if x == Opcode::InstallWeight as u8 => Instruction::InstallWeight {
            stream: stream(w[1])?,
        },
        x if x == Opcode::VectorOp as u8 => Instruction::VectorOp {
            op: vop_decode(w[4])?,
            a: stream(w[1])?,
            b: stream(w[2])?,
            dest: stream(w[3])?,
        },
        x if x == Opcode::Permute as u8 => Instruction::Permute {
            input: stream(w[1])?,
            output: stream(w[2])?,
        },
        got => return Err(IsaError::BadOpcode { got }),
    })
}

/// Assembles a timed program into a flat binary: a 16-byte record per
/// instruction — the 64-bit issue cycle followed by the instruction word.
pub fn assemble(program: &[(u64, Instruction)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.len() * 16);
    for (cycle, instr) in program {
        out.extend_from_slice(&cycle.to_le_bytes());
        out.extend_from_slice(&encode(instr));
    }
    out
}

/// Disassembles a binary produced by [`assemble`].
pub fn disassemble(binary: &[u8]) -> Result<Vec<(u64, Instruction)>, IsaError> {
    if !binary.len().is_multiple_of(16) {
        return Err(IsaError::PartialRecord { got: binary.len() });
    }
    binary
        .chunks_exact(16)
        .map(|rec| {
            let cycle = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let word: [u8; WORD_BYTES] = rec[8..].try_into().expect("8 bytes");
            decode(&word).map(|i| (cycle, i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u8) -> StreamId {
        StreamId::new(n).unwrap()
    }

    fn all_instructions() -> Vec<Instruction> {
        vec![
            Instruction::Nop,
            Instruction::Sync,
            Instruction::Notify,
            Instruction::Deskew,
            Instruction::RuntimeDeskew {
                target_cycles: 123_456,
            },
            Instruction::RuntimeDeskew {
                target_cycles: u32::MAX,
            },
            Instruction::Transmit { port: 10 },
            Instruction::Receive {
                port: 3,
                stream: sid(5),
            },
            Instruction::Send {
                port: 7,
                stream: sid(31),
            },
            Instruction::Read {
                slice: 87,
                offset: 4095,
                stream: sid(1),
                dir: Direction::West,
            },
            Instruction::Write {
                slice: 0,
                offset: 0,
                stream: sid(0),
            },
            Instruction::MatMul {
                input: sid(2),
                output: sid(3),
            },
            Instruction::InstallWeight { stream: sid(11) },
            Instruction::VectorOp {
                op: VectorOpcode::Rsqrt,
                a: sid(4),
                b: sid(5),
                dest: sid(6),
            },
            Instruction::Permute {
                input: sid(8),
                output: sid(9),
            },
        ]
    }

    #[test]
    fn every_instruction_roundtrips() {
        for instr in all_instructions() {
            let w = encode(&instr);
            let back = decode(&w).unwrap();
            assert_eq!(instr, back, "{instr:?}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut w = [0u8; WORD_BYTES];
        w[0] = 0xFF;
        assert_eq!(decode(&w), Err(IsaError::BadOpcode { got: 0xFF }));
    }

    #[test]
    fn invalid_stream_rejected() {
        let mut w = encode(&Instruction::Send {
            port: 0,
            stream: sid(0),
        });
        w[2] = 77; // stream out of range
        assert!(decode(&w).is_err());
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let program: Vec<(u64, Instruction)> = all_instructions()
            .into_iter()
            .enumerate()
            .map(|(i, instr)| (i as u64 * 24, instr))
            .collect();
        let binary = assemble(&program);
        assert_eq!(binary.len(), program.len() * 16);
        assert_eq!(disassemble(&binary).unwrap(), program);
    }

    #[test]
    fn truncated_binary_rejected() {
        let binary = assemble(&[(0, Instruction::Nop)]);
        assert_eq!(
            disassemble(&binary[..10]),
            Err(IsaError::PartialRecord { got: 10 })
        );
    }
}
