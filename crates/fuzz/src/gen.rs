//! Seed-driven generation of sp32 instruction streams and machine
//! setups.
//!
//! The streams are *encoding-valid* — every word decodes — but
//! semantically arbitrary: wild branch targets, stores through
//! uninitialised registers, stack abuse, software interrupts into
//! half-built IDTs. That is the point: the differential and
//! never-panic oracles must hold for every decodable program, not just
//! well-formed tasks. A fraction of operands is deliberately biased
//! toward the interesting edges (address-space top, region boundaries,
//! the stream's own text) where span/wrap bugs live.
//!
//! One stream in four also holds the loop the block translator fuses
//! ([`gen_fused_loop`]): a load-op-store triple over one word, mostly at
//! plain RAM or an edge of the task's data window, sometimes at the
//! triple's own code or a device register.

use crate::rng::FuzzRng;
use eampu::{Perms, Region, Rule};
use sp32::{Cond, Instr, Reg};

/// Every register, for uniform draws.
const REGS: [Reg; 8] = [
    Reg::R0,
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::SP,
];

const CONDS: [Cond; 6] = [Cond::Z, Cond::Nz, Cond::Lt, Cond::Ge, Cond::B, Cond::Ae];

/// Generation context: where the stream sits, so branch targets can be
/// biased to land inside (or just past) it.
#[derive(Debug, Clone, Copy)]
pub struct StreamCtx {
    /// Load address of the stream.
    pub origin: u32,
    /// Rough byte span of the stream (for in-range target draws).
    pub span: u32,
    /// The task's data window as `(start, len)`: [`gen_setup`] may grant
    /// it to the stream's code by a rule, and fused loops point at its
    /// edges.
    pub window: (u32, u32),
}

fn gen_reg(rng: &mut FuzzRng) -> Reg {
    *rng.choose(&REGS)
}

/// A branch/call target: usually word-aligned inside the stream's own
/// footprint (so execution actually explores the stream), sometimes
/// deliberately misaligned, out of range, or at the address-space top.
fn gen_target(rng: &mut FuzzRng, ctx: &StreamCtx) -> u32 {
    match rng.below(16) {
        0 => rng.next_u32(),                                     // anywhere at all
        1 => 0xffff_fff0u32.wrapping_add(rng.next_u32() % 0x20), // the edge
        2 => ctx
            .origin
            .wrapping_add(rng.next_u32() % (2 * ctx.span.max(4))), // near, unaligned
        _ => ctx.origin + ((rng.next_u32() % ctx.span.max(4)) & !3), // inside, aligned
    }
}

/// A pointer-ish immediate for `movi`: RAM addresses, the stream's own
/// text, MMIO bases, and occasionally the wild blue yonder.
fn gen_pointer(rng: &mut FuzzRng, ctx: &StreamCtx) -> u32 {
    match rng.below(8) {
        0 => rng.next_u32(),
        1 => 0xf000_0000 + (rng.next_u32() % 0x400), // device space
        2 => 0xffff_ffe0u32.wrapping_add(rng.next_u32() % 0x40), // the edge
        3 => ctx.origin + (rng.next_u32() % (2 * ctx.span.max(4))), // own text
        _ => rng.next_u32() % (1 << 17),             // plain RAM
    }
}

fn gen_disp(rng: &mut FuzzRng) -> i16 {
    match rng.below(8) {
        0 => i16::MIN,
        1 => i16::MAX,
        _ => (rng.next_u32() % 64) as i16 - 32,
    }
}

/// One random decodable instruction.
pub fn gen_instr(rng: &mut FuzzRng, ctx: &StreamCtx) -> Instr {
    match rng.below(26) {
        0 => Instr::Nop,
        1 => Instr::Hlt,
        2 => Instr::MovReg {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        3 => Instr::MovImm {
            rd: gen_reg(rng),
            imm: gen_pointer(rng, ctx),
        },
        4 => Instr::Add {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        5 => Instr::AddImm {
            rd: gen_reg(rng),
            imm: gen_disp(rng),
        },
        6 => Instr::Sub {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        7 => Instr::Mul {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        8 => Instr::And {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        9 => Instr::Or {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        10 => Instr::Xor {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        11 => Instr::Not { rd: gen_reg(rng) },
        12 => Instr::Shl {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        13 => Instr::Shr {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        14 => Instr::Cmp {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
        },
        15 => Instr::CmpImm {
            rd: gen_reg(rng),
            imm: gen_disp(rng),
        },
        16 => Instr::Ldw {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
            disp: gen_disp(rng),
        },
        17 => Instr::Stw {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
            disp: gen_disp(rng),
        },
        18 => Instr::Ldb {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
            disp: gen_disp(rng),
        },
        19 => Instr::Stb {
            rd: gen_reg(rng),
            rs: gen_reg(rng),
            disp: gen_disp(rng),
        },
        20 => Instr::Jmp {
            target: gen_target(rng, ctx),
        },
        21 => Instr::Jcc {
            cond: *rng.choose(&CONDS),
            target: gen_target(rng, ctx),
        },
        22 => match rng.below(4) {
            0 => Instr::JmpReg { rs: gen_reg(rng) },
            1 => Instr::Call {
                target: gen_target(rng, ctx),
            },
            2 => Instr::Ret,
            _ => Instr::Iret,
        },
        23 => {
            if rng.chance(1, 2) {
                Instr::Push { rs: gen_reg(rng) }
            } else {
                Instr::Pop { rd: gen_reg(rng) }
            }
        }
        24 => Instr::Int {
            vector: (rng.next_u32() % 48) as u8,
        },
        _ => {
            if rng.chance(1, 2) {
                Instr::Sti
            } else {
                Instr::Cli
            }
        }
    }
}

/// The most instructions [`gen_fused_loop`] emits.
const FUSED_LOOP_LEN: usize = 8;

/// A stream of 1..=`max_len` random instructions; one in four streams
/// long enough holds a [`gen_fused_loop`] at a random place.
pub fn gen_stream(rng: &mut FuzzRng, ctx: &StreamCtx, max_len: usize) -> Vec<Instr> {
    let len = rng.range(1, max_len as u64) as usize;
    let fused_at = (len >= FUSED_LOOP_LEN && rng.chance(1, 4))
        .then(|| rng.below((len - FUSED_LOOP_LEN + 1) as u64) as usize);
    let mut instrs = Vec::with_capacity(len);
    while instrs.len() < len {
        if Some(instrs.len()) == fused_at {
            let at = ctx.origin + instrs.iter().map(Instr::size_bytes).sum::<u32>();
            instrs.extend(gen_fused_loop(rng, ctx, at));
        } else {
            instrs.push(gen_instr(rng, ctx));
        }
    }
    instrs
}

/// A loop around `ldw rX, [rB+d]; <op> rX; stw [rB+d], rX`, the
/// load-op-store triple the block translator fuses, placed at `at`:
///
/// ```text
///     movi rB, word - d
///     jmp  loop          ; marks the loop entry, as a back edge would
/// loop:
///     ldw  rX, [rB+d]
///     <op> rX, ...       ; an op whose only effects are on rX and flags
///     stw  [rB+d], rX
///     addi rB, stride    ; sometimes: sweep across the word's neighbours
///     jmp  loop          ; or `cmp rB, rB` and a conditional branch
///                        ; that the compare takes
/// ```
///
/// The word is mostly plain RAM (sometimes straddling a page or the end
/// of RAM) or a word beside an edge of the task's data window. A small
/// share on purpose is a device register, which faults when no device
/// answers there, or a word of the triple itself, which rewrites the
/// triple before the loop compiles. Entered by a jump, the loop compiles
/// on the case's next pass and runs fused on the ones after, over the
/// access windows the earlier passes memoised.
pub fn gen_fused_loop(rng: &mut FuzzRng, ctx: &StreamCtx, at: u32) -> Vec<Instr> {
    let base = gen_reg(rng);
    let x = loop {
        let x = gen_reg(rng);
        if x != base {
            break x;
        }
    };
    let rs = gen_reg(rng);
    let op = match rng.below(6) {
        0 => Instr::AddImm {
            rd: x,
            imm: gen_disp(rng),
        },
        1 => Instr::Add { rd: x, rs },
        2 => Instr::Xor { rd: x, rs },
        3 => Instr::Not { rd: x },
        4 => Instr::Shl { rd: x, rs },
        _ => Instr::Sub { rd: x, rs },
    };
    let head = at
        + Instr::MovImm { rd: base, imm: 0 }.size_bytes()
        + Instr::Jmp { target: 0 }.size_bytes();
    let word = match rng.below(16) {
        0..=9 if rng.chance(1, 4) => (rng.range(1, 32) as u32) * 0x1000 - 2,
        0..=9 => (rng.next_u32() % (1 << 17)) & !3,
        10..=13 => {
            let (start, len) = ctx.window;
            let edge = if rng.chance(1, 2) { start } else { start + len };
            edge.wrapping_add(4 * rng.below(5) as u32).wrapping_sub(8)
        }
        14 => head + 4 * rng.below(3) as u32,
        _ => 0xf000_0000 + 4 * rng.below(4) as u32,
    };
    let disp = (rng.below(16) as i16 - 8) * 4;
    let mut instrs = vec![
        Instr::MovImm {
            rd: base,
            imm: word.wrapping_sub(disp as i32 as u32),
        },
        Instr::Jmp { target: head },
        Instr::Ldw {
            rd: x,
            rs: base,
            disp,
        },
        op,
        Instr::Stw {
            rd: base,
            rs: x,
            disp,
        },
    ];
    if rng.chance(1, 2) {
        let stride = *rng.choose(&[4, -4, 2, 8]);
        instrs.push(Instr::AddImm {
            rd: base,
            imm: stride,
        });
    }
    if rng.chance(3, 4) {
        instrs.push(Instr::Jmp { target: head });
    } else {
        // `rB - rB` is zero with no borrow: ZF set, SF and CF clear.
        instrs.push(Instr::Cmp { rd: base, rs: base });
        instrs.push(Instr::Jcc {
            cond: *rng.choose(&[Cond::Z, Cond::Ge, Cond::Ae]),
            target: head,
        });
    }
    instrs
}

/// Encodes a stream to load-ready little-endian bytes.
pub fn encode_stream(instrs: &[Instr]) -> Vec<u8> {
    let mut words = Vec::with_capacity(instrs.len() * 2);
    for instr in instrs {
        sp32::encode(instr, &mut words);
    }
    words_to_bytes(&words)
}

/// Little-endian byte view of encoded words.
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Everything needed to construct one differential case's machines —
/// plain data, a pure function of the seed, serializable into a corpus
/// file for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSetup {
    /// Load address of the program.
    pub origin: u32,
    /// Encoded program words.
    pub words: Vec<u32>,
    /// Initial register file (index 7 is SP).
    pub regs: [u32; 8],
    /// Initial flags.
    pub eflags: u32,
    /// IDT base (0 leaves the power-on base in place).
    pub idt_base: u32,
    /// `(vector, handler)` IDT entries to install (failures ignored —
    /// a hostile IDT is part of the input space).
    pub idt_entries: Vec<(u8, u32)>,
    /// EA-MPU rules as `(code_start, code_len, entry, data_start,
    /// data_len, readonly)`; configure failures ignored likewise.
    pub mpu_rules: Vec<(u32, u32, u32, u32, u32, bool)>,
    /// Whether EA-MPU enforcement is on.
    pub mpu_enabled: bool,
    /// A timer device: `(interval, vector)`.
    pub timer: Option<(u64, u8)>,
    /// IRQs raised before execution starts.
    pub prior_irqs: Vec<u8>,
    /// Whether the hardware context save is enabled.
    pub hw_context_save: bool,
    /// Total cycle budget for the case.
    pub budget: u64,
    /// Per-`run` chunk size (odd sizes land run boundaries mid-stream).
    pub chunk: u64,
}

/// A full random differential case: program plus platform state.
pub fn gen_setup(rng: &mut FuzzRng) -> CaseSetup {
    let origin = 0x100 + ((rng.next_u32() % 0x4000) & !3);
    let max_len = 40;
    let ctx = StreamCtx {
        origin,
        span: (max_len * 8) as u32,
        window: (
            (rng.next_u32() % (1 << 17)) & !3,
            (0x20 + rng.next_u32() % 0x400) & !3,
        ),
    };
    let instrs = gen_stream(rng, &ctx, max_len);
    let mut words = Vec::new();
    for instr in &instrs {
        sp32::encode(instr, &mut words);
    }

    let mut regs = [0u32; 8];
    for r in regs.iter_mut() {
        *r = gen_pointer(rng, &ctx);
    }
    // SP: usually a sane stack, sometimes hostile.
    regs[7] = match rng.below(8) {
        0 => 0,
        1 => 3,
        2 => 0xffff_fffc,
        _ => 0x8000 + ((rng.next_u32() % 0x8000) & !3),
    };

    let idt_base = match rng.below(16) {
        0 => 0xffff_fff0,
        1 => rng.next_u32() % (1 << 16),
        _ => 0x40,
    };
    let idt_entries = (0..rng.below(6))
        .map(|_| {
            let vector = (rng.next_u32() % 48) as u8;
            let handler = gen_target(rng, &ctx);
            (vector, handler)
        })
        .collect();

    // One case in three grants the stream's code its data window.
    let task_rule = rng.chance(1, 3).then(|| {
        let (start, len) = ctx.window;
        (origin, ctx.span, origin, start, len, rng.chance(1, 4))
    });
    let random_rules = (0..rng.below(3))
        .map(|_| {
            let code_start = (rng.next_u32() % (1 << 17)) & !3;
            let code_len = (0x20 + rng.next_u32() % 0x400) & !3;
            let entry = code_start + ((rng.next_u32() % code_len) & !3);
            let data_start = (rng.next_u32() % (1 << 17)) & !3;
            let data_len = (0x20 + rng.next_u32() % 0x400) & !3;
            (
                code_start,
                code_len,
                entry,
                data_start,
                data_len,
                rng.chance(1, 4),
            )
        })
        .collect::<Vec<_>>();
    let mpu_rules = task_rule.into_iter().chain(random_rules).collect();

    CaseSetup {
        origin,
        words,
        regs,
        eflags: if rng.chance(1, 2) { sp32::EFLAGS_IF } else { 0 },
        idt_base,
        idt_entries,
        mpu_rules,
        mpu_enabled: rng.chance(1, 2),
        timer: if rng.chance(1, 2) {
            Some((rng.range(1, 512), (32 + rng.next_u32() % 16) as u8))
        } else {
            None
        },
        prior_irqs: (0..rng.below(3))
            .map(|_| (rng.next_u32() % 48) as u8)
            .collect(),
        hw_context_save: rng.chance(1, 4),
        budget: rng.range(1_000, 20_000),
        chunk: rng.range(64, 1_024),
    }
}

/// The rules a setup describes, as configured EA-MPU [`Rule`]s.
/// Degenerate geometries (wrapping regions) are skipped — [`Region`]
/// construction rejects them by contract.
pub fn setup_rules(setup: &CaseSetup) -> Vec<Rule> {
    setup
        .mpu_rules
        .iter()
        .filter(|&&(cs, cl, _, ds, dl, _)| {
            cl > 0 && dl > 0 && cs.checked_add(cl - 1).is_some() && ds.checked_add(dl - 1).is_some()
        })
        .map(|&(cs, cl, entry, ds, dl, readonly)| {
            Rule::new(
                Region::new(cs, cl),
                entry.min(cs + cl - 1),
                Region::new(ds, dl),
                if readonly { Perms::R } else { Perms::RW },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_streams_are_decodable_and_deterministic() {
        for seed in 0..50 {
            let mut rng = FuzzRng::new(seed);
            let setup = gen_setup(&mut rng);
            // Every generated word sequence decodes back.
            let mut i = 0;
            while i < setup.words.len() {
                let first = setup.words[i];
                let needs_ext = sp32::encoded_len_words(first) == 2;
                let ext = if needs_ext {
                    setup.words.get(i + 1).copied()
                } else {
                    None
                };
                if needs_ext && ext.is_none() {
                    break; // stream ends mid-instruction: fine, machine faults
                }
                sp32::decode(first, ext).expect("generated word must decode");
                i += if needs_ext { 2 } else { 1 };
            }
            // Same seed, same setup.
            let again = gen_setup(&mut FuzzRng::new(seed));
            assert_eq!(setup, again);
        }
    }

    #[test]
    fn fused_loops_compile_to_fused_triples() {
        // The translator must fuse the triple the arm generates, or the
        // arm fuzzes a near miss. A loop whose word is a device register
        // (none is attached here) or its own triple faults or rewrites
        // the triple before the loop compiles; the arm keeps those a
        // small share on purpose, so not every seed counts.
        use sp_emu::{EngineKind, Machine, MachineConfig};
        use std::sync::Arc;
        use tytan_trace::{RingRecorder, Tracer};

        let ctx = StreamCtx {
            origin: 0x1000,
            span: 64,
            window: (0x9000, 0x100),
        };
        let fused = (0..64)
            .filter(|&seed| {
                let instrs = gen_fused_loop(&mut FuzzRng::new(seed), &ctx, ctx.origin);
                let mut m = Machine::new(MachineConfig {
                    engine: EngineKind::Translated,
                    ram_size: crate::diff::FUZZ_RAM,
                    ..MachineConfig::default()
                });
                m.load_image(ctx.origin, &encode_stream(&instrs)).unwrap();
                m.set_eip(ctx.origin);
                let tracer = Tracer::new(Arc::new(RingRecorder::new(16)));
                m.attach_tracer(tracer.clone());
                m.run(2_000);
                tracer.counters().get("emu_block_fused") >= Some(1)
            })
            .count();
        assert!(fused >= 48, "only {fused} of 64 loops fused a triple");
    }

    #[test]
    fn setup_rules_skips_wrapping_geometry() {
        let mut setup = gen_setup(&mut FuzzRng::new(1));
        setup.mpu_rules = vec![
            (0xffff_fff0, 0x100, 0xffff_fff0, 0x1000, 0x100, false), // code wraps
            (0x1000, 0x100, 0x1000, 0x2000, 0x100, true),            // fine
        ];
        let rules = setup_rules(&setup);
        assert_eq!(rules.len(), 1);
    }
}
