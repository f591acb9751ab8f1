//! Spec tests for the register-only instructions, on both engines.
//!
//! The lockstep suites compare the block translator with the legacy
//! loop, so an ALU bug made in both engines passes them. Here every
//! expected value and flag comes from the ISA documentation of
//! `sp32::Instr` instead:
//!
//! - `add`/`addi`/`sub`/`cmp`/`cmpi` set ZF, SF and CF. CF is the carry
//!   out of bit 31 for the adds and the borrow (`rd < src`, unsigned) for
//!   the subtracts, which is what `jb` ("unsigned below") reads after a
//!   compare. Immediates are sign-extended 16-bit values.
//! - `mul` (low 32 bits), `and`, `or`, `xor`, `not`, `shl` and `shr` set
//!   ZF and SF and keep CF. The shifts use `rs & 31` as the count.
//! - `mov` and `movi` keep every flag.
//!
//! Each case runs three times on a fresh machine per engine: the first
//! entry is interpreted, later entries run the translator's compiled
//! block, so both copies of every arm are checked.

use sp32::asm::assemble;
use sp32::{Reg, EFLAGS_CF, EFLAGS_SF, EFLAGS_ZF};
use sp_emu::{EngineKind, Machine, MachineConfig};
use std::sync::Arc;
use tytan_trace::{RingRecorder, Tracer};

const OPERANDS: [u32; 5] = [0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff];
const SHIFT_COUNTS: [u32; 4] = [0, 31, 32, 33];
const IMMEDIATES: [i16; 3] = [-1, -32768, 32767];
/// Flags before the instruction: all clear, then all set, so a kept
/// flag and an overwritten one both show.
const FLAGS_IN: [u32; 2] = [0, EFLAGS_ZF | EFLAGS_SF | EFLAGS_CF];

/// One instruction with `r1 = a` and `r2 = b` before it, and the `r1`
/// and `EFLAGS` the ISA documentation gives after it.
#[derive(Debug)]
struct Case {
    source: String,
    a: u32,
    b: u32,
    flags_in: u32,
    r1: u32,
    flags: u32,
}

/// ZF and SF of `value`, and CF.
fn flags_of(value: u32, cf: bool) -> u32 {
    let mut flags = 0;
    if value == 0 {
        flags |= EFLAGS_ZF;
    }
    if value >> 31 == 1 {
        flags |= EFLAGS_SF;
    }
    if cf {
        flags |= EFLAGS_CF;
    }
    flags
}

/// `a + b` as the adds define it: the low 32 bits and the carry out.
fn add(a: u32, b: u32) -> (u32, bool) {
    let wide = u64::from(a) + u64::from(b);
    (wide as u32, wide >> 32 != 0)
}

/// `a - b` as the subtracts define it: the low 32 bits and the borrow.
fn sub(a: u32, b: u32) -> (u32, bool) {
    ((u64::from(a) + (1 << 32) - u64::from(b)) as u32, a < b)
}

/// The documented `r1` and `EFLAGS` after `mnemonic` runs on `r1 = a`
/// with source `b` (the register `r2`, or the immediate already
/// sign-extended) and `flags_in` before it.
fn spec(mnemonic: &str, a: u32, b: u32, flags_in: u32) -> (u32, u32) {
    let kept_cf = flags_in & EFLAGS_CF != 0;
    let zs = |v: u32| (v, flags_of(v, kept_cf));
    let arith = |(v, cf): (u32, bool)| (v, flags_of(v, cf));
    match mnemonic {
        "mov" | "movi" => (b, flags_in),
        "add" | "addi" => arith(add(a, b)),
        "sub" => arith(sub(a, b)),
        "cmp" | "cmpi" => (a, arith(sub(a, b)).1),
        "mul" => zs((u64::from(a) * u64::from(b)) as u32),
        "and" => zs(a & b),
        "or" => zs(a | b),
        "xor" => zs(a ^ b),
        "not" => zs(!a),
        "shl" => zs((u64::from(a) << (b % 32)) as u32),
        "shr" => zs(a >> (b % 32)),
        other => panic!("no spec for {other}"),
    }
}

fn case(mnemonic: &str, source: String, a: u32, b: u32, flags_in: u32) -> Case {
    let (r1, flags) = spec(mnemonic, a, b, flags_in);
    Case {
        source,
        a,
        b,
        flags_in,
        r1,
        flags,
    }
}

/// Every documented case: each register-register kind over every operand
/// pair (shift counts for the shifts), each immediate kind over every
/// operand and immediate, `not` and `movi` over every operand, all under
/// both flag presets.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for flags_in in FLAGS_IN {
        for mnemonic in ["mov", "add", "sub", "mul", "and", "or", "xor", "cmp"] {
            for a in OPERANDS {
                for b in OPERANDS {
                    let source = format!("{mnemonic} r1, r2");
                    cases.push(case(mnemonic, source, a, b, flags_in));
                }
            }
        }
        for mnemonic in ["shl", "shr"] {
            for a in OPERANDS {
                for b in SHIFT_COUNTS {
                    let source = format!("{mnemonic} r1, r2");
                    cases.push(case(mnemonic, source, a, b, flags_in));
                }
            }
        }
        for mnemonic in ["addi", "cmpi"] {
            for a in OPERANDS {
                for imm in IMMEDIATES {
                    let source = format!("{mnemonic} r1, {imm}");
                    cases.push(case(mnemonic, source, a, imm as i32 as u32, flags_in));
                }
            }
        }
        for a in OPERANDS {
            cases.push(case("not", "not r1".into(), a, 0, flags_in));
            cases.push(case(
                "movi",
                format!("movi r1, {a:#x}"),
                0x5a5a,
                a,
                flags_in,
            ));
        }
    }
    cases
}

/// Runs `case` three times on a fresh machine of `engine` and returns
/// `r1`, `EFLAGS` and the other registers after each pass.
fn run(engine: EngineKind, case: &Case, tracer: Option<&Tracer>) -> Vec<(u32, u32, [u32; 8])> {
    let mut m = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::default()
    });
    if let Some(tracer) = tracer {
        m.attach_tracer(tracer.clone());
    }
    let program = assemble(&format!("main:\n {}\n hlt\n", case.source), 0x1000)
        .unwrap_or_else(|e| panic!("{}: {e}", case.source));
    m.load_image(0x1000, &program.bytes).expect("fits in RAM");
    (0..3)
        .map(|_| {
            m.set_regs([0; 8]);
            m.set_reg(Reg::R1, case.a);
            m.set_reg(Reg::R2, case.b);
            m.set_eflags(case.flags_in);
            m.set_eip(0x1000);
            m.run(100);
            assert!(m.is_halted(), "{}: did not reach the hlt", case.source);
            let mut others = m.regs();
            let r1 = std::mem::take(&mut others[1]);
            (r1, m.eflags(), others)
        })
        .collect()
}

#[test]
fn alu_matches_the_isa_on_both_engines() {
    let cases = cases();
    assert_eq!(cases.len(), 2 * (8 * 25 + 2 * 20 + 2 * 15 + 2 * 5));
    let mut failures = Vec::new();
    for engine in [EngineKind::Legacy, EngineKind::Translated] {
        for case in &cases {
            let tracer = Tracer::new(Arc::new(RingRecorder::new(16)));
            let traced = (engine == EngineKind::Translated).then_some(&tracer);
            let mut others = [0; 8];
            others[2] = case.b;
            for (pass, got) in run(engine, case, traced).into_iter().enumerate() {
                if got != (case.r1, case.flags, others) {
                    failures.push(format!(
                        "{engine:?} pass {pass}: `{}` r1={:#x} r2={:#x} flags_in={:#x}: \
                         got r1={:#x} flags={:#x}, want r1={:#x} flags={:#x}",
                        case.source,
                        case.a,
                        case.b,
                        case.flags_in,
                        got.0,
                        got.1,
                        case.r1,
                        case.flags
                    ));
                }
            }
            if traced.is_some() {
                // The later passes ran the compiled block, not the
                // interpreter the first pass used.
                let hits = tracer.counters().get("emu_block_hit").unwrap_or(0);
                assert!(hits >= 1, "`{}` never ran a compiled block", case.source);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} passes differ from the ISA:\n{}",
        failures.len(),
        2 * 3 * cases.len(),
        failures.join("\n")
    );
}

/// The spec functions themselves, pinned on hand-worked edge values.
#[test]
fn the_spec_reads_the_isa_documentation() {
    let all = EFLAGS_ZF | EFLAGS_SF | EFLAGS_CF;
    for (mnemonic, a, b, flags_in, r1, flags) in [
        ("add", 0xffff_ffff, 1, 0, 0, EFLAGS_ZF | EFLAGS_CF),
        ("add", 0x7fff_ffff, 1, all, 0x8000_0000, EFLAGS_SF),
        ("addi", 1, 0xffff_ffff, 0, 0, EFLAGS_ZF | EFLAGS_CF),
        ("sub", 0, 1, 0, 0xffff_ffff, EFLAGS_SF | EFLAGS_CF),
        ("sub", 0x8000_0000, 1, all, 0x7fff_ffff, 0),
        ("cmp", 1, 1, 0, 1, EFLAGS_ZF),
        (
            "cmpi",
            0x7fff_ffff,
            0xffff_ffff,
            0,
            0x7fff_ffff,
            EFLAGS_SF | EFLAGS_CF,
        ),
        (
            "mul",
            0x8000_0000,
            0xffff_ffff,
            all,
            0x8000_0000,
            EFLAGS_SF | EFLAGS_CF,
        ),
        ("mul", 0x8000_0000, 2, 0, 0, EFLAGS_ZF),
        (
            "and",
            0xffff_ffff,
            0x8000_0000,
            all,
            0x8000_0000,
            EFLAGS_SF | EFLAGS_CF,
        ),
        ("or", 0, 0, all, 0, EFLAGS_ZF | EFLAGS_CF),
        ("xor", 0xffff_ffff, 0x7fff_ffff, 0, 0x8000_0000, EFLAGS_SF),
        ("not", 0xffff_ffff, 0, all, 0, EFLAGS_ZF | EFLAGS_CF),
        ("shl", 1, 31, 0, 0x8000_0000, EFLAGS_SF),
        ("shl", 1, 32, all, 1, EFLAGS_CF),
        ("shl", 1, 33, 0, 2, 0),
        ("shr", 0x8000_0000, 31, all, 1, EFLAGS_CF),
        ("shr", 0x8000_0000, 33, 0, 0x4000_0000, 0),
        ("mov", 0, 0, all, 0, all),
        ("movi", 5, 0x8000_0000, 0, 0x8000_0000, 0),
    ] {
        let got = case(mnemonic, String::new(), a, b, flags_in);
        assert_eq!(
            (got.r1, got.flags),
            (r1, flags),
            "{mnemonic} {a:#x}, {b:#x}"
        );
    }
}
