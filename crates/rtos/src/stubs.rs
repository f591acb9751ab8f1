//! SP32 assembly stubs: interrupt save paths, context restore, idle loop.
//!
//! These are the short trusted routines whose cycle counts the paper
//! measures directly (Tables 2 and 3), so they execute as real guest code
//! rather than modelled firmware. The generator serves both platforms:
//!
//! - [`StubKind::Baseline`] — the unmodified-FreeRTOS interrupt prologue:
//!   save `r0..r6` to the interrupted task's stack, branch to the kernel.
//! - [`StubKind::IntMux`] — TyTAN's trusted interrupt multiplexer (§4):
//!   save the context, **wipe** the registers so a (malicious) interrupt
//!   handler learns nothing about the interrupted task, then branch.
//! - [`StubKind::Syscall`] — like `IntMux` but preserving `r1..r3`, which
//!   carry the syscall arguments the caller deliberately exposes to the OS.
//!
//! Each stub ends by loading its vector into `r0` and jumping to the
//! kernel trap address, where the host-side kernel takes over.
//!
//! [`shared_stub_block`] memoises the assembled block per process: like
//! the firmware every device ships with, it is built once and then only
//! copied into each machine's RAM.

use sp32::asm::{assemble, AssembleError, Program};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Which interrupt-save behaviour a stub implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubKind {
    /// Plain FreeRTOS save, no register wipe (baseline platform).
    Baseline,
    /// TyTAN Int Mux: save then wipe all scratch registers.
    IntMux,
    /// TyTAN Int Mux syscall path: save, wipe all but the syscall
    /// arguments in `r1..r3`.
    Syscall,
    /// Hardware-assisted save (the machine's exception engine already
    /// saved and wiped): the stub only loads the vector and branches.
    HwAssisted,
}

/// A stub to generate for one interrupt vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StubSpec {
    /// The IDT vector the stub serves.
    pub vector: u8,
    /// The save behaviour.
    pub kind: StubKind,
}

/// The assembled stub region with the addresses the kernel needs.
#[derive(Debug, Clone)]
pub struct StubBlock {
    /// Entry address of the save stub per vector (IDT entries point here).
    pub save_stubs: BTreeMap<u8, u32>,
    /// Start of the register-wipe phase per vector (Table 2 phase
    /// boundary); absent for [`StubKind::Baseline`] stubs.
    pub wipe_starts: BTreeMap<u8, u32>,
    /// Start of the branch-to-kernel phase per vector (Table 2 boundary).
    pub branch_starts: BTreeMap<u8, u32>,
    /// Entry of the normal-task context-restore stub (pops `r6..r0`,
    /// `IRET`).
    pub restore_stub: u32,
    /// Entry of the idle loop (`sti; hlt;` repeat).
    pub idle: u32,
    /// The assembled program, ready to load at its origin.
    pub program: Program,
}

fn stub_source(spec: StubSpec, trap: u32, dispatch_table: Option<u32>) -> String {
    let v = spec.vector;
    let mut s = String::new();
    s.push_str(&format!("v{v}_save:\n"));
    if spec.kind != StubKind::HwAssisted {
        for r in 0..=6 {
            s.push_str(&format!(" push r{r}\n"));
        }
    }
    match spec.kind {
        StubKind::Baseline | StubKind::HwAssisted => {}
        StubKind::IntMux => {
            s.push_str(&format!("v{v}_wipe:\n"));
            for r in 1..=6 {
                s.push_str(&format!(" xor r{r}, r{r}\n"));
            }
        }
        StubKind::Syscall => {
            s.push_str(&format!("v{v}_wipe:\n"));
            for r in 4..=6 {
                s.push_str(&format!(" xor r{r}, r{r}\n"));
            }
        }
    }
    s.push_str(&format!("v{v}_branch:\n"));
    s.push_str(&format!(" movi r0, {v}\n"));
    // Only the preemption (IntMux) path uses the table: it may clobber
    // scratch registers freely because they were wiped. The syscall path
    // must preserve the live argument registers r1..r3.
    match (dispatch_table, spec.kind) {
        (Some(table), StubKind::IntMux) => {
            // The full Int Mux branch path: mark the multiplexer busy,
            // look the OS handler up in the protected dispatch table,
            // validate it, and branch indirectly (the work behind the
            // paper's 41-cycle branch phase).
            let busy = crate::layout::INTMUX_BUSY_FLAG;
            let entry = table + 4 * u32::from(v);
            s.push_str(&format!(" movi r2, {busy:#x}\n"));
            s.push_str(" movi r3, 1\n");
            s.push_str(" stw [r2], r3\n");
            s.push_str(&format!(" movi r1, {entry:#x}\n"));
            s.push_str(" ldw r1, [r1]\n");
            s.push_str(" cmpi r1, 0\n");
            s.push_str(&format!(" jz v{v}_badvec\n"));
            s.push_str(" jmpr r1\n");
            s.push_str(&format!("v{v}_badvec:\n"));
            s.push_str(&format!(" jmp {trap:#x}\n"));
        }
        _ => {
            s.push_str(&format!(" jmp {trap:#x}\n"));
        }
    }
    s
}

/// Assembles the stub region at `base`, with all stubs branching to the
/// firmware trap at `trap`.
///
/// # Errors
///
/// Returns the assembler error if generation produced invalid source
/// (indicates a bug in the generator, not in caller input).
pub fn build_stub_block(
    base: u32,
    trap: u32,
    specs: &[StubSpec],
) -> Result<StubBlock, AssembleError> {
    build_stub_block_with_table(base, trap, specs, None)
}

/// Like [`build_stub_block`], with an optional Int Mux dispatch table:
/// when given, `IntMux` and `Syscall` stubs branch indirectly through the
/// table (marking the busy flag first) instead of jumping straight to the
/// kernel trap.
///
/// # Errors
///
/// Returns the assembler error if generation produced invalid source.
pub fn build_stub_block_with_table(
    base: u32,
    trap: u32,
    specs: &[StubSpec],
    dispatch_table: Option<u32>,
) -> Result<StubBlock, AssembleError> {
    let mut source = String::new();
    for spec in specs {
        source.push_str(&stub_source(*spec, trap, dispatch_table));
    }
    source.push_str(
        "restore:\n pop r6\n pop r5\n pop r4\n pop r3\n pop r2\n pop r1\n pop r0\n iret\n",
    );
    source.push_str("idle:\n sti\n hlt\n jmp idle\n");

    let program = assemble(&source, base)?;
    let sym = |name: &str| program.symbol(name).expect("generated label exists");
    let mut save_stubs = BTreeMap::new();
    let mut wipe_starts = BTreeMap::new();
    let mut branch_starts = BTreeMap::new();
    for spec in specs {
        let v = spec.vector;
        save_stubs.insert(v, sym(&format!("v{v}_save")));
        if !matches!(spec.kind, StubKind::Baseline | StubKind::HwAssisted) {
            wipe_starts.insert(v, sym(&format!("v{v}_wipe")));
        }
        branch_starts.insert(v, sym(&format!("v{v}_branch")));
    }
    Ok(StubBlock {
        save_stubs,
        wipe_starts,
        branch_starts,
        restore_stub: sym("restore"),
        idle: sym("idle"),
        program,
    })
}

/// Everything [`build_stub_block_with_table`] reads: the memo key.
type StubKey = (u32, u32, Vec<StubSpec>, Option<u32>);

/// Blocks built so far, one per distinct key. A process sees a handful
/// of platform configurations, so a linear scan is enough.
static STUB_BLOCKS: Mutex<Vec<(StubKey, Arc<StubBlock>)>> = Mutex::new(Vec::new());

/// [`build_stub_block_with_table`] memoised per process: the first call
/// for a given `(base, trap, specs, dispatch_table)` builds the block,
/// later calls with the same inputs share it.
///
/// The block is a pure function of those inputs and the handle is
/// read-only, so sharing it cannot change what a caller sees. Callers
/// that load it into guest memory still copy and measure their own copy.
///
/// # Errors
///
/// Returns the assembler error if generation produced invalid source
/// (nothing is memoised then).
pub fn shared_stub_block(
    base: u32,
    trap: u32,
    specs: &[StubSpec],
    dispatch_table: Option<u32>,
) -> Result<Arc<StubBlock>, AssembleError> {
    // Entries are only ever pushed whole, so a guard recovered from a
    // panicking holder still sees a valid list.
    let mut blocks = STUB_BLOCKS.lock().unwrap_or_else(PoisonError::into_inner);
    let hit = blocks.iter().find(|((b, t, s, d), _)| {
        *b == base && *t == trap && s.as_slice() == specs && *d == dispatch_table
    });
    if let Some((_, block)) = hit {
        return Ok(Arc::clone(block));
    }
    let block = Arc::new(build_stub_block_with_table(
        base,
        trap,
        specs,
        dispatch_table,
    )?);
    blocks.push((
        (base, trap, specs.to_vec(), dispatch_table),
        Arc::clone(&block),
    ));
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    fn specs() -> Vec<StubSpec> {
        vec![
            StubSpec {
                vector: layout::TICK_VECTOR,
                kind: StubKind::IntMux,
            },
            StubSpec {
                vector: layout::SYSCALL_VECTOR,
                kind: StubKind::Syscall,
            },
            StubSpec {
                vector: layout::IPC_VECTOR,
                kind: StubKind::IntMux,
            },
        ]
    }

    #[test]
    fn builds_all_labels() {
        let block = build_stub_block(0x400, 0x7fc, &specs()).unwrap();
        assert_eq!(block.save_stubs.len(), 3);
        assert_eq!(block.wipe_starts.len(), 3);
        assert_eq!(block.branch_starts.len(), 3);
        assert!(block.restore_stub > *block.save_stubs.values().max().unwrap());
        assert!(block.idle > block.restore_stub);
        assert!(!block.program.bytes.is_empty());
    }

    #[test]
    fn baseline_stub_has_no_wipe_phase() {
        let block = build_stub_block(
            0x400,
            0x7fc,
            &[StubSpec {
                vector: 32,
                kind: StubKind::Baseline,
            }],
        )
        .unwrap();
        assert!(block.wipe_starts.is_empty());
        // Baseline branch phase starts right after the 7 pushes.
        assert_eq!(block.branch_starts[&32], block.save_stubs[&32] + 7 * 4);
    }

    #[test]
    fn intmux_wipe_is_six_xors() {
        let block = build_stub_block(
            0x400,
            0x7fc,
            &[StubSpec {
                vector: 32,
                kind: StubKind::IntMux,
            }],
        )
        .unwrap();
        let wipe_len = block.branch_starts[&32] - block.wipe_starts[&32];
        assert_eq!(wipe_len, 6 * 4);
    }

    #[test]
    fn syscall_stub_preserves_argument_registers() {
        let block = build_stub_block(
            0x400,
            0x7fc,
            &[StubSpec {
                vector: 0x21,
                kind: StubKind::Syscall,
            }],
        )
        .unwrap();
        // Only r4..r6 wiped: 3 xors.
        let wipe_len = block.branch_starts[&0x21] - block.wipe_starts[&0x21];
        assert_eq!(wipe_len, 3 * 4);
    }

    #[test]
    fn shared_block_is_memoised_per_full_input() {
        let a = shared_stub_block(0x400, 0x7fc, &specs(), None).unwrap();
        let b = shared_stub_block(0x400, 0x7fc, &specs(), None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let moved = shared_stub_block(0x800, 0x7fc, &specs(), None).unwrap();
        let tabled = shared_stub_block(0x400, 0x7fc, &specs(), Some(0x100)).unwrap();
        assert!(!Arc::ptr_eq(&a, &moved) && !Arc::ptr_eq(&a, &tabled));
        let direct = build_stub_block_with_table(0x800, 0x7fc, &specs(), None).unwrap();
        assert_eq!(moved.program, direct.program);
        assert_eq!(
            a.program,
            build_stub_block(0x400, 0x7fc, &specs()).unwrap().program
        );
    }

    #[test]
    fn stubs_fit_in_kernel_region() {
        let block = build_stub_block(layout::KERNEL_BASE, layout::KERNEL_TRAP, &specs()).unwrap();
        assert!(
            (block.program.bytes.len() as u32) < layout::KERNEL_CODE_LEN - 4,
            "stub block overflows kernel code region"
        );
    }
}
