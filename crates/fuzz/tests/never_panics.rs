//! Property: encode → execute never panics.
//!
//! Every instruction the generator can produce — and every whole
//! generated program with its platform state — must execute to a
//! normal step, a halt, or a *typed* [`sp_emu::Fault`]. A panic
//! anywhere in the interpreter stack fails the property. Seeded
//! through proptest so failures print the seed that found them.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tytan_fuzz::diff::{build_machines, run_diff, step_diff};
use tytan_fuzz::gen::{gen_instr, gen_setup, CaseSetup, StreamCtx};
use tytan_fuzz::rng::FuzzRng;

proptest! {
    /// Any single generated instruction, stepped cold on every engine,
    /// returns `Ok` or a typed fault — identically.
    #[test]
    fn any_single_instruction_steps_without_panicking(seed in any::<u64>()) {
        let mut rng = FuzzRng::new(seed);
        let ctx = StreamCtx {
            origin: 0x200,
            span: 64,
            window: (0x9000, 0x100),
        };
        let instr = gen_instr(&mut rng, &ctx);
        let mut words = Vec::new();
        sp32::encode(&instr, &mut words);
        let setup = CaseSetup {
            origin: 0x200,
            words,
            regs: {
                let mut r = [0u32; 8];
                for reg in r.iter_mut() {
                    *reg = rng.next_u32();
                }
                r[7] = 0x8000 + ((rng.next_u32() % 0x8000) & !3);
                r
            },
            eflags: 0,
            idt_base: 0x40,
            idt_entries: vec![],
            mpu_rules: vec![],
            mpu_enabled: rng.chance(1, 2),
            timer: None,
            prior_irqs: vec![],
            hw_context_save: false,
            budget: 64,
            chunk: 64,
        };
        let mut machines = build_machines(&setup);
        let rl = machines[0].step(); // a panic here fails the property
        for m in &mut machines[1..] {
            let r = m.step();
            prop_assert_eq!(r, rl, "single-instruction step diverged for {:?}", instr);
        }
    }

    /// Any whole generated case survives both differential drivers:
    /// no panic, no divergence.
    #[test]
    fn any_generated_case_executes_without_panicking(seed in any::<u64>()) {
        let setup = gen_setup(&mut FuzzRng::new(seed));
        if let Err(e) = run_diff(&setup) {
            return Err(TestCaseError::Fail(format!("run divergence: {e}")));
        }
        if let Err(e) = step_diff(&setup, 1_000) {
            return Err(TestCaseError::Fail(format!("step divergence: {e}")));
        }
    }
}
