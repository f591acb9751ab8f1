//! Platform fault injection.
//!
//! The paper's threat model includes a platform that misbehaves
//! underneath the TCB: memory corruption, devices firing at the wrong
//! rate, interrupt storms, images damaged in transport. These scenarios
//! assert the two properties the rest of the stack depends on:
//!
//! 1. **Fault injection is differential too.** A bit flip, IRQ burst,
//!    or timer reprogramming applied identically to the translated and
//!    legacy machines must leave them identical — the translator's
//!    block and decision caches must observe external mutation exactly
//!    like the legacy core does.
//! 2. **Host paths degrade to typed errors.** A mutated or truncated
//!    TTIF image driven through parse → lint → load, or a garbage
//!    attestation report through `from_bytes`, may be *rejected* but
//!    must never panic, livelock, or leak resources (an aborted load
//!    job must release its allocation).

use crate::diff::{build_machines, run_lockstep, FUZZ_RAM, TIMER_BASE};
use crate::gen::{encode_stream, gen_setup, gen_stream, StreamCtx};
use crate::rng::FuzzRng;
use eampu::Region;
use rtos::{Kernel, KernelConfig};
use sp_emu::devices::Timer;
use sp_emu::{Machine, MachineConfig};
use tytan::allocator::Allocator;
use tytan::attest::AttestationReport;
use tytan::driver::TrustedActors;
use tytan::loader::{LoadJob, LoadProgress};
use tytan::rtm::Rtm;
use tytan::LoadError;
use tytan_crypto::{Sha1, TaskId};
use tytan_image::{mutate, TaskImage};
use tytan_lint::LintPolicy;

/// RAM bit flips between run chunks: the translation cache must
/// observe every host-side write, including flips landing
/// in the program's own text.
pub fn bitflip_diff(rng: &mut FuzzRng) -> Result<(), String> {
    let setup = gen_setup(rng);
    let mut flips = rng.fork();
    let origin = setup.origin;
    let text_len = (setup.words.len() * 4) as u32;
    run_lockstep(&setup, &mut build_machines(&setup), move |machines| {
        for _ in 0..flips.range(1, 4) {
            // Half the flips target the program text itself — that is
            // where a stale cached instruction would show up.
            let addr = if flips.chance(1, 2) && text_len > 0 {
                origin + flips.next_u32() % text_len
            } else {
                flips.next_u32() % FUZZ_RAM
            };
            let mask = 1u8 << flips.below(8);
            // Every machine sees the identical mutation; a read/write
            // fault (none expected inside RAM) would also be identical.
            for m in machines.iter_mut() {
                if let Ok(b) = m.read_byte(addr) {
                    let _ = m.write_byte(addr, b ^ mask);
                }
            }
        }
    })
}

/// IRQ storms: bursts of random vectors (including repeats and
/// out-of-IDT vectors) raised at chunk boundaries must be delivered,
/// coalesced, and faulted identically by both run loops.
pub fn irq_storm_diff(rng: &mut FuzzRng) -> Result<(), String> {
    let setup = gen_setup(rng);
    let mut storm = rng.fork();
    run_lockstep(&setup, &mut build_machines(&setup), move |machines| {
        for _ in 0..storm.range(1, 12) {
            let vector = (storm.next_u32() % 64) as u8;
            for m in machines.iter_mut() {
                m.raise_irq(vector);
            }
        }
    })
}

/// Timer reprogramming chaos: the device is rearmed mid-flight with
/// adversarial intervals (including 0, which the device must clamp or
/// disable, and near-`u64::MAX`), again identically on every machine.
pub fn timer_chaos_diff(rng: &mut FuzzRng) -> Result<(), String> {
    let mut setup = gen_setup(rng);
    setup.timer = None; // added manually below so we keep the handles
    let mut machines = build_machines(&setup);
    let vector = (32 + rng.next_u32() % 16) as u8;
    let handles: Vec<_> = machines
        .iter_mut()
        .map(|m| m.add_device(Box::new(Timer::new(TIMER_BASE, vector))))
        .collect();
    let mut chaos = rng.fork();
    run_lockstep(&setup, &mut machines, |machines| {
        let interval = match chaos.below(5) {
            0 => 0,
            1 => 1,
            2 => u64::MAX - chaos.below(4),
            _ => chaos.range(1, 2_048),
        };
        let enabled = chaos.chance(3, 4);
        for (m, &h) in machines.iter_mut().zip(&handles) {
            m.device_mut::<Timer>(h)
                .expect("timer handle")
                .configure(interval, enabled);
        }
    })
}

/// The loader-side platform a mutated image is driven through (also
/// used by the lint cross-check's rejected-load leg).
pub(crate) fn loader_platform() -> (Machine, Kernel, Rtm, Allocator, TrustedActors) {
    let machine = Machine::new(MachineConfig::default());
    let kernel = Kernel::new(KernelConfig::default());
    let rtm = Rtm::new();
    let allocator = Allocator::new(rtos::layout::HEAP_BASE, 0x4_0000);
    let actors = TrustedActors {
        trusted: Region::new(rtos::layout::TRUSTED_BASE, rtos::layout::TRUSTED_CODE_LEN),
        kernel: Region::new(rtos::layout::KERNEL_BASE, rtos::layout::KERNEL_CODE_LEN),
        kernel_entry: rtos::layout::KERNEL_TRAP,
    };
    (machine, kernel, rtm, allocator, actors)
}

/// A structurally valid random task image to serve as mutation bait.
fn gen_image(rng: &mut FuzzRng) -> TaskImage {
    let ctx = StreamCtx {
        origin: 0,
        span: 256,
        window: (0x100, 0x100),
    };
    let instrs = gen_stream(rng, &ctx, 24);
    let text = encode_stream(&instrs);
    let data: Vec<u8> = (0..rng.below(16) * 4)
        .map(|_| rng.next_u32() as u8)
        .collect();
    let bss = (rng.below(8) * 4) as u32;
    // Relocation sites at word-aligned text offsets.
    let relocs: Vec<u32> = (0..rng.below(4))
        .map(|_| (rng.next_u32() % (text.len() as u32)) & !3)
        .collect();
    TaskImage::new(
        "bait",
        rng.chance(3, 4),
        0,
        text,
        data,
        bss,
        64 + (rng.below(8) * 64) as u32,
        relocs,
    )
    .expect("conservatively constructed image is valid")
}

/// Serialized-image mutation: flip, stomp, truncate, or shuffle the
/// TTIF bytes, then drive parse → (sometimes lint) → load. Every
/// outcome must be a clean completion or a typed error with resources
/// released — never a panic, never a livelock, never a leaked
/// allocation.
pub fn image_mutation(rng: &mut FuzzRng) -> Result<(), String> {
    let image = gen_image(rng);
    let mut bytes = image.to_bytes();
    for _ in 0..rng.range(1, 4) {
        match rng.below(4) {
            0 => {
                mutate::flip_bit(&mut bytes, rng.next_u64());
            }
            1 => mutate::stomp_word(&mut bytes, rng.next_u64(), rng.next_u32()),
            2 => bytes = mutate::truncated(&bytes, rng.next_u64()),
            _ => {
                let a = rng.next_u64();
                let b = rng.next_u64();
                mutate::swap_ranges(&mut bytes, a, b, rng.range(1, 16));
            }
        }
    }
    let parsed = match TaskImage::parse(&bytes) {
        Ok(img) => img,
        Err(_) => return Ok(()), // typed rejection is the success case
    };
    let (mut m, mut k, mut rtm, mut a, actors) = loader_platform();
    let free_before = a.free_bytes();
    let mailbox = rng.next_u32() % 0x200;
    let mut job = LoadJob::<Sha1>::new(parsed, mailbox, (rng.next_u32() % 4) as u8);
    if rng.chance(1, 2) {
        job = job.with_verification(LintPolicy::default());
    }
    let cycles_before = m.cycles();
    for step in 0..10_000u32 {
        match job.step(&mut m, &mut k, &mut rtm, &mut a, actors, 2) {
            Ok(LoadProgress::Done { .. }) => return Ok(()),
            Ok(LoadProgress::InProgress(_)) => {}
            Err(e) => {
                if matches!(e, LoadError::LintRejected(_)) && m.cycles() != cycles_before {
                    return Err(format!(
                        "lint rejection charged {} guest cycles; must be free",
                        m.cycles() - cycles_before
                    ));
                }
                job.abort(&mut m, &mut a);
                if job.base() != 0 {
                    return Err(format!(
                        "aborted load at step {step} kept base {:#x}",
                        job.base()
                    ));
                }
                if a.free_bytes() != free_before {
                    return Err(format!(
                        "aborted load leaked allocation: {} of {} bytes free",
                        a.free_bytes(),
                        free_before
                    ));
                }
                return Ok(());
            }
        }
    }
    Err("mutated image load neither completed nor failed in 10k slices".to_string())
}

/// Attestation-report parsing on hostile transport bytes: pure garbage
/// and bit-flipped real reports must parse to `None` or to a report
/// that survives a serialization round trip — and never panic.
pub fn attest_parse(rng: &mut FuzzRng) -> Result<(), String> {
    let bytes: Vec<u8> = if rng.chance(1, 2) {
        (0..rng.below(200)).map(|_| rng.next_u32() as u8).collect()
    } else {
        let report = AttestationReport {
            id: TaskId::from_u64(rng.next_u64()),
            digest: (0..20).map(|_| rng.next_u32() as u8).collect(),
            nonce: (0..rng.below(32)).map(|_| rng.next_u32() as u8).collect(),
            mac: (0..20).map(|_| rng.next_u32() as u8).collect(),
        };
        let mut b = report.to_bytes();
        for _ in 0..rng.range(1, 8) {
            mutate::flip_bit(&mut b, rng.next_u64());
        }
        if rng.chance(1, 4) {
            b = mutate::truncated(&b, rng.next_u64());
        }
        b
    };
    if let Some(report) = AttestationReport::from_bytes(&bytes) {
        let round = AttestationReport::from_bytes(&report.to_bytes());
        if round.as_ref() != Some(&report) {
            return Err("attestation report failed serialization round trip".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitflips_stay_differential() {
        for seed in 0..60 {
            bitflip_diff(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn irq_storms_stay_differential() {
        for seed in 100..160 {
            irq_storm_diff(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn timer_chaos_stays_differential() {
        for seed in 200..260 {
            timer_chaos_diff(&mut FuzzRng::new(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mutated_images_fail_typed() {
        for seed in 300..400 {
            image_mutation(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn garbage_attestation_reports_parse_safely() {
        for seed in 500..700 {
            attest_parse(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
