//! Integration tests for the cycle-accurate ModSRAM device.

use modsram_bigint::{ubig_below, UBig};
use modsram_core::{CoreError, Executor, MemoryMap, ModSram, ModSramConfig, Phase};
use modsram_modmul::{CycleModel, ModMulEngine, TimingPolicy};
use modsram_sram::{CellKind, StuckAt};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread so a test can
/// bound what one device multiply allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn secp_p() -> UBig {
    UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap()
}

fn bn254_p() -> UBig {
    UBig::from_dec("21888242871839275222246405745257275088696311157297823662689037894645226208583")
        .unwrap()
}

/// Operand widths whose register window `W = n + 1` sits on either side
/// of a 64-bit limb boundary.
const LIMB_BOUNDARY_WIDTHS: [usize; 10] = [63, 64, 65, 127, 128, 129, 191, 255, 256, 257];

/// A device of width `n` under `policy` with an `n`-bit modulus loaded.
fn device_at(n: usize, policy: TimingPolicy, verify: bool, p: &UBig) -> ModSram {
    let mut dev = ModSram::new(ModSramConfig {
        n_bits: n,
        policy,
        verify,
        ..Default::default()
    })
    .unwrap();
    dev.load_modulus(p).unwrap();
    dev
}

/// One limb-boundary configuration: width, policy, an `n`-bit modulus
/// and operand pairs below it.
struct BoundaryCase {
    n: usize,
    policy: TimingPolicy,
    p: UBig,
    pairs: Vec<(UBig, UBig)>,
}

/// For every limb-boundary width and both timing policies: a random
/// `n`-bit modulus and operand pairs, including `a = p − 1` (the extra
/// Booth digit under data-dependent timing) and `a = 0`.
fn limb_boundary_cases(seed: u64) -> Vec<BoundaryCase> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for n in LIMB_BOUNDARY_WIDTHS {
        for policy in [TimingPolicy::DataDependent, TimingPolicy::ConstantTime] {
            let top = UBig::pow2(n - 1);
            let p = &ubig_below(&mut rng, &top) + &top;
            let pairs = vec![
                (&p - &UBig::one(), ubig_below(&mut rng, &p)),
                (UBig::zero(), ubig_below(&mut rng, &p)),
                (ubig_below(&mut rng, &p), ubig_below(&mut rng, &p)),
            ];
            cases.push(BoundaryCase {
                n,
                policy,
                p,
                pairs,
            });
        }
    }
    cases
}

#[test]
fn exhaustive_small_moduli_in_sram() {
    for p in 2u64..=16 {
        let pp = UBig::from(p);
        let mut dev = ModSram::for_modulus(&pp).unwrap();
        for b in 0..p {
            dev.load_multiplicand(&UBig::from(b)).unwrap();
            for a in 0..p {
                let (c, _) = dev.mod_mul_loaded(&UBig::from(a)).unwrap();
                assert_eq!(c, UBig::from(a * b % p), "a={a} b={b} p={p}");
            }
        }
    }
}

#[test]
fn paper_figure3_example_on_device() {
    let p = UBig::from(0b11000u64);
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let (c, stats) = dev
        .mod_mul(&UBig::from(0b10101u64), &UBig::from(0b10010u64))
        .unwrap();
    assert_eq!(c, UBig::from(18u64));
    // n = 5 -> k = 3 digits -> 6*3 - 1 = 17 cycles.
    assert_eq!(stats.cycles, 17);
    assert_eq!(stats.iterations, 3);
}

#[test]
fn paper_headline_767_cycles_at_256_bits() {
    // A 256-bit modulus with an MSB-clear multiplier reproduces the
    // Table 3 cycle count exactly.
    let p = secp_p();
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let a = &UBig::pow2(255) - &UBig::one(); // 255 bits: MSB of the 256-bit window clear
    let b = &UBig::pow2(200) + &UBig::from(12345u64);
    let (c, stats) = dev.mod_mul(&a, &b).unwrap();
    assert_eq!(c, &(&a * &b) % &p);
    assert_eq!(stats.iterations, 128);
    assert_eq!(stats.cycles, 767, "the Table 3 headline");
    assert!(!stats.extra_msb_digit);

    // Multiplier with bit 255 set: one extra Booth digit, +6 cycles.
    let a2 = &p - &UBig::one();
    let (c2, stats2) = dev.mod_mul(&a2, &b).unwrap();
    assert_eq!(c2, &(&a2 * &b) % &p);
    assert_eq!(stats2.cycles, 773);
    assert!(stats2.extra_msb_digit);
}

#[test]
fn cycle_model_matches_measurement() {
    let p = UBig::from(0xffff_fffb_u64);
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let (_, stats) = dev
        .mod_mul(&UBig::from(0x7fff_0001u64), &UBig::from(0x1234_5678u64))
        .unwrap();
    assert_eq!(stats.cycles, dev.cycles(32));
}

#[test]
fn random_256bit_sweep_verified() {
    let p = secp_p();
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut dev = ModSram::for_modulus(&p).unwrap();
    for _ in 0..10 {
        let a = ubig_below(&mut rng, &p);
        let b = ubig_below(&mut rng, &p);
        let (c, stats) = dev.mod_mul(&a, &b).unwrap();
        assert_eq!(c, &(&a * &b) % &p);
        assert!(stats.cycles == 767 || stats.cycles == 773);
        assert!(stats.max_ov_index < 16);
    }

    // Limb boundaries: the product is exact and the ISA executor's run
    // statistics equal the FSM's, field for field.
    for BoundaryCase {
        n,
        policy,
        p,
        pairs,
    } in limb_boundary_cases(2025)
    {
        for (a, b) in pairs {
            let mut fsm = device_at(n, policy, true, &p);
            let (c, s_fsm) = fsm.mod_mul(&a, &b).unwrap();
            assert_eq!(c, &(&a * &b) % &p, "n={n} {policy:?}");

            let mut isa = device_at(n, policy, true, &p);
            isa.load_multiplicand(&b).unwrap();
            let (c_isa, s_isa) = modsram_core::Executor::new()
                .run_mod_mul(&mut isa, &a)
                .unwrap();
            assert_eq!(c_isa, c, "n={n} {policy:?}");
            assert_eq!(s_isa, s_fsm, "n={n} {policy:?}");
        }
    }
}

#[test]
fn bn254_cycle_counts() {
    // BN254 is a 254-bit prime; ⌈254/2⌉ = 127 digits gives 761 cycles,
    // or 767 when the multiplier's own bit 253 is set (extra Booth
    // digit) — which happens for roughly half of all a < p.
    let p = bn254_p();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut dev = ModSram::for_modulus(&p).unwrap();
    for _ in 0..5 {
        let a = ubig_below(&mut rng, &p);
        let b = ubig_below(&mut rng, &p);
        let (c, stats) = dev.mod_mul(&a, &b).unwrap();
        assert_eq!(c, &(&a * &b) % &p);
        let expect = if a.bit(253) { 767 } else { 761 };
        assert_eq!(stats.cycles, expect);
    }
    // An MSB-clear multiplier always hits 3n − 1 = 761.
    let a = &UBig::pow2(253) - &UBig::one();
    let b = UBig::from(12345u64);
    let (_, stats) = dev.mod_mul(&a, &b).unwrap();
    assert_eq!(stats.cycles, 761);
}

#[test]
fn lut_reuse_avoids_precompute() {
    let p = UBig::from(1_000_003u64);
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let b = UBig::from(999_999u64);
    dev.mod_mul(&UBig::from(5u64), &b).unwrap();
    let pre_after_first = dev.precompute_total.clone();
    // Same multiplicand: no new precompute work.
    dev.mod_mul(&UBig::from(6u64), &b).unwrap();
    assert_eq!(dev.precompute_total, pre_after_first);
    // New multiplicand: the radix-4 LUT is rebuilt.
    dev.mod_mul(&UBig::from(6u64), &UBig::from(7u64)).unwrap();
    assert!(dev.precompute_total.row_writes > pre_after_first.row_writes);
}

#[test]
fn engine_trait_entry_point() {
    let mut dev = ModSram::new(ModSramConfig::default()).unwrap();
    let p = UBig::from(97u64);
    let c = ModMulEngine::mod_mul(&mut dev, &UBig::from(55u64), &UBig::from(44u64), &p).unwrap();
    assert_eq!(c, UBig::from(55u64 * 44 % 97));
    assert_eq!(dev.name(), "modsram");
}

#[test]
fn constant_time_policy_uniform_cycles() {
    let p = UBig::from(0xffffu64);
    let config = ModSramConfig {
        n_bits: 16,
        policy: TimingPolicy::ConstantTime,
        ..Default::default()
    };
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&p).unwrap();
    let mut cycles = std::collections::HashSet::new();
    for a in [0u64, 1, 0x8001, 0xfffe] {
        let (_, stats) = dev.mod_mul(&UBig::from(a), &UBig::from(0x1234u64)).unwrap();
        cycles.insert(stats.cycles);
    }
    assert_eq!(
        cycles.len(),
        1,
        "constant-time must not leak |a|: {cycles:?}"
    );
}

#[test]
fn stats_account_memory_traffic() {
    let p = UBig::from(1_000_003u64); // 20 bits -> k = 10
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let (_, stats) = dev
        .mod_mul(&UBig::from(999u64), &UBig::from(998u64))
        .unwrap();
    // Two activations per iteration.
    assert_eq!(stats.activations, 2 * stats.iterations);
    // Writes: operand A + per-iteration write-backs (4 per iter, minus 2
    // elided in iteration 1).
    assert_eq!(stats.row_writes, 1 + 4 * stats.iterations - 2);
    assert_eq!(stats.row_reads, 1); // the multiplier fetch
    assert!(stats.register_writes > 0);
    assert!(stats.energy_pj > 0.0);
}

#[test]
fn trace_captures_every_cycle() {
    let p = UBig::from(0b11000u64);
    let config = ModSramConfig {
        n_bits: 5,
        trace: true,
        ..Default::default()
    };
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&p).unwrap();
    let (_, stats) = dev
        .mod_mul(&UBig::from(0b10101u64), &UBig::from(0b10010u64))
        .unwrap();
    // One snapshot per cycle plus the finalize marker.
    assert_eq!(dev.last_trace.len() as u64, stats.cycles + 1);
    let rendered = dev.last_trace[0].render(6);
    assert!(rendered.contains("fetch"));
}

#[test]
fn fault_injection_is_detected_by_verification() {
    // A stuck-at fault on the sum row corrupts the computation; the
    // lock-step verifier must catch it rather than return a wrong value.
    let mut config = ModSramConfig {
        n_bits: 24,
        ..Default::default()
    };
    config.fault.stuck_at.push(StuckAt {
        row: MemoryMap::SUM,
        col: 3,
        value: true,
    });
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&UBig::from(16_000_057u64)).unwrap();
    let err = dev
        .mod_mul(&UBig::from(12_345_678u64), &UBig::from(9_876_543u64))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::ModelDivergence { .. }),
        "got {err:?}"
    );
}

#[test]
fn six_t_cells_with_disturb_corrupt_the_run() {
    // The §4.2 argument for 8T cells: with 6T cells and read disturb,
    // multi-row activation destroys the LUT rows mid-run.
    let mut config = ModSramConfig {
        n_bits: 24,
        cell: CellKind::SixT,
        ..Default::default()
    };
    config.fault.disturb_per_cell = 0.05;
    config.fault.seed = 3;
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&UBig::from(16_000_057u64)).unwrap();
    let result = dev.mod_mul(&UBig::from(12_345_678u64), &UBig::from(9_876_543u64));
    assert!(
        matches!(result, Err(CoreError::ModelDivergence { .. })),
        "6T + disturb should diverge, got {result:?}"
    );
    assert!(dev.array().stats().disturb_flips > 0);
}

#[test]
fn eight_t_cells_ignore_disturb_knob() {
    let mut config = ModSramConfig {
        n_bits: 24,
        cell: CellKind::EightT,
        ..Default::default()
    };
    config.fault.disturb_per_cell = 0.05;
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&UBig::from(16_000_057u64)).unwrap();
    let (c, _) = dev
        .mod_mul(&UBig::from(12_345_678u64), &UBig::from(9_876_543u64))
        .unwrap();
    assert_eq!(
        c,
        &(&UBig::from(12_345_678u64) * &UBig::from(9_876_543u64)) % &UBig::from(16_000_057u64)
    );
    assert_eq!(dev.array().stats().disturb_flips, 0);
}

#[test]
fn error_paths() {
    let mut dev = ModSram::new(ModSramConfig::default()).unwrap();
    assert!(matches!(
        dev.mod_mul(&UBig::one(), &UBig::one()),
        Err(CoreError::NoModulus)
    ));
    assert!(matches!(
        dev.mod_mul_loaded(&UBig::one()),
        Err(CoreError::NoModulus)
    ));
    // Modulus wider than the array.
    let too_wide = UBig::pow2(300);
    assert!(matches!(
        dev.load_modulus(&too_wide),
        Err(CoreError::OperandTooWide { .. })
    ));
    // Too few rows.
    let bad = ModSramConfig {
        rows: 8,
        ..Default::default()
    };
    assert!(matches!(
        ModSram::new(bad),
        Err(CoreError::NotEnoughRows { .. })
    ));
}

#[test]
fn memory_map_budget_matches_paper() {
    let dev = ModSram::new(ModSramConfig::default()).unwrap();
    assert_eq!(MemoryMap::lut_rows_paper(), 13); // §5.2
    assert_eq!(dev.memory_map().rows(), 64);
    assert_eq!(dev.memory_map().cols(), 256);
    assert!(dev.memory_map().point_add_working_set().fits());
}

#[test]
fn charge_final_add_adds_cycles() {
    let p = UBig::from(1_000_003u64);
    let config = ModSramConfig {
        n_bits: 20,
        charge_final_add: true,
        ..Default::default()
    };
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&p).unwrap();
    let (_, stats) = dev
        .mod_mul(&UBig::from(999u64), &UBig::from(998u64))
        .unwrap();
    assert!(stats.final_add_cycles >= 2);
}

#[test]
fn unverified_mode_matches_verified() {
    let p = UBig::from(0xffff_fffb_u64);
    let a = UBig::from(0xdead_beefu64);
    let b = UBig::from(0x1234_5678u64);
    let mut verified = ModSram::for_modulus(&p).unwrap();
    let mut unverified = ModSram::new(ModSramConfig {
        n_bits: 32,
        verify: false,
        ..Default::default()
    })
    .unwrap();
    unverified.load_modulus(&p).unwrap();
    let (c1, s1) = verified.mod_mul(&a, &b).unwrap();
    let (c2, s2) = unverified.mod_mul(&a, &b).unwrap();
    assert_eq!(c1, c2);
    assert_eq!(s1.cycles, s2.cycles);

    // Limb boundaries: verification observes the run without changing
    // it — same product, same cycles, reads, writes, register writes
    // and energy.
    for BoundaryCase {
        n,
        policy,
        p,
        pairs,
    } in limb_boundary_cases(2026)
    {
        let mut verified = device_at(n, policy, true, &p);
        let mut unverified = device_at(n, policy, false, &p);
        for (a, b) in pairs {
            let (c1, s1) = verified.mod_mul(&a, &b).unwrap();
            let (c2, s2) = unverified.mod_mul(&a, &b).unwrap();
            assert_eq!(c1, &(&a * &b) % &p, "n={n} {policy:?}");
            assert_eq!(c2, c1, "n={n} {policy:?}");
            assert_eq!(s2, s1, "n={n} {policy:?}");
        }
    }
}

#[test]
fn isa_executor_matches_fsm_at_256_bits() {
    use modsram_core::{Executor, Program};
    let p = secp_p();
    let mut rng = SmallRng::seed_from_u64(77);
    for trial in 0..5 {
        let a = ubig_below(&mut rng, &p);
        let b = ubig_below(&mut rng, &p);

        let mut fsm = ModSram::for_modulus(&p).unwrap();
        let (c_fsm, s_fsm) = fsm.mod_mul(&a, &b).unwrap();

        let mut isa = ModSram::for_modulus(&p).unwrap();
        isa.load_multiplicand(&b).unwrap();
        let mut exec = Executor::new();
        let (c_isa, s_isa) = exec.run_mod_mul(&mut isa, &a).unwrap();

        assert_eq!(c_isa, c_fsm, "trial {trial}");
        assert_eq!(s_isa.cycles, s_fsm.cycles, "trial {trial}");
        assert_eq!(
            s_isa.register_writes, s_fsm.register_writes,
            "trial {trial}"
        );
        assert_eq!(s_isa.activations, s_fsm.activations, "trial {trial}");
        assert_eq!(s_isa.row_reads, s_fsm.row_reads, "trial {trial}");
        assert_eq!(s_isa.row_writes, s_fsm.row_writes, "trial {trial}");

        // The generated program is the paper's schedule.
        let program = exec.last_program().unwrap();
        assert_eq!(program.cycles(), s_isa.cycles);
        let reparsed = Program::parse(&program.to_text()).unwrap();
        assert_eq!(&reparsed, program);
    }
}

#[test]
fn isa_constant_time_policy_pads_to_767() {
    use modsram_core::Executor;
    let p = secp_p();
    let config = ModSramConfig {
        n_bits: 256,
        policy: TimingPolicy::ConstantTime,
        ..Default::default()
    };
    let mut dev = ModSram::new(config).unwrap();
    dev.load_modulus(&p).unwrap();
    dev.load_multiplicand(&UBig::from(3u64)).unwrap();
    // A tiny multiplier still takes the full constant-time schedule:
    // ⌈257/2⌉ = 129 digits → 6·129 − 1 = 773 cycles.
    let (c, stats) = Executor::new()
        .run_mod_mul(&mut dev, &UBig::from(2u64))
        .unwrap();
    assert_eq!(c, UBig::from(6u64));
    assert_eq!(stats.cycles, 6 * 129 - 1);
}

/// Outcome of one run of the `fault_injection` example's device (n = 32):
/// the divergence it reports, if any, and the 6T disturb flips counted.
/// The configuration runs twice, through `ModSram::mod_mul` and through
/// `Executor::run_mod_mul` on a fresh device, and both must agree.
fn fault_run(
    cell: CellKind,
    disturb: f64,
    sigma: f64,
    seed: u64,
) -> (Option<(u64, &'static str)>, u64) {
    let p = UBig::from(0xffff_fffb_u64);
    let a = UBig::from(0x1234_5678u64);
    let b = UBig::from(0x0abc_def0u64);
    let run = |isa: bool| {
        let mut config = ModSramConfig {
            n_bits: 32,
            cell,
            ..Default::default()
        };
        config.fault.disturb_per_cell = disturb;
        config.fault.sa_offset_sigma = sigma;
        config.fault.seed = seed;
        let mut dev = ModSram::new(config).unwrap();
        dev.load_modulus(&p).unwrap();
        let outcome = if isa {
            dev.load_multiplicand(&b).unwrap();
            Executor::new().run_mod_mul(&mut dev, &a)
        } else {
            dev.mod_mul(&a, &b)
        };
        let divergence = match outcome {
            Ok((c, _)) => {
                assert_eq!(c, &(&a * &b) % &p);
                None
            }
            Err(CoreError::ModelDivergence { iteration, what }) => Some((iteration, what)),
            Err(other) => panic!("unexpected error {other:?}"),
        };
        (divergence, dev.array().stats().disturb_flips)
    };
    let fsm = run(false);
    assert_eq!(run(true), fsm, "Executor::run_mod_mul vs ModSram::mod_mul");
    fsm
}

#[test]
fn fault_injection_stream_is_pinned() {
    // The `fault_injection` example's configurations, with every
    // divergence and disturb count as first recorded. Sensing into reused
    // buffers must not reorder the fault RNG's draws, so each failing
    // run must still fail at the same iteration on the same check.
    assert_eq!(
        fault_run(CellKind::SixT, 0.02, 0.0, 7),
        (Some((10, "radix-4 XOR3")), 12)
    );
    assert_eq!(fault_run(CellKind::EightT, 0.02, 0.0, 7), (None, 0));

    const R4: &str = "radix-4 XOR3";
    const R4_MAJ: &str = "radix-4 MAJ";
    const OV: &str = "overflow XOR3";
    let sigma_02: [(u64, &str); 20] = [
        (2, R4_MAJ),
        (2, R4),
        (2, OV),
        (1, R4),
        (2, R4),
        (4, R4),
        (2, R4),
        (2, OV),
        (1, R4),
        (2, R4),
        (3, OV),
        (1, OV),
        (1, OV),
        (2, R4),
        (1, R4),
        (1, R4),
        (1, R4),
        (2, OV),
        (4, OV),
        (2, R4),
    ];
    let sigma_03: [(u64, &str); 20] = [
        (1, OV),
        (1, R4),
        (1, R4),
        (1, R4),
        (1, R4),
        (1, R4),
        (1, OV),
        (1, R4),
        (1, R4),
        (2, R4),
        (1, OV),
        (1, R4),
        (1, OV),
        (1, R4),
        (1, R4),
        (1, R4),
        (1, R4),
        (2, R4),
        (1, R4),
        (1, R4),
    ];
    for seed in 100..120u64 {
        assert_eq!(
            fault_run(CellKind::EightT, 0.0, 0.1, seed),
            (None, 0),
            "σ=0.1 seed {seed}"
        );
        let i = (seed - 100) as usize;
        assert_eq!(
            fault_run(CellKind::EightT, 0.0, 0.2, seed),
            (Some(sigma_02[i]), 0),
            "σ=0.2 seed {seed}"
        );
        assert_eq!(
            fault_run(CellKind::EightT, 0.0, 0.3, seed),
            (Some(sigma_03[i]), 0),
            "σ=0.3 seed {seed}"
        );
    }
}

#[test]
fn device_multiply_allocates_nothing_per_cycle() {
    // With verification on and tracing off, one 256-bit multiply (767+
    // cycles, 128+ Booth digits) may allocate only per-run values —
    // the reduced operand, the digit stream, the fetched row and the
    // finisher's sums — never per cycle or per digit.
    let p = secp_p();
    let mut dev = ModSram::for_modulus(&p).unwrap();
    let b = &UBig::pow2(200) + &UBig::from(12345u64);
    dev.mod_mul(&UBig::from(7u64), &b).unwrap(); // sizes the reused buffers
    let a = &p - &UBig::from(3u64);
    let before = allocations();
    let (c, stats) = dev.mod_mul(&a, &b).unwrap();
    let used = allocations() - before;
    assert_eq!(c, &(&a * &b) % &p);
    println!("{used} allocations over {} cycles", stats.cycles);
    assert!(
        used < 32,
        "{used} allocations for one multiply of {} digits",
        stats.iterations
    );

    // The same bound holds for a multiply through the ISA executor.
    let mut exec = Executor::new();
    let before = allocations();
    let (c, stats) = exec.run_mod_mul(&mut dev, &a).unwrap();
    let used = allocations() - before;
    assert_eq!(c, &(&a * &b) % &p);
    println!("{used} allocations over {} cycles (executor)", stats.cycles);
    assert!(
        used < 32,
        "{used} allocations for one executor multiply of {} digits",
        stats.iterations
    );
}

#[test]
fn executor_runs_record_their_trace_and_cycles() {
    // A traced device runs `mod_mul`, then the executor on a multiplier
    // with one Booth digit fewer: the executor's run leaves its own
    // trace and adds its cycles to the device's running total.
    let p = UBig::from(0xfff1u64);
    let mut dev = ModSram::new(ModSramConfig {
        n_bits: 16,
        trace: true,
        ..Default::default()
    })
    .unwrap();
    dev.load_modulus(&p).unwrap();
    let b = UBig::from(0x5678u64);
    let (_, fsm) = dev.mod_mul(&UBig::from(0x8001u64), &b).unwrap();
    assert_eq!(dev.last_trace.len() as u64, fsm.cycles + 1);

    let a = UBig::from(0x1234u64);
    let (c, isa) = Executor::new().run_mod_mul(&mut dev, &a).unwrap();
    assert_eq!(c, &(&a * &b) % &p);
    assert_ne!(isa.cycles, fsm.cycles, "the runs must be told apart");
    assert_eq!(dev.last_trace.len() as u64, isa.cycles + 1);
    let last = dev.last_trace.last().unwrap();
    assert_eq!((last.cycle, last.phase), (isa.cycles, Phase::Finalize));
    assert_eq!(dev.last_run.as_ref(), Some(&isa));
    assert_eq!(dev.run_cycles_total, fsm.cycles + isa.cycles);
}

#[test]
fn figure3_trace_is_pinned() {
    // The Figure 3 configuration, rendered at width 6. The overflow
    // FFs load together at `latch.ff`, after the overflow phase's last
    // write-back.
    const FIGURE3: [&str; 18] = [
        "cyc    1 it   0 fetch    sum:000000 carry:000000 ov:(0,0,0)  read A row into multiplier FF",
        "cyc    2 it   1 radix4   sum:000000 carry:000000 ov:(0,0,0)  activate LUT-radix4 + sum + carry; sense XOR3/MAJ",
        "cyc    3 it   1 radix4   sum:010010 carry:000000 ov:(0,0,0)  write back sum",
        "cyc    4 it   1 overflow sum:010010 carry:000000 ov:(0,0,0)  activate LUT-overflow + sum + carry; sense XOR3/MAJ",
        "cyc    5 it   1 overflow sum:001000 carry:000000 ov:(0,0,0)  write back sum (≪2 pre-shift)",
        "cyc    6 it   2 radix4   sum:001000 carry:000000 ov:(1,0,0)  activate LUT-radix4 + sum + carry; sense XOR3/MAJ",
        "cyc    7 it   2 radix4   sum:011010 carry:000000 ov:(1,0,0)  write back sum",
        "cyc    8 it   2 radix4   sum:011010 carry:000000 ov:(1,0,0)  write back carry (≪1)",
        "cyc    9 it   2 overflow sum:011010 carry:000000 ov:(0,0,0)  activate LUT-overflow + sum + carry; sense XOR3/MAJ",
        "cyc   10 it   2 overflow sum:101000 carry:000000 ov:(0,0,0)  write back sum (≪2 pre-shift)",
        "cyc   11 it   2 overflow sum:101000 carry:000000 ov:(0,0,0)  write back carry (≪1, ≪2 pre-shift)",
        "cyc   12 it   3 radix4   sum:101000 carry:000000 ov:(0,2,0)  activate LUT-radix4 + sum + carry; sense XOR3/MAJ",
        "cyc   13 it   3 radix4   sum:111010 carry:000000 ov:(0,2,0)  write back sum",
        "cyc   14 it   3 radix4   sum:111010 carry:000000 ov:(0,2,0)  write back carry (≪1)",
        "cyc   15 it   3 overflow sum:111010 carry:000000 ov:(0,0,0)  activate LUT-overflow + sum + carry; sense XOR3/MAJ",
        "cyc   16 it   3 overflow sum:110010 carry:000000 ov:(0,0,0)  write back sum (≪2 pre-shift)",
        "cyc   17 it   3 overflow sum:110010 carry:010000 ov:(0,0,0)  write back carry (≪1, ≪2 pre-shift)",
        "cyc   17 it   3 finalize sum:110010 carry:010000 ov:(0,0,0)  near-memory add + reduce",
    ];
    let mut dev = ModSram::new(ModSramConfig {
        n_bits: 5,
        trace: true,
        ..Default::default()
    })
    .unwrap();
    dev.load_modulus(&UBig::from(0b11000u64)).unwrap();
    let (c, _) = dev
        .mod_mul(&UBig::from(0b10101u64), &UBig::from(0b10010u64))
        .unwrap();
    assert_eq!(c, UBig::from(18u64));
    let rendered: Vec<String> = dev.last_trace.iter().map(|s| s.render(6)).collect();
    assert_eq!(rendered, FIGURE3);
}
