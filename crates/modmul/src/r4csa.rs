//! **R4CSA-LUT** — Algorithm 3, the paper's contribution, as a
//! bit-accurate functional model.
//!
//! Per radix-4 Booth digit (MSB first) the loop does exactly what the
//! ModSRAM hardware does:
//!
//! 1. **Shift**: `sum` and `carry` shift left by two inside their
//!    `(n+1)`-bit window (`C ← 4·C`); the two bits falling out of each
//!    window become `overflow_sum` / `overflow_carry` (Alg. 3 lines 4–5).
//! 2. **Radix-4 phase**: the digit selects a Table 1b wordline
//!    (`digit·B mod p`) which is carry-save-added to `(sum, carry)` with
//!    in-memory `XOR3`/`MAJ`; the weight-`2^(n+1)` carry-out of the
//!    re-weighted `MAJ` word joins the overflow bits (lines 6–9).
//! 3. **Overflow phase**: the collected overflow value `w` selects a
//!    Table 2 wordline (`w·2^(n+1) mod p`) which is carry-save-added the
//!    same way (lines 10–12); its own (rare) carry-out is *deferred* into
//!    the next iteration's overflow sum with weight 4.
//!
//! After the last digit, `sum + carry (+ deferred carry)` is added and
//! reduced near-memory (line 14).
//!
//! # Exactness
//!
//! Every escaping bit is accounted for, so the loop maintains
//!
//! ```text
//! sum + carry + pending·2^(n+1)  ≡  (Σ processed digits)·B   (mod p)
//! ```
//!
//! as a hard invariant (property-tested, and asserted per-step against a
//! reference recurrence in tests). The paper's Table 2 indexes the
//! overflow LUT with 3 bits; exact accounting needs indices up to 11 in
//! the worst case (deferred carry + maximal shift-outs), which is why
//! [`LutOverflow`] holds 16 entries and the engine records a histogram of
//! indices actually used — see DESIGN.md §3.2 and EXPERIMENTS.md
//! (`lut_usage`).

use std::sync::Arc;

use modsram_bigint::{radix4_digits_msb_first, Radix4Digit, UBig};

use crate::lanes::{R4CsaLanes, DEFAULT_LANES, LANE_MIN_PAIRS};
use crate::prepared::{canonical, check_modulus};
use crate::{
    CsaState, CycleModel, LutOverflow, LutRadix4, ModMulEngine, ModMulError, PreparedModMul,
};

/// Iteration-count policy for the R4CSA-LUT loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingPolicy {
    /// `⌈n/2⌉` iterations, plus one extra only when the multiplier's top
    /// bit requires it (the paper's cycle count; data-dependent timing).
    #[default]
    DataDependent,
    /// Always `⌈(n+1)/2⌉` iterations regardless of the multiplier value
    /// (constant-time variant for side-channel-sensitive uses).
    ConstantTime,
}

impl TimingPolicy {
    /// The Booth digit stream for multiplier `a` at declared width `n`
    /// under this policy — the single definition of the constant-time
    /// zero-digit padding rule, shared by the functional engine, the
    /// prepared context, and the cycle-accurate controller (which
    /// verifies itself digit-by-digit against the stepper, so all
    /// copies must agree).
    pub fn digits(&self, a: &UBig, n: usize) -> Vec<Radix4Digit> {
        let mut digits = radix4_digits_msb_first(a, n);
        if *self == TimingPolicy::ConstantTime {
            let want = (n + 1).div_ceil(2);
            if digits.len() < want {
                let pad = want - digits.len();
                let zero = Radix4Digit::encode(false, false, false);
                digits.splice(0..0, std::iter::repeat_n(zero, pad));
            }
        }
        digits
    }
}

/// Everything one loop iteration did — used for dataflow traces
/// (Figure 3) and the per-step invariant tests. (The SRAM-backed device
/// in `modsram-core` verifies itself against [`crate::CsaLockstep`]
/// instead, which checks the same values without cloning them.)
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// The Booth digit processed this iteration.
    pub digit: Radix4Digit,
    /// Two bits shifted out of the sum window (Alg. 3 line 4).
    pub ov_sum: u8,
    /// Two bits shifted out of the carry window (line 5).
    pub ov_carry: u8,
    /// Carry-out of the radix-4 CSA phase (weight `2^(n+1)`).
    pub csa1_msb_out: u8,
    /// Deferred carry-out from the previous iteration's overflow phase.
    pub pending_in: u8,
    /// Overflow-LUT index `w = ov_sum + ov_carry + csa1_msb_out + 4·pending_in`.
    pub ov_index: usize,
    /// `(sum, carry)` after the shift, before the radix-4 injection.
    pub after_shift: (UBig, UBig),
    /// `(sum, carry)` after the radix-4 LUT injection.
    pub after_radix4: (UBig, UBig),
    /// `(sum, carry)` after the overflow LUT injection.
    pub after_overflow: (UBig, UBig),
    /// Carry-out of the overflow phase, deferred to the next iteration.
    pub pending_out: u8,
}

/// Instrumentation collected over one `mod_mul` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct R4CsaStats {
    /// Loop iterations executed (= Booth digits processed).
    pub iterations: u64,
    /// Histogram of overflow-LUT indices touched.
    pub ov_histogram: [u64; LutOverflow::ENTRIES],
    /// Largest overflow-LUT index observed.
    pub max_ov_index: usize,
    /// Conditional subtractions in the final near-memory reduction.
    pub final_subtractions: u64,
    /// Whether the multiplier's MSB forced an extra iteration beyond the
    /// paper's `⌈n/2⌉`.
    pub extra_msb_digit: bool,
    /// Modelled cycle count: `6·iterations − 1` (see `CycleModel`).
    pub modelled_cycles: u64,
}

impl R4CsaStats {
    /// `true` when every overflow index stayed within the paper's 8-entry
    /// Table 2.
    pub fn within_paper_table2(&self) -> bool {
        self.max_ov_index < LutOverflow::PAPER_ENTRIES
    }
}

/// The iteration core of Algorithm 3 behind this functional engine and
/// its prepared context.
///
/// The cycle-accurate SRAM device does not step this type: its
/// lock-step oracle is the laned carry-save core at one lane
/// ([`crate::CsaLockstep`]), advanced one LUT phase at a time on reused
/// limb words. Both implement the same recurrence.
///
/// # Examples
///
/// ```
/// use modsram_modmul::R4CsaStepper;
/// use modsram_bigint::{radix4_digits_msb_first, UBig};
///
/// // The paper's Figure 3 example: A=10101, B=10010, p=11000.
/// let (a, b, p) = (UBig::from(0b10101u64), UBig::from(0b10010u64), UBig::from(0b11000u64));
/// let mut stepper = R4CsaStepper::new(&b, &p).unwrap();
/// for d in radix4_digits_msb_first(&a, 5) {
///     stepper.step(d);
/// }
/// assert_eq!(stepper.finalize().0, UBig::from((21u64 * 18) % 24));
/// ```
#[derive(Debug, Clone)]
pub struct R4CsaStepper {
    state: CsaState,
    pending: u8,
    lut4: LutRadix4,
    lutov: Arc<LutOverflow>,
    p: UBig,
    width: usize,
}

impl R4CsaStepper {
    /// Builds the stepper (and both LUTs) for multiplicand `b` and
    /// modulus `p`. The register window is `bit_len(p) + 1`, the paper's
    /// `n + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModMulError::ZeroModulus`] if `p` is zero.
    pub fn new(b: &UBig, p: &UBig) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        Self::with_width(b, p, p.bit_len().max(1))
    }

    /// Builds the stepper with an explicit declared width `n ≥ bit_len(p)`
    /// (register window `n + 1`). Used when the hardware array is wider
    /// than the modulus.
    ///
    /// # Errors
    ///
    /// Returns [`ModMulError::ZeroModulus`] if `p` is zero, or
    /// [`ModMulError::OperandTooWide`] if `p` does not fit in `n` bits.
    pub fn with_width(b: &UBig, p: &UBig, n: usize) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        if p.bit_len() > n {
            return Err(ModMulError::OperandTooWide {
                operand_bits: p.bit_len(),
                limit_bits: n,
            });
        }
        let width = n.max(1) + 1;
        Self::with_overflow_lut(b, p, n, Arc::new(LutOverflow::new(p, width)?))
    }

    /// Builds the stepper reusing an already-computed overflow LUT
    /// (Table 2 depends only on the modulus, so a prepared context
    /// computes it once and hands it to each multiplication — the §3.2
    /// data-reuse claim in software form).
    ///
    /// # Errors
    ///
    /// As [`R4CsaStepper::with_width`]; additionally requires `lutov` to
    /// have been built for the same modulus and window, which is a
    /// programmer error and asserted.
    pub fn with_overflow_lut(
        b: &UBig,
        p: &UBig,
        n: usize,
        lutov: Arc<LutOverflow>,
    ) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        if p.bit_len() > n {
            return Err(ModMulError::OperandTooWide {
                operand_bits: p.bit_len(),
                limit_bits: n,
            });
        }
        let width = n.max(1) + 1;
        // analyzer: allow(no_panic, the overflow LUT comes from the same prepared context as p and n, so a mismatch is a construction bug that would otherwise yield wrong products)
        assert_eq!(lutov.modulus(), p, "overflow LUT modulus mismatch");
        // analyzer: allow(no_panic, the overflow LUT comes from the same prepared context as p and n, so a mismatch is a construction bug that would otherwise yield wrong products)
        assert_eq!(lutov.width(), width, "overflow LUT window mismatch");
        Ok(R4CsaStepper {
            state: CsaState::new(width),
            pending: 0,
            lut4: LutRadix4::new(b, p)?,
            lutov,
            p: p.clone(),
            width,
        })
    }

    /// The declared operand bitwidth `n` (= `bit_len(p)`).
    pub fn n_bits(&self) -> usize {
        self.width - 1
    }

    /// The current `(sum, carry)` accumulator.
    pub fn state(&self) -> &CsaState {
        &self.state
    }

    /// The deferred overflow-phase carry bit.
    pub fn pending(&self) -> u8 {
        self.pending
    }

    /// The radix-4 LUT (Table 1b) built for this multiplicand.
    pub fn lut_radix4(&self) -> &LutRadix4 {
        &self.lut4
    }

    /// The overflow LUT (Table 2) built for this modulus.
    pub fn lut_overflow(&self) -> &LutOverflow {
        self.lutov.as_ref()
    }

    /// Executes one loop iteration for `digit`, returning the full trace.
    pub fn step(&mut self, digit: Radix4Digit) -> StepTrace {
        let pending_in = self.pending;
        self.pending = 0;

        // Lines 4–5: C ← 4·C with window-overflow capture.
        let (ov_sum, ov_carry) = self.state.shl2();
        let after_shift = (self.state.sum().clone(), self.state.carry().clone());

        // Lines 7–9: radix-4 LUT carry-save injection.
        let (_, csa1_msb_out) = self.state.inject(&self.lut4.value(digit).clone());
        let after_radix4 = (self.state.sum().clone(), self.state.carry().clone());

        // Line 6 (computed exactly): the overflow word. The deferred
        // carry from last iteration's overflow phase has been multiplied
        // by 4 by this iteration's shift.
        let ov_index =
            ov_sum as usize + ov_carry as usize + csa1_msb_out as usize + 4 * pending_in as usize;

        // Lines 10–12: overflow LUT carry-save injection.
        let (_, pending_out) = self.state.inject(&self.lutov.value(ov_index).clone());
        let after_overflow = (self.state.sum().clone(), self.state.carry().clone());
        self.pending = pending_out;

        StepTrace {
            digit,
            ov_sum,
            ov_carry,
            csa1_msb_out,
            pending_in,
            ov_index,
            after_shift,
            after_radix4,
            after_overflow,
            pending_out,
        }
    }

    /// Line 14: the near-memory full addition `sum + carry` (plus any
    /// deferred carry) followed by reduction into `[0, p)`. Returns
    /// `(result, subtractions_used)`; when the window is matched to the
    /// modulus (`n = bit_len(p)`) the subtraction count is at most 12,
    /// so the hardware finisher is a short conditional-subtract chain.
    pub fn finalize(&self) -> (UBig, u64) {
        let mut total = self.state.value();
        if self.pending != 0 {
            total = &total + &UBig::pow2(self.width);
        }
        // Equivalent to the conditional-subtract chain, but O(1) even
        // when the window is much wider than the modulus.
        let subs = (&total / &self.p).to_u64().unwrap_or(u64::MAX);
        (&total % &self.p, subs)
    }

    /// The loop invariant value `sum + carry + pending·2^(n+1)` — what the
    /// redundant accumulator currently represents (not reduced).
    pub fn represented_value(&self) -> UBig {
        let mut v = self.state.value();
        if self.pending != 0 {
            v = &v + &UBig::pow2(self.width);
        }
        v
    }
}

/// The R4CSA-LUT functional engine (Algorithm 3).
///
/// Keeps per-call instrumentation in [`R4CsaLutEngine::last_stats`] and a
/// cumulative overflow-index histogram across all calls (for the
/// `lut_usage` experiment).
#[derive(Debug, Clone, Default)]
pub struct R4CsaLutEngine {
    policy: TimingPolicy,
    /// Instrumentation from the most recent `mod_mul` call.
    pub last_stats: Option<R4CsaStats>,
    cumulative_ov: [u64; LutOverflow::ENTRIES],
}

impl R4CsaLutEngine {
    /// Creates the engine with data-dependent timing (the paper's count).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the engine with an explicit timing policy.
    pub fn with_policy(policy: TimingPolicy) -> Self {
        R4CsaLutEngine {
            policy,
            ..Self::default()
        }
    }

    /// Cumulative histogram of overflow-LUT indices over the engine's
    /// lifetime.
    pub fn cumulative_ov_histogram(&self) -> &[u64; LutOverflow::ENTRIES] {
        &self.cumulative_ov
    }

    /// Resets the cumulative histogram.
    pub fn reset_instrumentation(&mut self) {
        self.cumulative_ov = [0; LutOverflow::ENTRIES];
        self.last_stats = None;
    }
}

/// Thread-safe prepared context for R4CSA-LUT: the overflow LUT
/// (Table 2) and register window are fixed per modulus; Table 1b is
/// rebuilt per multiplicand, exactly as the hardware rewrites its `B`
/// wordlines.
///
/// The prepared hot path carries no instrumentation; use the engine's
/// legacy `mod_mul` for histograms and step traces.
#[derive(Debug, Clone)]
pub struct PreparedR4Csa {
    p: UBig,
    n: usize,
    lutov: Arc<LutOverflow>,
    policy: TimingPolicy,
    /// The structure-of-arrays digit-loop kernel behind the laned batch
    /// path (one multiplicand run at a time).
    lanes: R4CsaLanes,
}

impl PreparedR4Csa {
    /// Performs the per-modulus precomputation (Table 2 rows).
    ///
    /// # Errors
    ///
    /// [`ModMulError::ZeroModulus`] for `p = 0`.
    pub fn new(p: &UBig, policy: TimingPolicy) -> Result<Self, ModMulError> {
        check_modulus(p)?;
        let n = p.bit_len().max(1);
        let lutov = Arc::new(LutOverflow::new(p, n + 1)?);
        let lanes = R4CsaLanes::new(p, &lutov, n);
        Ok(PreparedR4Csa {
            p: p.clone(),
            n,
            lutov,
            policy,
            lanes,
        })
    }

    fn run(&self, a: &UBig, stepper: &mut R4CsaStepper) -> UBig {
        for d in self.policy.digits(a, self.n) {
            stepper.step(d);
        }
        stepper.finalize().0
    }

    /// Splits the batch into maximal equal-multiplicand runs and hands
    /// each run to `per_run` — the access pattern the service batcher's
    /// multiplicand-major coalescing produces.
    fn for_each_run(
        &self,
        pairs: &[(UBig, UBig)],
        out: &mut Vec<UBig>,
        mut per_run: impl FnMut(&[(UBig, UBig)], &mut Vec<UBig>) -> Result<(), ModMulError>,
    ) -> Result<(), ModMulError> {
        let mut start = 0;
        while start < pairs.len() {
            let b = &pairs[start].1;
            let mut end = start + 1;
            while end < pairs.len() && &pairs[end].1 == b {
                end += 1;
            }
            per_run(&pairs[start..end], out)?;
            start = end;
        }
        Ok(())
    }

    /// One multiplicand run through the scalar stepper (Table 1b built
    /// once, accumulator cloned per pair).
    fn run_scalar(&self, run: &[(UBig, UBig)], out: &mut Vec<UBig>) -> Result<(), ModMulError> {
        let template =
            R4CsaStepper::with_overflow_lut(&run[0].1, &self.p, self.n, self.lutov.clone())?;
        for (a, _) in run {
            let mut stepper = template.clone();
            let a = canonical(a, &self.p);
            out.push(self.run(&a, &mut stepper));
        }
        Ok(())
    }

    /// One multiplicand run through the laned kernel.
    fn run_laned(
        &self,
        run: &[(UBig, UBig)],
        lanes: usize,
        out: &mut Vec<UBig>,
    ) -> Result<(), ModMulError> {
        let lut4 = LutRadix4::new(&run[0].1, &self.p)?;
        let multipliers: Vec<UBig> = run.iter().map(|(a, _)| a.clone()).collect();
        out.extend(
            self.lanes
                .run_batch(&multipliers, &lut4, self.policy, lanes),
        );
        Ok(())
    }
}

impl PreparedModMul for PreparedR4Csa {
    fn engine_name(&self) -> &'static str {
        "r4csa-lut"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        let a = canonical(a, &self.p);
        let mut stepper = R4CsaStepper::with_overflow_lut(b, &self.p, self.n, self.lutov.clone())?;
        Ok(self.run(&a, &mut stepper))
    }

    /// Batch override: Table 2 is shared by construction, Table 1b is
    /// built once per maximal equal-multiplicand run (the repeated-`B`
    /// pattern of point addition; the run check compares the raw
    /// multiplicand, so a repeated `b` costs one equality test, not a
    /// canonicalising division, per pair). Runs of at least
    /// [`LANE_MIN_PAIRS`] multipliers take the lane-vectorized digit
    /// loop ([`crate::lanes::R4CsaLanes`]); shorter runs clone a scalar
    /// stepper template per pair as before.
    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let mut out = Vec::with_capacity(pairs.len());
        self.for_each_run(pairs, &mut out, |run, out| {
            if run.len() >= LANE_MIN_PAIRS {
                self.run_laned(run, DEFAULT_LANES, out)
            } else {
                self.run_scalar(run, out)
            }
        })?;
        Ok(out)
    }

    fn mod_mul_batch_scalar(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let mut out = Vec::with_capacity(pairs.len());
        self.for_each_run(pairs, &mut out, |run, out| self.run_scalar(run, out))?;
        Ok(out)
    }

    fn mod_mul_batch_laned(
        &self,
        pairs: &[(UBig, UBig)],
        lanes: usize,
    ) -> Result<Vec<UBig>, ModMulError> {
        let mut out = Vec::with_capacity(pairs.len());
        self.for_each_run(pairs, &mut out, |run, out| self.run_laned(run, lanes, out))?;
        Ok(out)
    }
}

impl ModMulEngine for R4CsaLutEngine {
    fn name(&self) -> &'static str {
        "r4csa-lut"
    }

    fn prepare(&self, p: &UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> {
        Ok(Box::new(PreparedR4Csa::new(p, self.policy)?))
    }

    fn mod_mul(&mut self, a: &UBig, b: &UBig, p: &UBig) -> Result<UBig, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        let a = a % p;
        let n = p.bit_len().max(1);
        let mut stepper = R4CsaStepper::new(b, p)?;
        let digits = self.policy.digits(&a, n);

        let mut stats = R4CsaStats {
            iterations: digits.len() as u64,
            extra_msb_digit: digits.len() > n.div_ceil(2),
            ..Default::default()
        };
        for d in digits {
            let trace = stepper.step(d);
            stats.ov_histogram[trace.ov_index] += 1;
            stats.max_ov_index = stats.max_ov_index.max(trace.ov_index);
            self.cumulative_ov[trace.ov_index] += 1;
        }
        let (result, subs) = stepper.finalize();
        stats.final_subtractions = subs;
        stats.modelled_cycles = 6 * stats.iterations - 1;
        self.last_stats = Some(stats);
        Ok(result)
    }
}

impl CycleModel for R4CsaLutEngine {
    /// `6·⌈n/2⌉ − 1` cycles: six micro-cycles per iteration (two LUT
    /// phases, each activate+sense / write-back sum / write-back carry),
    /// with the final carry write-back overlapped with the near-memory
    /// finisher. Equals the paper's `3n − 1` for even `n` (767 at
    /// n = 256).
    fn cycles(&self, n_bits: usize) -> u64 {
        6 * (n_bits as u64).div_ceil(2) - 1
    }

    fn model_description(&self) -> &'static str {
        "6 cycles per radix-4 digit (two in-SRAM CSA phases), final write-back overlapped"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectEngine;

    #[test]
    fn paper_figure3_example() {
        // A=10101 (21), B=10010 (18), p=11000 (24) -> 378 mod 24 = 18.
        let mut e = R4CsaLutEngine::new();
        let c = e
            .mod_mul(
                &UBig::from(0b10101u64),
                &UBig::from(0b10010u64),
                &UBig::from(0b11000u64),
            )
            .unwrap();
        assert_eq!(c, UBig::from(18u64));
    }

    #[test]
    fn exhaustive_small_moduli() {
        let mut e = R4CsaLutEngine::new();
        let mut oracle = DirectEngine::new();
        for p in 1u64..=32 {
            for a in 0..p {
                for b in 0..p {
                    let (pa, pb, pp) = (UBig::from(a), UBig::from(b), UBig::from(p));
                    let got = e.mod_mul(&pa, &pb, &pp).unwrap();
                    let want = oracle.mod_mul(&pa, &pb, &pp).unwrap();
                    assert_eq!(got, want, "a={a} b={b} p={p}");
                }
            }
        }
    }

    #[test]
    fn invariant_holds_every_step() {
        // sum + carry + pending·2^W ≡ (digits so far)·B (mod p).
        let p = UBig::from(0xffff_fffb_u64);
        let b = UBig::from(0x1234_5678u64);
        let a = UBig::from(0xdead_beefu64);
        let n = p.bit_len();
        let mut stepper = R4CsaStepper::new(&b, &p).unwrap();
        let mut reference = UBig::zero();
        for d in radix4_digits_msb_first(&a, n) {
            stepper.step(d);
            // reference = 4*reference + d*B (mod p)
            reference = &(&reference << 2) % &p;
            let addend = stepper.lut_radix4().value(d).clone();
            reference = &(&reference + &addend) % &p;
            assert_eq!(
                &stepper.represented_value() % &p,
                reference,
                "invariant broken at digit {:?}",
                d.value()
            );
        }
        assert_eq!(stepper.finalize().0, &(&a * &b) % &p);
    }

    #[test]
    fn secp256k1_sized_operands() {
        let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        let a = &UBig::from_hex("e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .unwrap()
            % &p;
        let b = &UBig::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
            .unwrap()
            % &p;
        let mut e = R4CsaLutEngine::new();
        assert_eq!(e.mod_mul(&a, &b, &p).unwrap(), &(&a * &b) % &p);
        let stats = e.last_stats.clone().unwrap();
        // MSB of a is set, so the extra Booth digit fires: 129 iterations.
        assert!(stats.extra_msb_digit);
        assert_eq!(stats.iterations, 129);
        assert_eq!(stats.modelled_cycles, 773);
    }

    #[test]
    fn bn254_sized_operands_hit_paper_cycles() {
        // BN254's modulus is 254 bits; operands below it never set bit 255,
        // so at declared width n=254 the iteration count is ⌈254/2⌉ = 127.
        let p = UBig::from_dec(
            "21888242871839275222246405745257275088696311157297823662689037894645226208583",
        )
        .unwrap();
        assert_eq!(p.bit_len(), 254);
        let a = &UBig::from(3u64) << 250;
        let b = &UBig::from(5u64) << 200;
        let mut e = R4CsaLutEngine::new();
        assert_eq!(e.mod_mul(&a, &b, &p).unwrap(), &(&a * &b) % &p);
        let stats = e.last_stats.clone().unwrap();
        assert_eq!(stats.iterations, 127);
        assert_eq!(stats.modelled_cycles, 6 * 127 - 1);
    }

    #[test]
    fn cycle_model_matches_paper_headline() {
        let e = R4CsaLutEngine::new();
        assert_eq!(e.cycles(256), 767); // Table 3: 767 cycles at 256 bits
        assert_eq!(e.cycles(8), 23);
        // 3n - 1 for even n.
        for n in [8u64, 16, 32, 64, 128, 256] {
            assert_eq!(e.cycles(n as usize), 3 * n - 1);
        }
    }

    #[test]
    fn constant_time_policy_fixes_iterations() {
        let p = UBig::from(0xffffu64); // 16 bits
        let mut e = R4CsaLutEngine::with_policy(TimingPolicy::ConstantTime);
        for a in [0u64, 1, 0x7fff, 0xfffe] {
            let got = e
                .mod_mul(&UBig::from(a), &UBig::from(0x1234u64), &p)
                .unwrap();
            assert_eq!(got, UBig::from(a * 0x1234 % 0xffff));
            assert_eq!(
                e.last_stats.as_ref().unwrap().iterations,
                9, // ⌈17/2⌉ regardless of a
                "a={a}"
            );
        }
    }

    #[test]
    fn histogram_accumulates() {
        let mut e = R4CsaLutEngine::new();
        let p = UBig::from(251u64);
        for a in 0..50u64 {
            e.mod_mul(&UBig::from(a), &UBig::from(199u64), &p).unwrap();
        }
        let total: u64 = e.cumulative_ov_histogram().iter().sum();
        assert!(total > 0);
        e.reset_instrumentation();
        assert_eq!(e.cumulative_ov_histogram().iter().sum::<u64>(), 0);
    }

    #[test]
    fn operands_equal_to_p_are_canonicalised() {
        let p = UBig::from(24u64);
        let mut e = R4CsaLutEngine::new();
        assert_eq!(e.mod_mul(&p, &UBig::from(5u64), &p).unwrap(), UBig::zero());
    }

    #[test]
    fn modulus_one_yields_zero() {
        let mut e = R4CsaLutEngine::new();
        assert_eq!(
            e.mod_mul(&UBig::from(5u64), &UBig::from(7u64), &UBig::one())
                .unwrap(),
            UBig::zero()
        );
    }
}
