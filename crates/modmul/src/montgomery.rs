//! Montgomery multiplication over arbitrary-width odd moduli.
//!
//! The paper's §3 discusses why it avoids this family for PIM: the n-bit
//! pre-multiplication produces 2n-bit intermediates, and entering/leaving
//! Montgomery form costs real modular operations (the criticism levelled
//! at BP-NTT in §5.4). The legacy engine implements classic REDC with
//! the domain conversions spelled out so those costs can be measured
//! rather than asserted; see the `conversions` counter.
//!
//! Both paths run the workspace's one Montgomery kernel,
//! [`modsram_bigint::mont_mul_limbs`] (word-serial CIOS), on padded limb
//! buffers. The prepared context ([`PreparedMontgomery`]) is the
//! performance-oriented path: `R²` and `−p⁻¹ mod 2⁶⁴` are computed once
//! in [`crate::ModMulEngine::prepare`], and each multiplication fuses the
//! domain round-trip into two CIOS passes (`REDC(a·R²) = aR`, then
//! `REDC(aR·b) = a·b mod p`), which is algebraically identical to the
//! enter/multiply/leave sequence the instrumented engine performs. A
//! batch allocates its limb scratch once.

use modsram_bigint::{mont_mul_limbs, neg_inv64, UBig};

use crate::prepared::check_modulus;
use crate::{CycleModel, ModMulEngine, ModMulError, PreparedModMul};

/// Thread-safe per-modulus Montgomery context (`R²`, `−p⁻¹ mod 2⁶⁴`),
/// with `R = 2^(64w)` for the limb width `w` of `p`.
#[derive(Debug, Clone)]
pub struct PreparedMontgomery {
    p: UBig,
    /// `p`'s limbs; their count is the CIOS width `w`.
    p_limbs: Vec<u64>,
    /// `R² mod p`, padded to `w` limbs, to enter Montgomery form with one
    /// CIOS pass.
    r2: Vec<u64>,
    /// `−p⁻¹ mod 2⁶⁴`.
    n0: u64,
}

impl PreparedMontgomery {
    /// Performs the per-modulus precomputation.
    ///
    /// # Errors
    ///
    /// [`ModMulError::ZeroModulus`] for `p = 0`;
    /// [`ModMulError::EvenModulus`] for even `p` (REDC requires
    /// `gcd(p, R) = 1`).
    pub fn new(p: &UBig) -> Result<Self, ModMulError> {
        check_modulus(p)?;
        if p.is_even() {
            return Err(ModMulError::EvenModulus);
        }
        let p_limbs = p.limbs().to_vec();
        let mut r2 = (&UBig::pow2(128 * p_limbs.len()) % p).limbs().to_vec();
        r2.resize(p_limbs.len(), 0);
        Ok(PreparedMontgomery {
            p: p.clone(),
            n0: neg_inv64(p_limbs[0]), // p ≠ 0 has a low limb
            p_limbs,
            r2,
        })
    }

    /// One CIOS pass: `out = x·y·R⁻¹ mod p` (`t` is `w + 2` limbs).
    fn redc_mul(&self, out: &mut [u64], x: &[u64], y: &[u64], t: &mut [u64]) {
        mont_mul_limbs(out, x, y, &self.p_limbs, self.n0, t);
    }

    /// Writes `v mod p` into `dst`, zero-padded to the width.
    fn load(&self, dst: &mut [u64], v: &UBig) {
        let reduced;
        let v = if *v < self.p {
            v
        } else {
            reduced = v % &self.p;
            &reduced
        };
        dst.fill(0);
        for (d, &s) in dst.iter_mut().zip(v.limbs()) {
            *d = s;
        }
    }

    /// Scratch for [`Self::fused`]: `4w + 2` limbs.
    fn scratch(&self) -> Vec<u64> {
        vec![0; 4 * self.p_limbs.len() + 2]
    }

    /// One fused multiplication: two CIOS passes over `buf`.
    fn fused(&self, a: &UBig, b: &UBig, buf: &mut [u64]) -> UBig {
        let w = self.p_limbs.len();
        let (x, rest) = buf.split_at_mut(w);
        let (y, rest) = rest.split_at_mut(w);
        let (ar, t) = rest.split_at_mut(w);
        self.load(x, a);
        self.load(y, b);
        self.redc_mul(ar, x, &self.r2, t); // aR = REDC(a·R²)
        self.redc_mul(x, ar, y, t); // REDC(aR·b) = a·b mod p
        UBig::from_limbs(x.to_vec())
    }
}

impl PreparedModMul for PreparedMontgomery {
    fn engine_name(&self) -> &'static str {
        "montgomery"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        Ok(self.fused(a, b, &mut self.scratch()))
    }

    /// Batch override: the per-pair fused path with one scratch
    /// allocation for the whole batch.
    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let mut buf = self.scratch();
        Ok(pairs
            .iter()
            .map(|(a, b)| self.fused(a, b, &mut buf))
            .collect())
    }
}

/// Montgomery-reduction engine with a per-modulus cache and
/// conversion-cost instrumentation.
#[derive(Debug, Clone, Default)]
pub struct MontgomeryEngine {
    cache: Option<PreparedMontgomery>,
    /// Count of to/from Montgomery-form conversions performed — the
    /// transformation overhead the paper's comparison highlights.
    pub conversions: u64,
    /// Count of REDC reductions performed.
    pub reductions: u64,
}

impl MontgomeryEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn cache_for(&mut self, p: &UBig) -> Result<&PreparedMontgomery, ModMulError> {
        let reusable = matches!(&self.cache, Some(c) if c.modulus() == p);
        let prep = match (reusable, self.cache.take()) {
            (true, Some(c)) => c,
            _ => PreparedMontgomery::new(p)?,
        };
        Ok(self.cache.insert(prep))
    }
}

impl ModMulEngine for MontgomeryEngine {
    fn name(&self) -> &'static str {
        "montgomery"
    }

    fn prepare(&self, p: &UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> {
        Ok(Box::new(PreparedMontgomery::new(p)?))
    }

    /// # Errors
    ///
    /// Returns [`ModMulError::EvenModulus`] for even `p` (REDC requires
    /// `gcd(p, R) = 1`) and [`ModMulError::ZeroModulus`] for `p = 0`.
    fn mod_mul(&mut self, a: &UBig, b: &UBig, p: &UBig) -> Result<UBig, ModMulError> {
        let ctx = self.cache_for(p)?;
        let w = ctx.p_limbs.len();
        let [mut x, mut y, mut one, mut xm, mut ym, mut prod, mut out] =
            [(); 7].map(|_| vec![0u64; w]);
        let mut t = vec![0u64; w + 2];
        ctx.load(&mut x, a);
        ctx.load(&mut y, b);
        one[0] = 1;

        // Enter Montgomery form (one REDC each), multiply, REDC, leave —
        // spelled out so the conversion overhead is observable.
        ctx.redc_mul(&mut xm, &x, &ctx.r2, &mut t);
        ctx.redc_mul(&mut ym, &y, &ctx.r2, &mut t);
        ctx.redc_mul(&mut prod, &xm, &ym, &mut t);
        ctx.redc_mul(&mut out, &prod, &one, &mut t);
        let out = UBig::from_limbs(out);
        self.conversions += 3;
        self.reductions += 4;
        Ok(out)
    }
}

impl CycleModel for MontgomeryEngine {
    /// Word-serial CIOS on a 64-bit datapath: `⌈n/64⌉²` multiply-add
    /// steps for the product and the same again for the reduction, plus
    /// per-call conversion overhead of two more multiplications. This is
    /// a software-style model (the paper's PIM comparison instead uses
    /// BP-NTT's bit-parallel Montgomery — see `modsram-baselines`).
    fn cycles(&self, n_bits: usize) -> u64 {
        let words = (n_bits as u64).div_ceil(64);
        // product + interleaved reduction (2·w²) for the core multiply,
        // ×3 for the two entry conversions and one exit REDC.
        2 * words * words * 4
    }

    fn model_description(&self) -> &'static str {
        "word-serial CIOS with Montgomery-form entry/exit charged per call"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectEngine;

    #[test]
    fn exhaustive_small_odd_moduli() {
        let mut e = MontgomeryEngine::new();
        let mut oracle = DirectEngine::new();
        for p in (1u64..=31).step_by(2) {
            for a in 0..p {
                for b in 0..p {
                    let (pa, pb, pp) = (UBig::from(a), UBig::from(b), UBig::from(p));
                    assert_eq!(
                        e.mod_mul(&pa, &pb, &pp).unwrap(),
                        oracle.mod_mul(&pa, &pb, &pp).unwrap(),
                        "a={a} b={b} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_exhaustive_small_odd_moduli() {
        for p in (3u64..=31).step_by(2) {
            let pp = UBig::from(p);
            let prep = PreparedMontgomery::new(&pp).unwrap();
            for a in 0..p {
                for b in 0..p {
                    assert_eq!(
                        prep.mod_mul(&UBig::from(a), &UBig::from(b)).unwrap(),
                        UBig::from(a * b % p),
                        "a={a} b={b} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_even_moduli() {
        let mut e = MontgomeryEngine::new();
        assert_eq!(
            e.mod_mul(&UBig::one(), &UBig::one(), &UBig::from(10u64)),
            Err(ModMulError::EvenModulus)
        );
        assert_eq!(
            e.prepare(&UBig::from(10u64)).err(),
            Some(ModMulError::EvenModulus)
        );
    }

    #[test]
    fn conversion_counter_advances() {
        let mut e = MontgomeryEngine::new();
        let p = UBig::from(97u64);
        e.mod_mul(&UBig::from(5u64), &UBig::from(6u64), &p).unwrap();
        assert_eq!(e.conversions, 3); // two in, one out
        e.mod_mul(&UBig::from(7u64), &UBig::from(8u64), &p).unwrap();
        assert_eq!(e.conversions, 6);
    }

    #[test]
    fn large_prime_cross_check() {
        let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        let a = &UBig::pow2(255) + &UBig::from(12345u64);
        let b = &UBig::pow2(200) + &UBig::from(6789u64);
        let mut e = MontgomeryEngine::new();
        assert_eq!(e.mod_mul(&a, &b, &p).unwrap(), &(&a * &b) % &p);
        let prep = PreparedMontgomery::new(&p).unwrap();
        assert_eq!(prep.mod_mul(&a, &b).unwrap(), &(&a * &b) % &p);
    }

    #[test]
    fn cache_reuse_across_moduli() {
        let mut e = MontgomeryEngine::new();
        let p1 = UBig::from(97u64);
        let p2 = UBig::from(101u64);
        assert_eq!(
            e.mod_mul(&UBig::from(50u64), &UBig::from(60u64), &p1)
                .unwrap(),
            UBig::from(50u64 * 60 % 97)
        );
        assert_eq!(
            e.mod_mul(&UBig::from(50u64), &UBig::from(60u64), &p2)
                .unwrap(),
            UBig::from(50u64 * 60 % 101)
        );
        assert_eq!(
            e.mod_mul(&UBig::from(3u64), &UBig::from(4u64), &p1)
                .unwrap(),
            UBig::from(12u64)
        );
    }

    #[test]
    fn modulus_one() {
        let mut e = MontgomeryEngine::new();
        assert_eq!(
            e.mod_mul(&UBig::from(5u64), &UBig::from(5u64), &UBig::one())
                .unwrap(),
            UBig::zero()
        );
        let prep = PreparedMontgomery::new(&UBig::one()).unwrap();
        assert_eq!(
            prep.mod_mul(&UBig::from(5u64), &UBig::from(5u64)).unwrap(),
            UBig::zero()
        );
    }

    #[test]
    fn fused_and_instrumented_paths_agree() {
        let p = UBig::from(0xffff_fffb_u64);
        let prep = PreparedMontgomery::new(&p).unwrap();
        let mut legacy = MontgomeryEngine::new();
        for (a, b) in [
            (1u64, 1u64),
            (12345, 67890),
            (0xffff_fffa, 0xffff_fffa),
            (0, 7),
        ] {
            let (a, b) = (UBig::from(a), UBig::from(b));
            assert_eq!(
                prep.mod_mul(&a, &b).unwrap(),
                legacy.mod_mul(&a, &b, &p).unwrap()
            );
        }
    }
}
