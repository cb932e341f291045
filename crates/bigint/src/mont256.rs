//! Montgomery multiplication: the workspace's one CIOS kernel and the
//! 256-bit context built on it.
//!
//! This is the *software baseline* the paper contrasts with its direct-form
//! algorithm (§3: Montgomery reduction avoids carry-propagating division but
//! pays conversion costs), and the throughput engine behind the ECC/MSM/NTT
//! workloads of Figure 7.
//!
//! [`mont_mul_limbs`] is the only Montgomery product in the workspace:
//! [`MontCtx256`] calls it on `[u64; 4]` arrays (so the width is a
//! compile-time constant after inlining), and the arbitrary-width
//! `montgomery` engine of `modsram-modmul` calls it on heap limb buffers.

use core::cmp::Ordering;
use core::fmt;

use crate::{UBig, U256};

/// `−p₀⁻¹ mod 2⁶⁴` for odd `p₀`: the Montgomery constant `n0` of
/// [`mont_mul_limbs`] (Dusse–Kaliski, inverted by Newton iteration).
///
/// # Examples
///
/// ```
/// use modsram_bigint::neg_inv64;
///
/// let p0 = 0xffff_fffe_ffff_fc2f_u64; // secp256k1's low limb
/// assert_eq!(p0.wrapping_mul(neg_inv64(p0)), u64::MAX); // p₀·n0 ≡ −1
/// ```
pub fn neg_inv64(p0: u64) -> u64 {
    debug_assert!(p0 & 1 == 1, "Montgomery needs an odd modulus");
    let mut inv = p0; // p₀·p₀ ≡ 1 mod 8: correct to 3 bits
    for _ in 0..5 {
        // Each step doubles the number of correct low bits: 3 → 96.
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// CIOS Montgomery product on little-endian limb slices:
/// `out = a·b·2^(−64w) mod p`, where the width `w` is `p.len()`.
///
/// Preconditions: `p` is odd, `n0 = neg_inv64(p[0])`, `a < p` and
/// `b < 2^(64w)` (or the other way round), `a`, `b` and `out` hold `w`
/// limbs, and `scratch` holds at least `w + 2`. The output is below `p`.
///
/// # Panics
///
/// Panics if a slice is shorter than the width requires.
///
/// # Examples
///
/// ```
/// use modsram_bigint::{mont_mul_limbs, neg_inv64};
///
/// // One limb, p = 2⁶⁴ − 59: REDC(x·R²) = x·R mod p, then REDC(xR·y) = x·y mod p.
/// let p = [u64::MAX - 58];
/// let r2 = [3481]; // (2⁶⁴)² ≡ 59² (mod p)
/// let (n0, mut t) = (neg_inv64(p[0]), [0u64; 3]);
/// let (mut xr, mut xy) = ([0u64], [0u64]);
/// mont_mul_limbs(&mut xr, &[6], &r2, &p, n0, &mut t);
/// mont_mul_limbs(&mut xy, &xr, &[7], &p, n0, &mut t);
/// assert_eq!(xy, [42]);
/// ```
#[inline]
pub fn mont_mul_limbs(
    out: &mut [u64],
    a: &[u64],
    b: &[u64],
    p: &[u64],
    n0: u64,
    scratch: &mut [u64],
) {
    let w = p.len();
    let (b, out) = (&b[..w], &mut out[..w]);
    let t = &mut scratch[..w + 2];
    t.fill(0);
    for &ai in &a[..w] {
        // t += ai · b
        let mut carry = 0u64;
        for (tj, &bj) in t.iter_mut().zip(b) {
            let s = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
            *tj = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[w] as u128 + carry as u128;
        t[w] = s as u64;
        t[w + 1] = (s >> 64) as u64;

        // m = t[0] · n0 mod 2⁶⁴; t = (t + m·p) / 2⁶⁴ (t[0] + m·p[0] ≡ 0)
        let m = t[0].wrapping_mul(n0) as u128;
        let mut carry = ((t[0] as u128 + m * p[0] as u128) >> 64) as u64;
        for j in 1..w {
            let s = t[j] as u128 + m * p[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[w] as u128 + carry as u128;
        t[w - 1] = s as u64;
        t[w] = t[w + 1] + (s >> 64) as u64;
    }
    // t < 2p: one conditional subtraction, the borrow absorbed by t[w].
    let (r, overflow) = t.split_at(w);
    if overflow[0] != 0 || r.iter().rev().cmp(p.iter().rev()) != Ordering::Less {
        let mut borrow = false;
        for ((o, &ri), &pi) in out.iter_mut().zip(r).zip(p) {
            let (d1, b1) = ri.overflowing_sub(pi);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *o = d2;
            borrow = b1 | b2;
        }
    } else {
        out.copy_from_slice(r);
    }
}

/// Precomputed constants for CIOS Montgomery multiplication modulo an odd
/// 256-bit prime-like modulus `p`.
///
/// # Examples
///
/// ```
/// use modsram_bigint::{MontCtx256, U256, UBig};
///
/// let p = UBig::from(101u64);
/// let ctx = MontCtx256::new(&p).unwrap();
/// let a = ctx.to_mont(&U256::from_u64(55));
/// let b = ctx.to_mont(&U256::from_u64(44));
/// let c = ctx.from_mont(&ctx.mont_mul(&a, &b));
/// assert_eq!(UBig::from(c), UBig::from((55u64 * 44) % 101));
/// ```
#[derive(Clone)]
pub struct MontCtx256 {
    p: U256,
    /// `-p⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `2²⁵⁶ mod p` (the Montgomery form of 1).
    r1: U256,
    /// `2⁵¹² mod p` (used to enter Montgomery form).
    r2: U256,
}

/// Error returned by [`MontCtx256::new`] for unusable moduli.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MontError {
    /// Montgomery reduction requires an odd modulus.
    EvenModulus,
    /// The modulus must be greater than one.
    TooSmall,
    /// The modulus must fit in 256 bits.
    TooLarge,
}

impl fmt::Display for MontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontError::EvenModulus => write!(f, "modulus must be odd"),
            MontError::TooSmall => write!(f, "modulus must be greater than one"),
            MontError::TooLarge => write!(f, "modulus must fit in 256 bits"),
        }
    }
}

impl std::error::Error for MontError {}

impl MontCtx256 {
    /// Builds a context for modulus `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MontError`] if `p` is even, `p ≤ 1`, or `p ≥ 2²⁵⁶`.
    pub fn new(p: &UBig) -> Result<Self, MontError> {
        if p.is_even() {
            return Err(MontError::EvenModulus);
        }
        if p.is_one() || p.is_zero() {
            return Err(MontError::TooSmall);
        }
        let pw = U256::try_from(p).map_err(|_| MontError::TooLarge)?;
        // Both residues are below p < 2²⁵⁶, so the conversions cannot fail.
        let r1 = U256::try_from(&(&UBig::pow2(256) % p)).map_err(|_| MontError::TooLarge)?;
        let r2 = U256::try_from(&(&UBig::pow2(512) % p)).map_err(|_| MontError::TooLarge)?;
        Ok(MontCtx256 {
            p: pw,
            n0: neg_inv64(pw.0[0]),
            r1,
            r2,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &U256 {
        &self.p
    }

    /// The Montgomery form of 1 (i.e. `2²⁵⁶ mod p`).
    pub fn one_mont(&self) -> U256 {
        self.r1
    }

    /// Converts a canonical value (`< p`) into Montgomery form.
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts a Montgomery-form value back to canonical form.
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// CIOS Montgomery product `a·b·2⁻²⁵⁶ mod p` ([`mont_mul_limbs`] at
    /// width 4).
    ///
    /// Inputs must be below `p`; the output is below `p`.
    pub fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        let mut out = U256::ZERO;
        mont_mul_limbs(&mut out.0, &a.0, &b.0, &self.p.0, self.n0, &mut [0u64; 6]);
        out
    }

    /// Montgomery squaring (delegates to [`Self::mont_mul`]).
    pub fn mont_square(&self, a: &U256) -> U256 {
        self.mont_mul(a, a)
    }

    /// `a + b mod p` on canonical or Montgomery-form values (`< p`).
    pub fn add_mod(&self, a: &U256, b: &U256) -> U256 {
        let (s, carry) = a.overflowing_add(b);
        if carry || s >= self.p {
            s.wrapping_sub(&self.p)
        } else {
            s
        }
    }

    /// `a - b mod p` on canonical or Montgomery-form values (`< p`).
    pub fn sub_mod(&self, a: &U256, b: &U256) -> U256 {
        let (d, borrow) = a.overflowing_sub(b);
        if borrow {
            d.overflowing_add(&self.p).0
        } else {
            d
        }
    }

    /// `-a mod p`.
    pub fn neg_mod(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.p.wrapping_sub(a)
        }
    }

    /// `a^e mod p` with `a` in Montgomery form; the result stays in
    /// Montgomery form.
    pub fn mont_pow(&self, a: &U256, e: &UBig) -> U256 {
        let mut acc = self.one_mont();
        for i in (0..e.bit_len()).rev() {
            acc = self.mont_square(&acc);
            if e.bit(i) {
                acc = self.mont_mul(&acc, a);
            }
        }
        acc
    }

    /// Inverse in Montgomery form via Fermat's little theorem
    /// (`a^(p-2)`); valid only for prime `p`. Returns `None` for zero.
    pub fn mont_inv(&self, a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        let e = &UBig::from(self.p) - &UBig::from(2u64);
        Some(self.mont_pow(a, &e))
    }
}

impl fmt::Debug for MontCtx256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MontCtx256 {{ p: {:?} }}", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mod_mul;

    const SECP_P: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";

    fn secp_ctx() -> MontCtx256 {
        MontCtx256::new(&UBig::from_hex(SECP_P).unwrap()).unwrap()
    }

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(
            MontCtx256::new(&UBig::from(10u64)).err(),
            Some(MontError::EvenModulus)
        );
        assert_eq!(
            MontCtx256::new(&UBig::one()).err(),
            Some(MontError::TooSmall)
        );
        assert_eq!(
            MontCtx256::new(&(UBig::pow2(256) + UBig::one())).err(),
            Some(MontError::TooLarge)
        );
    }

    #[test]
    fn small_modulus_matches_naive() {
        let p = UBig::from(101u64);
        let ctx = MontCtx256::new(&p).unwrap();
        for a in 0..101u64 {
            for b in (0..101u64).step_by(7) {
                let am = ctx.to_mont(&U256::from_u64(a));
                let bm = ctx.to_mont(&U256::from_u64(b));
                let c = ctx.from_mont(&ctx.mont_mul(&am, &bm));
                assert_eq!(UBig::from(c), UBig::from((a * b) % 101));
            }
        }
    }

    #[test]
    fn secp256k1_cross_check() {
        let p = UBig::from_hex(SECP_P).unwrap();
        let ctx = secp_ctx();
        let mut x = UBig::from(0x1234_5678_9abc_def1u64);
        for _ in 0..50 {
            // Deterministic pseudo-random walk below p.
            x = &(&x * &x + UBig::from(7u64)) % &p;
            let y = &(&x * &UBig::from(3u64) + UBig::one()) % &p;
            let a = U256::try_from(&x).unwrap();
            let b = U256::try_from(&y).unwrap();
            let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(UBig::from(got), mod_mul(&x, &y, &p));
        }
    }

    #[test]
    fn add_sub_neg_mod() {
        let ctx = secp_ctx();
        let p = UBig::from(*ctx.modulus());
        let a = U256::try_from(&(&p - &UBig::one())).unwrap();
        let b = U256::from_u64(5);
        // (p-1) + 5 ≡ 4
        assert_eq!(UBig::from(ctx.add_mod(&a, &b)), UBig::from(4u64));
        // 5 - (p-1) ≡ 6
        assert_eq!(UBig::from(ctx.sub_mod(&b, &a)), UBig::from(6u64));
        assert_eq!(UBig::from(ctx.neg_mod(&b)), &p - &UBig::from(5u64));
        assert_eq!(ctx.neg_mod(&U256::ZERO), U256::ZERO);
    }

    #[test]
    fn inverse_via_fermat() {
        let ctx = secp_ctx();
        let a = ctx.to_mont(&U256::from_u64(123_456_789));
        let inv = ctx.mont_inv(&a).unwrap();
        let prod = ctx.mont_mul(&a, &inv);
        assert_eq!(prod, ctx.one_mont());
        assert_eq!(ctx.mont_inv(&U256::ZERO), None);
    }

    #[test]
    fn one_roundtrip() {
        let ctx = secp_ctx();
        assert_eq!(ctx.from_mont(&ctx.one_mont()), U256::ONE);
        assert_eq!(ctx.to_mont(&U256::ONE), ctx.one_mont());
        assert_eq!(ctx.to_mont(&U256::ZERO), U256::ZERO);
    }
}
