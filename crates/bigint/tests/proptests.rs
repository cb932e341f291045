//! Property-based tests for the big-integer substrate.
//!
//! Strategy: generate random limb vectors of varied lengths and check ring
//! axioms, division identities, parsing roundtrips, Booth recoding value
//! preservation, and Montgomery/naive agreement.

use modsram_bigint::{
    mod_inv, mod_mul, mod_pow, mont_mul_limbs, neg_inv64, radix4_digits_msb_first,
    radix8_digits_msb_first, MontCtx256, UBig, U256,
};
use proptest::prelude::*;

fn ubig_strategy(max_limbs: usize) -> impl Strategy<Value = UBig> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(UBig::from_limbs)
}

fn nonzero_ubig(max_limbs: usize) -> impl Strategy<Value = UBig> {
    ubig_strategy(max_limbs).prop_map(|v| if v.is_zero() { UBig::one() } else { v })
}

/// An odd modulus of 1–32 limbs whose top limb keeps only its low
/// `top_bits` bits (1..=64), so partial top limbs such as 65-bit and
/// 2047-bit moduli are drawn as often as full ones.
fn odd_modulus() -> impl Strategy<Value = UBig> {
    (prop::collection::vec(any::<u64>(), 1..=32), 1u32..=64).prop_map(|(mut limbs, top_bits)| {
        let top = limbs.len() - 1;
        limbs[top] = (limbs[top] >> (64 - top_bits)) | (1 << (top_bits - 1));
        limbs[0] |= 1;
        UBig::from_limbs(limbs)
    })
}

/// `a·b mod p` through [`mont_mul_limbs`] at `p`'s limb width: enter
/// Montgomery form with `REDC(a·R²)`, then `REDC(aR·b) = a·b mod p`.
fn slice_mont_mul(a: &UBig, b: &UBig, p: &UBig) -> UBig {
    let w = p.limbs().len();
    let padded = |v: &UBig| {
        let mut limbs = v.limbs().to_vec();
        limbs.resize(w, 0);
        limbs
    };
    let r2 = padded(&(&UBig::pow2(128 * w) % p));
    let n0 = neg_inv64(p.limbs()[0]);
    let (mut ar, mut ab, mut t) = (vec![0; w], vec![0; w], vec![0; w + 2]);
    mont_mul_limbs(&mut ar, &padded(a), &r2, p.limbs(), n0, &mut t);
    mont_mul_limbs(&mut ab, &ar, &padded(b), p.limbs(), n0, &mut t);
    UBig::from_limbs(ab)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in ubig_strategy(6), b in ubig_strategy(6)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in ubig_strategy(5), b in ubig_strategy(5), c in ubig_strategy(5)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in ubig_strategy(5), b in ubig_strategy(5)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in ubig_strategy(4), b in ubig_strategy(4), c in ubig_strategy(4)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in ubig_strategy(6), b in ubig_strategy(6)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn division_identity(u in ubig_strategy(8), v in nonzero_ubig(5)) {
        let q = &u / &v;
        let r = &u % &v;
        prop_assert!(r < v);
        prop_assert_eq!(&(&q * &v) + &r, u);
    }

    #[test]
    fn shift_mul_equivalence(a in ubig_strategy(4), k in 0usize..200) {
        prop_assert_eq!(&a << k, &a * &UBig::pow2(k));
    }

    #[test]
    fn shr_is_division_by_pow2(a in ubig_strategy(6), k in 0usize..200) {
        prop_assert_eq!(&a >> k, &a / &UBig::pow2(k));
    }

    #[test]
    fn hex_roundtrip(a in ubig_strategy(6)) {
        prop_assert_eq!(UBig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn dec_roundtrip(a in ubig_strategy(6)) {
        prop_assert_eq!(UBig::from_dec(&a.to_dec()).unwrap(), a);
    }

    #[test]
    fn low_bits_is_mod_pow2(a in ubig_strategy(6), k in 0usize..300) {
        prop_assert_eq!(a.low_bits(k), &a % &UBig::pow2(k));
    }

    #[test]
    fn csa_identity_wordwise(a in ubig_strategy(5), b in ubig_strategy(5), c in ubig_strategy(5)) {
        // a + b + c == xor3(a,b,c) + 2*maj3(a,b,c) — the carry-save identity
        // the whole ModSRAM design rests on.
        let x = UBig::xor3(&a, &b, &c);
        let m = UBig::maj3(&a, &b, &c);
        prop_assert_eq!(&(&a + &b) + &c, &x + &(&m << 1));
    }

    #[test]
    fn booth_radix4_preserves_value(a in ubig_strategy(5)) {
        let n = a.bit_len().max(1);
        let digits = radix4_digits_msb_first(&a, n);
        let mut pos = UBig::zero();
        let mut neg = UBig::zero();
        for d in &digits {
            pos = &pos * &UBig::from(4u64);
            neg = &neg * &UBig::from(4u64);
            let v = d.value();
            if v >= 0 { pos = &pos + &UBig::from(v as u64); }
            else { neg = &neg + &UBig::from((-v) as u64); }
        }
        prop_assert!(pos >= neg);
        prop_assert_eq!(&pos - &neg, a);
    }

    #[test]
    fn booth_radix8_preserves_value(a in ubig_strategy(5)) {
        let n = a.bit_len().max(1);
        let digits = radix8_digits_msb_first(&a, n);
        let mut pos = UBig::zero();
        let mut neg = UBig::zero();
        for d in &digits {
            pos = &pos * &UBig::from(8u64);
            neg = &neg * &UBig::from(8u64);
            let v = d.value();
            if v >= 0 { pos = &pos + &UBig::from(v as u64); }
            else { neg = &neg + &UBig::from((-v) as u64); }
        }
        prop_assert!(pos >= neg);
        prop_assert_eq!(&pos - &neg, a);
    }

    #[test]
    fn mod_pow_add_exponents(
        base in ubig_strategy(3),
        e1 in 0u64..50,
        e2 in 0u64..50,
        p in nonzero_ubig(3),
    ) {
        // base^(e1+e2) == base^e1 * base^e2 (mod p)
        let lhs = mod_pow(&base, &UBig::from(e1 + e2), &p);
        let a = mod_pow(&base, &UBig::from(e1), &p);
        let b = mod_pow(&base, &UBig::from(e2), &p);
        prop_assert_eq!(lhs, mod_mul(&a, &b, &p));
    }

    #[test]
    fn mont_matches_naive(a_limbs in prop::collection::vec(any::<u64>(), 4), b_limbs in prop::collection::vec(any::<u64>(), 4)) {
        // secp256k1 prime.
        let p = UBig::from_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        ).unwrap();
        let ctx = MontCtx256::new(&p).unwrap();
        let a = &UBig::from_limbs(a_limbs) % &p;
        let b = &UBig::from_limbs(b_limbs) % &p;
        let am = ctx.to_mont(&U256::try_from(&a).unwrap());
        let bm = ctx.to_mont(&U256::try_from(&b).unwrap());
        let got = UBig::from(ctx.from_mont(&ctx.mont_mul(&am, &bm)));
        prop_assert_eq!(got, mod_mul(&a, &b, &p));
    }

    #[test]
    fn mont_mul_limbs_matches_mod_mul(
        p in odd_modulus(),
        a in ubig_strategy(32),
        b in ubig_strategy(32),
    ) {
        let (a, b) = (&a % &p, &b % &p);
        prop_assert_eq!(slice_mont_mul(&a, &b, &p), mod_mul(&a, &b, &p), "p={:?}", p);
    }

    #[test]
    fn mod_inv_is_inverse(a in nonzero_ubig(3)) {
        // Work modulo a prime so every non-zero residue is invertible.
        let p = UBig::from(0xffff_fffb_u64); // 4294967291, largest 32-bit prime
        let a = &a % &p;
        if !a.is_zero() {
            let inv = mod_inv(&a, &p).unwrap();
            prop_assert_eq!(mod_mul(&a, &inv, &p), UBig::one());
        }
    }
}

#[test]
fn mont_mul_limbs_single_limb_edge() {
    // p = 2⁶⁴ − 59, the largest 64-bit prime: every intermediate sits at
    // the top of the limb, including p − 1 squared.
    let p = UBig::from(u64::MAX - 58);
    for (a, b) in [
        (0, 0),
        (1, 1),
        (u64::MAX - 59, u64::MAX - 59),
        (2, u64::MAX - 60),
    ] {
        let (a, b) = (UBig::from(a), UBig::from(b));
        assert_eq!(slice_mont_mul(&a, &b, &p), mod_mul(&a, &b, &p));
    }
}

#[test]
fn mont_ctx256_is_the_slice_routine() {
    let p =
        UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap();
    // (p − 1)² drives every carry limb, the overflow limb included.
    let top = &p - &UBig::one();
    assert_eq!(slice_mont_mul(&top, &top, &p), mod_mul(&top, &top, &p));
    let ctx = MontCtx256::new(&p).unwrap();
    let n0 = neg_inv64(p.limbs()[0]);
    let mut x = U256::try_from(&top).unwrap();
    for _ in 0..64 {
        let y = ctx.add_mod(&ctx.mont_square(&x), &U256::from_u64(7));
        let mut got = U256::ZERO;
        mont_mul_limbs(&mut got.0, &x.0, &y.0, &ctx.modulus().0, n0, &mut [0; 6]);
        assert_eq!(ctx.mont_mul(&x, &y), got);
        x = y;
    }
}
