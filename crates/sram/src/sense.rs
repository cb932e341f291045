//! The logic-SA sense model.
//!
//! Three read wordlines discharge each read bitline in proportion to the
//! number of conducting read stacks `k ∈ {0,1,2,3}`. Three latch-type
//! sense amplifiers per column compare the bitline against references
//! placed between adjacent levels (Figure 2 of the paper, after
//! Sridharan et al.):
//!
//! ```text
//! SA₁ fires ⟺ k ≥ 1   (OR3)
//! SA₂ fires ⟺ k ≥ 2   (MAJ)
//! SA₃ fires ⟺ k ≥ 3   (AND3)
//! XOR3 = SA₁ ⊕ SA₂ ⊕ SA₃  (parity of k)
//! ```
//!
//! With a non-zero sense-amplifier offset `σ` (in units of one level
//! separation), each comparison is perturbed by Gaussian noise — the
//! Monte-Carlo knob behind the robustness study.

use rand::rngs::SmallRng;
use rand::Rng;

/// Decoded outputs of one multi-row activation, one packed word vector
/// per logic function.
///
/// [`crate::SramArray::activate_into`] resizes and overwrites every
/// field, so one (possibly [`Default`]) value can be reused across
/// activations without reallocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SenseOut {
    /// `OR` of the activated rows (SA₁).
    pub or: Vec<u64>,
    /// Bitwise majority (SA₂) — the CSA carry word.
    pub maj: Vec<u64>,
    /// `AND` of the activated rows (SA₃).
    pub and: Vec<u64>,
    /// 3-input `XOR` (SA parity) — the CSA sum word.
    pub xor: Vec<u64>,
    /// Number of valid columns.
    pub cols: usize,
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Senses every column given three (zero-padded) row word vectors,
/// overwriting `out` (its vectors are resized to the row width and
/// keep their capacity).
pub(crate) fn sense_columns(
    r0: &[u64],
    r1: &[u64],
    r2: &[u64],
    cols: usize,
    sa_offset_sigma: f64,
    rng: &mut SmallRng,
    out: &mut SenseOut,
) {
    let words = r0.len();
    for v in [&mut out.or, &mut out.maj, &mut out.and, &mut out.xor] {
        v.resize(words, 0);
    }
    out.cols = cols;

    if sa_offset_sigma == 0.0 {
        // Ideal sensing reduces to exact bitwise logic.
        let rows = r0.iter().zip(r1).zip(r2);
        let outs = out
            .or
            .iter_mut()
            .zip(&mut out.maj)
            .zip(&mut out.and)
            .zip(&mut out.xor);
        for (((a, b), c), (((or, maj), and), xor)) in rows.zip(outs) {
            *or = a | b | c;
            *maj = (a & b) | (a & c) | (b & c);
            *and = a & b & c;
            *xor = a ^ b ^ c;
        }
        return;
    }
    for v in [&mut out.or, &mut out.maj, &mut out.and, &mut out.xor] {
        v.fill(0);
    }

    // Noisy sensing: per column, per SA, threshold comparison with a
    // Gaussian offset in units of the level separation.
    for col in 0..cols {
        let w = col / 64;
        let b = col % 64;
        let k = ((r0[w] >> b) & 1) + ((r1[w] >> b) & 1) + ((r2[w] >> b) & 1);
        let mut sa = [false; 3];
        for (i, s) in sa.iter_mut().enumerate() {
            let threshold = i as f64 + 0.5; // between level i and i+1
            let noisy_level = k as f64 + gaussian(rng) * sa_offset_sigma;
            *s = noisy_level > threshold;
        }
        if sa[0] {
            out.or[w] |= 1 << b;
        }
        if sa[1] {
            out.maj[w] |= 1 << b;
        }
        if sa[2] {
            out.and[w] |= 1 << b;
        }
        if sa[0] ^ sa[1] ^ sa[2] {
            out.xor[w] |= 1 << b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sense(
        r0: &[u64],
        r1: &[u64],
        r2: &[u64],
        cols: usize,
        sigma: f64,
        rng: &mut SmallRng,
    ) -> SenseOut {
        let mut out = SenseOut::default();
        sense_columns(r0, r1, r2, cols, sigma, rng, &mut out);
        out
    }

    #[test]
    fn ideal_sense_truth_table() {
        let mut rng = SmallRng::seed_from_u64(0);
        // All 8 combinations in the low 8 bits.
        let r0 = [0b1111_0000u64];
        let r1 = [0b1100_1100u64];
        let r2 = [0b1010_1010u64];
        let out = sense(&r0, &r1, &r2, 8, 0.0, &mut rng);
        for col in 0..8 {
            let k = ((r0[0] >> col) & 1) + ((r1[0] >> col) & 1) + ((r2[0] >> col) & 1);
            assert_eq!((out.or[0] >> col) & 1, (k >= 1) as u64, "or col {col}");
            assert_eq!((out.maj[0] >> col) & 1, (k >= 2) as u64, "maj col {col}");
            assert_eq!((out.and[0] >> col) & 1, (k >= 3) as u64, "and col {col}");
            assert_eq!((out.xor[0] >> col) & 1, k % 2, "xor col {col}");
        }
    }

    #[test]
    fn tiny_noise_is_harmless() {
        let mut rng = SmallRng::seed_from_u64(42);
        let r0 = [0x0123_4567_89ab_cdefu64];
        let r1 = [0xfedc_ba98_7654_3210u64];
        let r2 = [0xaaaa_5555_aaaa_5555u64];
        let ideal = sense(&r0, &r1, &r2, 64, 0.0, &mut rng);
        let noisy = sense(&r0, &r1, &r2, 64, 1e-9, &mut rng);
        assert_eq!(ideal, noisy);
    }

    #[test]
    fn heavy_noise_corrupts_decisions() {
        let mut rng = SmallRng::seed_from_u64(42);
        let r0 = [u64::MAX];
        let r1 = [0u64];
        let r2 = [0u64];
        // σ = 2 level separations: decisions are near-random.
        let noisy = sense(&r0, &r1, &r2, 64, 2.0, &mut rng);
        assert_ne!(noisy.xor[0], u64::MAX, "noise should break some columns");
    }

    #[test]
    fn noise_error_rate_is_monotonic_in_sigma() {
        // Count wrong XOR3 bits across many trials at increasing σ.
        let r0 = [0x5555_5555_5555_5555u64];
        let r1 = [0x3333_3333_3333_3333u64];
        let r2 = [0x0f0f_0f0f_0f0f_0f0fu64];
        let ideal_xor = r0[0] ^ r1[0] ^ r2[0];
        let mut rates = Vec::new();
        for (i, sigma) in [0.05f64, 0.3, 1.0].iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(1000 + i as u64);
            let mut wrong = 0u32;
            for _ in 0..50 {
                let out = sense(&r0, &r1, &r2, 64, *sigma, &mut rng);
                wrong += (out.xor[0] ^ ideal_xor).count_ones();
            }
            rates.push(wrong);
        }
        assert!(rates[0] <= rates[1] && rates[1] <= rates[2], "{rates:?}");
        assert_eq!(rates[0], 0, "σ=0.05 should sense cleanly");
    }
}
