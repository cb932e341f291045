//! Carry-save primitives and the windowed sum/carry register pair.
//!
//! A carry-save adder compresses three addends into two words without any
//! carry propagation: `a + b + c = XOR3(a,b,c) + 2·MAJ(a,b,c)`. In
//! ModSRAM the `XOR3` and `MAJ` words are produced *inside the array* by
//! the logic-SA sense amplifiers; here they are word-level operations on
//! [`UBig`].

use modsram_bigint::UBig;

/// The redundant `(sum, carry)` accumulator of the R4CSA-LUT loop,
/// windowed to `width` bits exactly like the two SRAM rows that hold it.
///
/// Invariant: `sum < 2^width` and `carry < 2^width`. The represented value
/// is `sum + carry` (the carry word already includes its weight shift).
///
/// # Examples
///
/// ```
/// use modsram_modmul::CsaState;
/// use modsram_bigint::UBig;
///
/// let mut st = CsaState::new(6); // the paper's 5-bit example: n+1 = 6
/// let (ov, msb_out) = st.inject(&UBig::from(0b10010u64));
/// assert_eq!(ov, 0);
/// assert_eq!(msb_out, 0);
/// assert_eq!(st.value(), UBig::from(0b10010u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsaState {
    sum: UBig,
    carry: UBig,
    width: usize,
}

impl CsaState {
    /// Creates a zeroed accumulator with a `width`-bit window.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2` (the radix-4 shift needs at least two bits).
    pub fn new(width: usize) -> Self {
        // analyzer: allow(no_panic, constructor precondition documented under `# Panics`; engines build the window as n + 1 with n >= 1)
        assert!(width >= 2, "CSA window must be at least 2 bits");
        CsaState {
            sum: UBig::zero(),
            carry: UBig::zero(),
            width,
        }
    }

    /// Window width in bits (`n + 1` in the paper).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The sum word (contents of the `sum` SRAM row).
    pub fn sum(&self) -> &UBig {
        &self.sum
    }

    /// The carry word (contents of the `carry` SRAM row).
    pub fn carry(&self) -> &UBig {
        &self.carry
    }

    /// The represented value `sum + carry` (not reduced mod anything).
    pub fn value(&self) -> UBig {
        &self.sum + &self.carry
    }

    /// Sets the words directly (used by the SRAM-backed engine to mirror
    /// array contents).
    ///
    /// # Panics
    ///
    /// Panics if either word exceeds the window.
    pub fn set(&mut self, sum: UBig, carry: UBig) {
        // analyzer: allow(no_panic, precondition documented under `# Panics`; a setter for mirroring array rows that no engine calls per step)
        assert!(sum.bit_len() <= self.width, "sum wider than window");
        // analyzer: allow(no_panic, precondition documented under `# Panics`; a setter for mirroring array rows that no engine calls per step)
        assert!(carry.bit_len() <= self.width, "carry wider than window");
        self.sum = sum;
        self.carry = carry;
    }

    /// Algorithm 3 lines 4–5: shifts both words left by two (the radix-4
    /// `C ← 4·C`), returning `(overflow_sum, overflow_carry)` — the two
    /// 2-bit values that fall out of the window.
    pub fn shl2(&mut self) -> (u8, u8) {
        let ov_s = (&self.sum >> (self.width - 2)).low_u64() as u8;
        let ov_c = (&self.carry >> (self.width - 2)).low_u64() as u8;
        self.sum = (&self.sum << 2).low_bits(self.width);
        self.carry = (&self.carry << 2).low_bits(self.width);
        (ov_s, ov_c)
    }

    /// Radix-2 variant of [`Self::shl2`] for the carry-free engine's
    /// per-bit loop: `C ← 2·C`, returning the single bit shifted out of
    /// each word.
    pub fn shl1(&mut self) -> (u8, u8) {
        let ov_s = (&self.sum >> (self.width - 1)).low_u64() as u8;
        let ov_c = (&self.carry >> (self.width - 1)).low_u64() as u8;
        self.sum = (&self.sum << 1).low_bits(self.width);
        self.carry = (&self.carry << 1).low_bits(self.width);
        (ov_s, ov_c)
    }

    /// One carry-save injection (either LUT phase of Algorithm 3):
    ///
    /// 1. `XOR3(value, sum, carry)` → new sum,
    /// 2. `MAJ(value, sum, carry) << 1` → new carry,
    ///
    /// returning `(window_overflow, msb_out)` where `msb_out` is the bit of
    /// weight `2^width` shifted out of the carry word (always 0 or 1), and
    /// `window_overflow` is reserved for symmetry (always 0 here; the
    /// shift overflow is produced by [`Self::shl2`]).
    ///
    /// The exact identity maintained is
    /// `old_sum + old_carry + value = new_sum + new_carry + msb_out·2^width`.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the window.
    pub fn inject(&mut self, value: &UBig) -> (u8, u8) {
        // analyzer: allow(no_panic, precondition documented under `# Panics`; the engines inject LUT entries and operands reduced below p, which the window holds; a wider value would break the carry-save identity silently)
        assert!(
            value.bit_len() <= self.width,
            "injected value wider than window"
        );
        let x = UBig::xor3(value, &self.sum, &self.carry);
        let m = UBig::maj3(value, &self.sum, &self.carry);
        let m_shifted = &m << 1;
        let msb_out = m_shifted.bit(self.width) as u8;
        self.sum = x;
        self.carry = m_shifted.low_bits(self.width);
        (0, msb_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_preserves_total() {
        let mut st = CsaState::new(8);
        st.inject(&UBig::from(200u64));
        st.inject(&UBig::from(100u64));
        // 200 + 100 = 300 > 255: an msb_out must have been produced or the
        // total retained; track it manually.
        let mut st2 = CsaState::new(8);
        let mut escaped = 0u64;
        for v in [200u64, 100, 255, 1, 77] {
            let (_, msb) = st2.inject(&UBig::from(v));
            escaped += msb as u64 * 256;
        }
        assert_eq!(
            st2.value() + UBig::from(escaped),
            UBig::from(200u64 + 100 + 255 + 1 + 77)
        );
    }

    #[test]
    fn shl2_reports_dropped_bits() {
        let mut st = CsaState::new(4);
        st.inject(&UBig::from(0b1011u64));
        let (ov_s, ov_c) = st.shl2();
        // sum was 1011 -> shifted out bits are '10' (the top two).
        assert_eq!(ov_s, 0b10);
        assert_eq!(ov_c, 0);
        assert_eq!(st.sum(), &UBig::from(0b1100u64));
    }

    #[test]
    fn shl2_total_identity() {
        // 4*(s + c) == s' + c' + 2^w*(ov_s + ov_c) after the shift.
        let mut st = CsaState::new(6);
        st.inject(&UBig::from(0b101101u64));
        st.inject(&UBig::from(0b011011u64));
        let before = st.value();
        let (ov_s, ov_c) = st.shl2();
        let after = st.value() + (UBig::from((ov_s + ov_c) as u64) << 6);
        assert_eq!(after, &before << 2);
    }

    #[test]
    #[should_panic(expected = "wider than window")]
    fn inject_rejects_wide_values() {
        CsaState::new(4).inject(&UBig::from(16u64));
    }

    #[test]
    #[should_panic(expected = "at least 2 bits")]
    fn window_must_fit_radix4() {
        CsaState::new(1);
    }
}
