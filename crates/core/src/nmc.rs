//! Near-memory circuit model (§4.3): Booth encoder, overflow logic,
//! flip-flops, and shift write-back paths.
//!
//! The NMC is deliberately tiny — that is the paper's area story (11 % of
//! the macro). It holds three full-width flip-flops (multiplier, sum,
//! carry), a handful of overflow FFs, the radix-4 Booth encoder fed by
//! the top three bits of the multiplier FF, and the combinational logic
//! that assembles the overflow LUT index. Every flip-flop load increments
//! `register_writes` — the Figure 7 metric ModSRAM minimises.
//!
//! The flip-flops are little-endian `u64` limb words updated in place,
//! and the shifter is `shl_window`: the simulated datapath allocates
//! nothing per cycle.

use modsram_bigint::Radix4Digit;

/// Bit `pos` of a limb word (`false` beyond its end).
pub(crate) fn bit(words: &[u64], pos: usize) -> bool {
    words
        .get(pos / 64)
        .is_some_and(|w| (w >> (pos % 64)) & 1 == 1)
}

/// Sets bit `pos` of a limb word to `v` (no-op beyond its end).
pub(crate) fn set_bit(words: &mut [u64], pos: usize, v: bool) {
    if let Some(w) = words.get_mut(pos / 64) {
        let m = 1u64 << (pos % 64);
        if v {
            *w |= m;
        } else {
            *w &= !m;
        }
    }
}

/// The two bits at `pos` and `pos + 1` as a number in `0..4`.
pub(crate) fn two_bits(words: &[u64], pos: usize) -> u8 {
    bit(words, pos) as u8 | (bit(words, pos + 1) as u8) << 1
}

/// `dst ← (src ≪ bits) mod 2^window` for `bits < 64`, with `src`
/// zero-extended (or truncated) to `dst.len()` words.
pub(crate) fn shl_window(dst: &mut [u64], src: &[u64], bits: u32, window: usize) {
    let mut carry = 0u64;
    for (i, d) in dst.iter_mut().enumerate() {
        let s = src.get(i).copied().unwrap_or(0);
        *d = (s << bits) | carry;
        carry = s.checked_shr(64 - bits).unwrap_or(0);
    }
    for (i, d) in dst.iter_mut().enumerate() {
        let lo = i * 64;
        if lo >= window {
            *d = 0;
        } else if window - lo < 64 {
            *d &= (1u64 << (window - lo)) - 1;
        }
    }
}

/// Near-memory flip-flops and combinational helpers.
#[derive(Debug, Clone)]
pub struct Nmc {
    /// Register window width `W = n + 1`.
    width: usize,
    /// Multiplier FF, alignment window of `2k + 1` bits; the Booth
    /// encoder reads its top three bits and it shifts left by two every
    /// iteration (§4.3).
    mult_ff: Vec<u64>,
    /// Second buffer for the multiplier FF's shift (swapped per digit).
    mult_next: Vec<u64>,
    mult_window: usize,
    /// Sum FF: the `W`-bit XOR3 word latched from the sense amplifiers
    /// plus the MSB logic, as `W.div_ceil(64)` limbs.
    pub sum_ff: Vec<u64>,
    /// Carry FF: the `W`-bit MAJ word (before its structural `≪1`), as
    /// `W.div_ceil(64)` limbs.
    pub carry_ff: Vec<u64>,
    /// Shift-overflow FFs: the two bits that fell out of the sum row on
    /// the last shifted write-back.
    pub ov_sum_ff: u8,
    /// Shift-overflow FFs for the carry row.
    pub ov_carry_ff: u8,
    /// Deferred overflow-phase carry-out (weight `2^W` before the next
    /// shift).
    pub pending_ff: u8,
    /// Total flip-flop load operations.
    pub register_writes: u64,
}

impl Nmc {
    /// Creates the NMC for register window `width` (= n + 1).
    pub fn new(width: usize) -> Self {
        let words = width.div_ceil(64);
        Nmc {
            width,
            mult_ff: Vec::new(),
            mult_next: Vec::new(),
            mult_window: 0,
            sum_ff: vec![0; words],
            carry_ff: vec![0; words],
            ov_sum_ff: 0,
            ov_carry_ff: 0,
            pending_ff: 0,
            register_writes: 0,
        }
    }

    /// Loads the multiplier row fetched from SRAM (little-endian limbs)
    /// and aligns it for `k` Booth digits (one FF load).
    pub fn load_multiplier(&mut self, a: &[u64], k: usize) {
        // Booth digit i reads bits (2i+1, 2i, 2i−1) of A; shifting A left
        // by one makes that the top three bits of a 2k+1-bit window for
        // i = k−1.
        self.mult_window = 2 * k + 1;
        let words = self.mult_window.div_ceil(64);
        self.mult_ff.resize(words, 0);
        self.mult_next.resize(words, 0);
        shl_window(&mut self.mult_ff, a, 1, self.mult_window);
        self.register_writes += 1;
    }

    /// Booth-encodes the top three bits of the multiplier FF, then shifts
    /// the FF left by two for the next iteration (one FF load).
    pub fn next_digit(&mut self) -> Radix4Digit {
        let w = self.mult_window;
        let digit = Radix4Digit::encode(
            bit(&self.mult_ff, w.saturating_sub(1)),
            bit(&self.mult_ff, w.saturating_sub(2)),
            bit(&self.mult_ff, w.saturating_sub(3)),
        );
        shl_window(&mut self.mult_next, &self.mult_ff, 2, w);
        std::mem::swap(&mut self.mult_ff, &mut self.mult_next);
        self.register_writes += 1;
        digit
    }

    /// Latches the sense-amplifier column words plus the bit-`n` outputs
    /// of the NMC's top-bit logic into the sum/carry FFs — two FF loads.
    /// Columns are `n` bits wide, so the column words carry nothing at
    /// or above bit `n`.
    pub fn latch_sense(&mut self, xor: &[u64], maj: &[u64], xor_msb: bool, maj_msb: bool) {
        let n = self.width - 1;
        for (ff, cols, msb) in [
            (&mut self.sum_ff, xor, xor_msb),
            (&mut self.carry_ff, maj, maj_msb),
        ] {
            shl_window(ff, cols, 0, n);
            set_bit(ff, n, msb);
        }
        self.register_writes += 2;
    }

    /// The combinational overflow word (Alg. 3 line 6):
    /// `ov_sum + ov_carry + csa1_msb_out + 4·pending`, consuming the FFs.
    pub fn take_overflow_index(&mut self, csa1_msb_out: u8) -> usize {
        let ov = self.ov_sum_ff as usize
            + self.ov_carry_ff as usize
            + csa1_msb_out as usize
            + 4 * self.pending_ff as usize;
        self.ov_sum_ff = 0;
        self.ov_carry_ff = 0;
        self.pending_ff = 0;
        ov
    }

    /// Stores the two shifted-out bits of a shifted sum write-back (one
    /// small-FF load).
    pub fn set_ov_sum(&mut self, bits: u8) {
        self.ov_sum_ff = bits;
        self.register_writes += 1;
    }

    /// Stores the two shifted-out bits of a shifted carry write-back.
    pub fn set_ov_carry(&mut self, bits: u8) {
        self.ov_carry_ff = bits;
        self.register_writes += 1;
    }

    /// Stores the deferred overflow-phase carry-out.
    pub fn set_pending(&mut self, bit: u8) {
        self.pending_ff = bit;
        self.register_writes += 1;
    }

    /// Register window width.
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsram_bigint::{radix4_digits_msb_first, UBig};

    #[test]
    fn booth_ff_reproduces_recoder() {
        // The shift-by-two FF datapath must produce the same digit stream
        // as the offline recoder.
        for a in [0u64, 1, 21, 0b10101, 0xdead_beef, u64::MAX] {
            let big = UBig::from(a);
            let n = big.bit_len().max(1);
            let digits = radix4_digits_msb_first(&big, n);
            let mut nmc = Nmc::new(n + 1);
            nmc.load_multiplier(big.limbs(), digits.len());
            for (i, want) in digits.iter().enumerate() {
                assert_eq!(nmc.next_digit(), *want, "a={a} digit {i}");
            }
        }
    }

    #[test]
    fn overflow_index_assembly() {
        let mut nmc = Nmc::new(10);
        nmc.set_ov_sum(3);
        nmc.set_ov_carry(2);
        nmc.set_pending(1);
        assert_eq!(nmc.take_overflow_index(1), 3 + 2 + 1 + 4);
        // Consumed after use.
        assert_eq!(nmc.take_overflow_index(0), 0);
    }

    #[test]
    fn register_writes_are_counted() {
        let mut nmc = Nmc::new(10);
        nmc.load_multiplier(&[5], 2);
        nmc.next_digit();
        nmc.latch_sense(&[], &[], false, false);
        nmc.set_ov_sum(0);
        nmc.set_ov_carry(0);
        nmc.set_pending(0);
        assert_eq!(nmc.register_writes, 1 + 1 + 2 + 1 + 1 + 1);
    }
}
