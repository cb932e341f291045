//! The SRAM array model: storage, ports, and multi-row activation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::energy::EnergyParams;
use crate::fault::FaultConfig;
use crate::sense::{sense_columns, SenseOut};
use crate::stats::SramStats;
use crate::trace::{Event, OpKind};

/// SRAM bit-cell flavour.
///
/// The paper uses 8T cells (decoupled read port) precisely because
/// activating three wordlines on 6T cells lets the bitline voltage
/// disturb the stored values; the 6T variant exists here to reproduce
/// that failure mode in simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellKind {
    /// 8T cell: separate read stack; reads never disturb (the design
    /// point of §4.2).
    #[default]
    EightT,
    /// 6T cell: shared read/write port; multi-row activation may flip
    /// cells (probability per activated 1-cell set by
    /// [`FaultConfig::disturb_per_cell`]).
    SixT,
}

/// Static configuration of an [`SramArray`].
#[derive(Debug, Clone)]
pub struct SramConfig {
    /// Number of wordlines.
    pub rows: usize,
    /// Number of bit columns.
    pub cols: usize,
    /// Bit-cell flavour.
    pub cell: CellKind,
    /// Fault-injection knobs (all off by default).
    pub fault: FaultConfig,
    /// Energy constants for the accounting model.
    pub energy: EnergyParams,
}

impl SramConfig {
    /// The paper's macro: 64 wordlines × 256 columns of 8T cells.
    pub fn modsram_64x256() -> Self {
        SramConfig {
            rows: 64,
            cols: 256,
            cell: CellKind::EightT,
            fault: FaultConfig::default(),
            energy: EnergyParams::tsmc65(),
        }
    }

    /// An arbitrary ideal 8T array.
    pub fn ideal(rows: usize, cols: usize) -> Self {
        SramConfig {
            rows,
            cols,
            cell: CellKind::EightT,
            fault: FaultConfig::default(),
            energy: EnergyParams::tsmc65(),
        }
    }
}

/// A simulated SRAM array with processing-in-memory read support.
///
/// Rows are stored as packed little-endian `u64` words
/// (`cols.div_ceil(64)` words per row); bits beyond `cols` are always
/// zero.
#[derive(Debug, Clone)]
pub struct SramArray {
    config: SramConfig,
    words_per_row: usize,
    data: Vec<u64>,
    /// Three rows of staging words reused by every activation (the
    /// activated rows after stuck-at faults, zero-padded to three).
    scratch: Vec<u64>,
    stats: SramStats,
    rng: SmallRng,
    trace: Option<Vec<Event>>,
}

impl SramArray {
    /// Creates a zero-initialised array.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(config: SramConfig) -> Self {
        assert!(config.rows > 0, "array must have at least one row");
        assert!(config.cols > 0, "array must have at least one column");
        let words_per_row = config.cols.div_ceil(64);
        let rng = SmallRng::seed_from_u64(config.fault.seed);
        SramArray {
            words_per_row,
            data: vec![0; config.rows * words_per_row],
            scratch: vec![0; 3 * words_per_row],
            stats: SramStats::default(),
            rng,
            config,
            trace: None,
        }
    }

    /// The array configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Words per row (`cols.div_ceil(64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Access and energy counters accumulated so far.
    pub fn stats(&self) -> &SramStats {
        &self.stats
    }

    /// Resets the counters (array contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = SramStats::default();
    }

    /// Starts recording an event trace (used for the Figure 3 dataflow
    /// illustration).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded events, if tracing was enabled.
    pub fn trace(&self) -> Option<&[Event]> {
        self.trace.as_deref()
    }

    fn record(&mut self, op: OpKind, rows: &[usize]) {
        if let Some(t) = self.trace.as_mut() {
            let seq = t.len() as u64;
            t.push(Event {
                seq,
                op,
                rows: rows.to_vec(),
            });
        }
    }

    fn row_slice(&self, row: usize) -> &[u64] {
        &self.data[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Writes a row through the write port. Missing words are zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, or `bits` has more words than fit
    /// the row, or sets bits beyond `cols`.
    pub fn write_row(&mut self, row: usize, bits: &[u64]) {
        assert!(row < self.config.rows, "row {row} out of range");
        assert!(
            bits.len() <= self.words_per_row,
            "{} words exceed row width",
            bits.len()
        );
        let extra = self.words_per_row * 64 - self.config.cols;
        if extra > 0 && bits.len() == self.words_per_row {
            let top = bits.last().copied().unwrap_or(0);
            assert!(
                top >> (64 - extra) == 0,
                "write sets bits beyond column {}",
                self.config.cols
            );
        }
        let base = row * self.words_per_row;
        let dst = &mut self.data[base..base + self.words_per_row];
        let (head, tail) = dst.split_at_mut(bits.len());
        head.copy_from_slice(bits);
        tail.fill(0);
        self.stats.row_writes += 1;
        self.stats.energy_pj += self.config.energy.write_row_pj(self.config.cols);
        self.record(OpKind::WriteRow, &[row]);
    }

    /// Reads one row through the read port.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read_row(&mut self, row: usize) -> Vec<u64> {
        assert!(row < self.config.rows, "row {row} out of range");
        self.stats.row_reads += 1;
        self.stats.energy_pj += self.config.energy.read_row_pj(self.config.cols);
        self.record(OpKind::ReadRow, &[row]);
        let mut out = self.row_slice(row).to_vec();
        apply_stuck_at(&self.config, row, &mut out);
        out
    }

    /// Debug/verification port: returns a row's stored contents without
    /// touching access counters, energy, faults, or the trace. Real
    /// hardware has no such port; simulation harnesses use it to check
    /// invariants without perturbing the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn peek_row(&self, row: usize) -> Vec<u64> {
        assert!(row < self.config.rows, "row {row} out of range");
        self.row_slice(row).to_vec()
    }

    /// Activates 1–3 read wordlines simultaneously and senses every
    /// column through the logic-SA module.
    ///
    /// For [`CellKind::SixT`] arrays with a non-zero
    /// [`FaultConfig::disturb_per_cell`], each *stored 1* on an activated
    /// row may flip to 0 (read disturb), permanently corrupting the
    /// array — the §4.2 failure mode that motivates the 8T cell.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, longer than 3, contains duplicates, or
    /// indexes out of range.
    pub fn activate(&mut self, rows: &[usize]) -> SenseOut {
        let mut out = SenseOut::default();
        self.activate_into(rows, &mut out);
        out
    }

    /// [`SramArray::activate`] into a caller-owned [`SenseOut`], which is
    /// resized and overwritten; reusing one `out` across activations
    /// makes the call allocation-free. Faults, noise draws, disturb
    /// flips, counters and the trace are exactly those of `activate`.
    ///
    /// # Panics
    ///
    /// As [`SramArray::activate`].
    pub fn activate_into(&mut self, rows: &[usize], out: &mut SenseOut) {
        assert!(
            !rows.is_empty() && rows.len() <= 3,
            "logic-SA senses 1 to 3 wordlines"
        );
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.config.rows, "row {r} out of range");
            assert!(
                !rows[i + 1..].contains(&r),
                "row {r} activated twice in one operation"
            );
        }

        // Stage the activated rows, zero-padded to three so the sense
        // math is uniform.
        let wpr = self.words_per_row;
        for (slot, staged) in self.scratch.chunks_exact_mut(wpr).enumerate() {
            match rows.get(slot) {
                Some(&r) => {
                    staged.copy_from_slice(&self.data[r * wpr..(r + 1) * wpr]);
                    apply_stuck_at(&self.config, r, staged);
                }
                None => staged.fill(0),
            }
        }
        let (r0, rest) = self.scratch.split_at(wpr);
        let (r1, r2) = rest.split_at(wpr);
        sense_columns(
            r0,
            r1,
            r2,
            self.config.cols,
            self.config.fault.sa_offset_sigma,
            &mut self.rng,
            out,
        );

        // 6T read disturb: stored ones on activated rows may flip.
        if self.config.cell == CellKind::SixT && self.config.fault.disturb_per_cell > 0.0 {
            let p = self.config.fault.disturb_per_cell;
            for &r in rows {
                let base = r * self.words_per_row;
                for w in 0..self.words_per_row {
                    let word = self.data[base + w];
                    if word == 0 {
                        continue;
                    }
                    let mut flips = 0u64;
                    for bit in 0..64 {
                        if (word >> bit) & 1 == 1 && self.rng.random::<f64>() < p {
                            flips |= 1 << bit;
                        }
                    }
                    if flips != 0 {
                        self.data[base + w] &= !flips;
                        self.stats.disturb_flips += flips.count_ones() as u64;
                    }
                }
            }
        }

        self.stats.activations += 1;
        self.stats.wl_pulses += rows.len() as u64;
        self.stats.sa_fires += 3 * self.config.cols as u64;
        self.stats.energy_pj += self.config.energy.activate_pj(self.config.cols, rows.len());
        self.record(OpKind::Activate, rows);
    }
}

/// Applies `config`'s stuck-at faults on `row` to that row's words.
fn apply_stuck_at(config: &SramConfig, row: usize, words: &mut [u64]) {
    for fault in &config.fault.stuck_at {
        if fault.row == row && fault.col < config.cols {
            let w = fault.col / 64;
            let b = fault.col % 64;
            if fault.value {
                words[w] |= 1 << b;
            } else {
                words[w] &= !(1 << b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_paper_macro() {
        let a = SramArray::new(SramConfig::modsram_64x256());
        assert_eq!(a.config().rows, 64);
        assert_eq!(a.config().cols, 256);
        assert_eq!(a.words_per_row(), 4);
        assert_eq!(a.config().cell, CellKind::EightT);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = SramArray::new(SramConfig::ideal(8, 130));
        let pattern = [u64::MAX, 0x1234_5678_9abc_def0, 0b11];
        a.write_row(3, &pattern);
        assert_eq!(a.read_row(3), pattern.to_vec());
        assert_eq!(a.read_row(2), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_oob_row_panics() {
        SramArray::new(SramConfig::ideal(4, 64)).write_row(4, &[1]);
    }

    #[test]
    #[should_panic(expected = "beyond column")]
    fn write_beyond_cols_panics() {
        // 65th bit in a 65-col row is fine; 66th is not.
        let mut a = SramArray::new(SramConfig::ideal(4, 65));
        a.write_row(0, &[0, 0b10]);
    }

    #[test]
    fn boundary_column_write_allowed() {
        let mut a = SramArray::new(SramConfig::ideal(4, 65));
        a.write_row(0, &[0, 0b1]); // bit 64 = column 64 < 65
        assert_eq!(a.read_row(0), vec![0, 1]);
    }

    #[test]
    fn activate_three_rows_full_words() {
        let mut a = SramArray::new(SramConfig::ideal(4, 192));
        let r0 = [0xAAAA_AAAA_AAAA_AAAA, 1, 0];
        let r1 = [0xCCCC_CCCC_CCCC_CCCC, 2, u64::MAX];
        let r2 = [0xF0F0_F0F0_F0F0_F0F0, 3, 5];
        a.write_row(0, &r0);
        a.write_row(1, &r1);
        a.write_row(2, &r2);
        let out = a.activate(&[0, 1, 2]);
        for w in 0..3 {
            assert_eq!(out.xor[w], r0[w] ^ r1[w] ^ r2[w], "xor word {w}");
            assert_eq!(
                out.maj[w],
                (r0[w] & r1[w]) | (r0[w] & r2[w]) | (r1[w] & r2[w]),
                "maj word {w}"
            );
            assert_eq!(out.or[w], r0[w] | r1[w] | r2[w], "or word {w}");
            assert_eq!(out.and[w], r0[w] & r1[w] & r2[w], "and word {w}");
        }
    }

    #[test]
    fn activate_two_rows_is_padded_with_zero() {
        let mut a = SramArray::new(SramConfig::ideal(4, 64));
        a.write_row(0, &[0b1100]);
        a.write_row(1, &[0b1010]);
        let out = a.activate(&[0, 1]);
        assert_eq!(out.xor[0], 0b0110);
        assert_eq!(out.maj[0], 0b1000); // AND of two rows
        assert_eq!(out.or[0], 0b1110);
    }

    #[test]
    #[should_panic(expected = "activated twice")]
    fn duplicate_rows_panic() {
        let mut a = SramArray::new(SramConfig::ideal(4, 64));
        a.activate(&[1, 1]);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = SramArray::new(SramConfig::ideal(4, 64));
        a.write_row(0, &[1]);
        a.read_row(0);
        a.activate(&[0, 1, 2]);
        let s = a.stats();
        assert_eq!(s.row_writes, 1);
        assert_eq!(s.row_reads, 1);
        assert_eq!(s.activations, 1);
        assert_eq!(s.wl_pulses, 3);
        assert_eq!(s.sa_fires, 3 * 64);
        assert!(s.energy_pj > 0.0);
        a.reset_stats();
        assert_eq!(a.stats().row_writes, 0);
    }

    #[test]
    fn trace_records_ops_in_order() {
        let mut a = SramArray::new(SramConfig::ideal(4, 64));
        a.enable_trace();
        a.write_row(0, &[1]);
        a.activate(&[0, 1, 2]);
        a.read_row(0);
        let t = a.trace().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].op, OpKind::WriteRow);
        assert_eq!(t[1].op, OpKind::Activate);
        assert_eq!(t[1].rows, vec![0, 1, 2]);
        assert_eq!(t[2].op, OpKind::ReadRow);
        assert_eq!(t[2].seq, 2);
    }

    #[test]
    fn eight_t_never_disturbs() {
        let mut cfg = SramConfig::ideal(4, 64);
        cfg.fault.disturb_per_cell = 1.0; // even with max disturb prob
        let mut a = SramArray::new(cfg);
        a.write_row(0, &[u64::MAX]);
        for _ in 0..10 {
            a.activate(&[0, 1, 2]);
        }
        assert_eq!(a.read_row(0), vec![u64::MAX]);
        assert_eq!(a.stats().disturb_flips, 0);
    }

    #[test]
    fn six_t_disturbs_under_multi_activation() {
        let mut cfg = SramConfig::ideal(4, 64);
        cfg.cell = CellKind::SixT;
        cfg.fault.disturb_per_cell = 1.0;
        let mut a = SramArray::new(cfg);
        a.write_row(0, &[u64::MAX]);
        a.activate(&[0, 1, 2]);
        // Every stored 1 on row 0 flipped.
        assert_eq!(a.read_row(0), vec![0]);
        assert_eq!(a.stats().disturb_flips, 64);
    }

    #[test]
    fn stuck_at_fault_overrides_read() {
        let mut cfg = SramConfig::ideal(4, 64);
        cfg.fault.stuck_at.push(StuckAt {
            row: 0,
            col: 5,
            value: true,
        });
        let mut a = SramArray::new(cfg);
        a.write_row(0, &[0]);
        assert_eq!(a.read_row(0)[0], 1 << 5);
        // The fault also affects in-memory logic.
        let out = a.activate(&[0, 1, 2]);
        assert_eq!(out.xor[0], 1 << 5);
    }

    use crate::fault::StuckAt;
}
