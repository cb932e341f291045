//! The controller's datapath primitives (§4.3–4.4).
//!
//! The FSM's schedule is `Program::r4csa(k)`, which the device
//! sequencer in `isa` runs for every multiplication; for `k` Booth
//! digits:
//!
//! ```text
//! cycle 1                : fetch multiplier row → NMC FF
//! iteration 1 (4 cycles) : [activate lut4 | wb sum | activate lutov₀+sum | wb sum]
//! iterations 2..k (6 ea.): [activate lut4+sum(+carry) | wb sum | wb carry |
//!                           activate lutov+sum+carry  | wb sum | wb carry]
//! total                  : 6k − 1     (= 767 at n = 256, k = 128)
//! ```
//!
//! The first iteration's two carry write-backs are elided because the
//! carry word is *structurally* zero until iteration 2's radix-4 phase
//! (`MAJ(x, 0, 0) = 0`); for the same reason the schedule omits
//! known-zero rows from activations, which also means stale sum/carry
//! wordlines from a previous multiplication are never observed.
//!
//! The shift-by-two of Algorithm 3 lines 4–5 is fused into the previous
//! iteration's write-back path (the FF→shifter→write-port route of
//! §4.3), so the rows are always pre-shifted when the next activation
//! reads them; the last iteration writes back unshifted so the finisher
//! sees the true `(sum, carry)`.
//!
//! # One datapath, checked in lock step
//!
//! `ModSram::activate_csa` senses into a reused `SenseOut` and latches
//! XOR3/MAJ plus the top-bit logic into the NMC flip-flops;
//! `ModSram::writeback_sum`/`writeback_carry` shift a latched word into
//! a reused staging word for the write port; and `ModSram::escape_bits`
//! and [`finish`] read the FFs. The buffers live in the device
//! ([`Datapath`]), so a run allocates nothing per cycle.
//!
//! With `verify` on, the sequencer checks the run against the laned
//! carry-save core at one lane (`modsram_modmul::CsaLockstep`),
//! advanced one LUT phase at a time, through [`check`] and
//! [`check_words`]. Its rows come from the software LUTs, never from
//! the array, so injected faults cannot mask themselves. Every
//! iteration compares the Booth digit, both overflow FFs, the XOR3 and
//! MAJ words and carry-out of both phases, and the overflow index; the
//! reduced result is compared last. The first mismatch is returned as
//! [`CoreError::ModelDivergence`].

use modsram_bigint::UBig;
use modsram_modmul::TimingPolicy;
use modsram_sram::{SenseOut, SramStats};

use crate::error::CoreError;
use crate::memmap::MemoryMap;
use crate::modsram::ModSram;
use crate::nmc::{bit, set_bit, shl_window, two_bits};
use crate::stats::RunStats;
use crate::trace::{DataflowSnapshot, Phase};

/// The datapath's limb buffers, held by [`ModSram`] and reused across
/// cycles and runs.
#[derive(Debug, Clone)]
pub(crate) struct Datapath {
    /// Logic-SA outputs of the latest activation.
    sense: SenseOut,
    /// `MAJ ≪ 1` inside the `W`-bit window: the carry word of the
    /// latest activation.
    carry: Vec<u64>,
    /// Write-port staging word (`W` bits; the row takes the low `n`).
    stage: Vec<u64>,
}

impl Datapath {
    /// Buffers for register window `width` (= n + 1).
    pub(crate) fn new(width: usize) -> Self {
        let words = width.div_ceil(64);
        Datapath {
            sense: SenseOut::default(),
            carry: vec![0; words],
            stage: vec![0; words],
        }
    }
}

impl ModSram {
    /// One logic-SA activation over `lut_row` plus whichever of sum/carry
    /// are live. Latches XOR3/MAJ into the NMC FFs, with bit `n` from the
    /// top-bit logic: LUT rows are `< p < 2^n`, so only the stored MSB
    /// FFs reach it. Returns the carry-out of weight `2^W` (bit `n` of
    /// MAJ).
    pub(crate) fn activate_csa(&mut self, lut_row: usize, sum_live: bool, carry_live: bool) -> u8 {
        let mut rows = [lut_row; 3];
        let mut live = 1;
        for (on, row) in [(sum_live, MemoryMap::SUM), (carry_live, MemoryMap::CARRY)] {
            if on {
                rows[live] = row;
                live += 1;
            }
        }
        self.array.activate_into(&rows[..live], &mut self.dp.sense);
        let s_msb = sum_live && self.sum_msb;
        let c_msb = carry_live && self.carry_msb;
        self.nmc.latch_sense(
            &self.dp.sense.xor,
            &self.dp.sense.maj,
            s_msb ^ c_msb,
            s_msb & c_msb,
        );
        let n = self.config.n_bits;
        shl_window(&mut self.dp.carry, &self.nmc.carry_ff, 1, n + 1);
        bit(&self.nmc.carry_ff, n) as u8
    }

    /// Writes the latched XOR3 word, pre-shifted left by `shift` (0, or
    /// 2 for the fused ×4), to the sum row and its MSB FF.
    pub(crate) fn writeback_sum(&mut self, shift: u32) {
        shl_window(
            &mut self.dp.stage,
            &self.nmc.sum_ff,
            shift,
            self.config.n_bits + 1,
        );
        self.sum_msb = self.store_stage(MemoryMap::SUM);
    }

    /// Writes the latched carry word (`MAJ ≪ 1`), pre-shifted left by
    /// `shift`, to the carry row and its MSB FF.
    pub(crate) fn writeback_carry(&mut self, shift: u32) {
        shl_window(
            &mut self.dp.stage,
            &self.dp.carry,
            shift,
            self.config.n_bits + 1,
        );
        self.carry_msb = self.store_stage(MemoryMap::CARRY);
    }

    /// Writes the staged `W`-bit word's low `n` bits through the write
    /// port and returns bit `n` for the row's MSB FF (one FF load).
    fn store_stage(&mut self, row: usize) -> bool {
        let n = self.config.n_bits;
        let msb = bit(&self.dp.stage, n);
        set_bit(&mut self.dp.stage, n, false);
        self.array.write_row(row, &self.dp.stage[..n.div_ceil(64)]);
        self.nmc.register_writes += 1;
        msb
    }

    /// The two bits of the latched XOR3 and carry words that a
    /// write-back pre-shift of `shift` pushes out of the window (both 0
    /// unless `shift` is 2): the next iteration's `ov_sum`/`ov_carry`.
    pub(crate) fn escape_bits(&self, shift: u32) -> (u8, u8) {
        if shift != 2 {
            return (0, 0);
        }
        let top = self.config.n_bits - 1; // bits W−2 and W−1
        (
            two_bits(&self.nmc.sum_ff, top),
            two_bits(&self.dp.carry, top),
        )
    }
}

/// The near-memory finisher (Alg. 3 line 14): `sum + carry (+ pending ·
/// 2^W)` reduced into `[0, p)`, with the conditional-subtraction count.
/// A carry row not written this run is structurally zero.
pub(crate) fn finish(dev: &ModSram, carry_written: bool, p: &UBig) -> (UBig, u64) {
    let mut total = dev.peek_sum();
    if carry_written {
        total = &total + &dev.peek_carry();
    }
    if dev.nmc.pending_ff != 0 {
        total = &total + &UBig::pow2(dev.config.n_bits + 1);
    }
    // The conditional-subtract chain of the near-memory finisher; when
    // the array width matches the modulus this is at most 12 steps, but
    // a wide array with a narrow modulus would need many, so compute the
    // count by division.
    let subs = (&total / p).to_u64().unwrap_or(u64::MAX);
    (&total % p, subs)
}

/// Counters at the start of a run, for the run's [`RunStats`] deltas.
pub(crate) struct RunStart {
    sram: SramStats,
    register_writes: u64,
}

impl RunStart {
    /// Snapshots `dev`'s array and register-write counters.
    pub(crate) fn of(dev: &ModSram) -> Self {
        RunStart {
            sram: dev.array.stats().clone(),
            register_writes: dev.nmc.register_writes,
        }
    }

    /// Fills `stats`' counter deltas and the fields derived from the
    /// policy and finisher (`iterations` and `final_subtractions` must
    /// already be set).
    pub(crate) fn close(&self, dev: &ModSram, stats: &mut RunStats) {
        let now = dev.array.stats();
        stats.row_reads = now.row_reads - self.sram.row_reads;
        stats.row_writes = now.row_writes - self.sram.row_writes;
        stats.energy_pj = now.energy_pj - self.sram.energy_pj;
        stats.register_writes = dev.nmc.register_writes - self.register_writes;
        let n = dev.config.n_bits as u64;
        stats.extra_msb_digit =
            dev.config.policy == TimingPolicy::DataDependent && stats.iterations > n.div_ceil(2);
        stats.final_add_cycles = if dev.config.charge_final_add {
            stats.final_subtractions.saturating_add(2)
        } else {
            0
        };
    }
}

/// `Ok` when the device agrees with the oracle, else the divergence.
pub(crate) fn check(agrees: bool, iteration: u64, what: &'static str) -> Result<(), CoreError> {
    if agrees {
        Ok(())
    } else {
        Err(CoreError::ModelDivergence { iteration, what })
    }
}

/// Compares the latched XOR3 word and the carry word with the oracle's
/// accumulator after the same phase.
pub(crate) fn check_words(
    dev: &ModSram,
    iteration: u64,
    xor3: &'static str,
    maj: &'static str,
) -> Result<(), CoreError> {
    check(dev.nmc.sum_ff == dev.oracle.sum(), iteration, xor3)?;
    check(dev.dp.carry == dev.oracle.carry(), iteration, maj)
}

/// Records one trace snapshot of the architectural state when tracing
/// is on.
pub(crate) fn snapshot(
    dev: &mut ModSram,
    cycle: u64,
    iteration: u64,
    phase: Phase,
    micro_op: &str,
    rows: &[usize],
) {
    if !dev.config.trace {
        return;
    }
    let snap = DataflowSnapshot {
        cycle,
        iteration,
        phase,
        micro_op: micro_op.to_string(),
        rows: rows.to_vec(),
        sum: dev.peek_sum(),
        carry: dev.peek_carry(),
        ov_ffs: (dev.nmc.ov_sum_ff, dev.nmc.ov_carry_ff, dev.nmc.pending_ff),
    };
    dev.last_trace.push(snap);
}
