//! The top-level ModSRAM device model.

use std::sync::Mutex;

use modsram_bigint::UBig;
use modsram_modmul::{
    CsaLockstep, CycleModel, LutOverflow, LutRadix4, ModMulEngine, ModMulError, PreparedModMul,
    TimingPolicy,
};
use modsram_sram::{CellKind, FaultConfig, SramArray, SramConfig};

use crate::controller::Datapath;
use crate::error::CoreError;
use crate::isa::Executor;
use crate::memmap::MemoryMap;
use crate::nmc::Nmc;
use crate::stats::{PrecomputeStats, RunStats};
use crate::trace::DataflowSnapshot;

/// Device configuration. [`ModSramConfig::default`] is the paper's macro:
/// 64 wordlines, 256-bit operands, 8T cells, no faults, lock-step
/// verification on.
#[derive(Debug, Clone)]
pub struct ModSramConfig {
    /// Operand bitwidth `n` (array columns). The sum/carry MSB (bit `n`)
    /// lives in a near-memory flip-flop, as in §4.3.
    pub n_bits: usize,
    /// Array wordlines.
    pub rows: usize,
    /// Bit-cell flavour (6T exists to reproduce the read-disturb failure).
    pub cell: CellKind,
    /// Fault-injection knobs.
    pub fault: FaultConfig,
    /// Verify every phase against the word-level functional model.
    pub verify: bool,
    /// Charge cycles for the near-memory final add + reduction instead of
    /// assuming it pipelines with the next operation (the paper's 767
    /// count corresponds to `false`).
    pub charge_final_add: bool,
    /// Capture per-cycle [`DataflowSnapshot`]s (Figure 3).
    pub trace: bool,
    /// Iteration-count policy (see `modsram-modmul`).
    pub policy: TimingPolicy,
}

impl Default for ModSramConfig {
    fn default() -> Self {
        ModSramConfig {
            n_bits: 256,
            rows: 64,
            cell: CellKind::EightT,
            fault: FaultConfig::default(),
            verify: true,
            charge_final_add: false,
            trace: false,
            policy: TimingPolicy::DataDependent,
        }
    }
}

/// The ModSRAM accelerator (Figure 4): SRAM array + in-memory logic-SA +
/// near-memory circuit + controller.
///
/// Typical use: [`ModSram::for_modulus`], then [`ModSram::mod_mul`]
/// repeatedly; LUT precomputation is cached while the multiplicand and
/// modulus are unchanged.
#[derive(Debug, Clone)]
pub struct ModSram {
    pub(crate) array: SramArray,
    pub(crate) map: MemoryMap,
    pub(crate) nmc: Nmc,
    /// Limb buffers of the datapath, reused across cycles and runs.
    pub(crate) dp: Datapath,
    /// The lock-step oracle, fed from the software LUTs (consulted only
    /// when `config.verify` is on).
    pub(crate) oracle: CsaLockstep,
    pub(crate) config: ModSramConfig,
    pub(crate) sum_msb: bool,
    pub(crate) carry_msb: bool,
    pub(crate) modulus: Option<UBig>,
    pub(crate) multiplicand: Option<UBig>,
    /// Precompute statistics accumulated since construction.
    pub precompute_total: PrecomputeStats,
    /// Multiplication cycles accumulated since construction (the sum of
    /// every run's `RunStats::cycles`; together with
    /// `precompute_total.cycles` this is the bank-busy metric the
    /// multi-bank dispatcher aggregates).
    pub run_cycles_total: u64,
    /// Statistics of the most recent multiplication.
    pub last_run: Option<RunStats>,
    /// Dataflow snapshots of the most recent run (when tracing).
    pub last_trace: Vec<DataflowSnapshot>,
}

impl ModSram {
    /// Builds a device from an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotEnoughRows`] if the array cannot hold the memory
    /// map.
    pub fn new(config: ModSramConfig) -> Result<Self, CoreError> {
        if config.rows < MemoryMap::required_rows() {
            return Err(CoreError::NotEnoughRows {
                required: MemoryMap::required_rows(),
                available: config.rows,
            });
        }
        let n = config.n_bits.max(1);
        let sram_config = SramConfig {
            rows: config.rows,
            cols: n,
            cell: config.cell,
            fault: config.fault.clone(),
            energy: Default::default(),
        };
        let map = MemoryMap::new(config.rows, n);
        Ok(ModSram {
            array: SramArray::new(sram_config),
            map,
            nmc: Nmc::new(n + 1),
            dp: Datapath::new(n + 1),
            oracle: CsaLockstep::new(n + 1),
            config,
            sum_msb: false,
            carry_msb: false,
            modulus: None,
            multiplicand: None,
            precompute_total: PrecomputeStats::default(),
            run_cycles_total: 0,
            last_run: None,
            last_trace: Vec::new(),
        })
    }

    /// Builds a device sized for modulus `p` (width = `bit_len(p)`, 64
    /// rows) and loads the modulus.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::ModMul`] for a zero modulus.
    pub fn for_modulus(p: &UBig) -> Result<Self, CoreError> {
        let config = ModSramConfig {
            n_bits: p.bit_len().max(1),
            ..Default::default()
        };
        let mut dev = ModSram::new(config)?;
        dev.load_modulus(p)?;
        Ok(dev)
    }

    /// The device configuration.
    pub fn config(&self) -> &ModSramConfig {
        &self.config
    }

    /// The wordline map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Read access to the underlying array (stats, trace, geometry).
    pub fn array(&self) -> &SramArray {
        &self.array
    }

    /// The currently loaded modulus.
    pub fn modulus(&self) -> Option<&UBig> {
        self.modulus.as_ref()
    }

    /// The currently loaded (canonical) multiplicand.
    pub fn multiplicand(&self) -> Option<&UBig> {
        self.multiplicand.as_ref()
    }

    /// Loads modulus `p`: writes the `p` wordline and fills the overflow
    /// LUT rows (Table 2). Reused by every subsequent multiplication —
    /// the §3.2 data-reuse claim.
    ///
    /// # Errors
    ///
    /// [`CoreError::ModMul`] for a zero modulus;
    /// [`CoreError::OperandTooWide`] if `p` does not fit the array.
    pub fn load_modulus(&mut self, p: &UBig) -> Result<PrecomputeStats, CoreError> {
        if p.is_zero() {
            return Err(CoreError::ModMul(ModMulError::ZeroModulus));
        }
        let n = self.config.n_bits;
        if p.bit_len() > n {
            return Err(CoreError::OperandTooWide {
                operand_bits: p.bit_len(),
                n_bits: n,
            });
        }
        let lutov = LutOverflow::new(p, n + 1)?;
        let mut stats = PrecomputeStats::default();

        self.write_row_counted(MemoryMap::P, p, &mut stats);
        // Deriving 2^(n+1) mod p near-memory: one shift-compare-subtract
        // chain, modelled as two adder ops; each further entry is one add
        // and one conditional subtract.
        stats.nmc_adds += 2;
        for w in 0..LutOverflow::PAPER_ENTRIES {
            let row = self.map.lutov_row(w);
            self.write_row_counted(row, lutov.value(w), &mut stats);
            if w > 0 {
                stats.nmc_adds += 2;
            }
        }
        for w in
            LutOverflow::PAPER_ENTRIES..(LutOverflow::PAPER_ENTRIES + MemoryMap::LUTOV_SPILL_ROWS)
        {
            let row = self.map.lutov_row(w);
            self.write_row_counted(row, lutov.value(w), &mut stats);
            stats.nmc_adds += 2;
        }
        stats.cycles = stats.row_writes + stats.nmc_adds;

        self.modulus = Some(p.clone());
        self.oracle.load_overflow(&lutov);
        // A new modulus invalidates the multiplicand table.
        self.multiplicand = None;
        self.precompute_total.merge(&stats);
        Ok(stats)
    }

    /// Loads multiplicand `b`: writes the `B` wordline and fills the five
    /// radix-4 LUT rows (Table 1b). Reused while `b` is unchanged — e.g.
    /// across the many multiplications by the same operand inside an
    /// elliptic-curve point addition.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoModulus`] if no modulus is loaded.
    pub fn load_multiplicand(&mut self, b: &UBig) -> Result<PrecomputeStats, CoreError> {
        let p = self.modulus.clone().ok_or(CoreError::NoModulus)?;
        let lut4 = LutRadix4::new(b, &p)?;
        let mut stats = PrecomputeStats::default();

        self.write_row_counted(MemoryMap::B, lut4.multiplicand(), &mut stats);
        for (i, value) in lut4.rows().iter().enumerate() {
            let row = self.map.lut4_row(i);
            self.write_row_counted(row, value, &mut stats);
        }
        // 2B (add + conditional subtract), −B, −2B (one subtract each).
        stats.nmc_adds += 4;
        stats.cycles = stats.row_writes + stats.nmc_adds;

        self.multiplicand = Some(lut4.multiplicand().clone());
        self.oracle.load_radix4(&lut4);
        self.precompute_total.merge(&stats);
        Ok(stats)
    }

    /// Multiplies `a` by the *loaded* multiplicand modulo the loaded
    /// modulus, cycle-accurately: compiles the FSM's schedule,
    /// [`Program::r4csa`](crate::Program::r4csa), for `a`'s Booth digits
    /// and runs it on the device. Returns the canonical product and the
    /// run statistics (767 cycles at 256 bits with an MSB-clear
    /// multiplier — Table 3).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoModulus`] if [`ModSram::load_modulus`] has not run;
    /// [`CoreError::NoMultiplicand`] if no multiplicand is loaded;
    /// [`CoreError::ModelDivergence`] when verification is on and fault
    /// injection corrupted the computation.
    pub fn mod_mul_loaded(&mut self, a: &UBig) -> Result<(UBig, RunStats), CoreError> {
        Executor::new().run_mod_mul(self, a)
    }

    /// Convenience: (re)loads `b` if needed, then multiplies. This is the
    /// common entry point; LUT precomputation only happens when `b`
    /// changes.
    ///
    /// # Errors
    ///
    /// See [`ModSram::mod_mul_loaded`] and [`ModSram::load_multiplicand`].
    pub fn mod_mul(&mut self, a: &UBig, b: &UBig) -> Result<(UBig, RunStats), CoreError> {
        let b_canonical = b % self.modulus.as_ref().ok_or(CoreError::NoModulus)?;
        if self.multiplicand.as_ref() != Some(&b_canonical) {
            self.load_multiplicand(&b_canonical)?;
        }
        self.mod_mul_loaded(a)
    }

    pub(crate) fn write_row_counted(
        &mut self,
        row: usize,
        value: &UBig,
        stats: &mut PrecomputeStats,
    ) {
        self.array.write_row(row, value.limbs());
        stats.row_writes += 1;
    }

    /// Reads the full `W`-bit sum (row + MSB FF) without touching stats.
    pub(crate) fn peek_sum(&self) -> UBig {
        let n = self.config.n_bits;
        let row = UBig::from_limbs(self.array.peek_row(MemoryMap::SUM));
        row.with_bit(n, self.sum_msb)
    }

    /// Reads the full `W`-bit carry (row + MSB FF) without touching stats.
    pub(crate) fn peek_carry(&self) -> UBig {
        let n = self.config.n_bits;
        let row = UBig::from_limbs(self.array.peek_row(MemoryMap::CARRY));
        row.with_bit(n, self.carry_msb)
    }
}

/// A prepared accelerator context: a device with the modulus loaded
/// (Table 2 wordlines written once), held behind a mutex so the context
/// satisfies the `Send + Sync` contract of [`PreparedModMul`].
///
/// The SRAM array is inherently stateful — each multiplication streams
/// through its sum/carry wordlines — so unlike the functional engines
/// the hardware model serialises concurrent callers. That mirrors the
/// real device: one macro executes one multiplication at a time, and
/// parallelism comes from banking (see [`crate::BankedModSram`]).
#[derive(Debug)]
pub struct PreparedModSram {
    dev: Mutex<ModSram>,
    p: UBig,
}

impl PreparedModSram {
    /// Builds a fresh device sized for `p` (inheriting `config`'s cell,
    /// fault, verification, and timing knobs) and loads the modulus.
    ///
    /// # Errors
    ///
    /// [`ModMulError::ZeroModulus`] for `p = 0`.
    pub fn new(p: &UBig, config: &ModSramConfig) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        let config = ModSramConfig {
            n_bits: p.bit_len().max(1),
            ..config.clone()
        };
        let mut dev = ModSram::new(config).map_err(|e| match e {
            CoreError::ModMul(m) => m,
            other => panic!("device construction failed: {other}"),
        })?;
        dev.load_modulus(p).map_err(|e| match e {
            CoreError::ModMul(m) => m,
            other => panic!("modulus load failed: {other}"),
        })?;
        Ok(PreparedModSram {
            dev: Mutex::new(dev),
            p: p.clone(),
        })
    }

    /// Wraps an already-configured, modulus-loaded device. Unlike
    /// [`PreparedModSram::new`] the device keeps its configured width,
    /// so a tile of identical macros can be wider than the modulus.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoModulus`] if no modulus has been loaded.
    pub fn from_device(dev: ModSram) -> Result<Self, CoreError> {
        let p = dev.modulus().cloned().ok_or(CoreError::NoModulus)?;
        Ok(PreparedModSram {
            dev: Mutex::new(dev),
            p,
        })
    }

    /// Runs `f` on the locked device (stats inspection, fault injection).
    pub fn with_device<T>(&self, f: impl FnOnce(&mut ModSram) -> T) -> T {
        f(&mut self.dev.lock().expect("device lock poisoned"))
    }

    /// Cycles the device has been busy since construction: LUT
    /// precompute plus every multiplication run. The banked dispatcher
    /// reads this before and after a batch to attribute per-bank cycles.
    pub fn total_cycles(&self) -> u64 {
        self.with_device(|d| d.precompute_total.cycles + d.run_cycles_total)
    }

    /// Energy the device's array has accumulated, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.with_device(|d| d.array().stats().energy_pj)
    }

    /// Maps a device error onto the engine error space — **after** the
    /// lock has been released, so a divergence panic (only possible
    /// under fault injection) cannot poison the shared mutex and
    /// cascade into every other thread holding this context.
    fn unwrap_run(
        outcome: Result<(UBig, crate::stats::RunStats), CoreError>,
    ) -> Result<UBig, ModMulError> {
        match outcome {
            Ok((c, _)) => Ok(c),
            Err(CoreError::ModMul(m)) => Err(m),
            Err(other) => panic!("in-SRAM multiplication failed: {other}"),
        }
    }
}

impl PreparedModMul for PreparedModSram {
    fn engine_name(&self) -> &'static str {
        "modsram"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    /// # Panics
    ///
    /// Panics (with the mutex already released) when the device reports
    /// a model divergence — only possible with fault injection enabled.
    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        let outcome = {
            let mut dev = self.dev.lock().expect("device lock poisoned");
            dev.mod_mul(a, b)
        };
        Self::unwrap_run(outcome)
    }

    /// Batch override: the device is locked once for the whole stream,
    /// so consecutive pairs sharing a multiplicand reuse the Table 1b
    /// wordlines without re-entrant locking.
    ///
    /// # Panics
    ///
    /// As [`PreparedModSram::mod_mul`]; the lock is released before any
    /// panic propagates.
    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let outcomes = {
            let mut dev = self.dev.lock().expect("device lock poisoned");
            let mut outcomes = Vec::with_capacity(pairs.len());
            for (a, b) in pairs {
                let outcome = dev.mod_mul(a, b);
                let stop = outcome.is_err();
                outcomes.push(outcome);
                if stop {
                    break;
                }
            }
            outcomes
        };
        outcomes.into_iter().map(Self::unwrap_run).collect()
    }
}

impl ModMulEngine for ModSram {
    fn name(&self) -> &'static str {
        "modsram"
    }

    /// Prepares a fresh, independently-stateful device for `p`; `self`
    /// only contributes its configuration knobs. The paper's load-once
    /// precompute (§3.2) happens here.
    fn prepare(&self, p: &UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> {
        Ok(Box::new(PreparedModSram::new(p, &self.config)?))
    }

    /// Full-service entry point: loads `p` and `b` when they differ from
    /// the cached ones, then runs the in-SRAM multiplication.
    ///
    /// # Errors
    ///
    /// Maps device errors onto [`ModMulError`]; a model divergence (only
    /// possible under fault injection) surfaces as a panic because the
    /// trait cannot express it — use [`ModSram::mod_mul`] for fault
    /// studies.
    fn mod_mul(&mut self, a: &UBig, b: &UBig, p: &UBig) -> Result<UBig, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        if self.modulus.as_ref() != Some(p) {
            if p.bit_len() > self.config.n_bits {
                return Err(ModMulError::OperandTooWide {
                    operand_bits: p.bit_len(),
                    limit_bits: self.config.n_bits,
                });
            }
            self.load_modulus(p).map_err(|e| match e {
                CoreError::ModMul(m) => m,
                other => panic!("unexpected load error: {other}"),
            })?;
        }
        let (c, _) = self
            .mod_mul(a, b)
            .unwrap_or_else(|e| panic!("in-SRAM multiplication failed: {e}"));
        Ok(c)
    }
}

impl CycleModel for ModSram {
    /// Same closed form as the functional model: `6·⌈n/2⌉ − 1`.
    fn cycles(&self, n_bits: usize) -> u64 {
        6 * (n_bits as u64).div_ceil(2) - 1
    }

    fn model_description(&self) -> &'static str {
        "cycle-accurate controller: 1 fetch + 4 first-iteration + 6 per further digit"
    }
}
