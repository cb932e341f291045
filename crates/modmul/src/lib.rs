//! Modular-multiplication algorithm zoo for the ModSRAM reproduction.
//!
//! The paper's contribution, **R4CSA-LUT** (Algorithm 3), lives in
//! [`r4csa`] as a bit-accurate functional model; the remaining modules
//! implement every algorithm the paper builds on or compares against:
//!
//! * [`interleaved`] — Algorithm 1, the classical Blakely shift-add
//!   interleaved modular multiplication.
//! * [`radix4`] — Algorithm 2, Booth radix-4 interleaved multiplication
//!   with the Table 1b look-up table.
//! * [`r4csa`] — Algorithm 3: radix-4 + carry-save addition + LUTs, the
//!   form executed in SRAM by `modsram-core`.
//! * [`montgomery`] / [`barrett`] — the "reduce after multiplying" family
//!   discussed in §3 (2n-/3n-bit intermediates, conversion costs).
//! * [`carryfree`] — Mazonka-style radix-2 carry-save multiplication
//!   with bit-inspection reduction: no carry propagation until the
//!   final normalize, any modulus parity.
//! * [`csa`] — carry-save primitives (`XOR3`, `MAJ`) and the windowed
//!   register model shared with the hardware simulator.
//! * [`lut`] — the two precomputed tables (Tables 1b and 2).
//! * [`lanes`] — the structure-of-arrays batch kernels behind
//!   `mod_mul_batch`: coalesced runs transposed into limb-major lanes
//!   so several multiplications advance per limb pass; at one lane the
//!   same carry-save core is [`CsaLockstep`], the device's lock-step
//!   oracle.
//!
//! Every engine implements [`ModMulEngine`], so they are interchangeable
//! in the ECC/NTT substrate and can be cross-checked against each other.
//!
//! # The prepare/execute split
//!
//! The engine API has two phases. [`ModMulEngine::prepare`] performs all
//! per-modulus precomputation once and returns a [`PreparedModMul`] —
//! an immutable, `Send + Sync` context whose `mod_mul(&self, a, b)` hot
//! path and `mod_mul_batch` stream serve a fixed prime, the access
//! pattern of ZKP/ECC workloads. The legacy
//! `mod_mul(&mut self, a, b, p)` entry point remains for instrumented,
//! exploratory use.
//!
//! # Examples
//!
//! ```
//! use modsram_modmul::{ModMulEngine, R4CsaLutEngine};
//! use modsram_bigint::UBig;
//!
//! let p = UBig::from(97u64);
//! // Phase 1: per-modulus precomputation (Table 2 rows, widths).
//! let ctx = R4CsaLutEngine::new().prepare(&p).unwrap();
//! // Phase 2: the immutable hot path.
//! let c = ctx.mod_mul(&UBig::from(55u64), &UBig::from(44u64)).unwrap();
//! assert_eq!(c, UBig::from(55u64 * 44 % 97));
//! ```

pub mod barrett;
pub mod carryfree;
pub mod csa;
mod engine;
pub mod interleaved;
pub mod lanes;
pub mod lut;
pub mod montgomery;
pub mod prepared;
pub mod r4csa;
pub mod radix4;
pub mod radix8;

pub use barrett::{BarrettEngine, PreparedBarrett};
pub use carryfree::{CarryFreeEngine, PreparedCarryFree};
pub use csa::CsaState;
pub use engine::{
    all_engines, engine_by_name, engine_candidates_for, engine_names, engine_supports_modulus,
    modelled_cycles_by_name, CycleModel, DirectEngine, EngineCtor, ModMulEngine, ModMulError,
    ENGINE_REGISTRY, ODD_ONLY_ENGINES,
};
pub use interleaved::InterleavedEngine;
pub use lanes::{
    BarrettLanes, CarryFreeLanes, CsaLockstep, R4CsaLanes, DEFAULT_LANES, LANE_MIN_PAIRS, MAX_LANES,
};
pub use lut::{LutOverflow, LutRadix4};
pub use montgomery::{MontgomeryEngine, PreparedMontgomery};
pub use prepared::{
    PreparedDirect, PreparedInterleaved, PreparedModMul, PreparedRadix4, PreparedRadix8,
};
pub use r4csa::{PreparedR4Csa, R4CsaLutEngine, R4CsaStats, R4CsaStepper, StepTrace, TimingPolicy};
pub use radix4::Radix4Engine;
pub use radix8::{LutRadix8, Radix8Engine};
