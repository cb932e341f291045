//! A micro-op ISA for the ModSRAM sequencer.
//!
//! The paper's controller is a fixed FSM (§4.3, "FSM for near-memory
//! ... realized via Verilog"). Its schedule is [`Program::r4csa`]`(k)`:
//! [`ModSram::mod_mul`] compiles it per multiplication and runs it
//! through the one device sequencer this module holds, the same one
//! [`Executor`] runs hand-written programs on. This is the
//! programmable-PIM extension the generic-processing-in-SRAM line of
//! work (Sridharan et al.) points towards: the datapath driven by an
//! explicit micro-program.
//!
//! * [`MicroOp`] — the nine primitives the datapath supports; each
//!   charges the FSM's cycle cost.
//! * [`Program`] — a validated sequence with a text assembly format
//!   ([`Program::parse`] / [`Program::to_text`] round-trip).
//! * [`Program::r4csa`] — compiles Algorithm 3 for `k` Booth digits
//!   into the FSM's schedule (`6k − 1` cycles).
//! * [`Executor`] — runs a program against a [`ModSram`] device.
//!
//! With `verify` on, every program, compiled or hand-written, is
//! checked phase by phase against the lock-step oracle, and with
//! `trace` on it records one dataflow snapshot per cycle. Because the
//! ISA is explicit, *mis*-programmed schedules become expressible: the
//! sequencer validates structural preconditions (an activation before
//! any write-back, radix-4 and overflow phases alternating, a finisher
//! at the end) and returns [`ProgramError`] instead of computing
//! garbage.

use modsram_bigint::{Radix4Digit, UBig};
use modsram_modmul::LutRadix4;
use std::fmt;

use crate::controller::{check, check_words, finish, snapshot, RunStart};
use crate::error::CoreError;
use crate::memmap::MemoryMap;
use crate::modsram::ModSram;
use crate::stats::RunStats;
use crate::trace::Phase;

/// One datapath micro-operation.
///
/// Cycle costs match the FSM: every activation and row write-back is
/// one cycle; FF-only bookkeeping (`LatchOverflowFfs`) shares the edge
/// of the preceding write-back and is free; `LoadOperand` is memory
/// traffic outside the multiply (charged to the caller, as in §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Write the operand `A` wordline from the input bus.
    LoadOperand,
    /// Read the `A` row into the multiplier FF (cycle 1 of the run).
    FetchMultiplier,
    /// Booth-encode the multiplier FF's top bits, activate the selected
    /// LUT-radix4 row together with whichever of sum/carry are live,
    /// and latch XOR3/MAJ.
    ActivateRadix4 {
        /// Sum row participates in the activation.
        sum: bool,
        /// Carry row participates in the activation.
        carry: bool,
    },
    /// Assemble the overflow index from the NMC FFs, activate the
    /// selected LUT-overflow row plus live sum/carry, latch XOR3/MAJ.
    ActivateOverflow {
        /// Sum row participates in the activation.
        sum: bool,
        /// Carry row participates in the activation.
        carry: bool,
    },
    /// Write the latched XOR3 word back to the sum row, pre-shifted
    /// left by `shift` (0 or 2 — the fused ×4 of Alg. 3 lines 4–5).
    WritebackSum {
        /// Pre-shift amount (0 or 2).
        shift: u8,
    },
    /// Write the latched MAJ word (structurally ≪1) back to the carry
    /// row, pre-shifted left by `shift`.
    WritebackCarry {
        /// Pre-shift amount (0 or 2).
        shift: u8,
    },
    /// Load the shift-escape and pending FFs for the next iteration's
    /// overflow index (same clock edge as the preceding write-back).
    LatchOverflowFfs {
        /// The pre-shift the surrounding write-backs used.
        shift: u8,
    },
    /// Near-memory final addition and reduction (Alg. 3 line 14).
    Finalize,
}

impl MicroOp {
    /// Clock cycles this op charges.
    pub fn cycles(self) -> u64 {
        match self {
            MicroOp::LoadOperand | MicroOp::LatchOverflowFfs { .. } | MicroOp::Finalize => 0,
            _ => 1,
        }
    }

    fn mnemonic(self) -> String {
        let live = |sum: bool, carry: bool| match (sum, carry) {
            (false, false) => String::new(),
            (true, false) => " +sum".to_string(),
            (false, true) => " +carry".to_string(),
            (true, true) => " +sum +carry".to_string(),
        };
        match self {
            MicroOp::LoadOperand => "load.a".to_string(),
            MicroOp::FetchMultiplier => "fetch".to_string(),
            MicroOp::ActivateRadix4 { sum, carry } => format!("act.r4{}", live(sum, carry)),
            MicroOp::ActivateOverflow { sum, carry } => format!("act.ov{}", live(sum, carry)),
            MicroOp::WritebackSum { shift } => format!("wb.sum <<{shift}"),
            MicroOp::WritebackCarry { shift } => format!("wb.carry <<{shift}"),
            MicroOp::LatchOverflowFfs { shift } => format!("latch.ff <<{shift}"),
            MicroOp::Finalize => "finish".to_string(),
        }
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// A structural problem detected while parsing or executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Unknown mnemonic or malformed operand at a source line.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A write-back with nothing latched, radix-4 and overflow phases
    /// out of turn, an op after `finish`, etc.
    IllegalSequence {
        /// Program counter of the offending op.
        pc: usize,
        /// The op.
        op: String,
        /// Why it is illegal here.
        reason: String,
    },
    /// The program ended without a `finish` op.
    MissingFinalize,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ProgramError::IllegalSequence { pc, op, reason } => {
                write!(f, "illegal op `{op}` at pc {pc}: {reason}")
            }
            ProgramError::MissingFinalize => write!(f, "program has no `finish` op"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated micro-program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<MicroOp>,
}

impl Program {
    /// Wraps a raw op sequence.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        Program { ops }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Total clock cycles the program charges.
    pub fn cycles(&self) -> u64 {
        self.ops.iter().map(|op| op.cycles()).sum()
    }

    /// Compiles Algorithm 3 for `k` Booth digits into the FSM's exact
    /// schedule: fetch, a 4-cycle first iteration (carry structurally
    /// zero), 6-cycle steady-state iterations, near-memory finish —
    /// `6k − 1` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0.
    pub fn r4csa(k: usize) -> Self {
        // analyzer: allow(no_panic, precondition documented under `# Panics`; `run_mod_mul` passes the Booth digit count of an n_bits-wide multiplier, at least one for any valid device width)
        assert!(k > 0, "at least one Booth digit");
        // load, fetch, 5 ops in the first iteration, 7 in each further
        // one, finish.
        let mut ops = Vec::with_capacity(7 * k + 1);
        ops.extend([MicroOp::LoadOperand, MicroOp::FetchMultiplier]);
        for i in 1..=k {
            let sum_live = i > 1;
            let carry_live = i > 2;
            let carry_after_r4 = i > 1;
            let shift = if i < k { 2 } else { 0 };

            ops.push(MicroOp::ActivateRadix4 {
                sum: sum_live,
                carry: carry_live,
            });
            ops.push(MicroOp::WritebackSum { shift: 0 });
            if carry_after_r4 {
                ops.push(MicroOp::WritebackCarry { shift: 0 });
            }
            ops.push(MicroOp::ActivateOverflow {
                sum: true,
                carry: carry_after_r4,
            });
            ops.push(MicroOp::WritebackSum { shift });
            if carry_after_r4 {
                ops.push(MicroOp::WritebackCarry { shift });
            }
            ops.push(MicroOp::LatchOverflowFfs { shift });
        }
        ops.push(MicroOp::Finalize);
        Program { ops }
    }

    /// Disassembles to the text format accepted by [`Program::parse`]
    /// (one op per line, `;` comments allowed).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for op in &self.ops {
            s.push_str(&op.mnemonic());
            s.push('\n');
        }
        s
    }

    /// Parses the assembly text format.
    ///
    /// Grammar per line (blank lines and `;` comments ignored):
    ///
    /// ```text
    /// load.a | fetch | finish
    /// act.r4   [+sum] [+carry]
    /// act.ov   [+sum] [+carry]
    /// wb.sum   <<0 | <<2
    /// wb.carry <<0 | <<2
    /// latch.ff <<0 | <<2
    /// ```
    ///
    /// # Errors
    ///
    /// [`ProgramError::Parse`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, ProgramError> {
        let mut ops = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let src = raw.split(';').next().unwrap_or("").trim();
            if src.is_empty() {
                continue;
            }
            let mut parts = src.split_whitespace();
            let Some(head) = parts.next() else {
                continue;
            };
            let rest: Vec<&str> = parts.collect();
            let parse_live = |rest: &[&str]| -> Result<(bool, bool), String> {
                let mut sum = false;
                let mut carry = false;
                for tok in rest {
                    match *tok {
                        "+sum" => sum = true,
                        "+carry" => carry = true,
                        other => return Err(format!("unexpected token `{other}`")),
                    }
                }
                Ok((sum, carry))
            };
            let parse_shift = |rest: &[&str]| -> Result<u8, String> {
                match rest {
                    ["<<0"] => Ok(0),
                    ["<<2"] => Ok(2),
                    [] => Err("missing shift (expected <<0 or <<2)".to_string()),
                    other => Err(format!("unexpected tokens {other:?}")),
                }
            };
            let op = match head {
                "load.a" => MicroOp::LoadOperand,
                "fetch" => MicroOp::FetchMultiplier,
                "finish" => MicroOp::Finalize,
                "act.r4" => {
                    let (sum, carry) = parse_live(&rest)
                        .map_err(|message| ProgramError::Parse { line, message })?;
                    MicroOp::ActivateRadix4 { sum, carry }
                }
                "act.ov" => {
                    let (sum, carry) = parse_live(&rest)
                        .map_err(|message| ProgramError::Parse { line, message })?;
                    MicroOp::ActivateOverflow { sum, carry }
                }
                "wb.sum" => MicroOp::WritebackSum {
                    shift: parse_shift(&rest)
                        .map_err(|message| ProgramError::Parse { line, message })?,
                },
                "wb.carry" => MicroOp::WritebackCarry {
                    shift: parse_shift(&rest)
                        .map_err(|message| ProgramError::Parse { line, message })?,
                },
                "latch.ff" => MicroOp::LatchOverflowFfs {
                    shift: parse_shift(&rest)
                        .map_err(|message| ProgramError::Parse { line, message })?,
                },
                other => {
                    return Err(ProgramError::Parse {
                        line,
                        message: format!("unknown mnemonic `{other}`"),
                    })
                }
            };
            ops.push(op);
        }
        Ok(Program { ops })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops, {} cycles", self.ops.len(), self.cycles())
    }
}

/// Runs [`Program`]s against a [`ModSram`] device, through the same
/// sequencer [`ModSram::mod_mul`] uses.
///
/// # Examples
///
/// ```
/// use modsram_bigint::UBig;
/// use modsram_core::{Executor, ModSram, Program};
///
/// let p = UBig::from(97u64);
/// let mut dev = ModSram::for_modulus(&p)?;
/// dev.load_multiplicand(&UBig::from(44u64))?;
///
/// let mut exec = Executor::new();
/// let (c, stats) = exec.run_mod_mul(&mut dev, &UBig::from(55u64))?;
/// assert_eq!(c, UBig::from((55u64 * 44) % 97));
/// assert_eq!(stats.cycles, exec.last_program().unwrap().cycles());
/// # Ok::<(), modsram_core::CoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct Executor {
    last_program: Option<Program>,
}

impl Executor {
    /// A fresh executor with no compiled program.
    pub fn new() -> Self {
        Executor::default()
    }

    /// The program most recently compiled by
    /// [`Executor::run_mod_mul`].
    pub fn last_program(&self) -> Option<&Program> {
        self.last_program.as_ref()
    }

    /// Compiles [`Program::r4csa`] for the digit count `a` needs on
    /// `dev` and runs it.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn run_mod_mul(
        &mut self,
        dev: &mut ModSram,
        a: &UBig,
    ) -> Result<(UBig, RunStats), CoreError> {
        let (a_c, digits) = multiplier(dev, a)?;
        let program = Program::r4csa(digits.len());
        let result = sequence(dev, &program, &a_c, &digits);
        self.last_program = Some(program);
        result
    }

    /// Runs `program` to multiply `a` by the loaded multiplicand modulo
    /// the loaded modulus.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoModulus`] / [`CoreError::NoMultiplicand`] when the
    /// device is not loaded; [`CoreError::Program`] when the op
    /// sequence is structurally invalid for the datapath;
    /// [`CoreError::ModelDivergence`] when device verification is on
    /// and a phase disagrees with the lock-step oracle.
    pub fn run(
        &mut self,
        dev: &mut ModSram,
        program: &Program,
        a: &UBig,
    ) -> Result<(UBig, RunStats), CoreError> {
        let (a_c, digits) = multiplier(dev, a)?;
        sequence(dev, program, &a_c, &digits)
    }
}

/// `a mod p` and its Booth digit stream, with constant-time padding,
/// from the one `TimingPolicy` rule the oracle also follows.
fn multiplier(dev: &ModSram, a: &UBig) -> Result<(UBig, Vec<Radix4Digit>), CoreError> {
    let p = dev.modulus().ok_or(CoreError::NoModulus)?;
    let a_c = a % p;
    let digits = dev.config.policy.digits(&a_c, dev.config.n_bits);
    Ok((a_c, digits))
}

/// The device sequencer: runs `program` to multiply the reduced
/// multiplier `a_c`, whose Booth digits are `digits`, by the loaded
/// multiplicand.
///
/// With `verify` on, each phase is checked against the lock-step
/// oracle in the FSM's order: the Booth digit and both overflow FFs at
/// `act.r4`, the overflow index at `act.ov`, the XOR3 and MAJ words and
/// carry-out after each activation, and the reduced result at `finish`.
/// With `trace` on, every cycle-charging op and the finisher record a
/// snapshot; write-backs take their phase from the latest activation.
/// A successful run sets `last_run` and adds its cycles to
/// `run_cycles_total`.
fn sequence(
    dev: &mut ModSram,
    program: &Program,
    a_c: &UBig,
    digits: &[Radix4Digit],
) -> Result<(UBig, RunStats), CoreError> {
    let p = dev.modulus.clone().ok_or(CoreError::NoModulus)?;
    if dev.multiplicand.is_none() {
        return Err(CoreError::NoMultiplicand);
    }
    let verify = dev.config.verify;

    // FF reset lines clear the overflow state left by a previous run.
    dev.nmc.ov_sum_ff = 0;
    dev.nmc.ov_carry_ff = 0;
    dev.nmc.pending_ff = 0;
    dev.sum_msb = false;
    dev.carry_msb = false;
    dev.last_trace.clear();
    if verify {
        dev.oracle.reset();
    }

    let start = RunStart::of(dev);
    let mut stats = RunStats::default();
    let mut cycle: u64 = 0;
    // Digits consumed so far: the current iteration.
    let mut i: u64 = 0;
    let mut loaded = false;
    let mut fetched = false;
    let mut phase: Option<Phase> = None;
    let mut carry_written = false;
    let mut csa1_msb = 0;
    let mut pending_out = 0;
    let mut finished: Option<UBig> = None;

    for (pc, &op) in program.ops().iter().enumerate() {
        let illegal = |reason: &str| {
            CoreError::Program(ProgramError::IllegalSequence {
                pc,
                op: op.to_string(),
                reason: reason.to_string(),
            })
        };
        if finished.is_some() {
            return Err(illegal("op after finish"));
        }
        match op {
            MicroOp::LoadOperand => {
                dev.array.write_row(MemoryMap::A, a_c.limbs());
                loaded = true;
            }
            MicroOp::FetchMultiplier => {
                if !loaded {
                    return Err(illegal("fetch before load.a"));
                }
                let row = dev.array.read_row(MemoryMap::A);
                dev.nmc.load_multiplier(&row, digits.len());
                fetched = true;
                cycle += 1;
                let text = "read A row into multiplier FF";
                snapshot(dev, cycle, i, Phase::Fetch, text, &[MemoryMap::A]);
            }
            MicroOp::ActivateRadix4 { sum, carry } => {
                if !fetched {
                    return Err(illegal("activation before fetch"));
                }
                if phase == Some(Phase::Radix4) {
                    return Err(illegal(
                        "radix-4 phase before the last one's overflow phase",
                    ));
                }
                let Some(&want_digit) = digits.get(i as usize) else {
                    return Err(illegal("multiplier digits exhausted"));
                };
                i += 1;
                let digit = dev.nmc.next_digit();
                check(!verify || digit == want_digit, i, "booth digit")?;
                let oracle = verify.then(|| dev.oracle.radix4_phase(digit));
                if let Some((ov_sum, ov_carry, _)) = oracle {
                    check(dev.nmc.ov_sum_ff == ov_sum, i, "ov_sum FF")?;
                    check(dev.nmc.ov_carry_ff == ov_carry, i, "ov_carry FF")?;
                }
                let row = dev.map.lut4_row(LutRadix4::index_of(digit));
                csa1_msb = dev.activate_csa(row, sum, carry);
                phase = Some(Phase::Radix4);
                cycle += 1;
                stats.activations += 1;
                let text = "activate LUT-radix4 + sum + carry; sense XOR3/MAJ";
                snapshot(dev, cycle, i, Phase::Radix4, text, &[row]);
                if let Some((_, _, want_msb)) = oracle {
                    check_words(dev, i, "radix-4 XOR3", "radix-4 MAJ")?;
                    check(csa1_msb == want_msb, i, "radix-4 carry-out")?;
                }
            }
            MicroOp::ActivateOverflow { sum, carry } => {
                if phase != Some(Phase::Radix4) {
                    return Err(illegal("overflow phase without a radix-4 phase before it"));
                }
                let ov_index = dev.nmc.take_overflow_index(csa1_msb);
                let oracle = verify.then(|| dev.oracle.overflow_phase());
                if let Some((want_index, _)) = oracle {
                    check(ov_index == want_index, i, "overflow index")?;
                }
                stats.max_ov_index = stats.max_ov_index.max(ov_index);
                if MemoryMap::is_spill_weight(ov_index) {
                    stats.ov_spill_touches += 1;
                }
                let row = dev.map.lutov_row(ov_index);
                pending_out = dev.activate_csa(row, sum, carry);
                phase = Some(Phase::Overflow);
                cycle += 1;
                stats.activations += 1;
                let text = "activate LUT-overflow + sum + carry; sense XOR3/MAJ";
                snapshot(dev, cycle, i, Phase::Overflow, text, &[row]);
                if let Some((_, want_pending)) = oracle {
                    check_words(dev, i, "overflow XOR3", "overflow MAJ")?;
                    check(pending_out == want_pending, i, "overflow carry-out")?;
                }
            }
            MicroOp::WritebackSum { shift } => {
                let Some(at) = phase else {
                    return Err(illegal("write-back with nothing latched"));
                };
                dev.writeback_sum(u32::from(shift));
                cycle += 1;
                let text = match at {
                    Phase::Radix4 => "write back sum",
                    _ => "write back sum (≪2 pre-shift)",
                };
                snapshot(dev, cycle, i, at, text, &[MemoryMap::SUM]);
            }
            MicroOp::WritebackCarry { shift } => {
                let Some(at) = phase else {
                    return Err(illegal("write-back with nothing latched"));
                };
                dev.writeback_carry(u32::from(shift));
                carry_written = true;
                cycle += 1;
                let text = match at {
                    Phase::Radix4 => "write back carry (≪1)",
                    _ => "write back carry (≪1, ≪2 pre-shift)",
                };
                snapshot(dev, cycle, i, at, text, &[MemoryMap::CARRY]);
            }
            MicroOp::LatchOverflowFfs { shift } => {
                if phase.is_none() {
                    return Err(illegal("latch with nothing computed"));
                }
                let (esc_s, esc_c) = dev.escape_bits(u32::from(shift));
                dev.nmc.set_ov_sum(esc_s);
                dev.nmc.set_ov_carry(esc_c);
                dev.nmc.set_pending(pending_out);
            }
            MicroOp::Finalize => {
                if (i as usize) < digits.len() || phase != Some(Phase::Overflow) {
                    return Err(illegal(
                        "finish before every multiplier digit's overflow phase",
                    ));
                }
                let (total, subs) = finish(dev, carry_written, &p);
                check(
                    !verify || total == dev.oracle.finalize(&p),
                    i,
                    "final result",
                )?;
                stats.final_subtractions = subs;
                let text = "near-memory add + reduce";
                snapshot(dev, cycle, i, Phase::Finalize, text, &[]);
                finished = Some(total);
            }
        }
    }

    let total = finished.ok_or(CoreError::Program(ProgramError::MissingFinalize))?;
    stats.cycles = cycle;
    stats.iterations = i;
    start.close(dev, &mut stats);
    dev.run_cycles_total += stats.cycles;
    dev.last_run = Some(stats.clone());
    Ok((total, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modsram::ModSramConfig;

    fn device(p: u64) -> ModSram {
        ModSram::for_modulus(&UBig::from(p)).expect("device")
    }

    #[test]
    fn r4csa_program_matches_fsm_cycle_count() {
        for k in [1usize, 2, 3, 64, 128, 129] {
            assert_eq!(Program::r4csa(k).cycles(), 6 * k as u64 - 1, "k={k}");
        }
    }

    #[test]
    fn executor_agrees_with_fsm_controller() {
        let p = 0xffff_fff1u64; // 32-bit prime-ish modulus
        for (a, b) in [(12345u64, 67890u64), (0, 5), (0xdead_beef, 0xcafe_f00d)] {
            let mut dev_fsm = device(p);
            let a_big = UBig::from(a);
            let b_big = UBig::from(b);
            let (c_fsm, s_fsm) = dev_fsm.mod_mul(&a_big, &b_big).expect("fsm run");

            let mut dev_isa = device(p);
            dev_isa.load_multiplicand(&b_big).expect("load b");
            let mut exec = Executor::new();
            let (c_isa, s_isa) = exec.run_mod_mul(&mut dev_isa, &a_big).expect("isa run");

            assert_eq!(c_isa, c_fsm, "result a={a} b={b}");
            assert_eq!(s_isa.cycles, s_fsm.cycles, "cycles a={a} b={b}");
            assert_eq!(
                s_isa.register_writes, s_fsm.register_writes,
                "register writes a={a} b={b}"
            );
            assert_eq!(s_isa.activations, s_fsm.activations);
        }
    }

    #[test]
    fn assembly_round_trips() {
        let program = Program::r4csa(3);
        let text = program.to_text();
        let parsed = Program::parse(&text).expect("own output parses");
        assert_eq!(parsed, program);
    }

    #[test]
    fn parse_accepts_comments_and_blanks() {
        let text = "; a comment\n\nload.a\nfetch ; trailing\n";
        let p = Program::parse(text).expect("parses");
        assert_eq!(p.ops(), &[MicroOp::LoadOperand, MicroOp::FetchMultiplier]);
    }

    #[test]
    fn parse_rejects_unknown_mnemonic() {
        let err = Program::parse("load.a\nexplode\n").expect_err("bad mnemonic");
        match err {
            ProgramError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("explode"));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_shift() {
        let err = Program::parse("wb.sum <<3\n").expect_err("bad shift");
        assert!(matches!(err, ProgramError::Parse { line: 1, .. }));
    }

    #[test]
    fn executor_rejects_writeback_before_activation() {
        let mut dev = device(97);
        dev.load_multiplicand(&UBig::from(44u64)).expect("load");
        let program = Program::new(vec![
            MicroOp::LoadOperand,
            MicroOp::FetchMultiplier,
            MicroOp::WritebackSum { shift: 0 },
        ]);
        let err = Executor::new()
            .run(&mut dev, &program, &UBig::from(55u64))
            .expect_err("nothing latched");
        assert!(matches!(
            err,
            CoreError::Program(ProgramError::IllegalSequence { pc: 2, .. })
        ));

        // Mis-ordered variants of the compiled schedule: `act.ov` twice,
        // `act.r4` twice with no overflow phase between, and `wb.sum <<0`
        // where the fused `<<2` is due. Verified, each is refused;
        // unverified, none panics.
        let a = UBig::from(55u64);
        let mut exec = Executor::new();
        exec.run_mod_mul(&mut dev, &a)
            .expect("compiled schedule runs");
        let ops = exec.last_program().expect("compiled").ops().to_vec();
        let ov = ops
            .iter()
            .position(|op| matches!(op, MicroOp::ActivateOverflow { .. }))
            .expect("overflow phase");
        let mut ov_twice = ops.clone();
        ov_twice.insert(ov, ops[ov]);
        // Iteration 1's overflow phase is `act.ov`, `wb.sum <<2`, `latch.ff`.
        let mut r4_twice = ops.clone();
        r4_twice.drain(ov..ov + 3);
        let mut unshifted = ops;
        unshifted[ov + 1] = MicroOp::WritebackSum { shift: 0 };
        for verify in [true, false] {
            let mut dev = ModSram::new(ModSramConfig {
                n_bits: 7,
                verify,
                ..Default::default()
            })
            .expect("device");
            dev.load_modulus(&UBig::from(97u64)).expect("modulus");
            dev.load_multiplicand(&UBig::from(44u64)).expect("load");
            for ops in [&ov_twice, &r4_twice, &unshifted] {
                let program = Program::new(ops.clone());
                let outcome = Executor::new().run(&mut dev, &program, &a);
                assert!(
                    !verify
                        || matches!(
                            outcome,
                            Err(CoreError::ModelDivergence { .. } | CoreError::Program(_))
                        ),
                    "{program:?}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn executor_rejects_missing_finalize() {
        let mut dev = device(97);
        dev.load_multiplicand(&UBig::from(44u64)).expect("load");
        let program = Program::new(vec![MicroOp::LoadOperand, MicroOp::FetchMultiplier]);
        let err = Executor::new()
            .run(&mut dev, &program, &UBig::from(55u64))
            .expect_err("no finish");
        assert!(matches!(
            err,
            CoreError::Program(ProgramError::MissingFinalize)
        ));
    }

    #[test]
    fn executor_rejects_early_finalize() {
        let mut dev = device(97);
        dev.load_multiplicand(&UBig::from(44u64)).expect("load");
        let program = Program::new(vec![
            MicroOp::LoadOperand,
            MicroOp::FetchMultiplier,
            MicroOp::Finalize,
        ]);
        let err = Executor::new()
            .run(&mut dev, &program, &UBig::from(55u64))
            .expect_err("digits unprocessed");
        assert!(matches!(
            err,
            CoreError::Program(ProgramError::IllegalSequence { .. })
        ));
    }

    #[test]
    fn hand_written_program_runs() {
        // 5-bit toy from Figure 3: p = 11000₂ = 24, B = 10010₂ = 18,
        // A = 10101₂ = 21. k = 3 digits.
        let p = UBig::from(24u64);
        let mut dev = ModSram::new(ModSramConfig {
            n_bits: 5,
            ..Default::default()
        })
        .expect("device");
        dev.load_modulus(&p).expect("modulus");
        dev.load_multiplicand(&UBig::from(18u64)).expect("b");
        let text = Program::r4csa(3).to_text();
        let program = Program::parse(&text).expect("parse");
        let (c, stats) = Executor::new()
            .run(&mut dev, &program, &UBig::from(21u64))
            .expect("run");
        assert_eq!(c, UBig::from(21u64 * 18 % 24));
        assert_eq!(stats.cycles, 17); // 6·3 − 1
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            MicroOp::ActivateRadix4 {
                sum: true,
                carry: false
            }
            .to_string(),
            "act.r4 +sum"
        );
        assert_eq!(
            MicroOp::WritebackCarry { shift: 2 }.to_string(),
            "wb.carry <<2"
        );
        let p = Program::r4csa(2);
        assert!(p.to_string().contains("cycles"));
    }
}
