//! The ModSRAM controller FSM at gate level.
//!
//! §4.3 implements "FSM for near-memory" control in Verilog; the
//! behavioural twin is `modsram-core`'s `Program::r4csa(k)`, the
//! `6k − 1`-cycle micro-program its device sequencer runs. This module builds the same state machine
//! as a one-hot [`SeqCircuit`] so the *control path* — not just the
//! datapath blocks of [`crate::circuits`] — exists as synthesizable
//! logic, and proves cycle-for-cycle equivalence with the behavioural
//! schedule in its tests.
//!
//! ## Contract
//!
//! Inputs (from the sequencer's digit counter):
//!
//! | port | meaning |
//! |---|---|
//! | `start` | pulse in `IDLE` to begin a multiplication |
//! | `first_digit` | the current Booth digit is iteration 1 (carry rows structurally zero — skip both carry write-backs) |
//! | `last_digit` | the current Booth digit is iteration `k` |
//!
//! Outputs (control strobes, Moore):
//!
//! | port | fires in state |
//! |---|---|
//! | `busy` | any non-`IDLE` state |
//! | `fetch_en` | `FETCH` — read multiplier row into the NMC FF |
//! | `act_r4` | `ACT_R4` — activate LUT-radix4 + live rows, sense |
//! | `act_ov` | `ACT_OV` — activate LUT-overflow + live rows, sense |
//! | `wb_sum` | `WB_SUM1` or `WB_SUM2` — write the sum row |
//! | `wb_carry` | `WB_CARRY1` or `WB_CARRY2` — write the carry row |
//! | `done` | final write-back of the last digit |

use crate::builder::NetlistBuilder;
use crate::netlist::NetId;
use crate::seq::SeqCircuit;

/// One-hot state indices of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Waiting for `start`.
    Idle = 0,
    /// Multiplier fetch (cycle 1 of the run).
    Fetch = 1,
    /// Radix-4 activation + sense.
    ActR4 = 2,
    /// Radix-4 sum write-back.
    WbSum1 = 3,
    /// Radix-4 carry write-back (skipped on the first digit).
    WbCarry1 = 4,
    /// Overflow activation + sense.
    ActOv = 5,
    /// Overflow sum write-back.
    WbSum2 = 6,
    /// Overflow carry write-back (skipped on the first digit).
    WbCarry2 = 7,
}

/// Number of one-hot state bits.
pub const STATE_BITS: usize = 8;

/// External output port order of [`controller_fsm`].
pub const FSM_OUTPUTS: [&str; 7] = [
    "busy", "fetch_en", "act_r4", "act_ov", "wb_sum", "wb_carry", "done",
];

/// Builds the controller FSM as a clocked one-hot machine.
///
/// Reset state is `IDLE`. See the module docs for the port contract;
/// the schedule it walks is exactly `modsram-core`'s:
///
/// ```text
/// FETCH → (ACT_R4 → WB_SUM1 [→ WB_CARRY1] → ACT_OV → WB_SUM2 [→ WB_CARRY2]) × k
/// ```
///
/// with the bracketed carry write-backs skipped when `first_digit` is
/// high — 4 cycles for the first digit, 6 for every other, `6k − 1`
/// in total.
pub fn controller_fsm() -> SeqCircuit {
    let mut b = NetlistBuilder::new("modsram_ctrl_fsm");
    // External inputs.
    let start = b.input("start");
    let first = b.input("first_digit");
    let last = b.input("last_digit");
    // Current state (one-hot).
    let s: Vec<NetId> = (0..STATE_BITS).map(|i| b.input(format!("s{i}"))).collect();
    let (idle, fetch, act_r4, wb_sum1, wb_carry1, act_ov, wb_sum2, wb_carry2) =
        (s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]);

    let n_start = b.not(start);
    let n_first = b.not(first);
    let n_last = b.not(last);

    // Iteration-boundary terms: where control returns after the final
    // write-back of one digit.
    let end_first = b.and2(wb_sum2, first); // first digit ends at WB_SUM2
    let end_rest = wb_carry2; // other digits end at WB_CARRY2
    let iter_end = b.or2(end_first, end_rest);
    let to_idle = b.and2(iter_end, last);
    let to_next_digit = b.and2(iter_end, n_last);

    // Next-state equations (one-hot).
    let hold_idle = b.and2(idle, n_start);
    let n_idle = b.or2(hold_idle, to_idle);
    let n_fetch = b.and2(idle, start);
    let n_act_r4 = b.or2(fetch, to_next_digit);
    let n_wb_sum1 = b.buf(act_r4);
    let n_wb_carry1 = b.and2(wb_sum1, n_first);
    let sum1_first = b.and2(wb_sum1, first);
    let n_act_ov = b.or2(sum1_first, wb_carry1);
    let n_wb_sum2 = b.buf(act_ov);
    let n_wb_carry2 = b.and2(wb_sum2, n_first);

    // Moore outputs.
    let busy = b.not(idle);
    let wb_sum = b.or2(wb_sum1, wb_sum2);
    let wb_carry = b.or2(wb_carry1, wb_carry2);
    let done = b.buf(to_idle);

    for (name, net) in FSM_OUTPUTS
        .iter()
        .zip([busy, fetch, act_r4, act_ov, wb_sum, wb_carry, done])
    {
        b.output(*name, net);
    }
    for (i, next) in [
        n_idle,
        n_fetch,
        n_act_r4,
        n_wb_sum1,
        n_wb_carry1,
        n_act_ov,
        n_wb_sum2,
        n_wb_carry2,
    ]
    .into_iter()
    .enumerate()
    {
        b.output(format!("s{i}_next"), next);
    }

    let mut reset = [false; STATE_BITS];
    reset[State::Idle as usize] = true;
    SeqCircuit::new(b.finish(), 3, FSM_OUTPUTS.len(), &reset)
}

/// Strobe record of one FSM cycle (decoded [`FSM_OUTPUTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlStrobes {
    /// The controller is mid-multiplication.
    pub busy: bool,
    /// Multiplier fetch.
    pub fetch_en: bool,
    /// Radix-4 LUT activation.
    pub act_r4: bool,
    /// Overflow LUT activation.
    pub act_ov: bool,
    /// Sum-row write-back.
    pub wb_sum: bool,
    /// Carry-row write-back.
    pub wb_carry: bool,
    /// Last write-back of the run.
    pub done: bool,
}

impl CtrlStrobes {
    fn from_bits(bits: &[bool]) -> Self {
        CtrlStrobes {
            busy: bits[0],
            fetch_en: bits[1],
            act_r4: bits[2],
            act_ov: bits[3],
            wb_sum: bits[4],
            wb_carry: bits[5],
            done: bits[6],
        }
    }
}

/// The complete gate-level sequencer: the controller FSM of
/// [`controller_fsm`] plus the digit counter that the FSM's
/// `first_digit`/`last_digit` inputs come from — the full §4.3 control
/// path in gates, no behavioural help.
///
/// External inputs: `start`, then a little-endian `k` bus of
/// `k_bits` bits (the Booth digit count, held stable during a run).
/// External outputs: [`FSM_OUTPUTS`]. State: 8 one-hot FSM bits
/// followed by the `k_bits` counter (counting up from 1).
///
/// The counter loads 1 on `start`, increments by a gate-level
/// half-adder chain each time an iteration's final write-back
/// completes, and feeds two comparators: `== 1` (first digit) and
/// `== k` (last digit).
///
/// # Panics
///
/// Panics if `k_bits` is 0 or greater than 16.
pub fn sequencer(k_bits: usize) -> SeqCircuit {
    assert!(
        (1..=16).contains(&k_bits),
        "k_bits must be in 1..=16, got {k_bits}"
    );
    let mut b = NetlistBuilder::new(format!("modsram_sequencer_{k_bits}"));
    // External inputs.
    let start = b.input("start");
    let k: Vec<NetId> = (0..k_bits).map(|i| b.input(format!("k{i}"))).collect();
    // Current state: FSM one-hot, then the counter.
    let s: Vec<NetId> = (0..STATE_BITS).map(|i| b.input(format!("s{i}"))).collect();
    let c: Vec<NetId> = (0..k_bits).map(|i| b.input(format!("c{i}"))).collect();
    let (idle, fetch, act_r4, wb_sum1, wb_carry1, act_ov, wb_sum2, wb_carry2) =
        (s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]);

    // Comparators: first ⟺ C == 1, last ⟺ C == k.
    let mut first = c[0];
    for &bit in &c[1..] {
        let n = b.not(bit);
        first = b.and2(first, n);
    }
    let mut last = b.xnor2(c[0], k[0]);
    for i in 1..k_bits {
        let eq = b.xnor2(c[i], k[i]);
        last = b.and2(last, eq);
    }

    let n_start = b.not(start);
    let n_first = b.not(first);
    let n_last = b.not(last);

    // FSM next-state equations (same as `controller_fsm`).
    let end_first = b.and2(wb_sum2, first);
    let iter_end = b.or2(end_first, wb_carry2);
    let to_idle = b.and2(iter_end, last);
    let to_next_digit = b.and2(iter_end, n_last);

    let hold_idle = b.and2(idle, n_start);
    let n_idle = b.or2(hold_idle, to_idle);
    let n_fetch = b.and2(idle, start);
    let n_act_r4 = b.or2(fetch, to_next_digit);
    let n_wb_sum1 = b.buf(act_r4);
    let n_wb_carry1 = b.and2(wb_sum1, n_first);
    let sum1_first = b.and2(wb_sum1, first);
    let n_act_ov = b.or2(sum1_first, wb_carry1);
    let n_wb_sum2 = b.buf(act_ov);
    let n_wb_carry2 = b.and2(wb_sum2, n_first);

    // Counter: load 1 on start, +1 on digit advance, hold otherwise.
    let load = b.and2(idle, start);
    // Half-adder increment chain.
    let mut inc = Vec::with_capacity(k_bits);
    let mut carry = b.constant(true); // +1
    for &bit in &c {
        inc.push(b.xor2(bit, carry));
        carry = b.and2(bit, carry);
    }
    let one_bits: Vec<bool> = (0..k_bits).map(|i| i == 0).collect();
    let mut c_next = Vec::with_capacity(k_bits);
    for i in 0..k_bits {
        let held = b.mux2(to_next_digit, c[i], inc[i]);
        let loaded = if one_bits[i] {
            let one = b.constant(true);
            b.mux2(load, held, one)
        } else {
            let zero = b.constant(false);
            b.mux2(load, held, zero)
        };
        c_next.push(loaded);
    }

    // Moore outputs (identical to `controller_fsm`).
    let busy = b.not(idle);
    let wb_sum = b.or2(wb_sum1, wb_sum2);
    let wb_carry = b.or2(wb_carry1, wb_carry2);
    let done = b.buf(to_idle);
    for (name, net) in FSM_OUTPUTS
        .iter()
        .zip([busy, fetch, act_r4, act_ov, wb_sum, wb_carry, done])
    {
        b.output(*name, net);
    }
    for (i, next) in [
        n_idle,
        n_fetch,
        n_act_r4,
        n_wb_sum1,
        n_wb_carry1,
        n_act_ov,
        n_wb_sum2,
        n_wb_carry2,
    ]
    .into_iter()
    .enumerate()
    {
        b.output(format!("s{i}_next"), next);
    }
    for (i, &next) in c_next.iter().enumerate() {
        b.output(format!("c{i}_next"), next);
    }

    let mut reset = vec![false; STATE_BITS + k_bits];
    reset[State::Idle as usize] = true;
    SeqCircuit::new(b.finish(), 1 + k_bits, FSM_OUTPUTS.len(), &reset)
}

/// Drives the self-contained [`sequencer`] through one `k`-digit run
/// and returns the per-cycle strobes — unlike [`run_schedule`], no
/// Rust-side counter participates; the testbench only holds `k` on
/// the bus.
///
/// # Panics
///
/// Panics if `k` is 0, does not fit the sequencer's `k` bus, or the
/// run does not terminate on schedule.
pub fn run_sequencer(seq: &mut SeqCircuit, k: usize) -> Vec<CtrlStrobes> {
    assert!(k > 0, "at least one Booth digit");
    let k_bits = seq.external_inputs() - 1;
    assert!(k < 1 << k_bits, "k = {k} does not fit {k_bits} bus bits");
    seq.reset();
    let k_bus = |with_start: bool| -> Vec<bool> {
        let mut v = vec![with_start];
        for i in 0..k_bits {
            v.push(k >> i & 1 == 1);
        }
        v
    };
    let _ = seq.step(&k_bus(true));
    let mut trace = Vec::new();
    for _ in 0..6 * k + 4 {
        let out = seq.step(&k_bus(false));
        let strobes = CtrlStrobes::from_bits(&out);
        if !strobes.busy {
            return trace;
        }
        trace.push(strobes);
    }
    panic!("sequencer did not complete a {k}-digit schedule");
}

/// Decodes a one-hot state vector.
///
/// # Panics
///
/// Panics if the vector is not one-hot (the invariant every test
/// asserts).
pub fn decode_state(bits: &[bool]) -> State {
    let hot: Vec<usize> = bits
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect();
    assert_eq!(hot.len(), 1, "state must be one-hot: {bits:?}");
    match hot[0] {
        0 => State::Idle,
        1 => State::Fetch,
        2 => State::ActR4,
        3 => State::WbSum1,
        4 => State::WbCarry1,
        5 => State::ActOv,
        6 => State::WbSum2,
        7 => State::WbCarry2,
        _ => unreachable!("STATE_BITS is 8"),
    }
}

/// Drives the gate-level FSM through one `k`-digit multiplication and
/// returns the per-cycle strobes (excluding idle cycles). The digit
/// counter that feeds `first_digit`/`last_digit` lives here, as it
/// would in the sequencer sitting next to the FSM.
///
/// # Panics
///
/// Panics if `k` is 0 or the FSM fails to return to idle within the
/// expected schedule length (a transition bug).
pub fn run_schedule(fsm: &mut SeqCircuit, k: usize) -> Vec<CtrlStrobes> {
    assert!(k > 0, "at least one Booth digit");
    fsm.reset();
    let mut digit = 1usize;
    let mut trace = Vec::new();
    // Start pulse; the IDLE cycle itself is not part of the schedule.
    let _ = fsm.step(&[true, digit == 1, digit == k]);
    let limit = 6 * k + 4;
    for _ in 0..limit {
        let state_before = decode_state(fsm.state());
        let out = fsm.step(&[false, digit == 1, digit == k]);
        let strobes = CtrlStrobes::from_bits(&out);
        if !strobes.busy {
            return trace;
        }
        trace.push(strobes);
        // An iteration ends at WB_SUM2 for the first digit (its carry
        // write-backs are skipped) and at WB_CARRY2 otherwise; the
        // counter advances for the state the FSM just entered.
        let iter_end = matches!(
            (state_before, digit),
            (State::WbSum2, 1) | (State::WbCarry2, _)
        );
        if iter_end && digit < k {
            digit += 1;
        }
    }
    panic!("FSM did not complete a {k}-digit schedule within {limit} cycles");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_cycle_counts_match_the_paper() {
        let mut fsm = controller_fsm();
        for k in [1usize, 2, 3, 8, 128] {
            let trace = run_schedule(&mut fsm, k);
            assert_eq!(trace.len() as u64, 6 * k as u64 - 1, "k={k}");
        }
        // k = 128 is the 256-bit case: 767 cycles (Table 3).
        let trace = run_schedule(&mut fsm, 128);
        assert_eq!(trace.len(), 767);
    }

    #[test]
    fn one_hot_invariant_holds_throughout() {
        let mut fsm = controller_fsm();
        fsm.reset();
        let _ = fsm.step(&[true, true, false]);
        for _ in 0..40 {
            let hot = fsm.state().iter().filter(|&&b| b).count();
            assert_eq!(hot, 1, "state must stay one-hot: {:?}", fsm.state());
            let _ = fsm.step(&[false, false, false]);
        }
    }

    #[test]
    fn first_digit_takes_four_cycles() {
        let mut fsm = controller_fsm();
        let trace = run_schedule(&mut fsm, 1);
        // fetch, act_r4, wb_sum, act_ov, wb_sum — 5 strobed cycles, of
        // which fetch is cycle 1: total 5 = 6·1 − 1.
        assert_eq!(trace.len(), 5);
        assert!(trace[0].fetch_en);
        assert!(trace[1].act_r4);
        assert!(trace[2].wb_sum);
        assert!(trace[3].act_ov);
        assert!(trace[4].wb_sum && trace[4].done);
        // No carry write-backs on a single-digit run.
        assert!(trace.iter().all(|s| !s.wb_carry));
    }

    #[test]
    fn steady_state_digit_has_six_strobes() {
        let mut fsm = controller_fsm();
        let trace = run_schedule(&mut fsm, 2);
        assert_eq!(trace.len(), 11);
        // Digit 2 occupies the last six cycles: act_r4, wb_sum,
        // wb_carry, act_ov, wb_sum, wb_carry.
        let d2 = &trace[5..];
        assert!(d2[0].act_r4);
        assert!(d2[1].wb_sum && !d2[1].wb_carry);
        assert!(d2[2].wb_carry);
        assert!(d2[3].act_ov);
        assert!(d2[4].wb_sum);
        assert!(d2[5].wb_carry && d2[5].done);
    }

    #[test]
    fn sequencer_matches_fsm_with_external_counter() {
        // The self-contained sequencer (gate-level digit counter) must
        // emit exactly the strobes of the FSM driven by a Rust counter.
        let mut seq = sequencer(8);
        let mut fsm = controller_fsm();
        for k in [1usize, 2, 3, 7, 128] {
            let gate = run_sequencer(&mut seq, k);
            let reference = run_schedule(&mut fsm, k);
            assert_eq!(gate, reference, "k={k}");
            assert_eq!(gate.len() as u64, 6 * k as u64 - 1, "k={k}");
        }
    }

    #[test]
    fn sequencer_767_cycles_at_256_bits() {
        let mut seq = sequencer(8);
        let trace = run_sequencer(&mut seq, 128);
        assert_eq!(trace.len(), 767);
        assert!(trace.last().unwrap().done);
    }

    #[test]
    fn sequencer_is_restartable() {
        let mut seq = sequencer(4);
        let first = run_sequencer(&mut seq, 3);
        let second = run_sequencer(&mut seq, 3);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn sequencer_rejects_oversized_k() {
        let mut seq = sequencer(4);
        let _ = run_sequencer(&mut seq, 16);
    }

    #[test]
    fn idle_until_started() {
        let mut fsm = controller_fsm();
        fsm.reset();
        for _ in 0..5 {
            let out = fsm.step(&[false, false, false]);
            assert!(!out[0], "busy must stay low without start");
        }
    }

    #[test]
    fn activation_counts_match_behavioural_controller() {
        // The behavioural controller performs 2 activations and
        // 2 + 2·(k−1) + ... row writes; here: per-digit strobe census.
        let mut fsm = controller_fsm();
        for k in [1usize, 4, 128] {
            let trace = run_schedule(&mut fsm, k);
            let acts = trace.iter().filter(|s| s.act_r4 || s.act_ov).count();
            let sums = trace.iter().filter(|s| s.wb_sum).count();
            let carries = trace.iter().filter(|s| s.wb_carry).count();
            assert_eq!(acts, 2 * k, "activations at k={k}");
            assert_eq!(sums, 2 * k, "sum write-backs at k={k}");
            assert_eq!(
                carries,
                2 * (k.saturating_sub(1)),
                "carry write-backs at k={k}"
            );
        }
    }
}
