//! Lane-parallel combinational evaluation.
//!
//! Every net carries a lane word ([`crate::word::LaneWord`], `u64` by
//! default); the engine interprets the lanes either as independent input
//! patterns (pattern-parallel, used by the exhaustive simulator) or as
//! copies of one pattern under different faults (fault-parallel, used by
//! the fault engine). Evaluation walks the netlist's flattened
//! [`GateArena`], built once and shared by every evaluator of a campaign.

use scanft_race::sync::Arc;

use scanft_fsm::InputId;
use scanft_netlist::{GateArena, GateKind, NetId, Netlist};

use crate::word::LaneWord;
use crate::{ScanResponse, ScanTest};

/// Reusable evaluation buffers for one netlist (one 64-bit word per net).
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    netlist: &'a Netlist,
    arena: Arc<GateArena>,
    values: Vec<u64>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `netlist`, building a private arena.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Evaluator::with_arena(netlist, Arc::new(GateArena::build(netlist)))
    }

    /// Creates an evaluator sharing a prebuilt `arena` (one arena serves
    /// every evaluator and fault engine of a campaign).
    #[must_use]
    pub fn with_arena(netlist: &'a Netlist, arena: Arc<GateArena>) -> Self {
        debug_assert_eq!(arena.num_nets(), netlist.num_nets());
        Evaluator {
            netlist,
            arena,
            values: vec![0; netlist.num_nets()],
        }
    }

    /// The netlist being evaluated.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Current value word of `net` (valid after an `eval_*` call).
    #[must_use]
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net as usize]
    }

    /// Loads a primary-input combination, broadcast to all 64 lanes.
    pub fn load_input_broadcast(&mut self, input: InputId) {
        for k in 0..self.netlist.num_pis() {
            self.values[self.netlist.pi(k) as usize] =
                if input >> k & 1 == 1 { u64::MAX } else { 0 };
        }
    }

    /// Loads a state code, broadcast to all 64 lanes.
    pub fn load_state_broadcast(&mut self, code: u64) {
        for k in 0..self.netlist.num_ppis() {
            self.values[self.netlist.ppi(k) as usize] =
                if code >> k & 1 == 1 { u64::MAX } else { 0 };
        }
    }

    /// Loads raw per-lane words into the PIs (pattern-parallel use).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != num_pis()`.
    pub fn load_input_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.netlist.num_pis());
        for (k, &w) in words.iter().enumerate() {
            self.values[self.netlist.pi(k) as usize] = w;
        }
    }

    /// Loads raw per-lane words into the PPIs (pattern-parallel use).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != num_ppis()`.
    pub fn load_state_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.netlist.num_ppis());
        for (k, &w) in words.iter().enumerate() {
            self.values[self.netlist.ppi(k) as usize] = w;
        }
    }

    /// Evaluates all gates in topological order (fault-free).
    pub fn eval(&mut self) {
        let arena = Arc::clone(&self.arena);
        for &g in arena.schedule() {
            let g = g as usize;
            let values = &self.values;
            let word = eval_gate(
                arena.kind(g),
                arena.fanins(g).iter().map(|&f| values[f as usize]),
            );
            self.values[arena.gate_output(g) as usize] = word;
        }
    }

    /// Interprets lane `lane` of the current PO values as a packed output
    /// combination (bit `k` = PO `k`).
    #[must_use]
    pub fn output_combo(&self, lane: usize) -> u64 {
        pack_lane(self.netlist.pos(), &self.values, lane)
    }

    /// Interprets lane `lane` of the current PPO values as a state code.
    #[must_use]
    pub fn next_state_code(&self, lane: usize) -> u64 {
        pack_lane(self.netlist.ppos(), &self.values, lane)
    }

    /// Simulates `test` fault-free and records the value of **every net at
    /// every cycle** (one bit per net, packed), plus the observed outputs
    /// and final state. The resulting [`GoodTrace`] is what the PPSFP
    /// kernel reads through for nets outside a batch's fault cones.
    pub fn record_trace(&mut self, test: &ScanTest) -> GoodTrace {
        let num_nets = self.netlist.num_nets();
        let words_per_cycle = num_nets.div_ceil(64);
        let mut bits = Vec::with_capacity(words_per_cycle * test.inputs.len());
        let mut outputs = Vec::with_capacity(test.inputs.len());
        let mut code = test.init_code;
        for &input in &test.inputs {
            self.load_state_broadcast(code);
            self.load_input_broadcast(input);
            self.eval();
            for chunk in 0..words_per_cycle {
                let mut word = 0u64;
                for bit in 0..64 {
                    let net = chunk * 64 + bit;
                    if net >= num_nets {
                        break;
                    }
                    // Broadcast evaluation: every lane agrees, bit 0 is
                    // representative.
                    word |= (self.values[net] & 1) << bit;
                }
                bits.push(word);
            }
            outputs.push(self.output_combo(0));
            code = self.next_state_code(0);
        }
        GoodTrace {
            words_per_cycle,
            bits,
            outputs,
            final_code: code,
        }
    }
}

/// The fault-free value of every net at every cycle of one scan test,
/// bit-packed (cycle-major), plus the fault-free response.
///
/// Recorded once per test by [`Evaluator::record_trace`] and then shared by
/// every fault batch simulating that test: the event-driven kernel reads
/// the good value of any net outside its dirty set straight from the trace
/// instead of re-deriving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodTrace {
    words_per_cycle: usize,
    bits: Vec<u64>,
    outputs: Vec<u64>,
    final_code: u64,
}

impl GoodTrace {
    /// Fault-free value of `net` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or `net` is out of range.
    #[inline]
    #[must_use]
    pub fn bit(&self, cycle: usize, net: NetId) -> bool {
        let n = net as usize;
        self.bits[cycle * self.words_per_cycle + n / 64] >> (n % 64) & 1 == 1
    }

    /// Fault-free packed output combination per cycle.
    #[must_use]
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Fault-free final state code (the scan-out reference).
    #[must_use]
    pub fn final_code(&self) -> u64 {
        self.final_code
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.outputs.len()
    }

    /// The fault-free response as a [`ScanResponse`].
    #[must_use]
    pub fn response(&self) -> ScanResponse {
        ScanResponse {
            outputs: self.outputs.clone(),
            final_code: self.final_code,
        }
    }
}

fn pack_lane(nets: &[NetId], values: &[u64], lane: usize) -> u64 {
    let mut word = 0u64;
    for (k, &net) in nets.iter().enumerate() {
        if values[net as usize] >> lane & 1 == 1 {
            word |= 1 << k;
        }
    }
    word
}

/// Evaluates one gate over its input words, produced in pin order.
#[inline]
pub(crate) fn eval_gate<W: LaneWord>(kind: GateKind, mut inputs: impl Iterator<Item = W>) -> W {
    match kind {
        GateKind::Not => !inputs.next().expect("a NOT gate has one input"),
        GateKind::Buf => inputs.next().expect("a BUF gate has one input"),
        GateKind::And => inputs.fold(W::ones(), |acc, w| acc & w),
        GateKind::Or => inputs.fold(W::zero(), |acc, w| acc | w),
        GateKind::Nand => !inputs.fold(W::ones(), |acc, w| acc & w),
        GateKind::Nor => !inputs.fold(W::zero(), |acc, w| acc | w),
        GateKind::Xor => inputs.fold(W::zero(), |acc, w| acc ^ w),
    }
}

/// Simulates the fault-free response of `netlist` to `test`.
///
/// # Examples
///
/// ```
/// use scanft_sim::{logic, ScanTest};
/// use scanft_synth::{synthesize, SynthConfig};
///
/// let lion = scanft_fsm::benchmarks::lion();
/// let c = synthesize(&lion, &SynthConfig::default());
/// // From state 0 apply 01: output 1, next state 1 (Table 1).
/// let r = logic::simulate(c.netlist(), &ScanTest::new(0, vec![0b01]));
/// assert_eq!(r.outputs, vec![1]);
/// assert_eq!(r.final_code, 1);
/// ```
#[must_use]
pub fn simulate(netlist: &Netlist, test: &ScanTest) -> ScanResponse {
    let mut eval = Evaluator::new(netlist);
    let mut code = test.init_code;
    let mut outputs = Vec::with_capacity(test.inputs.len());
    for &input in &test.inputs {
        eval.load_state_broadcast(code);
        eval.load_input_broadcast(input);
        eval.eval();
        outputs.push(eval.output_combo(0));
        code = eval.next_state_code(0);
    }
    ScanResponse {
        outputs,
        final_code: code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_synth::{synthesize, SynthConfig};

    #[test]
    fn simulate_matches_state_table_on_lion() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        for t in lion.transitions() {
            let r = simulate(
                c.netlist(),
                &ScanTest::new(u64::from(t.from), vec![t.input]),
            );
            assert_eq!(r.outputs, vec![t.output], "transition {t:?}");
            assert_eq!(r.final_code, u64::from(t.to), "transition {t:?}");
        }
    }

    #[test]
    fn simulate_sequences_track_the_machine() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        // The paper's test tau_1 = (0, (10,00,11,00,01,00), 1).
        let seq = vec![0b10, 0b00, 0b11, 0b00, 0b01, 0b00];
        let r = simulate(c.netlist(), &ScanTest::new(0, seq.clone()));
        let (fin, outs) = lion.run(0, &seq);
        assert_eq!(r.final_code, u64::from(fin));
        assert_eq!(r.outputs, outs);
        assert_eq!(fin, 1);
    }

    #[test]
    fn broadcast_lanes_agree() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let mut eval = Evaluator::new(c.netlist());
        eval.load_state_broadcast(2);
        eval.load_input_broadcast(1);
        eval.eval();
        for lane in 0..64 {
            assert_eq!(eval.output_combo(lane), eval.output_combo(0));
            assert_eq!(eval.next_state_code(lane), eval.next_state_code(0));
        }
    }

    #[test]
    fn pattern_parallel_words() {
        // Evaluate two different states in different lanes simultaneously.
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let mut eval = Evaluator::new(c.netlist());
        // lane 0: state 0; lane 1: state 2 (code bits: y1 = bit0, y2 = bit1).
        eval.load_state_words(&[0b00, 0b10]);
        // input 01 in both lanes: x1=0, x2=1 -> PI bit0 (x1? variable order:
        // input bit k of the combination maps to PI k).
        let input = 0b01u32;
        let words: Vec<u64> = (0..2)
            .map(|k| if input >> k & 1 == 1 { 0b11 } else { 0 })
            .collect();
        eval.load_input_words(&words);
        eval.eval();
        // state 0 under 01 -> ns 1 out 1; state 2 under 01 -> ns 2 out 1.
        assert_eq!(eval.output_combo(0), 1);
        assert_eq!(eval.output_combo(1), 1);
        assert_eq!(eval.next_state_code(0), 1);
        assert_eq!(eval.next_state_code(1), 2);
    }

    #[test]
    fn recorded_trace_matches_simulate() {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let test = ScanTest::new(2, vec![0b10, 0b00, 0b11, 0b01]);
        let reference = simulate(c.netlist(), &test);
        let mut eval = Evaluator::new(c.netlist());
        let trace = eval.record_trace(&test);
        assert_eq!(trace.response(), reference);
        assert_eq!(trace.num_cycles(), test.inputs.len());
        // Per-net bits agree with a step-by-step re-simulation.
        let n = c.netlist();
        let mut code = test.init_code;
        for (cycle, &input) in test.inputs.iter().enumerate() {
            eval.load_state_broadcast(code);
            eval.load_input_broadcast(input);
            eval.eval();
            for net in 0..n.num_nets() as u32 {
                assert_eq!(
                    trace.bit(cycle, net),
                    eval.value(net) & 1 == 1,
                    "cycle {cycle} net {net}"
                );
            }
            code = eval.next_state_code(0);
        }
        assert_eq!(trace.final_code(), code);
    }
}
