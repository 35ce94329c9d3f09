//! The PODEM test-generation engine.
//!
//! PODEM (path-oriented decision making) searches over *primary-input
//! assignments only*: pick an objective that moves the fault effect toward
//! an observable line, backtrace it to an unassigned input, assign, and
//! re-imply the whole circuit forward. Because the only decision variables
//! are the circuit inputs (PIs and pseudo-PIs in the full-scan model), the
//! search space is exactly the input cube — when it is exhausted without a
//! budget hit, the target fault is **proven combinationally redundant**.
//!
//! The implementation keeps the classic structure:
//!
//! 1. **imply** — forward three-valued evaluation of the good and faulty
//!    circuits in topological order (gate creation order in
//!    [`scanft_netlist::Netlist`] is topological by construction);
//! 2. **X-path check** — a reverse-topological sweep marking every line
//!    from which an undetermined path still reaches a PO or PPO;
//! 3. **objective** — excite the fault if unexcited, otherwise advance the
//!    D-frontier through a gate whose output still has an X-path;
//! 4. **backtrace** — walk the objective back to an unassigned input,
//!    flipping the goal value through inversions and choosing easy/hard
//!    inputs by logic level for controlling/non-controlling goals;
//! 5. **backtrack** — on a dead end (fault unexcitable or no X-path left),
//!    flip the most recent unflipped decision; when no decision is left,
//!    the fault is redundant.
//!
//! On top of the classic loop sits **static-implication guidance**
//! (`AtpgConfig::use_implications`, default on): before the search starts,
//! the fault's *necessary* literals — activation plus non-controlling side
//! inputs at every dominator gate ([`scanft_analyze::Requirements`]) — are
//! expanded through the learned implication closure
//! ([`scanft_analyze::Implications`]). A conflict inside that expansion
//! proves the fault redundant with zero decisions; surviving literals fix
//! the input assignments they force (necessary assignments are never worth
//! a decision-stack entry, their complements cannot detect the fault), and
//! the remaining required internal values prune every search branch whose
//! implied good values contradict them. All of it is sound: the required
//! literals are necessary conditions, and three-valued implication is
//! monotone, so a definite contradiction can never be fixed by assigning
//! more inputs.
//!
//! Every generated test is a single-cycle [`ScanTest`] (scan-in the PPI
//! assignment, apply the PI combination, observe POs and scan-out), so it
//! composes directly with the functional tests of the paper's flow and with
//! `scanft-sim`'s fault-dropping campaigns.

use std::borrow::Cow;

use scanft_analyze::{Analysis, Implications, Requirements, Scoap};
use scanft_harness::Budget;
use scanft_netlist::{GateKind, NetId, Netlist};
use scanft_obs::Counter;
use scanft_sim::faults::{FaultSite, StuckFault};
use scanft_sim::ScanTest;

use crate::value::{controlling_value, eval_trits, inverts, Trit, V5};

/// Cost model steering PODEM's backtrace and D-frontier choices.
///
/// Neither choice affects soundness — any heuristic yields correct
/// tests/redundancy proofs — only the number of decisions spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// Logic depth: easy = shallow, hard = deep. The original cost model,
    /// kept for comparison (the `coverage_topup` bench reports the
    /// decision-count delta between the two).
    Level,
    /// SCOAP testability measures: backtrace picks inputs by 0/1
    /// controllability of the goal value and the D-frontier advances
    /// through the gate with the cheapest observability.
    #[default]
    Scoap,
}

/// Knobs for one test-generation call.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// Maximum number of input-assignment decisions per fault. The search
    /// aborts (outcome [`AtpgOutcome::Aborted`]) when the budget is hit, so
    /// redundancy is only ever claimed on budget-free exhaustion.
    pub decision_budget: u64,
    /// Wall-clock and extra-decision caps for this call, on top of
    /// `decision_budget`. `budget.deadline` is a per-fault wall-clock cap:
    /// when it expires mid-search the outcome is
    /// [`AtpgOutcome::Aborted`] with [`AbortReason::Deadline`] — never a
    /// wrong `Redundant`, because redundancy still requires budget-free
    /// exhaustion of the input space. `budget.max_units` caps decisions
    /// (the effective decision budget is the minimum of the two caps).
    /// Defaults to unlimited, which preserves the historical behaviour.
    pub budget: Budget,
    /// Cost model guiding the search.
    pub heuristic: Heuristic,
    /// Guide the search with the static implication closure: fix necessary
    /// input assignments up front, prove conflicting targets redundant
    /// without search, and prune branches that contradict a required
    /// literal. Default on; turn off for A/B comparison (the
    /// `coverage_topup` bench reports the backtrack delta).
    pub use_implications: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            decision_budget: 100_000,
            budget: Budget::unlimited(),
            heuristic: Heuristic::default(),
            use_implications: true,
        }
    }
}

impl AtpgConfig {
    /// The decision cap actually enforced: `decision_budget` tightened by
    /// `budget.max_units` when one is set.
    #[must_use]
    pub fn effective_decision_budget(&self) -> u64 {
        match self.budget.max_units {
            Some(cap) => self.decision_budget.min(cap),
            None => self.decision_budget,
        }
    }
}

/// Why a test-generation call gave up without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The decision budget ran out.
    Decisions,
    /// The per-fault wall-clock deadline expired.
    Deadline,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Decisions => write!(f, "decision budget"),
            AbortReason::Deadline => write!(f, "wall-clock deadline"),
        }
    }
}

/// Verdict of one test-generation call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A single-cycle scan test that detects the target fault.
    Test(ScanTest),
    /// The input space was exhausted without a detecting assignment: the
    /// fault is combinationally redundant (undetectable by any scan test).
    Redundant,
    /// The search gave up before finishing; the fault is neither detected
    /// nor proven redundant.
    Aborted {
        /// Which budget stopped the search.
        reason: AbortReason,
    },
}

/// Search-effort statistics for one test-generation call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Input assignments tried (fresh decisions, not flips).
    pub decisions: u64,
    /// Decisions undone by flipping to the complementary value.
    pub backtracks: u64,
    /// Necessary input assignments fixed by the implication closure before
    /// the search (each one removes a decision variable).
    pub implications: u64,
}

/// Outcome plus effort of one test-generation call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgResult {
    /// The verdict.
    pub outcome: AtpgOutcome,
    /// Search effort spent reaching it.
    pub stats: AtpgStats,
}

/// The target fault in a site-independent normal form.
///
/// `activation` is the line whose *good* value must be the complement of the
/// stuck value for the fault to be excited; `origin` is the first line at
/// which the good/faulty values can differ (the stem itself, or the output
/// of the branch's consuming gate).
#[derive(Debug, Clone, Copy)]
struct Target {
    stem: Option<NetId>,
    branch: Option<(u32, u32)>,
    stuck: Trit,
    activation: NetId,
    origin: NetId,
}

/// One entry of the explicit decision stack.
#[derive(Debug, Clone, Copy)]
struct Decision {
    net: NetId,
    flipped: bool,
}

/// A reusable PODEM engine for one netlist.
///
/// # Examples
///
/// ```
/// use scanft_atpg::{Atpg, AtpgConfig, AtpgOutcome};
/// use scanft_netlist::{GateKind, NetlistBuilder};
/// use scanft_sim::faults::{FaultSite, StuckFault};
///
/// // PO = AND(x1, x2); x1 stuck-at-0 needs x1=x2=1.
/// let mut b = NetlistBuilder::new(2, 0);
/// let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
/// let n = b.finish(vec![g], vec![]).unwrap();
/// let mut atpg = Atpg::new(&n);
/// let fault = StuckFault { site: FaultSite::Net(0), stuck_at_one: false };
/// let r = atpg.generate(&fault, &AtpgConfig::default());
/// match r.outcome {
///     AtpgOutcome::Test(t) => assert_eq!(t.inputs, vec![0b11]),
///     other => panic!("expected a test, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Atpg<'a> {
    netlist: &'a Netlist,
    /// SCOAP measures of the netlist, driving the [`Heuristic::Scoap`]
    /// cost model.
    scoap: Cow<'a, Scoap>,
    /// Implication closure and dominator pass for the implication-guided
    /// search; built lazily on the first guided call, or borrowed up front
    /// via [`Atpg::with_analysis`].
    learned: Option<(Cow<'a, Implications>, Cow<'a, Requirements>)>,
    /// Per-net composite value, rebuilt by `imply`.
    values: Vec<V5>,
    /// Per-net X-path flag, rebuilt after every `imply`.
    ok: Vec<bool>,
    /// Whether the net is a PO or PPO.
    is_obs: Vec<bool>,
    /// Current input assignment, indexed by net id `0..num_inputs`.
    assignment: Vec<Trit>,
    /// Per-net good value the current target *requires* for detection
    /// (activation and dominator side inputs, closed under implication).
    /// All-X when implication guidance is off.
    required: Vec<Trit>,
    /// Scratch buffers for per-gate input gathering.
    good_in: Vec<Trit>,
    bad_in: Vec<Trit>,
    c_decisions: Counter,
    c_backtracks: Counter,
    c_implications: Counter,
    c_tests: Counter,
    c_redundant: Counter,
    c_aborted: Counter,
    c_deadline_aborts: Counter,
}

impl<'a> Atpg<'a> {
    /// Creates an engine for `netlist`.
    ///
    /// The SCOAP measures are computed immediately; the implication closure
    /// and dominator pass are built lazily on the first call with
    /// [`AtpgConfig::use_implications`] set. To share an already-computed
    /// [`Analysis`] (e.g. one used for static pruning), use
    /// [`Atpg::with_analysis`] instead.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::build(netlist, Cow::Owned(Scoap::new(netlist)), None)
    }

    /// Creates an engine that borrows `analysis` (its SCOAP measures drive
    /// the cost model, its implication closure and dominators drive the
    /// guided search) instead of recomputing or copying them, so engines
    /// on one netlist can share one analysis.
    #[must_use]
    pub fn with_analysis(netlist: &'a Netlist, analysis: &'a Analysis) -> Self {
        Self::build(
            netlist,
            Cow::Borrowed(&analysis.scoap),
            Some((
                Cow::Borrowed(&analysis.implications),
                Cow::Borrowed(&analysis.requirements),
            )),
        )
    }

    fn build(
        netlist: &'a Netlist,
        scoap: Cow<'a, Scoap>,
        learned: Option<(Cow<'a, Implications>, Cow<'a, Requirements>)>,
    ) -> Self {
        let obs = scanft_obs::global();
        let mut is_obs = vec![false; netlist.num_nets()];
        for &net in netlist.pos().iter().chain(netlist.ppos()) {
            is_obs[net as usize] = true;
        }
        Atpg {
            netlist,
            scoap,
            learned,
            values: vec![V5::X; netlist.num_nets()],
            ok: vec![false; netlist.num_nets()],
            is_obs,
            assignment: vec![Trit::X; netlist.num_pis() + netlist.num_ppis()],
            required: vec![Trit::X; netlist.num_nets()],
            good_in: Vec::new(),
            bad_in: Vec::new(),
            c_decisions: obs.counter("atpg.decisions"),
            c_backtracks: obs.counter("atpg.backtracks"),
            c_implications: obs.counter("atpg.implications_applied"),
            c_tests: obs.counter("atpg.tests"),
            c_redundant: obs.counter("atpg.redundant"),
            c_aborted: obs.counter("atpg.aborted"),
            c_deadline_aborts: obs.counter("atpg.deadline_aborts"),
        }
    }

    /// The netlist this engine targets.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Attempts to generate a single-cycle scan test for `fault`.
    ///
    /// Returns [`AtpgOutcome::Test`] with a detecting test,
    /// [`AtpgOutcome::Redundant`] when the PI/PPI space is provably
    /// exhausted, or [`AtpgOutcome::Aborted`] on budget exhaustion.
    pub fn generate(&mut self, fault: &StuckFault, config: &AtpgConfig) -> AtpgResult {
        let target = self.normalize(fault);
        self.assignment.fill(Trit::X);
        self.required.fill(Trit::X);
        let mut stack: Vec<Decision> = Vec::new();
        let mut stats = AtpgStats::default();
        // The per-fault wall-clock cap starts now; `checked_add` collapses
        // unreachably-far deadlines to "no deadline".
        let deadline_at = config
            .budget
            .deadline
            .and_then(|d| std::time::Instant::now().checked_add(d));

        let feasible =
            !config.use_implications || self.apply_static_implications(fault, &mut stats);
        let outcome = if !feasible {
            // The fault's necessary literals conflict (or no dominator chain
            // reaches an output): redundant with zero decisions. This is the
            // FIRE argument replayed per target, so it is exactly as sound as
            // the static prune the property suite cross-checks exhaustively.
            // A static proof stays sound under any deadline, so it is never
            // downgraded to an abort.
            AtpgOutcome::Redundant
        } else {
            self.search(&target, config, deadline_at, &mut stack, &mut stats)
        };

        self.c_decisions.add(stats.decisions);
        self.c_backtracks.add(stats.backtracks);
        self.c_implications.add(stats.implications);
        match outcome {
            AtpgOutcome::Test(_) => self.c_tests.inc(),
            AtpgOutcome::Redundant => self.c_redundant.inc(),
            AtpgOutcome::Aborted {
                reason: AbortReason::Decisions,
            } => self.c_aborted.inc(),
            AtpgOutcome::Aborted {
                reason: AbortReason::Deadline,
            } => {
                self.c_aborted.inc();
                self.c_deadline_aborts.inc();
            }
        }
        AtpgResult { outcome, stats }
    }

    /// The classic PODEM decision loop over the (possibly pre-constrained)
    /// input assignment.
    fn search(
        &mut self,
        target: &Target,
        config: &AtpgConfig,
        deadline_at: Option<std::time::Instant>,
        stack: &mut Vec<Decision>,
        stats: &mut AtpgStats,
    ) -> AtpgOutcome {
        let budget = config.effective_decision_budget();
        loop {
            self.imply(target);
            if self.detected() {
                break AtpgOutcome::Test(self.extract_test());
            }
            self.compute_x_paths();
            let objective = if self.possible(target) {
                self.objective(target, config.heuristic)
            } else {
                None
            };
            match objective {
                Some((net, value)) => {
                    // Deadline before decisions: an expired clock wins even
                    // when the decision budget is also gone. Both aborts are
                    // sound — redundancy is only ever claimed below, on
                    // genuine exhaustion of the decision stack.
                    if deadline_at.is_some_and(|t| std::time::Instant::now() >= t) {
                        break AtpgOutcome::Aborted {
                            reason: AbortReason::Deadline,
                        };
                    }
                    if stats.decisions >= budget {
                        break AtpgOutcome::Aborted {
                            reason: AbortReason::Decisions,
                        };
                    }
                    stats.decisions += 1;
                    let (input, input_value) = self.backtrace(net, value, config.heuristic);
                    self.assignment[input as usize] = Trit::from_bool(input_value);
                    stack.push(Decision {
                        net: input,
                        flipped: false,
                    });
                }
                None => {
                    // Dead end: flip the deepest unflipped decision, or give
                    // up — with the whole input space explored, the fault is
                    // redundant.
                    let exhausted = loop {
                        match stack.pop() {
                            Some(d) if !d.flipped => {
                                stats.backtracks += 1;
                                let flipped = !self.assignment[d.net as usize];
                                self.assignment[d.net as usize] = flipped;
                                stack.push(Decision {
                                    net: d.net,
                                    flipped: true,
                                });
                                break false;
                            }
                            Some(d) => self.assignment[d.net as usize] = Trit::X,
                            None => break true,
                        }
                    };
                    if exhausted {
                        break AtpgOutcome::Redundant;
                    }
                }
            }
        }
    }

    /// Constrains the search with the static implication closure.
    ///
    /// Expands the target's necessary literals — activation plus the
    /// non-controlling side inputs of every dominator gate, from
    /// [`Requirements::requirements`] — through [`Implications::implied`]
    /// into `self.required`, and fixes every required *input* directly in
    /// `self.assignment` (a necessary assignment's complement cannot detect
    /// the fault, so it never earns a decision-stack entry). Returns `false`
    /// when the requirements are contradictory, i.e. the fault is proven
    /// redundant before any search.
    fn apply_static_implications(&mut self, fault: &StuckFault, stats: &mut AtpgStats) -> bool {
        if self.learned.is_none() {
            self.learned = Some((
                Cow::Owned(Implications::new(self.netlist)),
                Cow::Owned(Requirements::new(self.netlist)),
            ));
        }
        let Some((implications, requirements)) = self.learned.as_ref() else {
            return true;
        };
        let Some(required) = requirements.requirements(self.netlist, fault) else {
            return false;
        };
        for &(net, value) in &required {
            if implications.infeasible(net, value) {
                return false;
            }
            for (to, tv) in implications.implied(net, value) {
                let forced = Trit::from_bool(tv);
                let cur = self.required[to as usize];
                if cur == Trit::X {
                    self.required[to as usize] = forced;
                } else if cur != forced {
                    return false;
                }
            }
        }
        let num_inputs = self.netlist.num_pis() + self.netlist.num_ppis();
        for net in 0..num_inputs {
            let r = self.required[net];
            if r != Trit::X {
                self.assignment[net] = r;
                stats.implications += 1;
            }
        }
        true
    }

    fn normalize(&self, fault: &StuckFault) -> Target {
        let stuck = Trit::from_bool(fault.stuck_at_one);
        match fault.site {
            FaultSite::Net(net) => Target {
                stem: Some(net),
                branch: None,
                stuck,
                activation: net,
                origin: net,
            },
            FaultSite::Branch { gate, pin } => {
                let source = self.netlist.fanins(gate as usize)[pin as usize];
                Target {
                    stem: None,
                    branch: Some((gate, pin)),
                    stuck,
                    activation: source,
                    origin: self.netlist.gate_output(gate as usize),
                }
            }
        }
    }

    /// Forward three-valued implication of the good and faulty circuits
    /// from the current input assignment.
    fn imply(&mut self, target: &Target) {
        let num_inputs = self.netlist.num_pis() + self.netlist.num_ppis();
        for net in 0..num_inputs {
            let a = self.assignment[net];
            self.values[net] = V5 { good: a, bad: a };
        }
        if let Some(stem) = target.stem {
            if (stem as usize) < num_inputs {
                self.values[stem as usize].bad = target.stuck;
            }
        }
        let netlist = self.netlist;
        for g in 0..netlist.num_gates() {
            self.good_in.clear();
            self.bad_in.clear();
            for &input in netlist.fanins(g) {
                self.good_in.push(self.values[input as usize].good);
                self.bad_in.push(self.values[input as usize].bad);
            }
            if let Some((bg, bp)) = target.branch {
                if bg as usize == g {
                    self.bad_in[bp as usize] = target.stuck;
                }
            }
            let out = num_inputs + g;
            let good = eval_trits(netlist.kind(g), &self.good_in);
            let mut bad = eval_trits(netlist.kind(g), &self.bad_in);
            if target.stem == Some(out as NetId) {
                bad = target.stuck;
            }
            self.values[out] = V5 { good, bad };
        }
    }

    /// Whether the fault effect has reached an observable line.
    fn detected(&self) -> bool {
        self.netlist
            .pos()
            .iter()
            .chain(self.netlist.ppos())
            .any(|&net| self.values[net as usize].carries_d())
    }

    /// Reverse-topological X-path sweep: `ok[net]` iff `net` is still
    /// undetermined and some all-undetermined path from it reaches a PO or
    /// PPO. Net ids are topological, so a single reverse pass suffices.
    fn compute_x_paths(&mut self) {
        for net in (0..self.netlist.num_nets()).rev() {
            self.ok[net] = self.values[net].undetermined()
                && (self.is_obs[net]
                    || self
                        .netlist
                        .fanout(net as NetId)
                        .iter()
                        .any(|&g| self.ok[self.netlist.gate_output(g as usize) as usize]));
        }
    }

    /// Sound pruning test: `false` only when *no* completion of the current
    /// assignment can detect the fault.
    ///
    /// Three-valued implication is monotone — a definite line value never
    /// changes as more inputs are assigned — so each condition is safe:
    /// a wrong good value at the activation line is final; a fault effect
    /// can only travel on from a line that carries it into a line with an
    /// X-path; and before any line carries the effect, the origin itself
    /// must still have an X-path (every D-carrying line traces back to the
    /// origin, so "no D anywhere" means the origin is where it must start).
    ///
    /// With implication guidance on, a fourth condition applies: a definite
    /// good value contradicting a literal in the `required` map (a necessary
    /// condition for detection, by the dominator argument) is equally final,
    /// so the branch is dead.
    fn possible(&self, target: &Target) -> bool {
        let act = self.values[target.activation as usize].good;
        if act.is_definite() && act == target.stuck {
            return false;
        }
        for (net, &r) in self.required.iter().enumerate() {
            if r != Trit::X {
                let good = self.values[net].good;
                if good.is_definite() && good != r {
                    return false;
                }
            }
        }
        let mut any_d = false;
        for net in 0..self.netlist.num_nets() {
            if !self.values[net].carries_d() {
                continue;
            }
            any_d = true;
            let reaches = self
                .netlist
                .fanout(net as NetId)
                .iter()
                .any(|&g| self.ok[self.netlist.gate_output(g as usize) as usize]);
            if reaches {
                return true;
            }
        }
        if any_d {
            false
        } else {
            self.ok[target.origin as usize]
        }
    }

    /// Picks the next objective `(net, good value)`.
    ///
    /// Excite first; then advance the D-frontier (a gate with a D input, an
    /// undetermined output on an X-path, and an unassigned input to set to
    /// the non-controlling value). Under [`Heuristic::Level`] the first
    /// frontier gate in index order is taken; under [`Heuristic::Scoap`]
    /// the frontier gate with the cheapest output observability wins, so
    /// the effect is pushed along the easiest propagation path. The
    /// fallback — assign any remaining unassigned input — never affects
    /// correctness, only search order, and guarantees progress until
    /// `possible` can rule the branch out.
    fn objective(&self, target: &Target, heuristic: Heuristic) -> Option<(NetId, bool)> {
        if self.values[target.activation as usize].good == Trit::X {
            return Some((target.activation, target.stuck == Trit::Zero));
        }
        let num_inputs = self.netlist.num_pis() + self.netlist.num_ppis();
        let mut best: Option<(NetId, bool, u32)> = None;
        for g in 0..self.netlist.num_gates() {
            let out = self.netlist.gate_output(g);
            if !self.ok[out as usize] || !self.values[out as usize].undetermined() {
                continue;
            }
            let inputs = self.netlist.fanins(g);
            let has_d = inputs.iter().any(|&i| self.values[i as usize].carries_d());
            if !has_d {
                continue;
            }
            if let Some(&input) = inputs
                .iter()
                .find(|&&i| self.values[i as usize].good == Trit::X)
            {
                // Non-controlling value lets the fault effect through; XOR
                // has none, so either value sensitizes — pick 0.
                let value = controlling_value(self.netlist.kind(g))
                    .map(|c| !c)
                    .unwrap_or(false);
                match heuristic {
                    Heuristic::Level => return Some((input, value)),
                    Heuristic::Scoap => {
                        let cost = self.scoap.co(out);
                        if best.is_none_or(|(_, _, c)| cost < c) {
                            best = Some((input, value, cost));
                        }
                    }
                }
            }
        }
        if let Some((input, value, _)) = best {
            return Some((input, value));
        }
        (0..num_inputs)
            .find(|&net| self.assignment[net] == Trit::X)
            .map(|net| (net as NetId, false))
    }

    /// Estimated cost of driving `net` to `value`: SCOAP controllability
    /// under [`Heuristic::Scoap`], logic depth under [`Heuristic::Level`]
    /// (which ignores `value` — that coarseness is exactly what the SCOAP
    /// model improves on).
    fn drive_cost(&self, heuristic: Heuristic, net: NetId, value: bool) -> u32 {
        match heuristic {
            Heuristic::Level => self.netlist.level(net),
            Heuristic::Scoap => self.scoap.controllability(net, value),
        }
    }

    /// Walks an objective back to an unassigned PI/PPI, choosing easy/hard
    /// inputs by the configured cost model.
    ///
    /// Invariant: a gate output with good value `X` always has an input
    /// with good value `X` (the three-valued tables are exact), so the walk
    /// terminates at an input net.
    fn backtrace(&self, mut net: NetId, mut value: bool, heuristic: Heuristic) -> (NetId, bool) {
        let num_inputs = self.netlist.num_pis() + self.netlist.num_ppis();
        while net as usize >= num_inputs {
            let g = net as usize - num_inputs;
            let (kind, inputs) = (self.netlist.kind(g), self.netlist.fanins(g));
            if kind.is_unary() {
                if kind == GateKind::Not {
                    value = !value;
                }
                net = inputs[0];
                continue;
            }
            let goal = value ^ inverts(kind);
            let unassigned = inputs
                .iter()
                .copied()
                .filter(|&i| self.values[i as usize].good == Trit::X);
            match controlling_value(kind) {
                Some(c) if goal == c => {
                    // One controlling input suffices: take the easiest
                    // (cheapest to drive) unassigned one.
                    net = unassigned
                        .min_by_key(|&i| self.drive_cost(heuristic, i, goal))
                        .expect("X output implies an X input");
                    value = goal;
                }
                Some(_) => {
                    // Every input must be non-controlling: attack the
                    // hardest (most expensive) unassigned one first.
                    net = unassigned
                        .max_by_key(|&i| self.drive_cost(heuristic, i, goal))
                        .expect("X output implies an X input");
                    value = goal;
                }
                None => {
                    // XOR: aim the chosen input at the parity that the
                    // already-definite inputs leave to cover.
                    let parity = inputs
                        .iter()
                        .filter(|&&i| self.values[i as usize].good == Trit::One)
                        .count()
                        % 2
                        == 1;
                    let target_value = goal ^ parity;
                    net = unassigned
                        .min_by_key(|&i| self.drive_cost(heuristic, i, target_value))
                        .expect("X output implies an X input");
                    value = target_value;
                }
            }
        }
        (net, value)
    }

    /// Packs the current assignment into a single-cycle scan test, filling
    /// unassigned inputs with 0. Detection is preserved under any fill:
    /// implication is monotone, so every definite line of the partial
    /// assignment — in particular the sensitized path — keeps its value.
    fn extract_test(&self) -> ScanTest {
        let mut input = 0u32;
        for k in 0..self.netlist.num_pis() {
            if self.assignment[self.netlist.pi(k) as usize] == Trit::One {
                input |= 1 << k;
            }
        }
        let mut code = 0u64;
        for k in 0..self.netlist.num_ppis() {
            if self.assignment[self.netlist.ppi(k) as usize] == Trit::One {
                code |= 1 << k;
            }
        }
        ScanTest::new(code, vec![input])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder;
    use scanft_sim::faults::{self, Fault};
    use scanft_sim::{campaign, exhaustive};

    fn test_detects(netlist: &Netlist, test: &ScanTest, fault: &StuckFault) -> bool {
        let report = campaign::run(netlist, std::slice::from_ref(test), &[Fault::Stuck(*fault)]);
        report.detecting_test[0].is_some()
    }

    #[test]
    fn and_gate_stuck_faults() {
        // PO = AND(x1, x2).
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        for fault in faults::enumerate_stuck(&n) {
            let r = atpg.generate(&fault, &AtpgConfig::default());
            match r.outcome {
                AtpgOutcome::Test(t) => {
                    assert!(
                        test_detects(&n, &t, &fault),
                        "{}",
                        Fault::Stuck(fault).describe(&n)
                    );
                }
                other => panic!("{}: {other:?}", Fault::Stuck(fault).describe(&n)),
            }
        }
    }

    #[test]
    fn scan_flops_are_searchable_inputs() {
        // PPO = OR(x1, y1): exciting y1 s-a-0 needs the scan state bit.
        let mut b = NetlistBuilder::new(1, 1);
        let g = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![], vec![g]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(1),
            stuck_at_one: false,
        };
        let r = atpg.generate(&fault, &AtpgConfig::default());
        match r.outcome {
            AtpgOutcome::Test(t) => {
                assert_eq!(t.init_code, 1, "y1 must be scanned in as 1");
                assert_eq!(t.inputs, vec![0], "x1 must be 0 to propagate");
                assert!(test_detects(&n, &t, &fault));
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn constant_true_output_is_redundant() {
        // g2 = OR(x1, NOT x1) is constant 1: g2 s-a-1 is redundant, and the
        // verdict must come from exhaustion, not from a budget hit.
        let mut b = NetlistBuilder::new(1, 0);
        let inv = b.add_gate(GateKind::Not, &[0]).unwrap();
        let or = b.add_gate(GateKind::Or, &[0, inv]).unwrap();
        let n = b.finish(vec![or], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(or),
            stuck_at_one: true,
        };
        let r = atpg.generate(&fault, &AtpgConfig::default());
        assert_eq!(r.outcome, AtpgOutcome::Redundant);
        assert_eq!(
            exhaustive::is_detectable(&n, &Fault::Stuck(fault), 1 << 20),
            exhaustive::Detectability::Undetectable
        );
        // The complementary fault is detectable.
        let sa0 = StuckFault {
            site: FaultSite::Net(or),
            stuck_at_one: false,
        };
        let r = atpg.generate(&sa0, &AtpgConfig::default());
        assert!(matches!(r.outcome, AtpgOutcome::Test(_)));
    }

    #[test]
    fn branch_fault_distinct_from_stem() {
        // x1 fans out to g1 = AND(x1, x2) and g2 = OR(x1, x3); the branch
        // x1->g1 s-a-0 must be excited via x1=1 and observed through g1.
        let mut b = NetlistBuilder::new(3, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Or, &[0, 2]).unwrap();
        let n = b.finish(vec![g1, g2], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 0 },
            stuck_at_one: false,
        };
        let r = atpg.generate(&fault, &AtpgConfig::default());
        match r.outcome {
            AtpgOutcome::Test(t) => {
                assert_eq!(t.inputs[0] & 0b11, 0b11, "x1=x2=1 excites and propagates");
                assert!(test_detects(&n, &t, &fault));
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_aborts_instead_of_claiming_redundancy() {
        // Implication guidance off: the raw search must hit the budget and
        // abort rather than misreport redundancy.
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(0),
            stuck_at_one: false,
        };
        let r = atpg.generate(
            &fault,
            &AtpgConfig {
                decision_budget: 0,
                use_implications: false,
                ..AtpgConfig::default()
            },
        );
        assert_eq!(
            r.outcome,
            AtpgOutcome::Aborted {
                reason: AbortReason::Decisions
            }
        );
        assert_eq!(r.stats.decisions, 0);
    }

    #[test]
    fn max_units_tightens_the_decision_budget() {
        // budget.max_units acts as an extra decision cap alongside
        // decision_budget; the tighter of the two wins.
        let config = AtpgConfig {
            decision_budget: 100,
            budget: Budget::unlimited().with_max_units(7),
            ..AtpgConfig::default()
        };
        assert_eq!(config.effective_decision_budget(), 7);
        let config = AtpgConfig {
            decision_budget: 3,
            budget: Budget::unlimited().with_max_units(7),
            ..AtpgConfig::default()
        };
        assert_eq!(config.effective_decision_budget(), 3);
        assert_eq!(AtpgConfig::default().effective_decision_budget(), 100_000);
    }

    #[test]
    fn expired_deadline_aborts_instead_of_claiming_redundancy() {
        // A zero-second deadline on a *redundant* fault with guidance off:
        // the search must abort with the deadline reason, never misreport
        // redundancy it did not prove by exhaustion.
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Or, &[0, g1]).unwrap();
        let n = b.finish(vec![g2], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(g1),
            stuck_at_one: false,
        };
        let r = atpg.generate(
            &fault,
            &AtpgConfig {
                budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
                use_implications: false,
                ..AtpgConfig::default()
            },
        );
        assert_eq!(
            r.outcome,
            AtpgOutcome::Aborted {
                reason: AbortReason::Deadline
            }
        );
        // With guidance on, the static redundancy proof is sound at any
        // deadline, so it is kept rather than downgraded to an abort.
        let r = atpg.generate(
            &fault,
            &AtpgConfig {
                budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
                ..AtpgConfig::default()
            },
        );
        assert_eq!(r.outcome, AtpgOutcome::Redundant);
    }

    #[test]
    fn unlimited_deadline_changes_nothing() {
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        for fault in faults::enumerate_stuck(&n) {
            let base = atpg.generate(&fault, &AtpgConfig::default());
            let capped = atpg.generate(
                &fault,
                &AtpgConfig {
                    budget: Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600)),
                    ..AtpgConfig::default()
                },
            );
            assert_eq!(base.outcome, capped.outcome);
        }
    }

    #[test]
    fn necessary_assignments_solve_without_decisions() {
        // x1 s-a-0 in AND(x1, x2): activation forces x1=1 and the dominator
        // side input forces x2=1 — the implication closure fixes both, so
        // the test falls out with zero decisions even at zero budget.
        let mut b = NetlistBuilder::new(2, 0);
        let g = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(0),
            stuck_at_one: false,
        };
        let r = atpg.generate(
            &fault,
            &AtpgConfig {
                decision_budget: 0,
                ..AtpgConfig::default()
            },
        );
        match r.outcome {
            AtpgOutcome::Test(t) => {
                assert_eq!(t.inputs, vec![0b11]);
                assert!(test_detects(&n, &t, &fault));
            }
            other => panic!("expected a test, got {other:?}"),
        }
        assert_eq!(r.stats.decisions, 0);
        assert_eq!(r.stats.implications, 2, "both inputs are necessary");
    }

    #[test]
    fn implication_guidance_agrees_with_plain_search() {
        // Guided and unguided search must reach identical verdicts on every
        // fault of a circuit mixing detectable and redundant faults, with
        // the guided run never spending more backtracks.
        let mut b = NetlistBuilder::new(2, 1);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Or, &[0, g1]).unwrap();
        let ns = b.add_gate(GateKind::Xor, &[g2, 2]).unwrap();
        let n = b.finish(vec![g2], vec![ns]).unwrap();
        let mut atpg = Atpg::new(&n);
        let mut backtracks = [0u64, 0u64];
        for fault in faults::enumerate_stuck(&n) {
            let mut verdicts = Vec::new();
            for (k, use_implications) in [(0, true), (1, false)] {
                let r = atpg.generate(
                    &fault,
                    &AtpgConfig {
                        use_implications,
                        ..AtpgConfig::default()
                    },
                );
                backtracks[k] += r.stats.backtracks;
                let ok = match r.outcome {
                    AtpgOutcome::Test(t) => {
                        assert!(
                            test_detects(&n, &t, &fault),
                            "{}",
                            Fault::Stuck(fault).describe(&n)
                        );
                        true
                    }
                    AtpgOutcome::Redundant => false,
                    AtpgOutcome::Aborted { reason } => {
                        panic!("{}: aborted ({reason})", Fault::Stuck(fault).describe(&n))
                    }
                };
                verdicts.push(ok);
            }
            assert_eq!(
                verdicts[0],
                verdicts[1],
                "{}",
                Fault::Stuck(fault).describe(&n)
            );
        }
        assert!(
            backtracks[0] <= backtracks[1],
            "guided search backtracked more ({} > {})",
            backtracks[0],
            backtracks[1]
        );
    }

    #[test]
    fn heuristics_agree_on_verdicts() {
        // Both cost models must reach identical verdicts on every fault of
        // a circuit with detectable and redundant faults; only the effort
        // may differ.
        let mut b = NetlistBuilder::new(2, 1);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Or, &[0, g1]).unwrap();
        let ns = b.add_gate(GateKind::Xor, &[g2, 2]).unwrap();
        let n = b.finish(vec![g2], vec![ns]).unwrap();
        let mut atpg = Atpg::new(&n);
        for fault in faults::enumerate_stuck(&n) {
            let mut verdicts = Vec::new();
            for heuristic in [Heuristic::Level, Heuristic::Scoap] {
                let r = atpg.generate(
                    &fault,
                    &AtpgConfig {
                        heuristic,
                        ..AtpgConfig::default()
                    },
                );
                let ok = match r.outcome {
                    AtpgOutcome::Test(t) => {
                        assert!(
                            test_detects(&n, &t, &fault),
                            "{}",
                            Fault::Stuck(fault).describe(&n)
                        );
                        true
                    }
                    AtpgOutcome::Redundant => false,
                    AtpgOutcome::Aborted { reason } => {
                        panic!("{}: aborted ({reason})", Fault::Stuck(fault).describe(&n))
                    }
                };
                verdicts.push(ok);
            }
            assert_eq!(
                verdicts[0],
                verdicts[1],
                "{}",
                Fault::Stuck(fault).describe(&n)
            );
        }
    }

    #[test]
    fn xor_propagation() {
        // PO = XOR(x1, x2, x3): every stem fault is detectable.
        let mut b = NetlistBuilder::new(3, 0);
        let g = b.add_gate(GateKind::Xor, &[0, 1, 2]).unwrap();
        let n = b.finish(vec![g], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        for fault in faults::enumerate_stuck(&n) {
            let r = atpg.generate(&fault, &AtpgConfig::default());
            match r.outcome {
                AtpgOutcome::Test(t) => {
                    assert!(
                        test_detects(&n, &t, &fault),
                        "{}",
                        Fault::Stuck(fault).describe(&n)
                    );
                }
                other => panic!("{}: {other:?}", Fault::Stuck(fault).describe(&n)),
            }
        }
    }

    #[test]
    fn masked_reconvergence_is_proven_redundant() {
        // Classic redundant reconvergence: f = AND(x1, x2) OR AND(x1, NOT x2)
        // OR AND(NOT x1, x2) simplifies so that one branch fault is
        // undetectable; use the simpler c17-style blocked line instead:
        // g1 = AND(x1, x2); g2 = OR(x1, g1); g1's effect on g2 is masked
        // whenever x1 = 1, but exciting g1 requires x1 = 1 -> g1 s-a-0 is
        // undetectable at g2.
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::Or, &[0, g1]).unwrap();
        let n = b.finish(vec![g2], vec![]).unwrap();
        let mut atpg = Atpg::new(&n);
        let fault = StuckFault {
            site: FaultSite::Net(g1),
            stuck_at_one: false,
        };
        let r = atpg.generate(&fault, &AtpgConfig::default());
        assert_eq!(r.outcome, AtpgOutcome::Redundant);
        assert_eq!(
            exhaustive::is_detectable(&n, &Fault::Stuck(fault), 1 << 20),
            exhaustive::Detectability::Undetectable
        );
    }
}
