//! Coverage top-up: functional tests first, deterministic ATPG for the rest.
//!
//! The paper's position is that functional tests do most of the work and
//! deterministic test generation should only be spent on the faults they
//! miss. This module implements exactly that division of labour:
//!
//! 1. fault-simulate the functional test set with fault dropping (in the
//!    paper's decreasing-length order) over the collapsed single stuck-at
//!    universe;
//! 2. run PODEM (`scanft-atpg`) *only* on the surviving faults, walking the
//!    survivor list in reverse order;
//! 3. fault-simulate every newly generated pattern against all still-pending
//!    faults, so one deterministic pattern can drop many targets;
//! 4. report every fault as functionally detected, ATPG detected, proven
//!    redundant, or aborted — aborted is the only inconclusive verdict, and
//!    it only occurs on a budget hit (per-fault decision budget, or the
//!    run-level wall-clock/target-count [`Budget`]).
//!
//! The combined test set is the functional set followed by the ATPG
//! patterns; on an irredundancy-free budget the result covers 100% of the
//! non-redundant faults (the "complete coverage" column of the comparison
//! table).

use scanft_analyze::{is_statically_untestable_with, Analysis};
use scanft_atpg::{Atpg, AtpgConfig, AtpgOutcome};
use scanft_harness::{Budget, StopReason};
use scanft_netlist::Netlist;
use scanft_sim::faults::{self, StuckFault};
use scanft_sim::{campaign, collapse, ScanTest};
use scanft_synth::SynthesizedCircuit;

pub use scanft_atpg::Heuristic;

use crate::TestSet;

/// Knobs for a top-up run.
#[derive(Debug, Clone)]
pub struct TopUpConfig {
    /// Per-fault PODEM decision budget (see [`AtpgConfig`]).
    pub decision_budget: u64,
    /// Run-level resource budget: `deadline` caps the wall-clock time of
    /// the whole ATPG phase (each target also inherits the remaining time
    /// as its per-fault deadline), `max_units` caps the number of ATPG
    /// targets attempted. When either trips, the current and remaining
    /// survivors are reported as [`FaultStatus::Aborted`] — coverage stays
    /// a sound lower bound. Defaults to unlimited, preserving the
    /// complete-coverage behaviour.
    pub budget: Budget,
    /// Whether to collapse the stuck-at universe to equivalence-class
    /// representatives before simulation and generation.
    pub collapse: bool,
    /// Whether to classify statically untestable faults — infinite SCOAP
    /// measures, or a FIRE-style implication conflict among the fault's
    /// necessary conditions — as [`FaultStatus::StaticallyUntestable`] and
    /// exclude them from PODEM (they would each burn search effort to
    /// conclude `Redundant`).
    pub static_prune: bool,
    /// Whether PODEM runs implication-guided (see
    /// [`AtpgConfig::use_implications`]). Does not affect which faults are
    /// pruned statically, so an A/B comparison isolates the search effect.
    pub use_implications: bool,
    /// Cost model guiding PODEM's backtrace and D-frontier choices.
    pub heuristic: Heuristic,
}

impl Default for TopUpConfig {
    fn default() -> Self {
        TopUpConfig {
            decision_budget: AtpgConfig::default().decision_budget,
            budget: Budget::unlimited(),
            collapse: true,
            static_prune: true,
            use_implications: true,
            heuristic: Heuristic::default(),
        }
    }
}

/// How one fault ended up classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Detected by the functional test set.
    DetectedFunctional,
    /// Detected by a deterministic ATPG pattern (its own, or one generated
    /// for another fault and dropped onto this one).
    DetectedAtpg,
    /// Proven combinationally redundant by exhaustion of the PODEM search.
    Redundant,
    /// Proven undetectable *before* ATPG: the fault's SCOAP controllability
    /// or observability is structurally infinite, so no test exists. Unlike
    /// [`FaultStatus::Redundant`], this verdict costs no search at all.
    StaticallyUntestable,
    /// A budget stopped the search before a verdict: the per-fault decision
    /// budget, the per-fault wall-clock deadline, or the run-level
    /// [`TopUpConfig::budget`]. Neither detected nor proven redundant.
    Aborted,
}

/// Per-fault verdicts and aggregate counts of a top-up run.
#[derive(Debug, Clone)]
pub struct TopUpReport {
    /// The faults that were simulated and targeted (collapsed
    /// representatives when [`TopUpConfig::collapse`] is set).
    pub faults: Vec<StuckFault>,
    /// Verdict per fault, parallel to `faults`.
    pub status: Vec<FaultStatus>,
    /// Number of deterministic patterns emitted.
    pub atpg_patterns: usize,
    /// The fault each emitted pattern was generated for, in pattern order
    /// (parallel to [`TopUpOutcome::atpg_patterns`]).
    pub pattern_targets: Vec<StuckFault>,
    /// Faults detected by a pattern generated for a *different* fault
    /// (reverse-order fault dropping at work).
    pub dropped_by_atpg_patterns: usize,
    /// Total PODEM decisions across all targeted faults.
    pub decisions: u64,
    /// Total PODEM backtracks across all targeted faults.
    pub backtracks: u64,
    /// Total necessary input assignments fixed by the implication closure
    /// across all targeted faults (0 when guidance is off).
    pub implications: u64,
    /// Why the run-level [`TopUpConfig::budget`] stopped the ATPG phase
    /// early, if it did. `None` on an uninterrupted run.
    pub stopped: Option<StopReason>,
}

impl TopUpReport {
    fn count(&self, status: FaultStatus) -> usize {
        self.status.iter().filter(|&&s| s == status).count()
    }

    /// Faults detected by the functional tests alone.
    #[must_use]
    pub fn detected_functional(&self) -> usize {
        self.count(FaultStatus::DetectedFunctional)
    }

    /// Faults detected by deterministic patterns.
    #[must_use]
    pub fn detected_atpg(&self) -> usize {
        self.count(FaultStatus::DetectedAtpg)
    }

    /// Faults proven combinationally redundant.
    #[must_use]
    pub fn proven_redundant(&self) -> usize {
        self.count(FaultStatus::Redundant)
    }

    /// Faults proven untestable by static analysis, without any search.
    #[must_use]
    pub fn statically_untestable(&self) -> usize {
        self.count(FaultStatus::StaticallyUntestable)
    }

    /// Faults left unresolved by a budget hit.
    #[must_use]
    pub fn aborted(&self) -> usize {
        self.count(FaultStatus::Aborted)
    }

    /// All detected faults, by either means.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.detected_functional() + self.detected_atpg()
    }

    /// Coverage of the whole fault list in percent — 100.0 when the list is
    /// empty, the same vacuous convention as
    /// `CampaignReport::coverage_percent` and `TestSet::percent_unit_tested`.
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.faults.is_empty() {
            return 100.0;
        }
        100.0 * self.detected() as f64 / self.faults.len() as f64
    }

    /// Coverage of the *testable* faults in percent (the paper's effective
    /// coverage: faults proven untestable — by PODEM exhaustion or by
    /// static analysis — need no test). Vacuously 100.0 when every fault is
    /// untestable or the list is empty.
    #[must_use]
    pub fn effective_coverage_percent(&self) -> f64 {
        let testable = self.faults.len() - self.proven_redundant() - self.statically_untestable();
        if testable == 0 {
            return 100.0;
        }
        100.0 * self.detected() as f64 / testable as f64
    }

    /// Whether every fault was resolved: detected or proven untestable
    /// (redundant or statically untestable), with no budget aborts.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.aborted() == 0
            && self.detected() + self.proven_redundant() + self.statically_untestable()
                == self.faults.len()
    }
}

/// A topped-up test set: the functional tests followed by the deterministic
/// patterns, plus the per-fault report.
#[derive(Debug, Clone)]
pub struct TopUpOutcome {
    /// Combined test set: the input tests, then the ATPG patterns.
    pub tests: Vec<ScanTest>,
    /// How many of `tests` came from the functional set (prefix length).
    pub num_functional: usize,
    /// Verdicts and statistics.
    pub report: TopUpReport,
}

impl TopUpOutcome {
    /// The deterministic patterns appended to the functional set.
    #[must_use]
    pub fn atpg_patterns(&self) -> &[ScanTest] {
        &self.tests[self.num_functional..]
    }
}

/// Tops up a functional [`TestSet`] for a synthesized implementation.
///
/// Convenience wrapper around [`top_up_scan`] that first translates the
/// functional tests to gate-level scan tests.
#[must_use]
pub fn top_up(circuit: &SynthesizedCircuit, set: &TestSet, config: &TopUpConfig) -> TopUpOutcome {
    top_up_scan(circuit.netlist(), &set.to_scan_tests(circuit), config)
}

/// Tops up an arbitrary scan test set to complete stuck-at coverage.
///
/// See the module docs for the flow. The input tests are returned unchanged
/// as the prefix of [`TopUpOutcome::tests`]; only patterns for functionally
/// undetected faults are appended.
#[must_use]
pub fn top_up_scan(
    netlist: &Netlist,
    functional: &[ScanTest],
    config: &TopUpConfig,
) -> TopUpOutcome {
    top_up_scan_with(netlist, functional, config, None)
}

/// Like [`top_up_scan`], borrowing a pre-built [`Analysis`] so a caching
/// caller (the `scanft serve` artifact cache) can share one implication/
/// dominator/SCOAP bundle across jobs on the same netlist instead of
/// recomputing or copying it per run. Passing `None` computes the analysis
/// internally (when the config needs one), exactly like [`top_up_scan`];
/// the analysis is pure structural data, so sharing cannot change any
/// verdict.
#[must_use]
pub fn top_up_scan_with(
    netlist: &Netlist,
    functional: &[ScanTest],
    config: &TopUpConfig,
    prebuilt: Option<&Analysis>,
) -> TopUpOutcome {
    let obs = scanft_obs::global();
    let _span = obs.timer("core.top_up").start();

    let universe = faults::enumerate_stuck(netlist);
    let targets: Vec<StuckFault> = if config.collapse {
        collapse::collapse_stuck(netlist, &universe).representatives
    } else {
        universe
    };
    obs.counter("core.top_up.faults").add(targets.len() as u64);

    // One static analysis serves the prune and the guided search; it is
    // skipped entirely only when neither wants it.
    let built;
    let analysis = if config.static_prune || config.use_implications {
        Some(match prebuilt {
            Some(analysis) => analysis,
            None => {
                built = Analysis::new(netlist);
                &built
            }
        })
    } else {
        None
    };

    // Phase 1: functional fault simulation with dropping, in the paper's
    // decreasing-length effective-test order.
    let fault_list = faults::as_fault_list(&targets);
    let functional_report = campaign::run_decreasing_length(netlist, functional, &fault_list);

    let mut status: Vec<Option<FaultStatus>> = functional_report
        .detecting_test
        .iter()
        .map(|d| d.map(|_| FaultStatus::DetectedFunctional))
        .collect();

    // Static pruning: faults with an infinite SCOAP measure or a FIRE-style
    // implication conflict are provably undetectable, so they never reach
    // PODEM. Classification is sound, so a functional detection of a pruned
    // fault is a contradiction.
    if config.static_prune {
        if let Some(analysis) = analysis {
            let mut num_pruned = 0u64;
            for (k, fault) in targets.iter().enumerate() {
                if is_statically_untestable_with(netlist, analysis, fault) {
                    debug_assert!(
                        status[k].is_none(),
                        "statically untestable fault detected functionally: {fault:?}"
                    );
                    status[k] = Some(FaultStatus::StaticallyUntestable);
                    num_pruned += 1;
                }
            }
            obs.counter("core.top_up.static_untestable").add(num_pruned);
        }
    }

    let survivors = functional_report.undetected_faults();
    obs.counter("core.top_up.surviving")
        .add(survivors.len() as u64);

    // Phase 2: deterministic generation on the survivors, reverse order,
    // with each fresh pattern simulated across every still-pending fault.
    // Statically untestable faults are already classified and skipped.
    let mut atpg = match analysis {
        Some(analysis) => Atpg::with_analysis(netlist, analysis),
        None => Atpg::new(netlist),
    };
    let base_config = AtpgConfig {
        decision_budget: config.decision_budget,
        budget: Budget::unlimited(),
        heuristic: config.heuristic,
        use_implications: config.use_implications,
    };
    let clock = config.budget.start();
    let mut stopped: Option<StopReason> = None;
    let mut patterns: Vec<ScanTest> = Vec::new();
    let mut pattern_targets: Vec<StuckFault> = Vec::new();
    let mut dropped = 0usize;
    let mut decisions = 0u64;
    let mut backtracks = 0u64;
    let mut implications = 0u64;
    for &f in survivors.iter().rev() {
        if status[f].is_some() {
            continue; // dropped by an earlier pattern
        }
        if let Err(reason) = clock.try_claim() {
            // Run-level budget exhausted: this target and every remaining
            // unclassified survivor becomes Aborted below.
            stopped = Some(reason);
            break;
        }
        // Each target inherits the remaining run time as its per-fault
        // wall-clock cap, so the last target cannot overshoot the run
        // deadline by its whole decision budget.
        let atpg_config = AtpgConfig {
            budget: match clock.remaining_time() {
                Some(left) => Budget::unlimited().with_deadline(left),
                None => Budget::unlimited(),
            },
            ..base_config
        };
        let result = atpg.generate(&targets[f], &atpg_config);
        decisions += result.stats.decisions;
        backtracks += result.stats.backtracks;
        implications += result.stats.implications;
        match result.outcome {
            AtpgOutcome::Test(test) => {
                // Simulate the new pattern against every pending fault so
                // its collateral detections are dropped from the queue.
                let pending: Vec<usize> = (0..targets.len())
                    .filter(|&k| status[k].is_none())
                    .collect();
                let pending_faults: Vec<scanft_sim::faults::Fault> =
                    pending.iter().map(|&k| fault_list[k]).collect();
                let report = campaign::run_ordered_wide(
                    netlist,
                    std::slice::from_ref(&test),
                    &[0],
                    &pending_faults,
                    true,
                );
                for (slot, &k) in pending.iter().enumerate() {
                    if report.detecting_test[slot].is_some() {
                        status[k] = Some(FaultStatus::DetectedAtpg);
                        if k != f {
                            dropped += 1;
                        }
                    }
                }
                debug_assert_eq!(
                    status[f],
                    Some(FaultStatus::DetectedAtpg),
                    "a generated pattern must detect its own target"
                );
                pattern_targets.push(targets[f]);
                patterns.push(test);
            }
            AtpgOutcome::Redundant => status[f] = Some(FaultStatus::Redundant),
            AtpgOutcome::Aborted { .. } => status[f] = Some(FaultStatus::Aborted),
        }
    }

    obs.counter("core.top_up.patterns")
        .add(patterns.len() as u64);
    obs.counter("core.top_up.dropped").add(dropped as u64);
    if stopped.is_some() {
        obs.counter("core.top_up.budget_stops").inc();
    }
    let report = TopUpReport {
        faults: targets,
        status: status
            .into_iter()
            // Survivors never reached after a budget stop are inconclusive,
            // exactly like a per-fault budget hit.
            .map(|s| s.unwrap_or(FaultStatus::Aborted))
            .collect(),
        atpg_patterns: patterns.len(),
        pattern_targets,
        dropped_by_atpg_patterns: dropped,
        decisions,
        backtracks,
        implications,
        stopped,
    };
    obs.counter("core.top_up.redundant")
        .add(report.proven_redundant() as u64);
    obs.counter("core.top_up.aborted")
        .add(report.aborted() as u64);

    let num_functional = functional.len();
    let mut tests = functional.to_vec();
    tests.extend(patterns);
    TopUpOutcome {
        tests,
        num_functional,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenConfig};
    use scanft_fsm::uio;
    use scanft_netlist::{GateKind, NetlistBuilder};
    use scanft_synth::{synthesize, SynthConfig};

    /// Satellite requirement: on a netlist with zero faults, `top_up`
    /// returns the input test set unchanged and reports 100.0% coverage —
    /// the vacuous convention shared with `percent_unit_tested` and
    /// `coverage_percent`.
    #[test]
    fn vacuous_netlist_returns_input_unchanged_with_full_coverage() {
        // A single dangling PI: no gate, no output, so `enumerate_stuck`
        // skips the only net and the fault universe is empty.
        let netlist = NetlistBuilder::new(1, 0).finish(vec![], vec![]).unwrap();
        assert!(faults::enumerate_stuck(&netlist).is_empty());
        let functional = vec![ScanTest::new(0, vec![1]), ScanTest::new(0, vec![0])];
        let outcome = top_up_scan(&netlist, &functional, &TopUpConfig::default());
        assert_eq!(outcome.tests, functional);
        assert_eq!(outcome.num_functional, functional.len());
        assert!(outcome.atpg_patterns().is_empty());
        let report = &outcome.report;
        assert!(report.faults.is_empty());
        assert!((report.coverage_percent() - 100.0).abs() < 1e-12);
        assert!((report.effective_coverage_percent() - 100.0).abs() < 1e-12);
        assert!(report.is_complete());
        assert_eq!(report.atpg_patterns, 0);
    }

    /// With an empty functional set, top-up degenerates to pure ATPG and
    /// still reaches complete coverage of the non-redundant faults.
    #[test]
    fn pure_atpg_from_empty_functional_set() {
        let lion = scanft_fsm::benchmarks::lion();
        let circuit = synthesize(&lion, &SynthConfig::default());
        let outcome = top_up_scan(circuit.netlist(), &[], &TopUpConfig::default());
        let report = &outcome.report;
        assert_eq!(outcome.num_functional, 0);
        assert_eq!(report.detected_functional(), 0);
        assert!(report.is_complete());
        assert!((report.effective_coverage_percent() - 100.0).abs() < 1e-12);
        assert!(report.atpg_patterns > 0);
        assert_eq!(outcome.atpg_patterns().len(), report.atpg_patterns);
    }

    /// End-to-end on the walkthrough machine: the functional set detects
    /// most faults, ATPG resolves the remainder, nothing aborts, and the
    /// dominant share of detections is functional (the paper's argument for
    /// functional-first generation).
    #[test]
    fn functional_first_then_atpg_on_lion() {
        let lion = scanft_fsm::benchmarks::lion();
        let uios = uio::derive_uios(&lion, lion.num_state_vars());
        let set = generate(&lion, &uios, &GenConfig::default());
        let circuit = synthesize(&lion, &SynthConfig::default());
        let outcome = top_up(&circuit, &set, &TopUpConfig::default());
        let report = &outcome.report;
        assert!(report.is_complete());
        assert!(report.detected_functional() > report.detected_atpg());
        assert_eq!(
            outcome.tests.len(),
            outcome.num_functional + report.atpg_patterns
        );
        // The combined set really covers everything non-redundant: one
        // final straight simulation of the whole set must detect exactly
        // the non-redundant faults.
        let final_report = campaign::run(
            circuit.netlist(),
            &outcome.tests,
            &faults::as_fault_list(&report.faults),
        );
        assert_eq!(
            final_report.detected(),
            report.faults.len() - report.proven_redundant()
        );
    }

    /// Collapsing on/off changes the fault count but not completeness.
    #[test]
    fn uncollapsed_universe_is_also_completed() {
        let lion = scanft_fsm::benchmarks::lion();
        let circuit = synthesize(&lion, &SynthConfig::default());
        let collapsed = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                collapse: true,
                ..TopUpConfig::default()
            },
        );
        let full = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                collapse: false,
                ..TopUpConfig::default()
            },
        );
        assert!(collapsed.report.faults.len() < full.report.faults.len());
        assert!(collapsed.report.is_complete());
        assert!(full.report.is_complete());
    }

    /// Static pruning classifies faults in a dead cone without spending any
    /// PODEM effort, and agrees with what PODEM would have proven itself.
    #[test]
    fn static_pruning_matches_podem_redundancy() {
        // g1 = AND(x1, x2) feeds only a dangling NOT: every fault on g1 and
        // on the branches into g1 is statically untestable.
        let mut b = NetlistBuilder::new(2, 0);
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let _dead = b.add_gate(GateKind::Not, &[g1]).unwrap();
        let live = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let netlist = b.finish(vec![live], vec![]).unwrap();

        let pruned = top_up_scan(&netlist, &[], &TopUpConfig::default());
        assert!(pruned.report.statically_untestable() > 0);
        assert!(pruned.report.is_complete());
        assert!((pruned.report.effective_coverage_percent() - 100.0).abs() < 1e-12);

        let unpruned = top_up_scan(
            &netlist,
            &[],
            &TopUpConfig {
                static_prune: false,
                ..TopUpConfig::default()
            },
        );
        assert_eq!(unpruned.report.statically_untestable(), 0);
        // PODEM reaches the same partition, just by search instead of by
        // analysis: everything pruned statically is proven redundant.
        assert_eq!(
            unpruned.report.proven_redundant(),
            pruned.report.proven_redundant() + pruned.report.statically_untestable()
        );
        assert_eq!(unpruned.report.detected(), pruned.report.detected());
        assert!(unpruned.report.decisions >= pruned.report.decisions);
    }

    /// Implication guidance changes search effort, never verdicts: both
    /// configurations complete the universe with the same fault partition,
    /// and the guided run spends no more backtracks.
    #[test]
    fn implication_guidance_preserves_verdicts() {
        let bbtas = scanft_fsm::benchmarks::build("bbtas").unwrap();
        let circuit = synthesize(&bbtas, &SynthConfig::default());
        let guided = top_up_scan(circuit.netlist(), &[], &TopUpConfig::default());
        let plain = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                use_implications: false,
                ..TopUpConfig::default()
            },
        );
        assert!(guided.report.is_complete());
        assert!(plain.report.is_complete());
        assert_eq!(guided.report.detected(), plain.report.detected());
        assert_eq!(
            guided.report.proven_redundant() + guided.report.statically_untestable(),
            plain.report.proven_redundant() + plain.report.statically_untestable()
        );
        assert!(guided.report.backtracks <= plain.report.backtracks);
        assert_eq!(plain.report.implications, 0);
    }

    /// A zero decision budget aborts every undetected fault instead of
    /// claiming redundancy. Implication guidance is off: the necessary
    /// assignments it fixes cost no decisions and would legitimately detect
    /// some faults even at zero budget.
    #[test]
    fn zero_budget_aborts_survivors() {
        let lion = scanft_fsm::benchmarks::lion();
        let circuit = synthesize(&lion, &SynthConfig::default());
        let outcome = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                decision_budget: 0,
                collapse: true,
                use_implications: false,
                ..TopUpConfig::default()
            },
        );
        let report = &outcome.report;
        assert_eq!(report.detected(), 0);
        assert_eq!(report.proven_redundant(), 0);
        assert_eq!(report.aborted(), report.faults.len());
        assert!(!report.is_complete());
        assert!((report.coverage_percent() - 0.0).abs() < 1e-12);
        assert!(report.stopped.is_none(), "per-fault cap is not a run stop");
    }

    /// A zero-second run-level deadline aborts every survivor before any
    /// search: no detections are invented, no redundancy is claimed by the
    /// search, and the stop reason is recorded.
    #[test]
    fn zero_second_run_deadline_aborts_cleanly() {
        let lion = scanft_fsm::benchmarks::lion();
        let circuit = synthesize(&lion, &SynthConfig::default());
        let outcome = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
                ..TopUpConfig::default()
            },
        );
        let report = &outcome.report;
        assert_eq!(report.stopped, Some(StopReason::Deadline));
        assert_eq!(report.detected(), 0);
        assert_eq!(report.proven_redundant(), 0, "no search ran");
        assert!(outcome.atpg_patterns().is_empty());
        assert_eq!(
            report.aborted() + report.statically_untestable(),
            report.faults.len(),
            "static untestability proofs are kept — they are sound at any deadline"
        );
        assert!(!report.is_complete());
    }

    /// `budget.max_units` caps the number of ATPG targets attempted; the
    /// untouched tail is aborted and the run reports the unit-cap stop.
    #[test]
    fn target_cap_stops_after_the_configured_claims() {
        let lion = scanft_fsm::benchmarks::lion();
        let circuit = synthesize(&lion, &SynthConfig::default());
        let unlimited = top_up_scan(circuit.netlist(), &[], &TopUpConfig::default());
        assert!(unlimited.report.atpg_patterns > 2);
        let capped = top_up_scan(
            circuit.netlist(),
            &[],
            &TopUpConfig {
                budget: Budget::unlimited().with_max_units(2),
                ..TopUpConfig::default()
            },
        );
        let report = &capped.report;
        assert_eq!(report.stopped, Some(StopReason::UnitCap));
        assert!(report.atpg_patterns <= 2);
        assert!(report.aborted() > 0);
        assert!(!report.is_complete());
        // Everything the capped run did claim agrees with the full run.
        assert!(report.detected() <= unlimited.report.detected());
        for (k, &s) in report.status.iter().enumerate() {
            if s == FaultStatus::Redundant {
                assert_eq!(unlimited.report.status[k], FaultStatus::Redundant);
            }
        }
    }
}
