//! Whole-test-set fault simulation with fault dropping, plus the paper's
//! effective-test selection.
//!
//! The paper simulates the functional tests *in decreasing order of length*
//! (ties keep the generation order) with fault dropping, and keeps a test —
//! calls it *effective* — iff it newly detects at least one fault (Table 3
//! for `lion`, Tables 6 and 7 in aggregate). Dropping a test drops one scan
//! operation regardless of its length, so pruning short tests shrinks test
//! application time most.
//!
//! Every runner here is one campaign core: a single good-circuit pass (one
//! [`GoodTrace`] per referenced test) and one batch loop
//! generic over the lane word. The wide kernel (256 lanes, cone-restricted)
//! is the product kernel; the narrow kernel (64 lanes, full re-simulation)
//! is the differential oracle, reached by name through
//! [`run_ordered_observing`] or [`Kernel::Narrow`].
//!
//! race-lint: deterministic-replay — resumed campaigns must merge journal
//! records into results identical to an uninterrupted run, so this module
//! must not consult wall clocks or any other ambient nondeterminism.

use scanft_race::sync::Mutex;

use scanft_harness::{
    run_units, Budget, FailurePlan, Journal, JournalHeader, JournalRecord, JournalWriter,
    ScanftError, StopReason, UnitFailure,
};
use scanft_netlist::Netlist;

use crate::engine::{FaultEngine, InjectionPlan};
use crate::faults::Fault;
use crate::logic::{Evaluator, GoodTrace};
use crate::word::{for_each_lane, LaneWord, W256};
use crate::ScanTest;

/// Which simulation kernel a campaign runs on.
///
/// Both kernels produce bit-identical detection verdicts (the wide kernel's
/// lane `l` behaves exactly like the narrow kernel's lane `l % 64`), and
/// both journal 64-lane units, so checkpoints written by one kernel resume
/// under the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernel {
    /// 64 faults per pass, full netlist re-evaluation per cycle. The
    /// differential oracle.
    Narrow,
    /// 256 faults per pass with cone-restricted, event-driven evaluation
    /// (PPSFP): only gates inside the batch's fault cones whose fanins
    /// deviate from the precomputed fault-free trace are re-evaluated.
    /// The product kernel.
    #[default]
    Wide,
}

/// The per-kernel facts of the campaign core: the lane word, how one
/// batch's injection plan is built, and the sequential runner's timer.
trait KernelWord: LaneWord {
    /// Timer name of the sequential runner on this kernel.
    const TIMER: &'static str;

    /// Builds the injection plan for one batch of at most `LANES` faults.
    fn plan(netlist: &Netlist, batch: &[Fault]) -> InjectionPlan<Self>;
}

/// The narrow oracle: a plan without a cone, so every test falls through
/// to full re-simulation.
impl KernelWord for u64 {
    const TIMER: &'static str = "sim.campaign.run";

    fn plan(netlist: &Netlist, batch: &[Fault]) -> InjectionPlan<u64> {
        InjectionPlan::build(netlist, batch)
    }
}

/// The wide kernel: a cone-restricted plan for stuck-at batches (other
/// fault models, and cones spanning every gate, get no cone and fall back
/// to full evaluation).
impl KernelWord for W256 {
    const TIMER: &'static str = "sim.campaign.run_wide";

    fn plan(netlist: &Netlist, batch: &[Fault]) -> InjectionPlan<W256> {
        InjectionPlan::event_driven(netlist, batch)
    }
}

/// Outcome of simulating an ordered test set against a fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// For each fault (input order), the index *into the simulated order*
    /// of the first test that detects it, or `None` if undetected.
    pub detecting_test: Vec<Option<usize>>,
    /// The simulation order as indices into the caller's test list.
    pub order: Vec<usize>,
    /// Number of faults newly detected by each test of `order`.
    pub new_detections: Vec<usize>,
}

impl CampaignReport {
    /// Assembles a report from per-fault verdicts.
    fn new(detecting_test: Vec<Option<usize>>, order: &[usize]) -> Self {
        let mut new_detections = vec![0usize; order.len()];
        for d in detecting_test.iter().flatten() {
            new_detections[*d] += 1;
        }
        CampaignReport {
            detecting_test,
            order: order.to_vec(),
            new_detections,
        }
    }

    /// Total number of faults simulated.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.detecting_test.len()
    }

    /// Number of detected faults.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.detecting_test.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage in percent (100.0 when there are no faults).
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.detecting_test.is_empty() {
            return 100.0;
        }
        100.0 * self.detected() as f64 / self.detecting_test.len() as f64
    }

    /// Indices (into the caller's test list) of the effective tests — those
    /// that newly detect at least one fault — in simulated order.
    #[must_use]
    pub fn effective_tests(&self) -> Vec<usize> {
        self.order
            .iter()
            .zip(&self.new_detections)
            .filter_map(|(&t, &n)| (n > 0).then_some(t))
            .collect()
    }

    /// Indices of the undetected faults (into the caller's fault list).
    #[must_use]
    pub fn undetected_faults(&self) -> Vec<usize> {
        self.detecting_test
            .iter()
            .enumerate()
            .filter_map(|(f, d)| d.is_none().then_some(f))
            .collect()
    }
}

/// Simulates `tests` in the given order against `faults` with fault
/// dropping, on the wide kernel.
///
/// Each batch walks the test list once, skipping lanes already detected,
/// so the result is identical to per-fault sequential simulation with
/// dropping.
#[must_use]
pub fn run(netlist: &Netlist, tests: &[ScanTest], faults: &[Fault]) -> CampaignReport {
    let order: Vec<usize> = (0..tests.len()).collect();
    run_ordered_wide(netlist, tests, &order, faults, true)
}

/// Simulates tests in the paper's effective-test order: decreasing length,
/// ties in original order.
#[must_use]
pub fn run_decreasing_length(
    netlist: &Netlist,
    tests: &[ScanTest],
    faults: &[Fault],
) -> CampaignReport {
    let order = decreasing_length_order(tests);
    run_ordered_wide(netlist, tests, &order, faults, true)
}

/// The paper's decreasing-length application order: longest test first,
/// index order breaking ties. Exposed so supervised runs (which need an
/// explicit, journal-stable order) match [`run_decreasing_length`].
#[must_use]
pub fn decreasing_length_order(tests: &[ScanTest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tests.len()).collect();
    order.sort_by(|&a, &b| tests[b].len().cmp(&tests[a].len()).then(a.cmp(&b)));
    order
}

/// The narrow-kernel oracle: [`run_ordered_wide`] on 64-fault batches with
/// full re-simulation.
///
/// # Panics
///
/// Panics if `order` references a test out of range.
#[must_use]
pub fn run_ordered_observing(
    netlist: &Netlist,
    tests: &[ScanTest],
    order: &[usize],
    faults: &[Fault],
    observe_scan_out: bool,
) -> CampaignReport {
    run_sequential::<u64>(netlist, tests, order, faults, observe_scan_out)
}

/// Simulates tests in an explicit order (indices into `tests`) with fault
/// dropping, on the **wide kernel**: 256-fault batches evaluated
/// event-driven against precomputed fault-free traces (PPSFP).
/// `observe_scan_out = false` models non-scan test application, where
/// faults are visible only at the primary outputs.
///
/// Produces a report bit-identical to [`run_ordered_observing`] — the
/// per-lane simulations are independent, so batch width and cone
/// restriction cannot change any verdict — at a fraction of the gate
/// evaluations.
///
/// # Panics
///
/// Panics if `order` references a test out of range.
#[must_use]
pub fn run_ordered_wide(
    netlist: &Netlist,
    tests: &[ScanTest],
    order: &[usize],
    faults: &[Fault],
    observe_scan_out: bool,
) -> CampaignReport {
    run_sequential::<W256>(netlist, tests, order, faults, observe_scan_out)
}

/// The good-circuit pass of a campaign: the fault-free trace of every test
/// `order` references, recorded once.
fn good_traces(netlist: &Netlist, tests: &[ScanTest], order: &[usize]) -> Vec<Option<GoodTrace>> {
    let mut evaluator = Evaluator::new(netlist);
    let mut traces: Vec<Option<GoodTrace>> = vec![None; tests.len()];
    for &t in order {
        if traces[t].is_none() {
            traces[t] = Some(evaluator.record_trace(&tests[t]));
        }
    }
    traces
}

/// One batch simulated against the ordered test list with fault dropping:
/// the tests run until every lane of `plan` outside `skip` is detected.
/// Returns the detecting-test position per lane and the number of tests
/// simulated.
fn run_batch<W: LaneWord>(
    engine: &mut FaultEngine<'_, W>,
    tests: &[ScanTest],
    order: &[usize],
    traces: &[Option<GoodTrace>],
    plan: &InjectionPlan<W>,
    skip: W,
    observe_scan_out: bool,
) -> (Vec<Option<usize>>, usize) {
    let mut local: Vec<Option<usize>> = vec![None; plan.num_faults()];
    let all = plan.lane_mask();
    let mut detected = skip & all;
    for (pos, &t) in order.iter().enumerate() {
        if detected == all {
            // Fault dropping: the whole batch is detected, so the rest of
            // the ordered test list never has to be simulated.
            return (local, pos);
        }
        let trace = traces[t].as_ref().expect("trace precomputed");
        let newly =
            engine.run_test_event_driven(&tests[t], trace, plan, detected, observe_scan_out);
        for_each_lane(newly, |lane| local[lane] = Some(pos));
        detected |= newly;
    }
    (local, order.len())
}

/// The sequential runner behind [`run_ordered_observing`] and
/// [`run_ordered_wide`].
fn run_sequential<W: KernelWord>(
    netlist: &Netlist,
    tests: &[ScanTest],
    order: &[usize],
    faults: &[Fault],
    observe_scan_out: bool,
) -> CampaignReport {
    let obs = scanft_obs::global();
    let _span = obs.timer(W::TIMER).start();
    obs.counter("sim.campaign.faults").add(faults.len() as u64);
    let batches_run = obs.counter("sim.campaign.batches");
    let tests_simulated = obs.counter("sim.campaign.tests_simulated");
    let tests_skipped = obs.counter("sim.campaign.tests_skipped");
    if order.is_empty() {
        // No test can detect anything (top-up's pure-ATPG phase 1), so no
        // batch needs a plan.
        batches_run.add(faults.len().div_ceil(W::LANES) as u64);
        return CampaignReport::new(vec![None; faults.len()], order);
    }

    let traces = good_traces(netlist, tests, order);
    let mut engine = FaultEngine::<W>::new(netlist);
    let mut detecting_test: Vec<Option<usize>> = Vec::with_capacity(faults.len());
    for batch in faults.chunks(W::LANES) {
        batches_run.inc();
        let plan = W::plan(netlist, batch);
        let (local, simulated) = run_batch(
            &mut engine,
            tests,
            order,
            &traces,
            &plan,
            W::zero(),
            observe_scan_out,
        );
        tests_simulated.add(simulated as u64);
        tests_skipped.add((order.len() - simulated) as u64);
        detecting_test.extend(local);
    }
    obs.counter("sim.kernel.gate_evals")
        .add(engine.take_gate_evals());
    CampaignReport::new(detecting_test, order)
}

/// Knobs for a supervised campaign run.
#[derive(Debug, Clone)]
pub struct SupervisedConfig {
    /// Number of worker threads (must be positive).
    pub num_threads: usize,
    /// Whether faults are observed at the scan-out in addition to the POs.
    pub observe_scan_out: bool,
    /// Wall-clock deadline and batch-count cap for this run.
    pub budget: Budget,
    /// Human-readable label recorded in the journal header.
    pub label: String,
    /// Which simulation kernel to run on. Verdicts and journal layout are
    /// identical across kernels; only throughput differs.
    pub kernel: Kernel,
    /// Always `None`: the netlist is the only gate layout, so there is
    /// nothing left to prebuild. Kept so that callers naming every field
    /// still compile; it admits no other value and is read nowhere.
    pub arena: Option<std::convert::Infallible>,
}

impl Default for SupervisedConfig {
    fn default() -> Self {
        SupervisedConfig {
            num_threads: 1,
            observe_scan_out: true,
            budget: Budget::unlimited(),
            label: "campaign".to_owned(),
            kernel: Kernel::Wide,
            arena: None,
        }
    }
}

/// Outcome of a supervised (budgeted, panic-isolated, resumable) campaign.
///
/// The embedded [`CampaignReport`] is a **sound lower bound**: faults in
/// quarantined or remaining batches are reported as undetected, never
/// guessed. When [`PartialReport::is_complete`] holds, the report is
/// bit-identical to what the uninterrupted sequential runner produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialReport {
    /// Lower-bound campaign report over the full fault list.
    pub report: CampaignReport,
    /// Batch ids that finished (freshly simulated or merged from the
    /// resume journal), sorted.
    pub completed_units: Vec<usize>,
    /// Batch ids merged from the resume journal (subset of
    /// `completed_units`), sorted.
    pub resumed_units: Vec<usize>,
    /// Batches whose worker panicked, with the panic message.
    pub quarantined: Vec<UnitFailure>,
    /// Batch ids never simulated because the budget stopped the run.
    pub remaining_units: Vec<usize>,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
    /// Total number of 64-fault batches in the campaign.
    pub num_units: usize,
}

impl PartialReport {
    /// Whether every batch completed: nothing quarantined, nothing left.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty() && self.remaining_units.is_empty()
    }

    /// Detected-over-all-faults coverage in percent. Quarantined and
    /// remaining faults count as undetected, so this is a sound lower
    /// bound on the true coverage.
    #[must_use]
    pub fn coverage_lower_bound_percent(&self) -> f64 {
        self.report.coverage_percent()
    }

    /// The full report, only when the campaign actually completed.
    #[must_use]
    pub fn into_complete(self) -> Option<CampaignReport> {
        self.is_complete().then_some(self.report)
    }

    /// Number of faults whose verdict is still unknown (they sit in a
    /// quarantined or remaining batch).
    #[must_use]
    pub fn faults_unresolved(&self) -> usize {
        let num_faults = self.report.num_faults();
        self.quarantined
            .iter()
            .map(|f| f.unit)
            .chain(self.remaining_units.iter().copied())
            .map(|unit| (num_faults - unit * 64).min(64))
            .sum()
    }
}

/// Runs a campaign under the resilient supervisor: 64-fault journal units
/// with panic quarantine, an enforced [`Budget`], an optional append-only
/// checkpoint journal, resume from a previously written journal, and
/// optional chaos injection.
///
/// Journaling writes one header line plus one record per completed unit
/// (flushed immediately, so a killed process loses at most the record
/// being written). `resume_from` merges intact records of a prior journal
/// — validated against this campaign's shape — and re-simulates only the
/// missing units; a resumed-and-completed run is bit-identical to an
/// uninterrupted one.
///
/// # Errors
///
/// Returns [`ScanftError::Journal`] when the resume journal does not match
/// this campaign or a journal write fails.
///
/// # Panics
///
/// Panics if `config.num_threads == 0` or `order` references a test out of
/// range.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    netlist: &Netlist,
    tests: &[ScanTest],
    order: &[usize],
    faults: &[Fault],
    config: &SupervisedConfig,
    journal: Option<&JournalWriter>,
    resume_from: Option<&Journal>,
    chaos: Option<&FailurePlan>,
) -> Result<PartialReport, ScanftError> {
    let supervise = match config.kernel {
        Kernel::Narrow => supervise::<u64>,
        Kernel::Wide => supervise::<W256>,
    };
    supervise(
        netlist,
        tests,
        order,
        faults,
        config,
        journal,
        resume_from,
        chaos,
    )
}

/// The supervised driver behind [`run_supervised`]. Both kernels journal
/// 64-lane units; one batch of `W` covers `W::LANES / 64` consecutive
/// units (its work-unit id is the batch index), runs when any of them is
/// missing, and is split back into per-unit records — so a checkpoint
/// written by one kernel resumes under the other.
#[allow(clippy::too_many_arguments)]
fn supervise<W: KernelWord>(
    netlist: &Netlist,
    tests: &[ScanTest],
    order: &[usize],
    faults: &[Fault],
    config: &SupervisedConfig,
    journal: Option<&JournalWriter>,
    resume_from: Option<&Journal>,
    chaos: Option<&FailurePlan>,
) -> Result<PartialReport, ScanftError> {
    assert!(config.num_threads > 0, "num_threads must be positive");
    let obs = scanft_obs::global();
    let _span = obs.timer("sim.campaign.supervised").start();
    obs.counter("sim.campaign.faults").add(faults.len() as u64);

    let num_units = faults.len().div_ceil(64);
    let unit_faults = |unit: usize| &faults[unit * 64..((unit + 1) * 64).min(faults.len())];
    let header = JournalHeader {
        label: config.label.clone(),
        faults: faults.len(),
        units: num_units,
        order: order.len(),
        lanes_per_unit: 64,
    };

    // Merge intact, shape-correct records of the resume journal; anything
    // damaged is simply re-simulated.
    let mut prior: Vec<Option<&JournalRecord>> = vec![None; num_units];
    if let Some(journal) = resume_from {
        journal.validate(&header)?;
        for record in &journal.records {
            if record.unit < num_units && record.lanes.len() == unit_faults(record.unit).len() {
                // Last record wins; duplicates can only disagree if the
                // journal was tampered with, and simulation re-derives the
                // truth for any unit we refuse here.
                prior[record.unit] = Some(record);
            }
        }
    }
    let resumed_units: Vec<usize> = (0..num_units).filter(|&u| prior[u].is_some()).collect();
    obs.counter("sim.campaign.units_resumed")
        .add(resumed_units.len() as u64);

    if let (Some(writer), None) = (journal, resume_from) {
        writer
            .write_header(&header)
            .map_err(|e| ScanftError::Journal {
                message: format!("writing journal header: {e}"),
            })?;
    }

    let prior = &prior;
    let slots = W::LANES / 64;
    let batch_units = move |batch: usize| batch * slots..((batch + 1) * slots).min(num_units);
    let missing_units = move |batch: usize| batch_units(batch).filter(move |&u| prior[u].is_none());
    let pending: Vec<usize> = (0..num_units.div_ceil(slots))
        .filter(|&batch| missing_units(batch).next().is_some())
        .collect();

    let traces = good_traces(netlist, tests, order);
    let batches_run = obs.counter("sim.campaign.batches");
    let gate_evals = obs.counter("sim.kernel.gate_evals");
    let journal_error: Mutex<Option<String>> = Mutex::new(None);
    let outcome = run_units(
        &pending,
        config.num_threads,
        &config.budget,
        chaos,
        || FaultEngine::<W>::new(netlist),
        |engine, batch| {
            let first = batch_units(batch).start;
            let batch_faults = &faults[first * 64..(batch_units(batch).end * 64).min(faults.len())];
            batches_run.inc();
            let plan = W::plan(netlist, batch_faults);
            // Lanes of already-journaled units stay skipped: they quiesce
            // to fault-free values and cost no events.
            let mut skip = W::zero();
            for unit in batch_units(batch).filter(|&u| prior[u].is_some()) {
                let slot = unit - first;
                skip |= W::low_lanes(64 * (slot + 1)) & !W::low_lanes(64 * slot);
            }
            let (local, _) = run_batch(
                engine,
                tests,
                order,
                &traces,
                &plan,
                skip,
                config.observe_scan_out,
            );
            gate_evals.add(engine.take_gate_evals());
            missing_units(batch)
                .map(|unit| {
                    let lo = (unit - first) * 64;
                    let verdicts = local[lo..(lo + 64).min(local.len())].to_vec();
                    if let Some(writer) = journal {
                        let record = JournalRecord {
                            unit,
                            lanes: verdicts.iter().map(|d| d.map(|p| p as u64)).collect(),
                        };
                        if let Err(e) = writer.append(&record) {
                            journal_error.lock().get_or_insert_with(|| e.to_string());
                        }
                    }
                    (unit, verdicts)
                })
                .collect::<Vec<_>>()
        },
    );
    if let Some(message) = journal_error.into_inner() {
        return Err(ScanftError::Journal {
            message: format!("writing journal record: {message}"),
        });
    }

    let mut detecting_test: Vec<Option<usize>> = vec![None; faults.len()];
    for (unit, record) in prior.iter().enumerate() {
        if let Some(record) = record {
            for (lane, &pos) in record.lanes.iter().enumerate() {
                detecting_test[unit * 64 + lane] = pos.map(|p| p as usize);
            }
        }
    }
    let mut completed_units = resumed_units.clone();
    for (unit, verdicts) in outcome.completed.into_iter().flat_map(|(_, units)| units) {
        completed_units.push(unit);
        detecting_test[unit * 64..unit * 64 + verdicts.len()].copy_from_slice(&verdicts);
    }
    completed_units.sort_unstable();
    let quarantined: Vec<UnitFailure> = outcome
        .quarantined
        .into_iter()
        .flat_map(|f| {
            missing_units(f.unit).map(move |unit| UnitFailure {
                unit,
                message: f.message.clone(),
            })
        })
        .collect();
    let remaining_units: Vec<usize> = outcome
        .remaining
        .iter()
        .copied()
        .flat_map(missing_units)
        .collect();

    Ok(PartialReport {
        report: CampaignReport::new(detecting_test, order),
        completed_units,
        resumed_units,
        quarantined,
        remaining_units,
        stopped: outcome.stopped,
        num_units,
    })
}

/// Per-test row of an effectiveness table (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectivenessRow {
    /// Index into the caller's test list.
    pub test: usize,
    /// Test length.
    pub length: usize,
    /// Cumulative faults detected after simulating this test.
    pub cumulative_detected: usize,
    /// Whether the test newly detected any fault.
    pub effective: bool,
}

/// Produces the rows of a Table-3-style effectiveness table from a
/// decreasing-length campaign.
#[must_use]
pub fn effectiveness_table(tests: &[ScanTest], report: &CampaignReport) -> Vec<EffectivenessRow> {
    let mut cumulative = 0usize;
    report
        .order
        .iter()
        .zip(&report.new_detections)
        .map(|(&t, &n)| {
            cumulative += n;
            EffectivenessRow {
                test: t,
                length: tests[t].len(),
                cumulative_detected: cumulative,
                effective: n > 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults;
    use scanft_synth::{synthesize, SynthConfig};

    fn lion_setup() -> (scanft_synth::SynthesizedCircuit, Vec<ScanTest>) {
        let lion = scanft_fsm::benchmarks::lion();
        let c = synthesize(&lion, &SynthConfig::default());
        let tests = lion
            .transitions()
            .map(|t| ScanTest::new(c.encode_state(t.from), vec![t.input]))
            .collect();
        (c, tests)
    }

    #[test]
    fn exhaustive_transition_tests_detect_everything_detectable() {
        // Length-1 tests for every transition exercise every (state, input)
        // pair, so they must detect exactly the detectable faults — the
        // faults they miss are combinationally redundant (the situation the
        // paper describes for its sub-100% rows of Table 6).
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let list = faults::as_fault_list(&stuck);
        let report = run(c.netlist(), &tests, &list);
        let (detectable, undetectable, over) =
            crate::exhaustive::classify(c.netlist(), &list, 1 << 20);
        assert!(over.is_empty());
        assert_eq!(report.detected(), detectable.len());
        for f in report.undetected_faults() {
            assert!(undetectable.contains(&f), "fault {f} detectable but missed");
        }
    }

    #[test]
    fn order_does_not_change_coverage() {
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let list = faults::as_fault_list(&stuck);
        let forward = run(c.netlist(), &tests, &list);
        let reversed_order: Vec<usize> = (0..tests.len()).rev().collect();
        let backward = run_ordered_wide(c.netlist(), &tests, &reversed_order, &list, true);
        assert_eq!(forward.detected(), backward.detected());
    }

    #[test]
    fn decreasing_length_order_is_stable() {
        let tests = vec![
            ScanTest::new(0, vec![0]),
            ScanTest::new(0, vec![0, 1, 2]),
            ScanTest::new(0, vec![1]),
            ScanTest::new(0, vec![1, 2]),
        ];
        let (c, _) = lion_setup();
        let report = run_decreasing_length(c.netlist(), &tests, &[]);
        assert_eq!(report.order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn effectiveness_rows_accumulate() {
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let report = run_decreasing_length(c.netlist(), &tests, &faults::as_fault_list(&stuck));
        let rows = effectiveness_table(&tests, &report);
        assert_eq!(rows.len(), tests.len());
        let last = rows.last().unwrap();
        assert_eq!(last.cumulative_detected, report.detected());
        // Cumulative counts never decrease.
        for pair in rows.windows(2) {
            assert!(pair[1].cumulative_detected >= pair[0].cumulative_detected);
        }
        // Every effective row adds detections.
        for pair in rows.windows(2) {
            assert_eq!(
                pair[1].effective,
                pair[1].cumulative_detected > pair[0].cumulative_detected
            );
        }
    }

    #[test]
    fn effective_tests_cover_like_full_set() {
        // Re-simulating only the effective tests yields the same coverage —
        // the invariant behind the paper's test-set pruning.
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let list = faults::as_fault_list(&stuck);
        let report = run_decreasing_length(c.netlist(), &tests, &list);
        let effective = report.effective_tests();
        assert!(!effective.is_empty());
        assert!(effective.len() < tests.len());
        let pruned: Vec<ScanTest> = effective.iter().map(|&t| tests[t].clone()).collect();
        let pruned_report = run(c.netlist(), &pruned, &list);
        assert_eq!(pruned_report.detected(), report.detected());
    }

    #[test]
    fn parallel_equals_sequential() {
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let list = faults::as_fault_list(&stuck);
        let order: Vec<usize> = (0..tests.len()).collect();
        for observe_scan_out in [true, false] {
            let sequential =
                run_ordered_observing(c.netlist(), &tests, &order, &list, observe_scan_out);
            for kernel in [Kernel::Narrow, Kernel::Wide] {
                for num_threads in [1, 2, 4] {
                    let config = SupervisedConfig {
                        num_threads,
                        observe_scan_out,
                        kernel,
                        ..SupervisedConfig::default()
                    };
                    let parallel = run_supervised(
                        c.netlist(),
                        &tests,
                        &order,
                        &list,
                        &config,
                        None,
                        None,
                        None,
                    )
                    .expect("no journal involved");
                    assert_eq!(
                        parallel.into_complete().expect("complete"),
                        sequential,
                        "{kernel:?} x{num_threads} observe={observe_scan_out}"
                    );
                }
            }
        }
    }

    /// Vacuous case pinned: an empty fault list is 100% covered — the same
    /// convention as `TestSet::percent_unit_tested` with zero transitions.
    #[test]
    fn empty_fault_list_is_vacuously_covered() {
        let (c, tests) = lion_setup();
        let report = run(c.netlist(), &tests, &[]);
        assert_eq!(report.num_faults(), 0);
        assert_eq!(report.detected(), 0);
        assert!((report.coverage_percent() - 100.0).abs() < 1e-12);
        assert!(report.undetected_faults().is_empty());
    }

    #[test]
    fn more_than_64_faults_batch_correctly() {
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        assert!(
            stuck.len() > 64,
            "need multiple batches, got {}",
            stuck.len()
        );
        let list = faults::as_fault_list(&stuck);
        let order: Vec<usize> = (0..tests.len()).collect();
        let narrow = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        let wide = run(c.netlist(), &tests, &list);
        // Cross-check a sample of faults against single-fault simulation.
        for (f, fault) in list.iter().enumerate().step_by(7) {
            let single = run_ordered_observing(
                c.netlist(),
                &tests,
                &order,
                std::slice::from_ref(fault),
                true,
            );
            assert_eq!(
                single.detecting_test[0], narrow.detecting_test[f],
                "fault {f}"
            );
            assert_eq!(
                single.detecting_test[0], wide.detecting_test[f],
                "fault {f}"
            );
        }
    }

    fn lion_campaign() -> (
        scanft_synth::SynthesizedCircuit,
        Vec<ScanTest>,
        Vec<usize>,
        Vec<Fault>,
    ) {
        let (c, tests) = lion_setup();
        let stuck = faults::enumerate_stuck(c.netlist());
        let list = faults::as_fault_list(&stuck);
        let order: Vec<usize> = (0..tests.len()).collect();
        (c, tests, order, list)
    }

    #[test]
    fn supervised_complete_run_matches_sequential() {
        let (c, tests, order, list) = lion_campaign();
        let sequential = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        let config = SupervisedConfig {
            num_threads: 2,
            ..SupervisedConfig::default()
        };
        let partial = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &config,
            None,
            None,
            None,
        )
        .expect("no journal involved");
        assert!(partial.is_complete());
        assert!(partial.stopped.is_none());
        assert_eq!(partial.resumed_units, Vec::<usize>::new());
        assert_eq!(partial.completed_units.len(), partial.num_units);
        assert_eq!(partial.into_complete().expect("complete"), sequential);
    }

    #[test]
    fn supervised_zero_second_budget_is_cleanly_empty() {
        // The vacuous-deadline edge: nothing simulated, nothing quarantined,
        // every batch remaining, coverage lower bound 0%.
        let (c, tests, order, list) = lion_campaign();
        let config = SupervisedConfig {
            num_threads: 2,
            budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
            ..SupervisedConfig::default()
        };
        let partial = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &config,
            None,
            None,
            None,
        )
        .expect("no journal involved");
        assert!(partial.completed_units.is_empty());
        assert!(partial.quarantined.is_empty());
        assert_eq!(partial.remaining_units.len(), partial.num_units);
        assert_eq!(partial.stopped, Some(StopReason::Deadline));
        assert_eq!(partial.report.detected(), 0);
        assert!(partial.coverage_lower_bound_percent().abs() < 1e-12);
        assert_eq!(partial.faults_unresolved(), list.len());
        assert!(partial.into_complete().is_none());
    }

    #[test]
    fn supervised_journal_then_resume_is_bit_identical() {
        let (c, tests, order, list) = lion_campaign();
        let uninterrupted = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        // lion's 80 faults fill one wide batch, so a partial journal needs
        // the narrow kernel's 64-fault batches.
        let config = SupervisedConfig {
            num_threads: 2,
            // Stop after one batch so the journal is genuinely partial.
            budget: Budget::unlimited().with_max_units(1),
            kernel: Kernel::Narrow,
            ..SupervisedConfig::default()
        };
        let (writer, buffer) = JournalWriter::in_memory();
        let first = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &config,
            Some(&writer),
            None,
            None,
        )
        .expect("journal write to memory");
        assert_eq!(first.completed_units.len(), 1);
        assert!(!first.remaining_units.is_empty());

        let journal = scanft_harness::read_journal(&scanft_harness::buffer_contents(&buffer));
        assert_eq!(journal.records.len(), 1);
        let resumed_config = SupervisedConfig {
            num_threads: 2,
            kernel: Kernel::Narrow,
            ..SupervisedConfig::default()
        };
        let resumed = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &resumed_config,
            None,
            Some(&journal),
            None,
        )
        .expect("resume");
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed_units, first.completed_units);
        assert_eq!(resumed.into_complete().expect("complete"), uninterrupted);
    }

    #[test]
    fn supervised_resume_refuses_mismatched_journal() {
        let (c, tests, order, list) = lion_campaign();
        let (writer, buffer) = JournalWriter::in_memory();
        writer
            .write_header(&JournalHeader {
                label: "other".to_owned(),
                faults: list.len() + 1,
                units: 9,
                order: order.len(),
                lanes_per_unit: 64,
            })
            .expect("memory write");
        let journal = scanft_harness::read_journal(&scanft_harness::buffer_contents(&buffer));
        let err = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &SupervisedConfig::default(),
            None,
            Some(&journal),
            None,
        )
        .expect_err("shape mismatch must refuse");
        assert!(matches!(err, ScanftError::Journal { .. }));
    }

    #[test]
    fn empty_batch_runs_no_simulation() {
        // Regression: an empty batch used to run a full (vacuous)
        // simulation pass before noticing its all-zero lane mask.
        let (c, tests, order, _) = lion_campaign();
        let traces = good_traces(c.netlist(), &tests, &order);
        let mut engine = FaultEngine::new(c.netlist());
        let plan = InjectionPlan::new(c.netlist(), &[]);
        let (verdicts, simulated) = run_batch(&mut engine, &tests, &order, &traces, &plan, 0, true);
        assert!(verdicts.is_empty());
        assert_eq!(simulated, 0);
        assert_eq!(engine.gate_evals(), 0, "empty batch must not simulate");
    }

    #[test]
    fn wide_sequential_matches_narrow() {
        // The differential oracle: the wide event-driven kernel must agree
        // with the narrow full-resimulation kernel verdict-for-verdict.
        let (c, tests, order, list) = lion_campaign();
        for observe in [true, false] {
            let narrow = run_ordered_observing(c.netlist(), &tests, &order, &list, observe);
            let wide = run_ordered_wide(c.netlist(), &tests, &order, &list, observe);
            assert_eq!(wide.detecting_test, narrow.detecting_test, "{observe}");
            assert_eq!(wide.new_detections, narrow.new_detections);
        }
    }

    #[test]
    fn wide_supervised_matches_narrow_and_journals_64_lane_units() {
        let (c, tests, order, list) = lion_campaign();
        let sequential = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        let config = SupervisedConfig {
            num_threads: 2,
            kernel: Kernel::Wide,
            ..SupervisedConfig::default()
        };
        let (writer, buffer) = JournalWriter::in_memory();
        let partial = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &config,
            Some(&writer),
            None,
            None,
        )
        .expect("journal write to memory");
        assert!(partial.is_complete());
        assert_eq!(partial.into_complete().expect("complete"), sequential);
        // Wide super-batches still journal one 64-lane record per unit, so
        // narrow runs can resume from this checkpoint (and vice versa).
        let journal = scanft_harness::read_journal(&scanft_harness::buffer_contents(&buffer));
        assert_eq!(journal.records.len(), list.len().div_ceil(64));
        for record in &journal.records {
            assert!(record.lanes.len() <= 64);
        }
    }

    #[test]
    fn wide_resume_from_narrow_journal_is_bit_identical() {
        // Cross-kernel resume: a checkpoint written by the narrow kernel
        // continues under the wide kernel (journaled units become skipped
        // lanes in the super batch) with bit-identical results.
        let (c, tests, order, list) = lion_campaign();
        let uninterrupted = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        let narrow_config = SupervisedConfig {
            budget: Budget::unlimited().with_max_units(1),
            kernel: Kernel::Narrow,
            ..SupervisedConfig::default()
        };
        let (writer, buffer) = JournalWriter::in_memory();
        let first = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &narrow_config,
            Some(&writer),
            None,
            None,
        )
        .expect("journal write to memory");
        assert_eq!(first.completed_units.len(), 1);
        assert!(!first.remaining_units.is_empty());

        let journal = scanft_harness::read_journal(&scanft_harness::buffer_contents(&buffer));
        let wide_config = SupervisedConfig {
            kernel: Kernel::Wide,
            ..SupervisedConfig::default()
        };
        let resumed = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &wide_config,
            None,
            Some(&journal),
            None,
        )
        .expect("resume");
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed_units, first.completed_units);
        assert_eq!(resumed.into_complete().expect("complete"), uninterrupted);
    }

    #[test]
    fn kernel_defaults_to_wide() {
        assert_eq!(Kernel::default(), Kernel::Wide);
        assert_eq!(SupervisedConfig::default().kernel, Kernel::Wide);
    }

    #[test]
    fn supervised_quarantine_keeps_coverage_a_lower_bound() {
        scanft_harness::silence_chaos_panics();
        let (c, tests, order, list) = lion_campaign();
        let sequential = run_ordered_observing(c.netlist(), &tests, &order, &list, true);
        // Panic on every unit: coverage must be exactly zero, never invented.
        let plan = FailurePlan::new(7).with_panic_rate(1, 1);
        let partial = run_supervised(
            c.netlist(),
            &tests,
            &order,
            &list,
            &SupervisedConfig::default(),
            None,
            None,
            Some(&plan),
        )
        .expect("no journal involved");
        assert!(partial.completed_units.is_empty());
        assert_eq!(partial.quarantined.len(), partial.num_units);
        assert_eq!(partial.report.detected(), 0);
        assert!(partial.coverage_lower_bound_percent() <= sequential.coverage_percent());
    }
}
