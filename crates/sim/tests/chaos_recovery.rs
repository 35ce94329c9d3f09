//! Chaos-recovery properties of the supervised campaign runner.
//!
//! Every test here drills one failure mode the `scanft-harness` supervisor
//! must absorb — worker panics, mid-run kills, torn journal writes — and
//! checks the two resilience invariants on real benchmark circuits:
//!
//! 1. **recovery is exact**: a chaos-interrupted run plus a clean resume
//!    from its journal produces a `CampaignReport` bit-identical to an
//!    uninterrupted run (same detecting test per fault, same effectiveness
//!    counts);
//! 2. **degradation is sound**: a partial report never invents coverage —
//!    every fault in a quarantined or remaining batch stays undetected.
//!
//! All chaos is seeded through the workspace SplitMix64, so failures are
//! reproducible by seed.

use scanft_harness::{
    buffer_contents, read_journal, silence_chaos_panics, Budget, FailurePlan, JournalWriter,
    StopReason,
};
use scanft_sim::campaign::{self, CampaignReport, SupervisedConfig};
use scanft_sim::faults::{self, Fault};
use scanft_sim::ScanTest;
use scanft_synth::{synthesize, SynthConfig};

const CIRCUITS: [&str; 3] = ["bbtas", "dk27", "mc"];

struct Setup {
    circuit: scanft_synth::SynthesizedCircuit,
    tests: Vec<ScanTest>,
    order: Vec<usize>,
    faults: Vec<Fault>,
}

fn setup(name: &str) -> Setup {
    let table = scanft_fsm::benchmarks::build(name).expect("registry circuit");
    let circuit = synthesize(&table, &SynthConfig::default());
    let tests: Vec<ScanTest> = table
        .transitions()
        .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
        .collect();
    let order: Vec<usize> = (0..tests.len()).collect();
    let faults = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
    Setup {
        circuit,
        tests,
        order,
        faults,
    }
}

fn uninterrupted(s: &Setup) -> CampaignReport {
    campaign::run_ordered_wide(s.circuit.netlist(), &s.tests, &s.order, &s.faults, true)
}

fn config(name: &str, threads: usize, budget: Budget) -> SupervisedConfig {
    SupervisedConfig {
        num_threads: threads,
        observe_scan_out: true,
        budget,
        label: name.to_owned(),
        kernel: campaign::Kernel::Narrow,
        ..SupervisedConfig::default()
    }
}

/// Chaos panics + torn journal writes, then a clean resume: the combined
/// run must reproduce the uninterrupted report bit-for-bit. Exercised on
/// three suite circuits over several seeds and thread counts.
#[test]
fn chaos_interrupted_run_plus_clean_resume_is_bit_identical() {
    silence_chaos_panics();
    for name in CIRCUITS {
        let s = setup(name);
        let clean = uninterrupted(&s);
        for seed in [1u64, 7, 42, 1234] {
            // Panic roughly a third of the batches and tear half the journal
            // records — far harsher than the CI smoke drill.
            let plan = FailurePlan::new(seed)
                .with_panic_rate(1, 3)
                .with_truncate_rate(1, 2);
            let (writer, buffer) = JournalWriter::in_memory();
            let writer = writer.with_chaos(plan.clone());
            let first = campaign::run_supervised(
                s.circuit.netlist(),
                &s.tests,
                &s.order,
                &s.faults,
                &config(name, 2, Budget::unlimited()),
                Some(&writer),
                None,
                Some(&plan),
            )
            .expect("in-memory journal cannot fail");

            // Soundness while degraded: quarantined batches contribute
            // nothing to coverage.
            for failure in &first.quarantined {
                let lo = failure.unit * 64;
                let hi = (lo + 64).min(s.faults.len());
                for f in lo..hi {
                    assert!(
                        first.report.detecting_test[f].is_none(),
                        "{name} seed {seed}: quarantined batch {} leaked a detection",
                        failure.unit
                    );
                }
            }
            assert!(first.report.detected() <= clean.detected());

            // Clean resume from whatever journal survived the chaos.
            let journal = read_journal(&buffer_contents(&buffer));
            let resumed = campaign::run_supervised(
                s.circuit.netlist(),
                &s.tests,
                &s.order,
                &s.faults,
                &config(name, 3, Budget::unlimited()),
                None,
                Some(&journal),
                None,
            )
            .expect("journal validated against the same campaign");
            assert!(resumed.is_complete(), "{name} seed {seed}");
            assert_eq!(
                resumed.into_complete().expect("complete"),
                clean,
                "{name} seed {seed}: resume must be bit-identical"
            );
        }
    }
}

/// A mid-run kill, simulated by a unit-cap budget: the journal holds the
/// completed prefix, and a resume finishes the rest to the exact
/// uninterrupted report. The journal round-trips through its text form,
/// like a real process restart.
#[test]
fn kill_and_resume_reproduces_uninterrupted_report() {
    for name in CIRCUITS {
        let s = setup(name);
        let clean = uninterrupted(&s);
        let num_units = s.faults.len().div_ceil(64);
        assert!(num_units >= 2, "{name} needs at least two batches");
        for killed_after in 1..num_units {
            let (writer, buffer) = JournalWriter::in_memory();
            let first = campaign::run_supervised(
                s.circuit.netlist(),
                &s.tests,
                &s.order,
                &s.faults,
                &config(
                    name,
                    2,
                    Budget::unlimited().with_max_units(killed_after as u64),
                ),
                Some(&writer),
                None,
                None,
            )
            .expect("in-memory journal cannot fail");
            assert_eq!(first.stopped, Some(StopReason::UnitCap));
            assert_eq!(first.completed_units.len(), killed_after);

            let journal = read_journal(&buffer_contents(&buffer));
            assert_eq!(journal.records.len(), killed_after);
            assert_eq!(journal.skipped_lines, 0);
            let resumed = campaign::run_supervised(
                s.circuit.netlist(),
                &s.tests,
                &s.order,
                &s.faults,
                &config(name, 1, Budget::unlimited()),
                None,
                Some(&journal),
                None,
            )
            .expect("resume");
            assert!(resumed.is_complete());
            assert_eq!(resumed.resumed_units, first.completed_units);
            assert_eq!(
                resumed.into_complete().expect("complete"),
                clean,
                "{name} killed after {killed_after} batches"
            );
        }
    }
}

/// The vacuous-deadline edge on every suite circuit: a zero-second budget
/// yields a clean empty partial report — all units remaining, nothing
/// quarantined, 0% coverage lower bound.
#[test]
fn zero_second_budget_is_cleanly_empty_everywhere() {
    for name in CIRCUITS {
        let s = setup(name);
        let partial = campaign::run_supervised(
            s.circuit.netlist(),
            &s.tests,
            &s.order,
            &s.faults,
            &config(
                name,
                4,
                Budget::unlimited().with_deadline(std::time::Duration::ZERO),
            ),
            None,
            None,
            None,
        )
        .expect("no journal involved");
        assert!(partial.completed_units.is_empty(), "{name}");
        assert!(partial.quarantined.is_empty(), "{name}");
        assert_eq!(partial.remaining_units.len(), partial.num_units, "{name}");
        assert_eq!(partial.stopped, Some(StopReason::Deadline), "{name}");
        assert_eq!(partial.report.detected(), 0, "{name}");
        assert_eq!(partial.faults_unresolved(), s.faults.len(), "{name}");
    }
}

/// Journaling changes nothing about the computed report: a journaled run
/// equals a bare run, and the journal it leaves replays to the same
/// verdicts (record-level determinism, not just aggregate counts).
#[test]
fn journaling_is_observationally_transparent() {
    for name in CIRCUITS {
        let s = setup(name);
        let clean = uninterrupted(&s);
        let (writer, buffer) = JournalWriter::in_memory();
        let journaled = campaign::run_supervised(
            s.circuit.netlist(),
            &s.tests,
            &s.order,
            &s.faults,
            &config(name, 2, Budget::unlimited()),
            Some(&writer),
            None,
            None,
        )
        .expect("in-memory journal cannot fail");
        assert_eq!(journaled.into_complete().expect("complete"), clean);

        // A resume from the *complete* journal re-simulates nothing and
        // still reports identically.
        let journal = read_journal(&buffer_contents(&buffer));
        let replayed = campaign::run_supervised(
            s.circuit.netlist(),
            &s.tests,
            &s.order,
            &s.faults,
            &config(name, 1, Budget::unlimited()),
            None,
            Some(&journal),
            None,
        )
        .expect("resume");
        assert_eq!(replayed.resumed_units.len(), replayed.num_units);
        assert_eq!(replayed.into_complete().expect("complete"), clean, "{name}");
    }
}
