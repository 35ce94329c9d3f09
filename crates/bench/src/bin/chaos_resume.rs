//! Chaos drill: kill-and-resume a supervised campaign and check the golden
//! report, with a fixed chaos seed so CI reruns are bit-for-bit stable.
//!
//! Two drills run back to back:
//!
//! * `lion` — the paper's walkthrough machine, killed after one batch;
//! * `bbtas` — five batches, killed after two, in strict mode: the fixed
//!   seed must quarantine at least one batch *and* leave at least one
//!   intact journal record, so both the panic-isolation path and the
//!   actual resume path are provably exercised.
//!
//! Each drill:
//!
//! 1. runs the uninterrupted sequential campaign — the golden report;
//! 2. runs the supervised campaign under chaos (injected panics, delays,
//!    torn journal records) with a unit-cap budget that kills the run
//!    partway, journaling completed batches to `--journal FILE` (the
//!    circuit name is appended to the path);
//! 3. verifies the partial report never claims a detection outside its
//!    completed batches (coverage is a sound lower bound);
//! 4. resumes from the surviving journal with chaos off and verifies the
//!    final report equals the golden report exactly.
//!
//! Any violation exits 1, so CI can gate on it; the journal files are left
//! behind as the run artifact. `--overhead` instead measures the journaling
//! cost of a fully journaled run against a bare run (EXPERIMENTS.md tracks
//! the <5% target; the number is informational here because CI timing is
//! noisy).

use scanft_harness::{read_journal_file, Budget, FailurePlan, JournalWriter, StopReason};
use scanft_sim::campaign::{self, SupervisedConfig};
use scanft_sim::faults::{self, Fault};
use scanft_sim::ScanTest;
use scanft_synth::{synthesize, SynthConfig};

// Seed chosen so the strict bbtas drill quarantines exactly one of the
// two claimed batches and the other batch's journal record survives the
// torn-write chaos — neither path goes unexercised.
const CHAOS_SEED: u64 = 8;

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

fn config(label: &str, threads: usize, budget: Budget) -> SupervisedConfig {
    SupervisedConfig {
        num_threads: threads,
        observe_scan_out: true,
        budget,
        label: label.to_owned(),
        kernel: scanft_sim::campaign::Kernel::Narrow,
        ..SupervisedConfig::default()
    }
}

fn drill(
    circuit: &str,
    kill_after: u64,
    strict: bool,
    journal_path: &str,
    seed: u64,
) -> Result<(), String> {
    scanft_harness::silence_chaos_panics();
    let s = setup(circuit);
    let golden =
        campaign::run_ordered_wide(s.circuit.netlist(), &s.tests, &s.order, &s.faults, true);
    println!(
        "[{circuit}] golden: {} faults, {} detected ({:.2}%)",
        golden.num_faults(),
        golden.detected(),
        golden.coverage_percent()
    );

    // Phase 1: chaos + kill. The unit cap stops the run partway, like a
    // SIGKILL between batches; chaos tears journal records and injects
    // panics and delays on top. The panic rate is raised from the default
    // so the fixed seed actually hits a claimed batch.
    let plan = FailurePlan::new(seed).with_panic_rate(1, 2);
    let writer = JournalWriter::create(journal_path)
        .map_err(|e| e.to_string())?
        .with_chaos(plan.clone());
    let first = campaign::run_supervised(
        s.circuit.netlist(),
        &s.tests,
        &s.order,
        &s.faults,
        &config(circuit, 2, Budget::unlimited().with_max_units(kill_after)),
        Some(&writer),
        None,
        Some(&plan),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "[{circuit}] interrupted: {} completed, {} quarantined, {} remaining, stopped: {}",
        first.completed_units.len(),
        first.quarantined.len(),
        first.remaining_units.len(),
        first
            .stopped
            .map_or("-".to_owned(), |reason| reason.to_string()),
    );
    if first.stopped != Some(StopReason::UnitCap) {
        return Err("drill expects the unit cap to stop the first run".into());
    }
    if first.is_complete() {
        return Err("first run unexpectedly completed; the drill drilled nothing".into());
    }
    if strict && first.quarantined.is_empty() {
        return Err(format!(
            "seed {seed:#x} injected no panic before the kill; the quarantine path went unexercised"
        ));
    }
    // Sound degradation: nothing outside a completed batch is detected.
    for (f, d) in first.report.detecting_test.iter().enumerate() {
        if d.is_some() && !first.completed_units.contains(&(f / 64)) {
            return Err(format!("fault {f} detected outside a completed batch"));
        }
    }
    if first.report.detected() > golden.detected() {
        return Err("partial coverage exceeds the golden report".into());
    }

    // Phase 2: restart from the journal file, chaos off.
    let journal = read_journal_file(journal_path).map_err(|e| e.to_string())?;
    println!(
        "[{circuit}] journal: {} intact record(s), {} damaged line(s) skipped",
        journal.records.len(),
        journal.skipped_lines
    );
    if strict && journal.records.is_empty() {
        return Err(format!(
            "seed {seed:#x} left no intact journal record; the resume path went unexercised"
        ));
    }
    let resumed = campaign::run_supervised(
        s.circuit.netlist(),
        &s.tests,
        &s.order,
        &s.faults,
        &config(circuit, 2, Budget::unlimited()),
        None,
        Some(&journal),
        None,
    )
    .map_err(|e| e.to_string())?;
    if !resumed.is_complete() {
        return Err("resume did not complete the campaign".into());
    }
    if resumed.resumed_units.len() != journal.records.len() {
        return Err("resume did not reuse every intact journal record".into());
    }
    let report = resumed.report;
    if report != golden {
        return Err("resumed report differs from the golden report".into());
    }
    println!(
        "[{circuit}] resumed: complete, bit-identical to golden ({} detected, {:.2}%)",
        report.detected(),
        report.coverage_percent()
    );
    Ok(())
}

/// Journaling overhead: fully journaled supervised run vs bare supervised
/// run, best-of-N wall clock, on a mid-size circuit.
fn overhead(journal_path: &str) -> Result<(), String> {
    let s = setup("bbsse");
    let rounds = 5;
    let mut bare = f64::INFINITY;
    let mut journaled = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        campaign::run_supervised(
            s.circuit.netlist(),
            &s.tests,
            &s.order,
            &s.faults,
            &config("bbsse", 1, Budget::unlimited()),
            None,
            None,
            None,
        )
        .map_err(|e| e.to_string())?;
        bare = bare.min(t0.elapsed().as_secs_f64());

        let writer = JournalWriter::create(journal_path).map_err(|e| e.to_string())?;
        let t1 = std::time::Instant::now();
        campaign::run_supervised(
            s.circuit.netlist(),
            &s.tests,
            &s.order,
            &s.faults,
            &config("bbsse", 1, Budget::unlimited()),
            Some(&writer),
            None,
            None,
        )
        .map_err(|e| e.to_string())?;
        journaled = journaled.min(t1.elapsed().as_secs_f64());
    }
    let pct = if bare > 0.0 {
        100.0 * (journaled - bare) / bare
    } else {
        0.0
    };
    println!(
        "journaling overhead on bbsse ({} faults, best of {rounds}): bare {:.4}s, journaled {:.4}s, {pct:+.2}%",
        s.faults.len(),
        bare,
        journaled
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let journal_path = args
        .iter()
        .position(|a| a == "--journal")
        .and_then(|p| args.get(p + 1).cloned())
        .unwrap_or_else(|| "chaos_resume.journal.jsonl".to_owned());
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(CHAOS_SEED);
    let result = if args.iter().any(|a| a == "--overhead") {
        overhead(&journal_path)
    } else {
        // lion (the paper's walkthrough, per the roadmap's CI drill) killed
        // after one of its two batches, then bbtas in strict mode: the
        // fixed seed must quarantine a batch AND leave an intact record.
        drill("lion", 1, false, &format!("{journal_path}.lion"), seed)
            .and_then(|()| drill("bbtas", 2, true, &format!("{journal_path}.bbtas"), seed))
    };
    if let Err(message) = result {
        eprintln!("chaos_resume: FAIL: {message}");
        std::process::exit(1);
    }
    println!("chaos_resume: OK");
}
