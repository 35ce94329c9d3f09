//! `scanft` — command-line driver for the functional test generation flow.
//!
//! ```text
//! scanft list
//! scanft show <circuit> [--kiss]
//! scanft uio <circuit> [--max-len N]
//! scanft generate <circuit> [--no-transfer] [--uio-cap N]
//! scanft simulate <circuit> --tests FILE [--threads N] [--deadline SECS] [--journal FILE] [--resume] [--chaos-seed N]
//! scanft evaluate <circuit> [--functional-only] [--top-up] [--gray]
//! scanft optimize <circuit> [--cert FILE]
//! scanft atpg <circuit> [--budget N] [--deadline SECS] [--no-functional] [--uncollapsed] [--no-implications] [--gray] [--level]
//! scanft synth <circuit> [--gray] [--flat] [--dot|--blif]
//! scanft lint <circuit>... | --all [--json] [--full] [--deny|--warn|--allow CODE]
//! ```
//!
//! Circuits are the 31 benchmarks of the paper's Table 4, or a path to a
//! KISS2 file.
//!
//! Every command additionally accepts `--metrics[=FILE]` (or the
//! `SCANFT_METRICS` environment variable set to a path, `-` for stdout):
//! after the command finishes, the process-wide `scanft-obs` registry is
//! exported as JSON lines — one counter, gauge or timer per line.
//!
//! Failures exit with a per-class code from
//! [`scanft_harness::ScanftError::exit_code`]: 2 usage, 3 FSM/KISS2,
//! 4 I/O, 5 netlist, 6 synthesis, 7 test-file format, 8 journal,
//! 9 recovery (a `serve --state-dir` WAL that cannot be replayed). Exit 1
//! is reserved for "ran and reported a negative result" (`lint` deny
//! findings); 0 is success.

use std::process::ExitCode;

use scanft_core::flow::{run_flow, FlowConfig};
use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{benchmarks, format_input_seq, kiss, StateTable};
use scanft_harness::{Budget, FailurePlan, JournalWriter, ScanftError};
use scanft_synth::{synthesize, Encoding, SynthConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = run(&args);
    if let Some(dest) = metrics_destination(&args) {
        if let Err(err) = export_metrics(&dest) {
            eprintln!("error[{}]: {err}", err.class());
            return ExitCode::from(err.exit_code());
        }
    }
    match outcome {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error[{}]: {err}", err.class());
            if matches!(err, ScanftError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(err.exit_code())
        }
    }
}

/// Where to export the metrics registry, if anywhere: `--metrics` alone (or
/// a destination of `-`) means stdout, `--metrics=FILE` a file, and the
/// `SCANFT_METRICS` environment variable supplies a destination when the
/// flag is absent.
fn metrics_destination(args: &[String]) -> Option<String> {
    for arg in args {
        if arg == "--metrics" {
            return Some("-".to_owned());
        }
        if let Some(path) = arg.strip_prefix("--metrics=") {
            return Some(path.to_owned());
        }
    }
    std::env::var("SCANFT_METRICS")
        .ok()
        .filter(|v| !v.is_empty())
}

fn export_metrics(dest: &str) -> Result<(), ScanftError> {
    let jsonl = scanft_obs::global().to_jsonl();
    if dest == "-" {
        print!("{jsonl}");
        Ok(())
    } else {
        std::fs::write(dest, jsonl).map_err(|e| ScanftError::Io {
            path: dest.to_owned(),
            source: e,
        })
    }
}

const USAGE: &str = "usage:
  scanft list
  scanft show <circuit> [--kiss]
  scanft uio <circuit> [--max-len N]
  scanft generate <circuit> [--no-transfer] [--uio-cap N] [--out FILE]
  scanft simulate <circuit> --tests FILE [--threads N] [--deadline SECS]
                  [--journal FILE] [--resume] [--chaos-seed N]
  scanft evaluate <circuit> [--functional-only] [--top-up] [--gray]
  scanft optimize <circuit> [--cert FILE]
  scanft atpg <circuit> [--budget N] [--deadline SECS] [--no-functional] [--uncollapsed] [--no-implications] [--gray] [--level]
  scanft synth <circuit> [--gray] [--flat] [--dot|--blif]
  scanft lint <circuit>... | --all [--json] [--full] [--deny|--warn|--allow CODE]
  scanft dot <circuit>
  scanft serve [--addr HOST:PORT] [--workers N] [--threads N]
               [--journal-dir DIR] [--cache N]
               [--max-active N] [--max-units N] [--body-limit BYTES]
               [--timeout SECS] [--deadline SECS] [--chaos-seed N]
               [--state-dir DIR] [--queue-depth N] [--retry-after SECS]
  scanft submit <circuit> --server HOST:PORT [--tests FILE] [--tenant T]
                [--atpg] [--idempotency-key KEY] [--retries N]
                [--wait [--timeout SECS]]
  scanft status <job-id> --server HOST:PORT [--retries N]
  scanft cancel <job-id> --server HOST:PORT [--retries N]
  scanft events <job-id> --server HOST:PORT
  scanft drain --server HOST:PORT [--retries N]

<circuit> is a benchmark name from `scanft list` or a path to a KISS2 file
(`lint` also accepts BLIF netlist paths). `lint` exits 1 when any deny-level
diagnostic fires. `serve --state-dir` makes the job queue crash-safe: every
admission is WAL-logged before its 202, and a restarted server replays the
WAL, re-queues unfinished jobs, and resumes interrupted campaigns from
their journals. `drain` stops admission (503 + Retry-After) and lets the
server finish in-flight jobs and exit. Any command also accepts
--metrics[=FILE] (or SCANFT_METRICS=FILE, `-` for stdout) to export the
instrumentation registry as JSON lines on exit. Errors exit with a
per-class code: 2 usage, 3 fsm, 4 io, 5 netlist, 6 synth, 7 test-format,
8 journal, 9 recovery.";

fn run(args: &[String]) -> Result<ExitCode, ScanftError> {
    let Some(command) = args.first() else {
        return Err(ScanftError::usage("missing command"));
    };
    let rest = &args[1..];
    match command.as_str() {
        "lint" => return cmd_lint(rest),
        "submit" => return cmd_submit(rest),
        "status" => return cmd_status(rest),
        "cancel" => return cmd_cancel(rest),
        "events" => return cmd_events(rest),
        "drain" => return cmd_drain(rest),
        "serve" => cmd_serve(rest),
        "list" => cmd_list(),
        "show" => cmd_show(rest),
        "uio" => cmd_uio(rest),
        "generate" => cmd_generate(rest),
        "simulate" => cmd_simulate(rest),
        "evaluate" => cmd_evaluate(rest),
        "optimize" => cmd_optimize(rest),
        "atpg" => cmd_atpg(rest),
        "synth" => cmd_synth(rest),
        "dot" => cmd_dot(rest),
        other => Err(ScanftError::usage(format!("unknown command `{other}`"))),
    }
    .map(|()| ExitCode::SUCCESS)
}

fn read_file(path: &str) -> Result<String, ScanftError> {
    std::fs::read_to_string(path).map_err(|e| ScanftError::Io {
        path: path.to_owned(),
        source: e,
    })
}

fn write_file(path: &str, contents: String) -> Result<(), ScanftError> {
    std::fs::write(path, contents).map_err(|e| ScanftError::Io {
        path: path.to_owned(),
        source: e,
    })
}

fn load_circuit(rest: &[String]) -> Result<StateTable, ScanftError> {
    let name = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| ScanftError::usage("missing circuit name"))?;
    if std::path::Path::new(name).exists() {
        let text = read_file(name)?;
        return kiss::parse_with(&text, name, kiss::Completion::SelfLoop)
            .map_err(ScanftError::from);
    }
    benchmarks::build(name).map_err(ScanftError::from)
}

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn string_of(rest: &[String], name: &str) -> Result<Option<String>, ScanftError> {
    let Some(pos) = rest.iter().position(|a| a == name) else {
        return Ok(None);
    };
    rest.get(pos + 1)
        .cloned()
        .map(Some)
        .ok_or_else(|| ScanftError::usage(format!("{name} needs a value")))
}

fn value_of(rest: &[String], name: &str) -> Result<Option<usize>, ScanftError> {
    let Some(pos) = rest.iter().position(|a| a == name) else {
        return Ok(None);
    };
    rest.get(pos + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| ScanftError::usage(format!("{name} needs an integer value")))
}

fn cmd_list() -> Result<(), ScanftError> {
    println!(
        "{:<10} {:>3} {:>7} {:>3} {:>8} {:>7}",
        "circuit", "pi", "states", "sv", "outputs", "trans"
    );
    for spec in benchmarks::CIRCUITS {
        println!(
            "{:<10} {:>3} {:>7} {:>3} {:>8} {:>7}",
            spec.name,
            spec.num_inputs,
            spec.num_states,
            spec.num_state_vars,
            spec.num_outputs,
            spec.num_transitions()
        );
    }
    Ok(())
}

fn cmd_show(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    if flag(rest, "--kiss") {
        print!("{}", kiss::write(&table));
    } else {
        print!("{table}");
    }
    Ok(())
}

fn cmd_uio(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let max_len = value_of(rest, "--max-len")?.unwrap_or(table.num_state_vars());
    let uios = derive_uios_with(&table, &UioConfig::with_max_len(max_len));
    println!("UIO sequences for {} (L = {max_len}):", table.name());
    for s in 0..table.num_states() as u32 {
        match uios.sequence(s) {
            Some(u) => println!(
                "  state {:<6} -> ({})  final state {}",
                table.state_name(s),
                format_input_seq(&u.inputs, table.num_inputs()),
                table.state_name(u.final_state)
            ),
            None => println!("  state {:<6} -> none", table.state_name(s)),
        }
    }
    println!(
        "{} of {} states have a UIO (max length {}), derived in {:.2}s",
        uios.num_with_uio(),
        table.num_states(),
        uios.max_found_len(),
        uios.elapsed_secs()
    );
    if uios.any_budget_exceeded() {
        println!("note: the search budget was exhausted for at least one state");
    }
    Ok(())
}

fn cmd_generate(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let uios = derive_uios_with(&table, &UioConfig::with_max_len(table.num_state_vars()));
    let config = GenConfig {
        uio_len_cap: value_of(rest, "--uio-cap")?,
        transfer_max_len: if flag(rest, "--no-transfer") { 0 } else { 1 },
    };
    let set = generate(&table, &uios, &config);
    if let Some(path) = string_of(rest, "--out")? {
        write_file(&path, scanft_core::io::write_tests(&set, &table))?;
        println!(
            "wrote {} tests (total length {}) to {path}",
            set.tests.len(),
            set.total_length()
        );
        return Ok(());
    }
    println!("functional tests for {}:", table.name());
    for (k, t) in set.tests.iter().enumerate() {
        println!("  tau_{k:<4} = {}", t.display(&table));
    }
    println!(
        "{} tests, total length {}, {:.2}% of {} transitions tested by length-1 tests",
        set.tests.len(),
        set.total_length(),
        set.percent_unit_tested(),
        set.num_transitions
    );
    let cycles = scanft_core::cycles::test_set_cycles(&set, table.num_state_vars());
    let base = scanft_core::cycles::clock_cycles(
        table.num_state_vars(),
        table.num_transitions(),
        table.num_transitions(),
    );
    println!(
        "test application: {cycles} clock cycles ({:.2}% of the {base}-cycle per-transition baseline)",
        scanft_core::cycles::percent_of(cycles, base)
    );
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let path = string_of(rest, "--tests")?
        .ok_or_else(|| ScanftError::usage("--tests FILE is required"))?;
    let text = read_file(&path)?;
    let set = scanft_core::io::parse_tests(&text, &table).map_err(|e| ScanftError::TestFormat {
        message: e.to_string(),
    })?;
    println!(
        "loaded {} tests (total length {}) for {}",
        set.tests.len(),
        set.total_length(),
        table.name()
    );
    let circuit = synthesize(&table, &SynthConfig::default());
    let scan_tests = set.to_scan_tests(&circuit);
    let supervised = [
        "--threads",
        "--deadline",
        "--journal",
        "--chaos-seed",
        "--resume",
    ]
    .iter()
    .any(|f| flag(rest, f));
    if supervised {
        return simulate_supervised(rest, &table, &circuit, &scan_tests);
    }
    let bridges = scanft_sim::faults::enumerate_bridging(circuit.netlist(), 3000);
    if bridges.truncated() {
        println!(
            "note: bridging universe subsampled to {} of {} structural pairs ({} dropped)",
            bridges.faults.len() / 2,
            bridges.total_pairs,
            bridges.dropped_pairs()
        );
    }
    for (label, faults) in [
        (
            "stuck-at",
            scanft_sim::faults::as_fault_list(&scanft_sim::faults::enumerate_stuck(
                circuit.netlist(),
            )),
        ),
        (
            "bridging",
            scanft_sim::faults::bridges_as_fault_list(&bridges.faults),
        ),
        (
            "delay",
            scanft_sim::faults::delays_as_fault_list(&scanft_sim::faults::enumerate_delay(
                circuit.netlist(),
            )),
        ),
    ] {
        let report =
            scanft_sim::campaign::run_decreasing_length(circuit.netlist(), &scan_tests, &faults);
        println!(
            "  {label}: {}/{} detected ({:.2}%), {} effective tests",
            report.detected(),
            faults.len(),
            report.coverage_percent(),
            report.effective_tests().len()
        );
    }
    Ok(())
}

/// The resilient stuck-at campaign behind `simulate --threads/--deadline/
/// --journal/--resume/--chaos-seed`: panic-isolated batches under a budget,
/// with an append-only checkpoint journal and deterministic chaos injection
/// for drills.
fn simulate_supervised(
    rest: &[String],
    table: &StateTable,
    circuit: &scanft_synth::SynthesizedCircuit,
    scan_tests: &[scanft_sim::ScanTest],
) -> Result<(), ScanftError> {
    use scanft_sim::campaign::{self, SupervisedConfig};

    let num_threads = value_of(rest, "--threads")?.unwrap_or(1);
    if num_threads == 0 {
        return Err(ScanftError::usage("--threads must be positive"));
    }
    let mut budget = Budget::unlimited();
    if let Some(secs) = value_of(rest, "--deadline")? {
        budget = budget.with_deadline(std::time::Duration::from_secs(secs as u64));
    }
    let journal_path = string_of(rest, "--journal")?;
    let resume = flag(rest, "--resume");
    if resume && journal_path.is_none() {
        return Err(ScanftError::usage("--resume requires --journal FILE"));
    }
    let chaos = value_of(rest, "--chaos-seed")?.map(|seed| {
        scanft_harness::silence_chaos_panics();
        FailurePlan::new(seed as u64)
    });

    let stuck = scanft_sim::faults::enumerate_stuck(circuit.netlist());
    let fault_list = scanft_sim::faults::as_fault_list(&stuck);
    let order = campaign::decreasing_length_order(scan_tests);
    let config = SupervisedConfig {
        num_threads,
        observe_scan_out: true,
        budget,
        label: table.name().to_owned(),
        ..SupervisedConfig::default()
    };

    // Resume repairs a crash-torn tail down to its intact prefix first, so
    // the first appended record starts on a fresh line.
    let prior = match (&journal_path, resume) {
        (Some(path), true) => Some(scanft_harness::repair_journal(path)?),
        _ => None,
    };
    let writer = match &journal_path {
        Some(path) => {
            let w = if resume {
                JournalWriter::append_to(path)?
            } else {
                JournalWriter::create(path)?
            };
            Some(match &chaos {
                Some(plan) => w.with_chaos(plan.clone()),
                None => w,
            })
        }
        None => None,
    };

    let partial = campaign::run_supervised(
        circuit.netlist(),
        scan_tests,
        &order,
        &fault_list,
        &config,
        writer.as_ref(),
        prior.as_ref(),
        chaos.as_ref(),
    )?;

    println!(
        "supervised stuck-at campaign for {} ({} faults in {} batches, {} thread{}):",
        table.name(),
        fault_list.len(),
        partial.num_units,
        num_threads,
        if num_threads == 1 { "" } else { "s" }
    );
    println!(
        "  completed: {}/{} batches ({} resumed from the journal)",
        partial.completed_units.len(),
        partial.num_units,
        partial.resumed_units.len()
    );
    for failure in &partial.quarantined {
        println!(
            "  quarantined: batch {} — {}",
            failure.unit, failure.message
        );
    }
    if let Some(reason) = partial.stopped {
        println!(
            "  stopped by {reason}: {} batch(es) remaining",
            partial.remaining_units.len()
        );
    }
    println!(
        "  stuck-at: {}/{} detected ({:.2}%{}), {} effective tests",
        partial.report.detected(),
        fault_list.len(),
        partial.coverage_lower_bound_percent(),
        if partial.is_complete() {
            ""
        } else {
            ", lower bound"
        },
        partial.report.effective_tests().len()
    );
    if let Some(path) = &journal_path {
        println!("  journal: {path}");
    }
    Ok(())
}

fn cmd_evaluate(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let config = FlowConfig {
        gate_level: !flag(rest, "--functional-only"),
        top_up: flag(rest, "--top-up"),
        synth: SynthConfig {
            encoding: if flag(rest, "--gray") {
                Encoding::Gray
            } else {
                Encoding::Binary
            },
            ..SynthConfig::default()
        },
        ..FlowConfig::default()
    };
    let report = run_flow(&table, &config);
    println!("evaluation of {}:", report.name);
    println!(
        "  UIOs: {}/{} states (max length {}), {:.2}s",
        report.uio.num_with_uio,
        table.num_states(),
        report.uio.max_len,
        report.uio.secs
    );
    println!(
        "  tests: {} (total length {}, {:.2}% unit-tested), {:.2}s",
        report.tests.tests.len(),
        report.tests.total_length(),
        report.tests.percent_unit_tested(),
        report.tests.elapsed_secs
    );
    println!(
        "  cycles: {} functional vs {} per-transition ({:.2}%)",
        report.functional_cycles,
        report.baseline_cycles,
        report.functional_percent()
    );
    if let Some(gate) = &report.gate {
        println!("  netlist: {}", gate.netlist);
        for (label, m) in [("stuck-at", &gate.stuck), ("bridging", &gate.bridging)] {
            println!(
                "  {label}: {}/{} detected ({:.2}%), {} proven undetectable, {} unclassified, {} effective tests ({} cycles){}",
                m.detected,
                m.total_faults,
                m.coverage,
                m.proven_undetectable,
                m.unclassified,
                m.effective_tests,
                m.effective_cycles,
                if m.top_up_tests > 0 {
                    format!(", {} top-up tests", m.top_up_tests)
                } else {
                    String::new()
                }
            );
            println!(
                "    complete coverage of detectable faults: {}",
                if m.complete_detectable_coverage() {
                    "yes"
                } else {
                    "no"
                }
            );
        }
        if gate.bridge_truncated {
            println!(
                "  note: bridging universe subsampled to {} of {} structural pairs",
                gate.bridging.total_faults / 2,
                gate.bridge_pairs_total
            );
        }
    }
    println!("  total: {:.2}s", report.total_secs);
    Ok(())
}

/// `scanft optimize <circuit> [--cert FILE]`: run the certificate-emitting
/// static optimizer, re-validate the proof log with the independent
/// checker (always — an unjustified rewrite is a hard error), report the
/// reduction and the fault-universe classification, and optionally write
/// the certificate out.
fn cmd_optimize(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let circuit = synthesize(&table, &SynthConfig::default());
    let n = circuit.netlist();
    let opt = scanft_opt::optimize(n);
    scanft_opt::checker::check(n, &opt.netlist, &opt.certificate).map_err(|e| {
        ScanftError::Synth {
            message: format!("optimizer self-check failed — {e}"),
        }
    })?;
    let s = &opt.stats;
    println!("optimized {}:", table.name());
    println!("  original: {}", n.stats());
    println!("  reduced:  {}", opt.netlist.stats());
    let removed_pct =
        100.0 * (s.original_gates - s.reduced_gates) as f64 / s.original_gates.max(1) as f64;
    println!(
        "  gates: {} -> {} ({removed_pct:.1}% removed): {} constants folded, {} merges, {} dead",
        s.original_gates, s.reduced_gates, s.constants_folded, s.merges, s.gates_removed
    );
    println!(
        "  facts: {} closure constants ({} visible to plain dataflow), {} unproven skipped",
        s.closure_constants,
        s.dataflow_constants,
        s.unproven_constants + s.unproven_equiv
    );
    println!(
        "  certificate: {} steps, {} lemmas, {} bytes — validated by the independent checker",
        s.certificate_steps, s.certificate_lemmas, s.certificate_bytes
    );
    let stuck = scanft_sim::faults::enumerate_stuck(n);
    let collapsed = scanft_sim::collapse::collapse_stuck(n, &stuck).representatives;
    let list = scanft_sim::faults::as_fault_list(&collapsed);
    let plan = scanft_opt::fault_map::FaultPlan::new(n, &opt, &list);
    let (untestable, fallback, exact) = plan.counts();
    println!(
        "  faults: {} collapsed stuck-at -> {untestable} provably untestable, \
         {exact} exact on the reduced netlist, {fallback} fall back to the original",
        list.len()
    );
    if let Some(path) = string_of(rest, "--cert")? {
        write_file(&path, opt.certificate.clone())?;
        println!("  certificate written to {path}");
    }
    Ok(())
}

fn cmd_atpg(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let synth_config = SynthConfig {
        encoding: if flag(rest, "--gray") {
            Encoding::Gray
        } else {
            Encoding::Binary
        },
        ..SynthConfig::default()
    };
    let circuit = synthesize(&table, &synth_config);
    let functional = if flag(rest, "--no-functional") {
        Vec::new()
    } else {
        let uios = derive_uios_with(&table, &UioConfig::with_max_len(table.num_state_vars()));
        generate(&table, &uios, &GenConfig::default()).to_scan_tests(&circuit)
    };
    let config = scanft_core::top_up::TopUpConfig {
        decision_budget: value_of(rest, "--budget")?
            .map(|b| b as u64)
            .unwrap_or(scanft_core::top_up::TopUpConfig::default().decision_budget),
        budget: match value_of(rest, "--deadline")? {
            Some(secs) => {
                Budget::unlimited().with_deadline(std::time::Duration::from_secs(secs as u64))
            }
            None => Budget::unlimited(),
        },
        collapse: !flag(rest, "--uncollapsed"),
        use_implications: !flag(rest, "--no-implications"),
        heuristic: if flag(rest, "--level") {
            scanft_core::top_up::Heuristic::Level
        } else {
            scanft_core::top_up::Heuristic::Scoap
        },
        ..scanft_core::top_up::TopUpConfig::default()
    };
    let outcome = scanft_core::top_up::top_up_scan(circuit.netlist(), &functional, &config);
    let report = &outcome.report;
    println!("coverage top-up for {}:", table.name());
    println!("  netlist: {}", circuit.netlist().stats());
    println!(
        "  faults: {} {} stuck-at targets",
        report.faults.len(),
        if config.collapse {
            "collapsed"
        } else {
            "uncollapsed"
        }
    );
    println!(
        "  functional: {} tests detect {} faults ({:.2}%)",
        outcome.num_functional,
        report.detected_functional(),
        100.0 * report.detected_functional() as f64 / report.faults.len().max(1) as f64
    );
    println!(
        "  atpg: {} patterns detect {} faults ({} dropped by another fault's pattern)",
        report.atpg_patterns,
        report.detected_atpg(),
        report.dropped_by_atpg_patterns
    );
    println!(
        "  untestable: {} statically pruned, {} proven redundant, aborted: {} (budget {})",
        report.statically_untestable(),
        report.proven_redundant(),
        report.aborted(),
        config.decision_budget
    );
    if let Some(reason) = report.stopped {
        println!(
            "  stopped by {reason}: remaining survivors reported as aborted (coverage is a lower bound)"
        );
    }
    println!(
        "  effort: {} decisions, {} backtracks, {} necessary assignments{}",
        report.decisions,
        report.backtracks,
        report.implications,
        if config.use_implications {
            ""
        } else {
            " (implication guidance off)"
        }
    );
    println!(
        "  coverage: {:.2}% of all faults, {:.2}% of non-redundant faults{}",
        report.coverage_percent(),
        report.effective_coverage_percent(),
        if report.is_complete() {
            " (complete)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Lint levels assembled from repeated `--deny CODE`, `--warn CODE`,
/// `--allow CODE` overrides on top of the built-in defaults.
fn lint_levels(rest: &[String]) -> Result<scanft_analyze::LintLevels, ScanftError> {
    use scanft_analyze::{LintCode, Severity};
    let mut levels = scanft_analyze::LintLevels::default();
    let mut i = 0;
    while i < rest.len() {
        if let Some(severity) = Severity::parse(rest[i].trim_start_matches("--")) {
            let name = rest
                .get(i + 1)
                .ok_or_else(|| ScanftError::usage(format!("{} needs a lint name", rest[i])))?;
            let code = LintCode::parse(name).ok_or_else(|| {
                ScanftError::usage(format!(
                    "unknown lint `{name}` (known: {})",
                    scanft_analyze::ALL_LINTS
                        .iter()
                        .map(|c| c.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            levels.set(code, severity);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(levels)
}

/// Whether gate-level (netlist) lints fit the default time budget for this
/// machine — the same bound `scanft-bench` uses for fault-simulation work.
fn within_gate_budget(table: &StateTable) -> bool {
    table.num_inputs() + table.num_state_vars() <= 10 && table.num_transitions() <= 1024
}

fn cmd_lint(rest: &[String]) -> Result<ExitCode, ScanftError> {
    use scanft_analyze::{
        lint_import_error, lint_kiss_source, lint_netlist, lint_state_table, Analysis,
        FsmLintConfig, LintReport, NetlistLintConfig,
    };

    let json = flag(rest, "--json");
    let full = flag(rest, "--full");
    let levels = lint_levels(rest)?;
    let mut targets: Vec<String> = Vec::new();
    if flag(rest, "--all") {
        targets.extend(benchmarks::CIRCUITS.iter().map(|s| s.name.to_owned()));
    }
    // Positional operands; skip the value that follows a level override.
    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        if matches!(
            arg.as_str(),
            "--deny" | "--warn" | "--allow" | "--max-fanin"
        ) {
            i += 2;
            continue;
        }
        if !arg.starts_with("--") {
            targets.push(arg.clone());
        }
        i += 1;
    }
    if targets.is_empty() {
        return Err(ScanftError::usage(
            "lint needs at least one circuit (or --all)",
        ));
    }

    let netlist_config = NetlistLintConfig {
        levels: levels.clone(),
        max_fanin: value_of(rest, "--max-fanin")?.unwrap_or(NetlistLintConfig::default().max_fanin),
    };
    let fsm_config = FsmLintConfig {
        levels: levels.clone(),
        uio_max_len: None,
    };

    let mut num_deny = 0usize;
    let mut num_warn = 0usize;
    let mut emit = |target: &str, report: &LintReport| {
        num_deny += report.num_deny();
        num_warn += report.num_warn();
        for d in &report.diagnostics {
            if json {
                // Same object shape as `Diagnostic::to_json`, with the
                // circuit spliced in as the first field.
                let body = d.to_json();
                println!(
                    "{{\"circuit\":\"{}\",{}",
                    scanft_obs::escape_json_string(target),
                    &body[1..]
                );
            } else {
                println!("{target}: {d}");
            }
        }
    };

    for target in &targets {
        let path = std::path::Path::new(target);
        if path.exists() && target.ends_with(".blif") {
            // BLIF netlist: structural lints only.
            let text = read_file(target)?;
            match scanft_netlist::blif::parse(&text) {
                Ok(netlist) => {
                    let analysis = Analysis::new(&netlist);
                    emit(target, &lint_netlist(&netlist, &analysis, &netlist_config));
                }
                Err(err) => emit(target, &lint_import_error(&err, &levels)),
            }
            continue;
        }
        // KISS2 path or benchmark name: FSM lints, then gate-level lints on
        // the synthesized netlist when the circuit fits the time budget.
        let table = if path.exists() {
            let text = read_file(target)?;
            let (table, source_report) = lint_kiss_source(&text, target, &levels);
            emit(target, &source_report);
            match table {
                Some(t) => t,
                None => continue,
            }
        } else {
            benchmarks::build(target).map_err(ScanftError::from)?
        };
        emit(target, &lint_state_table(&table, &fsm_config));
        if full || within_gate_budget(&table) {
            let circuit = synthesize(&table, &SynthConfig::default());
            emit(
                target,
                &lint_netlist(
                    circuit.netlist(),
                    &Analysis::new(circuit.netlist()),
                    &netlist_config,
                ),
            );
        } else if !json {
            println!(
                "{target}: netlist lints skipped (over the gate-level budget; pass --full to force)"
            );
        }
    }

    if !json {
        println!(
            "lint: {} circuit(s), {num_deny} deny, {num_warn} warn",
            targets.len()
        );
    }
    Ok(if num_deny > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_dot(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    print!("{}", scanft_fsm::dot::to_dot(&table));
    Ok(())
}

fn cmd_synth(rest: &[String]) -> Result<(), ScanftError> {
    let table = load_circuit(rest)?;
    let config = SynthConfig {
        encoding: if flag(rest, "--gray") {
            Encoding::Gray
        } else {
            Encoding::Binary
        },
        minimize: !flag(rest, "--flat"),
        ..SynthConfig::default()
    };
    let circuit = synthesize(&table, &config);
    if flag(rest, "--dot") {
        print!(
            "{}",
            scanft_netlist::to_dot(circuit.netlist(), table.name())
        );
    } else if flag(rest, "--blif") {
        print!(
            "{}",
            scanft_netlist::blif::write(circuit.netlist(), table.name())
        );
    } else {
        println!("{}: {}", table.name(), circuit.netlist().stats());
        scanft_synth::verify_against_table(&circuit, &table, None).map_err(|m| {
            ScanftError::Synth {
                message: format!("self-check found a mismatch: {m:?}"),
            }
        })?;
        println!("self-check: netlist behaviour matches the state table on all transitions");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving: the `scanft serve` daemon and its client subcommands.
// ---------------------------------------------------------------------------

fn cmd_serve(rest: &[String]) -> Result<(), ScanftError> {
    use scanft_server::{Server, ServerConfig, TenantQuota};

    let mut config = ServerConfig::default();
    if let Some(addr) = string_of(rest, "--addr")? {
        config.addr = addr;
    }
    if let Some(workers) = value_of(rest, "--workers")? {
        if workers == 0 {
            return Err(ScanftError::usage("--workers must be positive"));
        }
        config.workers = workers;
    }
    if let Some(threads) = value_of(rest, "--threads")? {
        if threads == 0 {
            return Err(ScanftError::usage("--threads must be positive"));
        }
        config.campaign_threads = threads;
    }
    if let Some(dir) = string_of(rest, "--journal-dir")? {
        config.journal_dir = dir;
    }
    if let Some(capacity) = value_of(rest, "--cache")? {
        config.cache_capacity = capacity;
    }
    let mut quota = TenantQuota::default();
    if let Some(max_active) = value_of(rest, "--max-active")? {
        quota.max_active = max_active;
    }
    if let Some(max_units) = value_of(rest, "--max-units")? {
        quota.max_units = Some(max_units as u64);
    }
    config.quota = quota;
    if let Some(limit) = value_of(rest, "--body-limit")? {
        config.max_body_bytes = limit;
    }
    if let Some(secs) = value_of(rest, "--timeout")? {
        config.read_timeout = std::time::Duration::from_secs(secs as u64);
    }
    if let Some(seed) = value_of(rest, "--chaos-seed")? {
        scanft_harness::silence_chaos_panics();
        config.chaos_seed = Some(seed as u64);
    }
    if let Some(dir) = string_of(rest, "--state-dir")? {
        config.state_dir = Some(dir);
    }
    if let Some(depth) = value_of(rest, "--queue-depth")? {
        config.max_queue_depth = depth;
    }
    if let Some(secs) = value_of(rest, "--retry-after")? {
        config.retry_after_secs = secs as u64;
    }
    let deadline = value_of(rest, "--deadline")?;

    let journal_dir = config.journal_dir.clone();
    let state_dir = config.state_dir.clone();
    let server = Server::start(config)?;
    println!("scanft serve: listening on {}", server.addr());
    println!("  journals: {journal_dir}");
    if let Some(dir) = &state_dir {
        let recovery = server.recovery();
        println!(
            "  state: {dir} (wal: {} records, {} torn; recovered: {} re-queued, {} terminal)",
            recovery.wal_records, recovery.wal_torn, recovery.jobs_requeued, recovery.jobs_terminal
        );
    }
    match deadline {
        Some(secs) => {
            scanft_race::thread::sleep(std::time::Duration::from_secs(secs as u64));
            println!("scanft serve: deadline reached, shutting down");
            server.shutdown();
        }
        None => {
            // Blocks until `POST /admin/drain` (or shutdown) is requested,
            // then finishes in-flight jobs and exits 0 — the graceful-drain
            // path a supervisor's SIGTERM handler would drive.
            server.wait_drain_requested();
            println!("scanft serve: drain requested, finishing in-flight jobs");
            server.drain_and_shutdown();
            println!("scanft serve: drained, exiting");
        }
    }
    Ok(())
}

fn server_client(rest: &[String]) -> Result<scanft_server::Client, ScanftError> {
    use std::net::ToSocketAddrs;
    let addr = string_of(rest, "--server")?
        .ok_or_else(|| ScanftError::usage("--server HOST:PORT is required"))?;
    let resolved = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| ScanftError::usage(format!("cannot resolve server address `{addr}`")))?;
    let mut client = scanft_server::Client::new(resolved);
    if let Some(retries) = value_of(rest, "--retries")? {
        client = client.with_retry(scanft_server::RetryPolicy {
            max_retries: u32::try_from(retries).unwrap_or(u32::MAX),
            ..scanft_server::RetryPolicy::default()
        });
    }
    Ok(client)
}

/// Maps a client failure onto the CLI's exit discipline: transport and
/// protocol failures become [`ScanftError::Io`]; structured API refusals
/// are printed and exit with the taxonomy code the server sent, so an HTTP
/// `fsm` error and a local `scanft simulate` parse error exit identically.
fn api_exit(err: scanft_server::ClientError) -> Result<ExitCode, ScanftError> {
    use scanft_server::ClientError;
    match err {
        ClientError::Io(source) => Err(ScanftError::Io {
            path: "server connection".to_owned(),
            source,
        }),
        ClientError::Protocol(what) => Err(ScanftError::Io {
            path: "server response".to_owned(),
            source: std::io::Error::new(std::io::ErrorKind::InvalidData, what),
        }),
        ClientError::Api {
            status,
            code,
            class,
            message,
        } => {
            eprintln!("scanft: server refused ({status}): error[{class}]: {message}");
            Ok(ExitCode::from(u8::try_from(code).unwrap_or(1)))
        }
    }
}

fn print_job(view: &scanft_server::JobView) {
    println!("{}: {} ({})", view.id, view.status, view.circuit);
    println!("  key: {}", view.key);
    if let Some(cache) = &view.cache {
        println!("  artifacts: cache {cache}");
    }
    if let (Some(coverage), Some(detected), Some(faults)) =
        (view.coverage, view.detected, view.faults)
    {
        println!("  coverage: {coverage:.2}% ({detected}/{faults} faults)");
    }
    if let (Some(done), Some(total)) = (view.completed_units, view.units) {
        println!("  units: {done}/{total}");
    }
    if let Some(message) = &view.message {
        println!("  error: {message}");
    }
    if let Some(journal) = &view.journal {
        println!("  journal: {journal}");
    }
}

fn cmd_submit(rest: &[String]) -> Result<ExitCode, ScanftError> {
    let client = server_client(rest)?;
    let table = load_circuit(rest)?;
    let mut body = kiss::write(&table);
    if let Some(path) = string_of(rest, "--tests")? {
        body.push_str(".tests\n");
        body.push_str(&read_file(&path)?);
    }
    let kind = if flag(rest, "--atpg") {
        scanft_server::JobKind::Atpg
    } else {
        scanft_server::JobKind::Simulate
    };
    let tenant = string_of(rest, "--tenant")?.unwrap_or_else(|| "default".to_owned());
    let idem_key = string_of(rest, "--idempotency-key")?;
    let submitted =
        match client.submit_with_key(&body, table.name(), &tenant, kind, idem_key.as_deref()) {
            Ok(view) => view,
            Err(err) => return api_exit(err),
        };
    if flag(rest, "--wait") {
        let deadline =
            std::time::Duration::from_secs(value_of(rest, "--timeout")?.unwrap_or(600) as u64);
        match client.wait(&submitted.id, deadline) {
            Ok(view) => print_job(&view),
            Err(err) => return api_exit(err),
        }
    } else {
        print_job(&submitted);
    }
    Ok(ExitCode::SUCCESS)
}

/// The first positional argument, skipping flags and the values of flags
/// that take one (so `status --server HOST:PORT job-3` finds `job-3`).
fn job_id_of(rest: &[String]) -> Result<String, ScanftError> {
    let mut skip_value = false;
    for arg in rest {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg.starts_with("--") {
            skip_value = matches!(
                arg.as_str(),
                "--server"
                    | "--timeout"
                    | "--tenant"
                    | "--tests"
                    | "--retries"
                    | "--idempotency-key"
            );
            continue;
        }
        return Ok(arg.clone());
    }
    Err(ScanftError::usage("missing job id"))
}

fn cmd_status(rest: &[String]) -> Result<ExitCode, ScanftError> {
    let client = server_client(rest)?;
    match client.status(&job_id_of(rest)?) {
        Ok(view) => {
            print_job(&view);
            Ok(ExitCode::SUCCESS)
        }
        Err(err) => api_exit(err),
    }
}

fn cmd_cancel(rest: &[String]) -> Result<ExitCode, ScanftError> {
    let client = server_client(rest)?;
    let id = job_id_of(rest)?;
    match client.cancel(&id) {
        Ok(()) => {
            println!("{id}: cancellation requested");
            Ok(ExitCode::SUCCESS)
        }
        Err(err) => api_exit(err),
    }
}

fn cmd_drain(rest: &[String]) -> Result<ExitCode, ScanftError> {
    let client = server_client(rest)?;
    match client.drain() {
        Ok((queued, running)) => {
            println!("drain requested: {queued} queued, {running} running job(s) to finish");
            Ok(ExitCode::SUCCESS)
        }
        Err(err) => api_exit(err),
    }
}

fn cmd_events(rest: &[String]) -> Result<ExitCode, ScanftError> {
    let client = server_client(rest)?;
    match client.events(&job_id_of(rest)?) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(err) => api_exit(err),
    }
}
