//! `oneshot`: a single-threaded CLI session. For every pool circuit it
//! runs the `scanft evaluate` path (`run_flow` with the default config),
//! then the `scanft optimize` path (synthesize, optimize, check the
//! certificate, build the fault plan), pass after pass.

use std::time::{Duration, Instant};

use scanft_core::flow::{run_flow, FlowConfig, FlowReport};
use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{kiss, StateTable};
use scanft_opt::fault_map::FaultPlan;
use scanft_sim::{campaign, collapse, faults};
use scanft_synth::{synthesize, SynthConfig};

use crate::calib::Speed;
use crate::cpu;
use crate::inputs::{self, entry, Entry, Fit};
use crate::layers::{self, Measured};
use crate::stats::median;
use crate::trace::{Snapshot, Tracer};
use crate::{Args, Metric, Outcome, WorkDir, MIN_SAMPLES};

/// Sixteen variants of ex3 (104 gates, about 110 ms per evaluate on the
/// default seed), matched in simulation work: small enough that a run
/// holds the hundred circuit sessions its percentiles need, and uniform
/// enough that no percentile sits on a boundary between size classes.
const POOL: &[Entry] = &[
    entry("ex3", 0),
    entry("ex3", 1),
    entry("ex3", 2),
    entry("ex3", 3),
    entry("ex3", 4),
    entry("ex3", 5),
    entry("ex3", 6),
    entry("ex3", 7),
    entry("ex3", 8),
    entry("ex3", 9),
    entry("ex3", 10),
    entry("ex3", 11),
    entry("ex3", 12),
    entry("ex3", 13),
    entry("ex3", 14),
    entry("ex3", 15),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// What the other simulation kernel says about one circuit's stuck-at
/// faults under the paper's tests, computed before any timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Stuck-at faults in the universe.
    pub stuck_faults: usize,
    /// Stuck-at faults the wide kernel detects.
    pub stuck_detected: usize,
    /// Functional tests generated.
    pub tests: usize,
}

fn reference(table: &StateTable) -> Reference {
    let circuit = synthesize(table, &SynthConfig::default());
    let uios = derive_uios_with(table, &UioConfig::with_max_len(table.num_state_vars()));
    let tests = generate(table, &uios, &GenConfig::default());
    let scan_tests = tests.to_scan_tests(&circuit);
    let stuck = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
    let order = campaign::decreasing_length_order(&scan_tests);
    let wide = campaign::run_ordered_wide(circuit.netlist(), &scan_tests, &order, &stuck, true);
    Reference {
        stuck_faults: stuck.len(),
        stuck_detected: wide.detected(),
        tests: tests.tests.len(),
    }
}

/// Whether an evaluate report agrees with the reference.
#[must_use]
pub fn evaluate_ok(reference: &Reference, report: &FlowReport) -> bool {
    let Some(gate) = &report.gate else {
        return false;
    };
    gate.stuck.total_faults == reference.stuck_faults
        && gate.stuck.detected == reference.stuck_detected
        && report.tests.tests.len() == reference.tests
}

/// The `scanft optimize` path's figures for one circuit.
struct Optimized {
    original_gates: usize,
    reduced_gates: usize,
    faults: usize,
    fallback: usize,
}

/// Runs the `scanft optimize` path. `Err` when the independent checker
/// rejects the certificate or the fault plan does not cover the list.
fn optimize(table: &StateTable, tracer: &Tracer, parent: Option<u64>) -> Result<Optimized, String> {
    let job = table.name();
    let circuit = tracer.span("synthesize", parent, job, true, |_| {
        synthesize(table, &SynthConfig::default())
    });
    let n = circuit.netlist();
    let opt = tracer.span("optimize", parent, job, true, |_| scanft_opt::optimize(n));
    tracer
        .span("check", parent, job, true, |_| {
            scanft_opt::checker::check(n, &opt.netlist, &opt.certificate)
        })
        .map_err(|e| format!("{job}: certificate rejected: {e}"))?;
    let stuck = faults::enumerate_stuck(n);
    let collapsed = collapse::collapse_stuck(n, &stuck).representatives;
    let list = faults::as_fault_list(&collapsed);
    let plan = tracer.span("fault_plan", parent, job, true, |_| {
        FaultPlan::new(n, &opt, &list)
    });
    let (untestable, fallback, exact) = plan.counts();
    if untestable + fallback + exact != list.len() {
        return Err(format!(
            "{job}: fault plan covers {} of {}",
            untestable + fallback + exact,
            list.len()
        ));
    }
    Ok(Optimized {
        original_gates: opt.stats.original_gates,
        reduced_gates: opt.stats.reduced_gates,
        faults: list.len(),
        fallback,
    })
}

/// One traffic phase's results. Times are the session thread's CPU
/// time scaled to the reference host's speed (see `calib`): the
/// commands are single-threaded and do no I/O.
#[derive(Default)]
struct Phase {
    /// Scaled seconds spent in commands.
    secs: f64,
    commands: usize,
    failed: usize,
    first_ms: Vec<f64>,
    done_ms: Vec<f64>,
    removed: (usize, usize),
    fallback: (usize, usize),
    exhaustive: usize,
    test_length: usize,
    evaluates: usize,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.commands as f64 / self.secs
    }
}

/// Whole passes over the pool until `seconds` have passed and at least
/// [`MIN_SAMPLES`] circuit sessions are done.
fn traffic(
    tables: &[StateTable],
    references: &[Reference],
    seconds: u64,
    tracer: &Tracer,
) -> Phase {
    let config = FlowConfig::default();
    let mut phase = Phase::default();
    let mut speed = Speed::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    while Instant::now() < deadline || phase.done_ms.len() < MIN_SAMPLES {
        for (table, reference) in tables.iter().zip(references) {
            let job = table.name();
            tracer.span("session", None, job, false, |session| {
                let (report, evaluated) = speed.time(|| {
                    tracer.span("evaluate", session, job, true, |_| run_flow(table, &config))
                });
                phase.commands += 1;
                if !evaluate_ok(reference, &report) {
                    eprintln!("oneshot: {job}: evaluate disagrees with the wide kernel");
                    phase.failed += 1;
                }
                if let Some(gate) = &report.gate {
                    phase.exhaustive += [&gate.stuck, &gate.bridging]
                        .iter()
                        .map(|m| m.total_faults - m.detected)
                        .sum::<usize>();
                }
                phase.test_length += report.tests.total_length();
                phase.evaluates += 1;
                let (optimized, optimizing) = speed.time(|| optimize(table, tracer, session));
                let done = evaluated + optimizing;
                phase.secs += done.as_secs_f64();
                phase.commands += 1;
                match optimized {
                    Ok(o) => {
                        phase.removed.0 += o.original_gates - o.reduced_gates;
                        phase.removed.1 += o.original_gates;
                        phase.fallback.0 += o.fallback;
                        phase.fallback.1 += o.faults;
                    }
                    Err(message) => {
                        eprintln!("oneshot: {message}");
                        phase.failed += 1;
                    }
                }
                phase.first_ms.push(evaluated.as_secs_f64() * 1e3);
                phase.done_ms.push(done.as_secs_f64() * 1e3);
            });
        }
    }
    phase
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (the work directory cannot be written).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("oneshot")?;
    let circuits = inputs::circuits(POOL, args.seed, Fit::EvaluateWork);
    let paths: Vec<(String, std::path::PathBuf)> = circuits
        .iter()
        .map(|c| {
            let path = work.path().join(format!("{}.kiss2", c.name));
            std::fs::write(&path, &c.kiss).map(|()| (c.name.clone(), path))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("writing inputs: {e}"))?;

    // Set-up: read and parse every input into state tables, as
    // `load_circuit` does before the first command.
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    let mut tables = Vec::new();
    let mut speed = Speed::new();
    for _ in 0..SETUP_REPS {
        let mut parse_secs = 0.0;
        let (loaded, took) = speed.time(|| {
            paths
                .iter()
                .map(|(name, path)| {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
                    let p0 = cpu::thread_time();
                    let table = kiss::parse_with(&text, name, kiss::Completion::SelfLoop)
                        .map_err(|e| format!("{name}: {e}"))?;
                    parse_secs += (cpu::thread_time() - p0).as_secs_f64();
                    Ok(table)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        tables = loaded?;
        setups.push(took.as_secs_f64());
        parses.push(parse_secs * 1e3);
    }

    let references: Vec<Reference> = tables.iter().map(reference).collect();
    self_test(&tables[0], &references[0]);

    let untraced = traffic(&tables, &references, args.seconds, &Tracer::new(false));
    let mut outcome = Outcome {
        correct: untraced.failed == 0,
        attempted: untraced.commands as u64,
        failed: untraced.failed as u64,
        metrics: Vec::new(),
    };
    if args.trace {
        let tracer = Tracer::new(true);
        let before = Snapshot::take();
        let traced = traffic(&tables, &references, args.seconds, &tracer);
        let delta = Snapshot::take().since(&before);
        outcome.correct &= traced.failed == 0;
        outcome.attempted += traced.commands as u64;
        outcome.failed += traced.failed as u64;
        let jobs = traced.commands as f64;
        let flow = tracer.deltas("evaluate");
        let flow_layers = flow.sum(&[
            "fsm.uio.derive",
            "core.generate",
            "core.generate.baseline",
            "synth.synthesize",
            "sim.campaign.run",
            "sim.campaign.run_wide",
        ]);
        let ratio = |(a, b): (usize, usize)| a as f64 / b.max(1) as f64;
        let measured = Measured {
            jobs,
            parse_ms: median(&parses),
            test_length: traced.test_length as f64 / traced.evaluates.max(1) as f64,
            flow_self_ms: (tracer.total_secs("evaluate") - flow_layers) * 1e3 / jobs,
            synth_gates: mean_gates(&tables),
            exhaustive_calls: traced.exhaustive as f64 / jobs,
            opt_check_ms: tracer.total_secs("check") * 1e3 / jobs,
            opt_fault_plan_ms: tracer.total_secs("fault_plan") * 1e3 / jobs,
            opt_removed_ratio: ratio(traced.removed),
            opt_fallback_ratio: ratio(traced.fallback),
            overhead_pct: 100.0 * (1.0 - traced.jobs_per_s() / untraced.jobs_per_s()),
            ..Measured::default()
        };
        outcome.metrics = layers::metrics(&delta, &measured);
        crate::write_trace(
            args,
            &tracer,
            &[
                (
                    "core.tests_parse_ms",
                    "no `.tests` text is parsed: the session generates its tests",
                ),
                (
                    "sim.wide_ms",
                    "the evaluate path runs the narrow kernel only",
                ),
                ("atpg.decisions", "neither command runs ATPG"),
                ("harness.units", "the session runs no supervised campaign"),
                (
                    "server.recovery_ms",
                    "no server in a CLI session; all server.* read 0",
                ),
            ],
        )?;
    } else {
        let p = &untraced;
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setups), "s", SETUP_REPS),
            Metric::new("jobs_per_s", p.jobs_per_s(), "jobs/s", p.commands),
            Metric::percentile("done_p50_ms", &p.done_ms, 0.5)?,
            Metric::percentile("done_p90_ms", &p.done_ms, 0.9)?,
            Metric::percentile("first_batch_p50_ms", &p.first_ms, 0.5)?,
            Metric::percentile("first_batch_p90_ms", &p.first_ms, 0.9)?,
            Metric::new(
                "ok_ratio",
                (p.commands - p.failed) as f64 / p.commands as f64,
                "ratio",
                p.commands,
            ),
            Metric::new("peak_rss_mb", crate::rss::peak_rss_mib()?, "MiB", 1),
        ];
    }
    Ok(outcome)
}

fn mean_gates(tables: &[StateTable]) -> f64 {
    let total: usize = tables
        .iter()
        .map(|t| {
            synthesize(t, &SynthConfig::default())
                .netlist()
                .stats()
                .num_gates
        })
        .sum();
    total as f64 / tables.len() as f64
}

/// The output gate must reject a doctored result; a gate that cannot is
/// a broken benchmark, not a slow program.
fn self_test(table: &StateTable, reference: &Reference) {
    let mut report = run_flow(table, &FlowConfig::default());
    assert!(
        evaluate_ok(reference, &report),
        "self-test: genuine report rejected"
    );
    if let Some(gate) = report.gate.as_mut() {
        gate.stuck.detected += 1;
    }
    assert!(
        !evaluate_ok(reference, &report),
        "self-test: doctored report accepted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_doctored_evaluate_report_is_a_miss() {
        let table = inputs::machine(entry("dk27", 0), 0, Fit::Size);
        let reference = reference(&table);
        let mut report = run_flow(&table, &FlowConfig::default());
        assert!(evaluate_ok(&reference, &report));
        report.gate.as_mut().unwrap().stuck.detected -= 1;
        assert!(!evaluate_ok(&reference, &report));
    }
}
