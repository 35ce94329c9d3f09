//! The served workloads: an in-process `Server` with a durable state
//! directory, restarted over a seeded WAL history, then driven by two
//! closed-loop clients over loopback.
//!
//! - `serve_paper`: bare-KISS2 simulate jobs, so the server derives the
//!   paper's UIO-chained tests itself; more distinct circuits than the
//!   artifact cache holds. 1 worker x 2 campaign threads.
//! - `serve_regress`: a regression farm resubmitting a pool that fits the
//!   cache: simulate jobs carrying per-transition length-1 tests, and ATPG
//!   jobs with an empty test section. 2 workers x 1 campaign thread.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scanft_core::generate::{generate, per_transition_baseline, GenConfig};
use scanft_core::top_up::{top_up_scan_with, TopUpConfig};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{kiss, StateTable};
use scanft_harness::{Budget, JournalWriter};
use scanft_server::{
    Client, ClientError, ContentKey, JobKind, JobStatus, JobView, Server, ServerConfig, WalAdmit,
    WalWriter,
};
use scanft_sim::campaign::{self, Kernel, SupervisedConfig};
use scanft_sim::{faults, ScanTest};
use scanft_synth::{synthesize, SynthConfig, SynthesizedCircuit};

use crate::calib;
use crate::cpu;
use crate::events::{self, EventStream};
use crate::inputs::{self, entry, Entry, Fit};
use crate::layers::{self, Measured};
use crate::stats::{median, percentile};
use crate::trace::{Snapshot, Tracer};
use crate::{Args, Metric, Outcome, WorkDir, MIN_SAMPLES};

/// How a job's tests are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tests {
    /// Bare KISS2: the server derives the paper's UIO-chained tests.
    Derived,
    /// A `.tests` section of per-transition length-1 tests.
    PerTransition,
    /// `?kind=atpg` with an empty `.tests` section: PODEM makes every
    /// pattern.
    AtpgOnly,
}

/// A served workload's shape.
#[derive(Debug)]
pub struct Shape {
    name: &'static str,
    /// The job pool; clients walk it cyclically.
    pool: &'static [(Entry, Tests)],
    workers: usize,
    campaign_threads: usize,
    /// Submit every pool job once, untimed, before measuring (the cache
    /// is warm in a regression farm's steady state).
    warm_up: bool,
}

/// Twelve distinct machines of one size class (dk16 and ex2: 5 state
/// variables, 2 inputs, 420-446 gates), four more than the artifact cache
/// holds, so a cyclic walk misses and evicts on every job.
pub const SERVE_PAPER: Shape = Shape {
    name: "serve_paper",
    pool: &[
        (entry("dk16", 0), Tests::Derived),
        (entry("ex2", 0), Tests::Derived),
        (entry("dk16", 1), Tests::Derived),
        (entry("ex2", 1), Tests::Derived),
        (entry("dk16", 2), Tests::Derived),
        (entry("ex2", 2), Tests::Derived),
        (entry("dk16", 3), Tests::Derived),
        (entry("ex2", 3), Tests::Derived),
        (entry("dk16", 4), Tests::Derived),
        (entry("ex2", 4), Tests::Derived),
        (entry("dk16", 5), Tests::Derived),
        (entry("ex2", 5), Tests::Derived),
    ],
    workers: 1,
    campaign_threads: 2,
    warm_up: false,
};

/// Eight variants of mark1 (624 gates), exactly the artifact cache's
/// capacity. Each is submitted twice as a simulate job with its own
/// length-1 tests and once as an ATPG job: two thirds simulate jobs keep
/// the median inside the simulate jobs and the 90th percentile inside the
/// slower ATPG jobs, off the boundary between the two.
pub const SERVE_REGRESS: Shape = Shape {
    name: "serve_regress",
    pool: &[
        (entry("mark1", 0), Tests::PerTransition),
        (entry("mark1", 1), Tests::PerTransition),
        (entry("mark1", 2), Tests::AtpgOnly),
        (entry("mark1", 3), Tests::PerTransition),
        (entry("mark1", 4), Tests::PerTransition),
        (entry("mark1", 5), Tests::AtpgOnly),
        (entry("mark1", 6), Tests::PerTransition),
        (entry("mark1", 7), Tests::PerTransition),
        (entry("mark1", 0), Tests::AtpgOnly),
        (entry("mark1", 1), Tests::PerTransition),
        (entry("mark1", 2), Tests::PerTransition),
        (entry("mark1", 3), Tests::AtpgOnly),
        (entry("mark1", 4), Tests::PerTransition),
        (entry("mark1", 5), Tests::PerTransition),
        (entry("mark1", 6), Tests::AtpgOnly),
        (entry("mark1", 7), Tests::PerTransition),
        (entry("mark1", 0), Tests::PerTransition),
        (entry("mark1", 1), Tests::AtpgOnly),
        (entry("mark1", 2), Tests::PerTransition),
        (entry("mark1", 3), Tests::PerTransition),
        (entry("mark1", 4), Tests::AtpgOnly),
        (entry("mark1", 5), Tests::PerTransition),
        (entry("mark1", 6), Tests::PerTransition),
        (entry("mark1", 7), Tests::AtpgOnly),
    ],
    workers: 2,
    campaign_threads: 1,
    warm_up: true,
};

/// Terminal jobs in the seeded WAL history each restart replays.
const HISTORY_JOBS: usize = 2000;
/// Restarts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Client-side bound on any single call.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Live traffic's tenant; the history has its own.
const TENANT: &str = "bench";

/// One pool job made concrete.
#[derive(Debug)]
struct Job {
    name: String,
    kind: JobKind,
    body: String,
    tests_text: Option<String>,
    expected: Expected,
}

/// The in-process pipeline's answer for one job, computed before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    coverage: String,
    detected: u64,
    faults: u64,
    completed_units: u64,
    units: u64,
    /// Journal header and its unit records, sorted (concurrent campaign
    /// threads append units in completion order). `None` for ATPG jobs,
    /// which keep no journal.
    journal: Option<(String, Vec<String>)>,
    /// Total scan-test length simulated (0 for ATPG jobs).
    test_length: usize,
    gates: usize,
}

/// Whether a finished job's status and events stream match the reference.
#[must_use]
pub fn job_ok(expected: &Expected, view: &JobView, lines: &[String]) -> bool {
    let journal_ok = match &expected.journal {
        None => lines.is_empty(),
        Some((header, records)) => {
            let mut got: Vec<String> = lines.iter().skip(1).cloned().collect();
            got.sort();
            lines.first() == Some(header) && &got == records
        }
    };
    view.status == "completed"
        && view.coverage.map(|c| format!("{c:.4}")) == Some(expected.coverage.clone())
        && view.detected == Some(expected.detected)
        && view.faults == Some(expected.faults)
        && view.completed_units == Some(expected.completed_units)
        && view.units == Some(expected.units)
        && journal_ok
}

fn scan_tests(
    table: &StateTable,
    circuit: &SynthesizedCircuit,
    tests: Tests,
    text: Option<&str>,
) -> Vec<ScanTest> {
    match (tests, text) {
        (Tests::Derived, _) => {
            let uios = derive_uios_with(table, &UioConfig::with_max_len(table.num_state_vars()));
            generate(table, &uios, &GenConfig::default()).to_scan_tests(circuit)
        }
        (_, Some(text)) => scanft_core::io::parse_tests(text, table)
            .expect("generated tests parse")
            .to_scan_tests(circuit),
        (_, None) => Vec::new(),
    }
}

/// The pipeline the server's job executor mirrors, run in-process on one
/// thread without the server, its cache or its WAL.
fn reference(table: &StateTable, tests: Tests, text: Option<&str>, journal: &Path) -> Expected {
    let circuit = synthesize(table, &SynthConfig::default());
    let gates = circuit.netlist().stats().num_gates;
    let scan = scan_tests(table, &circuit, tests, text);
    if tests == Tests::AtpgOnly {
        let outcome = top_up_scan_with(circuit.netlist(), &scan, &TopUpConfig::default(), None);
        let report = &outcome.report;
        return Expected {
            coverage: format!("{:.4}", report.coverage_percent()),
            detected: (report.detected_functional() + report.detected_atpg()) as u64,
            faults: report.faults.len() as u64,
            completed_units: report.atpg_patterns as u64,
            units: report.atpg_patterns as u64,
            journal: None,
            test_length: 0,
            gates,
        };
    }
    let fault_list = faults::as_fault_list(&faults::enumerate_stuck(circuit.netlist()));
    let order = campaign::decreasing_length_order(&scan);
    let config = SupervisedConfig {
        num_threads: 1,
        observe_scan_out: true,
        budget: Budget::unlimited(),
        label: table.name().to_owned(),
        kernel: Kernel::Wide,
        arena: None,
    };
    let path = journal.to_string_lossy().into_owned();
    let writer = JournalWriter::create(&path).expect("reference journal");
    let partial = campaign::run_supervised(
        circuit.netlist(),
        &scan,
        &order,
        &fault_list,
        &config,
        Some(&writer),
        None,
        None,
    )
    .expect("reference campaign");
    drop(writer);
    let text = std::fs::read_to_string(&path).expect("reading the reference journal");
    let mut lines = text.lines().map(str::to_owned);
    let header = lines.next().expect("journal header");
    let mut records: Vec<String> = lines.collect();
    records.sort();
    Expected {
        coverage: format!("{:.4}", partial.coverage_lower_bound_percent()),
        detected: partial.report.detected() as u64,
        faults: fault_list.len() as u64,
        completed_units: partial.completed_units.len() as u64,
        units: partial.num_units as u64,
        journal: Some((header, records)),
        test_length: scan.iter().map(ScanTest::len).sum(),
        gates,
    }
}

fn jobs(shape: &Shape, seed: u64, work: &Path) -> Vec<Job> {
    let entries: Vec<Entry> = shape.pool.iter().map(|(e, _)| *e).collect();
    let circuits = inputs::circuits(&entries, seed, Fit::Size);
    let mut references: Vec<((String, Tests), Expected)> = Vec::new();
    circuits
        .iter()
        .zip(shape.pool)
        .enumerate()
        .map(|(i, (circuit, &(_, tests)))| {
            let table = inputs::parse(circuit);
            let tests_text = match tests {
                Tests::Derived => None,
                Tests::PerTransition => Some(scanft_core::io::write_tests(
                    &per_transition_baseline(&table),
                    &table,
                )),
                Tests::AtpgOnly => Some(String::new()),
            };
            let body = match &tests_text {
                None => circuit.kiss.clone(),
                Some(text) => format!("{}.tests\n{text}", circuit.kiss),
            };
            let key = (circuit.name.clone(), tests);
            let expected = match references.iter().find(|(k, _)| *k == key) {
                Some((_, expected)) => expected.clone(),
                None => {
                    let journal = work.join(format!("ref-{i}.jsonl"));
                    let expected = reference(&table, tests, tests_text.as_deref(), &journal);
                    references.push((key, expected.clone()));
                    expected
                }
            };
            Job {
                name: circuit.name.clone(),
                kind: if tests == Tests::AtpgOnly {
                    JobKind::Atpg
                } else {
                    JobKind::Simulate
                },
                body,
                tests_text,
                expected,
            }
        })
        .collect()
}

/// Writes `HISTORY_JOBS` terminal jobs of the pool, under a tenant of
/// their own, through the server's public WAL writer.
fn seed_history(jobs: &[Job], wal: &Path, journals: &Path) -> Result<(), String> {
    let path = wal.to_string_lossy().into_owned();
    let writer = WalWriter::open(&path).map_err(|e| format!("{path}: {e}"))?;
    for i in 0..HISTORY_JOBS {
        let job = &jobs[i % jobs.len()];
        let id = format!("job-{}", i + 1);
        let (kiss, tests) = match job.body.split_once("\n.tests\n") {
            Some((kiss, tests)) => (format!("{kiss}\n"), Some(tests.to_owned())),
            None => (job.body.clone(), None),
        };
        let table = kiss::parse_with(&kiss, &job.name, kiss::Completion::SelfLoop)
            .map_err(|e| e.to_string())?;
        let admit = WalAdmit {
            id: id.clone(),
            tenant: "history".to_owned(),
            circuit: job.name.clone(),
            kind: job.kind,
            idem: format!(
                "auto:history:{}:{}",
                job.kind.name(),
                ContentKey::of_table(&table)
            ),
            sticky: false,
            journal_path: journals
                .join(format!("{id}.jsonl"))
                .to_string_lossy()
                .into_owned(),
            kiss,
            tests,
        };
        let done = JobStatus::Completed {
            coverage: 100.0,
            detected: 1,
            faults: 1,
            completed_units: 1,
            units: 1,
        };
        writer
            .log_admit(&admit)
            .and_then(|()| writer.log_claim(&id))
            .and_then(|()| writer.log_done(&id, &done))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// One finished (or refused) job as the client saw it.
#[derive(Debug, Default, Clone)]
struct Sample {
    ok: bool,
    refused: bool,
    submit_ms: f64,
    first_ms: Option<f64>,
    done_ms: f64,
    finished_at: Option<Instant>,
    bytes: usize,
}

fn run_one(client: &Client, addr: std::net::SocketAddr, job: &Job, tracer: &Tracer) -> Sample {
    let t0 = Instant::now();
    let submitted = client.submit(&job.body, &job.name, TENANT, job.kind);
    let admitted = Instant::now();
    let view = match submitted {
        Ok(view) => view,
        Err(ClientError::Api {
            status: 429 | 503, ..
        }) => {
            return Sample {
                refused: true,
                ..Sample::default()
            };
        }
        Err(e) => {
            eprintln!("{}: submit failed: {e}", job.name);
            return Sample::default();
        }
    };
    let stream: EventStream<Instant> = match events::fetch_events(addr, &view.id, CALL_TIMEOUT) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("{}: events stream failed: {e}", job.name);
            return Sample::default();
        }
    };
    let checked_at = Instant::now();
    let ok = match client.status(&view.id) {
        Ok(done) => stream.status == 200 && job_ok(&job.expected, &done, &stream.lines),
        Err(e) => {
            eprintln!("{}: status failed: {e}", job.name);
            false
        }
    };
    if !ok {
        eprintln!(
            "{} ({}): result differs from the in-process reference",
            job.name, view.id
        );
    }
    if tracer.enabled() {
        let label = format!("{}:{}:{}", view.id, job.name, job.kind.name());
        let root = tracer.record("job", None, &label, t0, Instant::now());
        tracer.record("submit", root, &label, t0, admitted);
        tracer.record("events", root, &label, admitted, stream.closed_at);
        tracer.record("status", root, &label, checked_at, Instant::now());
    }
    let ms = |t: Instant| (t - t0).as_secs_f64() * 1e3;
    Sample {
        ok,
        refused: false,
        submit_ms: ms(admitted),
        first_ms: stream.first_unit_at.map(ms),
        done_ms: ms(stream.closed_at),
        finished_at: Some(stream.closed_at),
        bytes: stream.body_bytes,
    }
}

/// Jobs each client sends in a round of traffic. Between rounds no job
/// is in flight, and the calibration kernel is timed (see `calib`).
const ROUND_JOBS: usize = 6;

/// One closed-loop traffic phase. Latencies and its length are wall
/// times scaled to the CPU time the guest had (1 - the share the host
/// stole during the round, see `cpu`) and to the reference host's speed
/// (the phase's median calibration, see `calib`). The loop keeps both
/// CPUs busy, so a slow or robbed host stretches every job alike.
#[derive(Debug, Default)]
struct Phase {
    /// Scaled seconds of traffic.
    secs: f64,
    /// Wall seconds of traffic.
    wall_secs: f64,
    /// Share of the wanted CPU time the host stole during the phase.
    steal: f64,
    /// What scaled the phase to the reference host.
    speed: f64,
    samples: Vec<Sample>,
}

impl Phase {
    fn finished(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.finished_at.is_some())
    }
    fn jobs_per_s(&self) -> f64 {
        self.finished().count() as f64 / self.secs
    }
    fn done_ms(&self) -> Vec<f64> {
        self.finished().map(|s| s.done_ms).collect()
    }
    fn first_ms(&self) -> Vec<f64> {
        self.finished().filter_map(|s| s.first_ms).collect()
    }
    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
    /// Scales the phase's length and latencies by `factor`.
    fn scale(&mut self, factor: f64) {
        self.secs *= factor;
        for sample in &mut self.samples {
            sample.done_ms *= factor;
            if let Some(first) = sample.first_ms.as_mut() {
                *first *= factor;
            }
        }
    }
}

/// Two clients, each sending its next job only when the previous one's
/// events stream has closed, walking the pool cyclically from `start`,
/// in rounds of [`ROUND_JOBS`] jobs each. Runs until `seconds` have
/// passed and every latency has [`MIN_SAMPLES`] samples.
fn traffic(
    addr: std::net::SocketAddr,
    jobs: &[Job],
    start: usize,
    seconds: u64,
    tracer: &Tracer,
) -> Phase {
    let client = Client::new(addr).with_timeout(CALL_TIMEOUT);
    let next = AtomicUsize::new(start);
    // Jobs whose stream carries unit records, for the first-batch sample.
    let streams_units = jobs.iter().filter(|j| j.expected.journal.is_some()).count();
    let enough = |samples: &[Sample]| {
        let done = samples.iter().filter(|s| s.finished_at.is_some()).count();
        let firsts = samples.iter().filter(|s| s.first_ms.is_some()).count();
        done >= MIN_SAMPLES && (streams_units == 0 || firsts >= MIN_SAMPLES)
    };
    let kernel = calib::Kernel::new();
    let mut readings = vec![kernel.time_ms_every_cpu()];
    let mut phase = Phase::default();
    let ticks = cpu::Ticks::now();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline || !enough(&phase.samples) {
        let round_ticks = cpu::Ticks::now();
        let began = Instant::now();
        let samples: Vec<Sample> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUND_JOBS)
                            .map(|_| {
                                let job = &jobs[next.fetch_add(1, Ordering::SeqCst) % jobs.len()];
                                run_one(&client, addr, job, tracer)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let end = samples
            .iter()
            .filter_map(|s| s.finished_at)
            .max()
            .unwrap_or(began);
        let wall = (end - began).as_secs_f64();
        let mut round = Phase {
            secs: wall,
            samples,
            ..Phase::default()
        };
        round.scale(1.0 - cpu::Ticks::now().steal_share_since(&round_ticks));
        readings.push(kernel.time_ms_every_cpu());
        phase.wall_secs += wall;
        phase.secs += round.secs;
        phase.samples.append(&mut round.samples);
    }
    phase.steal = cpu::Ticks::now().steal_share_since(&ticks);
    phase.speed = calib::phase_factor(&readings);
    phase.scale(phase.speed);
    phase
}

/// Starts the server over a fresh copy of the seeded history; returns it
/// with the `Server::start` and start-to-ready durations.
fn start(
    shape: &Shape,
    work: &Path,
    template: &Path,
    rep: usize,
) -> Result<(Server, f64, f64), String> {
    let state: PathBuf = work.join(format!("state-{rep}"));
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    std::fs::copy(template, state.join("jobs.wal"))
        .map_err(|e| format!("copying the history: {e}"))?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: shape.workers,
        campaign_threads: shape.campaign_threads,
        journal_dir: work.join("journals").to_string_lossy().into_owned(),
        state_dir: Some(state.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let ticks = cpu::Ticks::now();
    let t0 = Instant::now();
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let started = t0.elapsed().as_secs_f64();
    let client = Client::new(server.addr()).with_timeout(CALL_TIMEOUT);
    loop {
        match client.ready() {
            Ok(true) => break,
            Ok(false) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("readyz: {e}")),
        }
    }
    let available = 1.0 - cpu::Ticks::now().steal_share_since(&ticks);
    Ok((
        server,
        started * available,
        t0.elapsed().as_secs_f64() * available,
    ))
}

/// Runs a served workload.
///
/// # Errors
///
/// Set-up failures: the work directory, the WAL history or the server.
pub fn run(shape: &Shape, args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(shape.name)?;
    let journals = work.path().join("journals");
    std::fs::create_dir_all(&journals).map_err(|e| format!("{}: {e}", journals.display()))?;
    let t = Instant::now();
    let jobs = jobs(shape, args.seed, work.path());
    self_test(&jobs[0]);
    eprintln!(
        "{}: inputs and references in {:.1}s",
        shape.name,
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let template = work.path().join("history.wal");
    seed_history(&jobs, &template, &journals)?;
    eprintln!(
        "{}: history in {:.1}s",
        shape.name,
        t.elapsed().as_secs_f64()
    );

    // Restarts are scaled to the reference host by the median of the
    // calibrations between them (see `calib`).
    let kernel = calib::Kernel::new();
    let mut readings = vec![kernel.time_ms_every_cpu()];
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, started, ready) = start(shape, work.path(), &template, rep)?;
        if let Some(previous) = server.replace(s) {
            Server::shutdown(previous);
        }
        readings.push(kernel.time_ms_every_cpu());
        starts.push(started * 1e3);
        setups.push(ready);
    }
    let setup_speed = calib::phase_factor(&readings);
    let server = server.expect("at least one set-up");
    let wal_records = server.recovery().wal_records as f64;
    let addr = server.addr();

    let mut warm = Phase::default();
    if shape.warm_up {
        let client = Client::new(addr).with_timeout(CALL_TIMEOUT);
        let off = Tracer::new(false);
        warm.samples = jobs
            .iter()
            .map(|job| run_one(&client, addr, job, &off))
            .collect();
    }
    let untraced = traffic(addr, &jobs, 0, args.seconds, &Tracer::new(false));
    let mut outcome = Outcome {
        correct: warm.failed() == 0 && untraced.failed() == 0,
        attempted: untraced.samples.len() as u64,
        failed: untraced.failed() as u64,
        metrics: Vec::new(),
    };

    if args.trace {
        let tracer = Tracer::new(true);
        let before = Snapshot::take();
        let traced = traffic(addr, &jobs, untraced.samples.len(), args.seconds, &tracer);
        let delta = Snapshot::take().since(&before);
        outcome.correct &= traced.failed() == 0;
        outcome.attempted += traced.samples.len() as u64;
        outcome.failed += traced.failed() as u64;
        let finished = traced.finished().count() as f64;
        let simulate: Vec<&Job> = jobs
            .iter()
            .filter(|j| j.kind == JobKind::Simulate)
            .collect();
        let with_tests: Vec<&Job> = jobs.iter().filter(|j| j.tests_text.is_some()).collect();
        let submits: Vec<f64> = traced.finished().map(|s| s.submit_ms).collect();
        let measured = Measured {
            jobs: finished,
            parse_ms: history_parse_ms(&jobs),
            test_length: simulate
                .iter()
                .map(|j| j.expected.test_length as f64)
                .sum::<f64>()
                / simulate.len().max(1) as f64,
            tests_parse_ms: tests_parse_ms(&with_tests),
            synth_gates: jobs.iter().map(|j| j.expected.gates as f64).sum::<f64>()
                / jobs.len() as f64,
            journal_bytes: traced.finished().map(|s| s.bytes as f64).sum::<f64>() / finished,
            recovery_ms: median(&starts),
            wal_records,
            submit_p50_ms: percentile(&submits, 0.5).unwrap_or_else(|| median(&submits)),
            refused: traced.samples.iter().filter(|s| s.refused).count() as f64,
            overhead_pct: 100.0 * (1.0 - traced.jobs_per_s() / untraced.jobs_per_s()),
            ..Measured::default()
        };
        outcome.metrics = layers::metrics(&delta, &measured);
        crate::write_trace(args, &tracer, &[
            (
                "fsm.parse_ms",
                "the server's own parse is internal: this is kiss::parse_with timed by the benchmark over the texts replay re-parses",
            ),
            (
                "core.tests_parse_ms",
                "parse_tests timed by the benchmark over the submitted `.tests` sections (the server parses them internally)",
            ),
            (
                "sim.drop_ratio",
                "supervised campaigns export no tests-simulated/skipped counters; reads 0",
            ),
            ("core.flow_self_ms", "no run_flow on the served path"),
            ("sim.exhaustive_calls", "no exhaustive classification on the served path"),
            ("opt.optimize_ms", "the server runs without --optimize; all opt.* read 0"),
        ])?;
    } else {
        let p = &untraced;
        println!(
            "traffic: {:.1} s wall, {:.1} % of wanted CPU time stolen by the host, speed factor {:.3}; raw {:.3} jobs/s",
            p.wall_secs,
            100.0 * p.steal,
            p.speed,
            p.finished().count() as f64 / p.wall_secs
        );
        let done = p.done_ms();
        let first = p.first_ms();
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setups) * setup_speed, "s", SETUP_REPS),
            Metric::new("jobs_per_s", p.jobs_per_s(), "jobs/s", done.len()),
            Metric::percentile("done_p50_ms", &done, 0.5)?,
            Metric::percentile("done_p90_ms", &done, 0.9)?,
            Metric::percentile("first_batch_p50_ms", &first, 0.5)?,
            Metric::percentile("first_batch_p90_ms", &first, 0.9)?,
            Metric::new(
                "ok_ratio",
                (p.samples.len() - p.failed()) as f64 / p.samples.len() as f64,
                "ratio",
                p.samples.len(),
            ),
            Metric::new("peak_rss_mb", crate::rss::peak_rss_mib()?, "MiB", 1),
        ];
    }
    server.shutdown();
    Ok(outcome)
}

fn history_parse_ms(jobs: &[Job]) -> f64 {
    let t0 = cpu::thread_time();
    for i in 0..HISTORY_JOBS {
        let job = &jobs[i % jobs.len()];
        let kiss = job.body.split("\n.tests\n").next().unwrap_or_default();
        std::hint::black_box(kiss::parse_with(kiss, &job.name, kiss::Completion::SelfLoop).ok());
    }
    (cpu::thread_time() - t0).as_secs_f64() * 1e3
}

fn tests_parse_ms(jobs: &[&Job]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    let t0 = cpu::thread_time();
    for job in jobs {
        let kiss = job.body.split("\n.tests\n").next().unwrap_or_default();
        let table = kiss::parse_with(kiss, &job.name, kiss::Completion::SelfLoop)
            .expect("pool KISS2 parses");
        let text = job.tests_text.as_deref().unwrap_or_default();
        std::hint::black_box(scanft_core::io::parse_tests(text, &table).ok());
    }
    (cpu::thread_time() - t0).as_secs_f64() * 1e3 / jobs.len() as f64
}

/// The output gate must accept the reference itself and reject a
/// doctored status or a doctored events stream.
fn self_test(job: &Job) {
    let e = &job.expected;
    let genuine = JobView {
        id: "job-0".to_owned(),
        status: "completed".to_owned(),
        circuit: job.name.clone(),
        key: String::new(),
        coverage: e.coverage.parse().ok(),
        detected: Some(e.detected),
        faults: Some(e.faults),
        completed_units: Some(e.completed_units),
        units: Some(e.units),
        cache: None,
        message: None,
        journal: None,
    };
    // Units arrive in completion order, not unit order.
    let lines: Vec<String> = match &e.journal {
        Some((header, records)) => std::iter::once(header.clone())
            .chain(records.iter().rev().cloned())
            .collect(),
        None => Vec::new(),
    };
    assert!(
        job_ok(e, &genuine, &lines),
        "self-test: genuine result rejected"
    );
    let doctored = JobView {
        detected: Some(e.detected + 1),
        ..genuine.clone()
    };
    assert!(
        !job_ok(e, &doctored, &lines),
        "self-test: doctored status accepted"
    );
    let mut short = lines.clone();
    short.pop();
    short.push("{\"unit\":0,\"lanes\":[]}".to_owned());
    assert!(
        !job_ok(e, &genuine, &short),
        "self-test: doctored stream accepted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_rejects_doctored_results_of_every_job_kind() {
        const POOL: &[(Entry, Tests)] = &[
            (entry("dk27", 0), Tests::Derived),
            (entry("dk27", 0), Tests::PerTransition),
            (entry("dk27", 0), Tests::AtpgOnly),
        ];
        let work = WorkDir::create("served-test").unwrap();
        let shape = Shape {
            name: "test",
            pool: POOL,
            workers: 1,
            campaign_threads: 1,
            warm_up: false,
        };
        for job in jobs(&shape, 0, work.path()) {
            self_test(&job);
        }
    }
}
