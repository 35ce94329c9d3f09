//! Crash-restart drill for `scanft serve --state-dir` — the durability
//! analogue of `serve_drill`.
//!
//! The parent process spawns this same binary in `--serve` mode (a real
//! child process, so the kill is a real SIGKILL, not a polite shutdown),
//! then:
//!
//! 1. submits `bbtas` with an explicit `Idempotency-Key` and `dk27`
//!    without one, against a server whose delay chaos stretches each work
//!    unit into a wide kill window;
//! 2. waits until the `bbtas` campaign has checkpointed at least one work
//!    unit, then `kill -9`s the server mid-campaign;
//! 3. restarts the server on the same state directory and asserts the WAL
//!    replay re-queued the unfinished jobs;
//! 4. waits for both jobs to complete under their *original* ids and
//!    asserts the recovered journals are byte-identical to an
//!    uninterrupted one-shot reference run;
//! 5. resubmits `bbtas` under the same `Idempotency-Key` and asserts the
//!    original job comes back (200, same id, no re-execution);
//! 6. drains: further submissions bounce with 503, and the child exits 0.
//!
//! If the campaign outruns the kill (nothing was mid-flight), the attempt
//! is retried on a fresh state directory. Exits non-zero on any violated
//! assertion, so CI runs it as the `restart-smoke` gate.

use std::io::BufRead;
use std::time::{Duration, Instant};

use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{benchmarks, kiss, StateTable};
use scanft_harness::JournalWriter;
use scanft_server::{Client, ClientError, JobKind, RetryPolicy, Server, ServerConfig};
use scanft_sim::campaign::{self, Kernel, SupervisedConfig};
use scanft_synth::{synthesize, SynthConfig};

const WAIT: Duration = Duration::from_secs(300);

fn string_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1))
        .cloned()
}

/// `--serve` mode: the child. Starts a crash-safe server on an ephemeral
/// port, announces recovery counts and the address on stdout, then blocks
/// until a drain request and exits 0.
fn serve(args: &[String]) -> ! {
    let state_dir = string_of(args, "--state-dir").expect("--state-dir required");
    let journal_dir = string_of(args, "--journal-dir").expect("--journal-dir required");
    scanft_harness::silence_chaos_panics();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        campaign_threads: 1,
        journal_dir,
        state_dir: Some(state_dir),
        // Delay-only chaos, widened so each work unit takes ~80 ms: the
        // parent's SIGKILL lands mid-campaign, not between campaigns.
        chaos_seed: Some(23),
        chaos_delay_micros: 80_000,
        ..ServerConfig::default()
    })
    .expect("server start");
    let recovery = server.recovery();
    println!(
        "RECOVERY requeued={} terminal={} torn={} records={}",
        recovery.jobs_requeued, recovery.jobs_terminal, recovery.wal_torn, recovery.wal_records
    );
    println!("LISTENING {}", server.addr());
    server.wait_drain_requested();
    server.drain_and_shutdown();
    println!("DRAINED");
    std::process::exit(0);
}

struct Child {
    process: std::process::Child,
    addr: std::net::SocketAddr,
    requeued: u64,
    terminal: u64,
}

/// Spawns the `--serve` child and reads its stdout until the LISTENING
/// line; a thread drains the rest so the pipe never fills.
fn spawn_server(state_dir: &str, journal_dir: &str) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut process = std::process::Command::new(exe)
        .args([
            "--serve",
            "--state-dir",
            state_dir,
            "--journal-dir",
            journal_dir,
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = process.stdout.take().expect("child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let (mut addr, mut requeued, mut terminal) = (None, 0, 0);
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            panic!("server child exited before LISTENING");
        }
        print!("  child: {line}");
        if let Some(rest) = line.strip_prefix("RECOVERY ") {
            let grab = |key: &str| -> u64 {
                rest.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            requeued = grab("requeued");
            terminal = grab("terminal");
        }
        if let Some(rest) = line.strip_prefix("LISTENING ") {
            addr = Some(rest.trim().parse().expect("child addr"));
        }
    }
    // Keep draining so the child never blocks on a full pipe.
    scanft_race::thread::spawn(move || {
        let mut rest = String::new();
        while reader.read_line(&mut rest).map(|n| n > 0).unwrap_or(false) {
            rest.clear();
        }
    });
    Child {
        process,
        addr: addr.expect("LISTENING line carries the address"),
        requeued,
        terminal,
    }
}

/// The one-shot reference: the same single-threaded wide-kernel pipeline
/// the server's executor runs, writing `journal_path`. Returns coverage.
fn reference_run(table: &StateTable, journal_path: &str) -> f64 {
    let circuit = synthesize(table, &SynthConfig::default());
    let uios = derive_uios_with(table, &UioConfig::with_max_len(table.num_state_vars()));
    let scan_tests = generate(table, &uios, &GenConfig::default()).to_scan_tests(&circuit);
    let fault_list =
        scanft_sim::faults::as_fault_list(&scanft_sim::faults::enumerate_stuck(circuit.netlist()));
    let order = campaign::decreasing_length_order(&scan_tests);
    let config = SupervisedConfig {
        num_threads: 1,
        observe_scan_out: true,
        budget: scanft_harness::Budget::unlimited(),
        label: table.name().to_owned(),
        kernel: Kernel::Wide,
        ..SupervisedConfig::default()
    };
    let writer = JournalWriter::create(journal_path).expect("reference journal");
    let partial = campaign::run_supervised(
        circuit.netlist(),
        &scan_tests,
        &order,
        &fault_list,
        &config,
        Some(&writer),
        None,
        None,
    )
    .expect("reference campaign");
    assert!(partial.is_complete(), "reference run must not stop early");
    partial.coverage_lower_bound_percent()
}

fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
        .and_then(|l| {
            let marker = "\"value\":";
            let start = l.find(marker)? + marker.len();
            l[start..].trim_end_matches('}').parse().ok()
        })
        .unwrap_or(0)
}

/// One crash/restart attempt. `Err` means the kill window was missed (the
/// campaigns finished before the SIGKILL) — benign, retried on fresh dirs.
fn attempt(round: usize, root: &std::path::Path) -> Result<(), String> {
    let tag = format!("scanft-restart-drill-{}-{round}", std::process::id());
    let state_dir = root.join(format!("{tag}-state"));
    let journal_dir = root.join(format!("{tag}-journals"));
    std::fs::create_dir_all(&journal_dir).expect("journal dir");
    let state_dir = state_dir.to_string_lossy().into_owned();
    let journal_dir = journal_dir.to_string_lossy().into_owned();

    println!("restart_drill round {round}: state in {state_dir}");
    let mut child = spawn_server(&state_dir, &journal_dir);
    assert_eq!(child.requeued, 0, "fresh state dir has nothing to recover");
    let client = Client::new(child.addr).with_retry(RetryPolicy::default().with_seed(round as u64));

    // Submit the two campaigns: bbtas under an explicit sticky key.
    let bbtas = benchmarks::build("bbtas").expect("bbtas");
    let dk27 = benchmarks::build("dk27").expect("dk27");
    let accepted_bbtas = client
        .submit_with_key(
            &kiss::write(&bbtas),
            "bbtas",
            "drill",
            JobKind::Simulate,
            Some("drill-bbtas"),
        )
        .expect("submit bbtas");
    let accepted_dk27 = client
        .submit(&kiss::write(&dk27), "dk27", "drill", JobKind::Simulate)
        .expect("submit dk27");

    // Wait for the first checkpoint of the first campaign, then SIGKILL.
    let journal = client
        .status(&accepted_bbtas.id)
        .expect("status")
        .journal
        .expect("journal path");
    let started = Instant::now();
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(started.elapsed() < WAIT, "no checkpoint within {WAIT:?}");
        scanft_race::thread::sleep(Duration::from_millis(1));
    }
    child.process.kill().expect("kill -9 the server");
    child.process.wait().expect("reap killed server");
    println!("  killed mid-campaign after the first bbtas checkpoint");

    // Restart on the same state directory: the WAL must re-queue the
    // unfinished jobs (2 minus however many finished before the kill).
    let mut child = spawn_server(&state_dir, &journal_dir);
    if child.requeued == 0 {
        child.process.kill().ok();
        child.process.wait().ok();
        return Err("kill window missed: both campaigns finished first".into());
    }
    println!(
        "  recovered: {} re-queued, {} already terminal",
        child.requeued, child.terminal
    );
    let client = Client::new(child.addr).with_retry(RetryPolicy::default());

    // The jobs finish under their original ids, no resubmission needed.
    let mut failures = 0;
    let mut final_views = Vec::new();
    for (name, id) in [("bbtas", &accepted_bbtas.id), ("dk27", &accepted_dk27.id)] {
        // `Client::wait` is an HTTP poll, not a condvar wait.
        let view = client.wait(id, WAIT).expect("wait after restart"); // race-lint: allow(lock-poison-expect)
        if view.status != "completed" {
            eprintln!(
                "  FAIL {name}: ended `{}` ({:?})",
                view.status, view.message
            );
            failures += 1;
        }
        final_views.push((name, view));
    }

    // Byte-identical journals against the uninterrupted reference.
    for (name, view) in &final_views {
        let table = benchmarks::build(name).expect("benchmark");
        let ref_journal = format!("{journal_dir}/{name}.reference.jsonl");
        let ref_coverage = reference_run(&table, &ref_journal);
        let served = std::fs::read(view.journal.as_deref().expect("journal")).expect("read served");
        let reference = std::fs::read(&ref_journal).expect("read reference");
        let identical = served == reference;
        // The status JSON rounds coverage to 4 decimals; the journal
        // byte-identity above is the exact check.
        let coverage_ok = (view.coverage.expect("coverage") - ref_coverage).abs() < 5e-5;
        println!(
            "  {name:<6} {:>7.2}% vs reference {ref_coverage:>7.2}%  journal {}",
            view.coverage.unwrap_or(0.0),
            if identical { "identical" } else { "DIFFERS" },
        );
        if !identical || !coverage_ok {
            eprintln!(
                "  FAIL {name}: identical={identical} coverage={:?} reference={ref_coverage}",
                view.coverage
            );
            failures += 1;
        }
    }

    // Idempotent resubmission: the sticky key maps to the original job
    // forever — same id back, nothing re-executed.
    let before = client.metrics().expect("metrics");
    let duplicate = client
        .submit_with_key(
            &kiss::write(&bbtas),
            "bbtas",
            "drill",
            JobKind::Simulate,
            Some("drill-bbtas"),
        )
        .expect("duplicate submit");
    let after = client.metrics().expect("metrics");
    if duplicate.id != accepted_bbtas.id {
        eprintln!(
            "  FAIL duplicate returned {} instead of {}",
            duplicate.id, accepted_bbtas.id
        );
        failures += 1;
    }
    if metric(&after, "server.jobs.accepted") != metric(&before, "server.jobs.accepted")
        || metric(&after, "server.jobs.deduped") != metric(&before, "server.jobs.deduped") + 1
    {
        eprintln!("  FAIL duplicate was re-admitted instead of deduped");
        failures += 1;
    }
    println!(
        "  duplicate `drill-bbtas` -> {} (deduped, {} units resumed, {} jobs resumed)",
        duplicate.id,
        metric(&after, "server.recovery.units_resumed"),
        metric(&after, "server.recovery.jobs_resumed"),
    );

    // Graceful drain while a campaign is in flight: readiness flips,
    // submissions bounce 503, the running job still finishes (its
    // terminal state lands in the WAL), and the child exits 0.
    let mc = benchmarks::build("mc").expect("mc");
    let in_flight = client
        .submit(&kiss::write(&mc), "mc", "drill", JobKind::Simulate)
        .expect("submit mc");
    let started = Instant::now();
    loop {
        let view = client.status(&in_flight.id).expect("status mc");
        if view.status == "running" || view.is_terminal() {
            break;
        }
        assert!(started.elapsed() < WAIT, "mc never started");
        scanft_race::thread::sleep(Duration::from_millis(1));
    }
    let plain = Client::new(child.addr); // no retry: 503 must surface
    plain.drain().expect("drain request");
    // The child exits as soon as the in-flight campaign completes; if it
    // beats these probes the connection refusal is the same fact.
    match plain.ready() {
        Ok(false) | Err(ClientError::Io(_)) => {}
        other => {
            eprintln!("  FAIL draining server still ready: {other:?}");
            failures += 1;
        }
    }
    match plain.submit(&kiss::write(&dk27), "dk27", "drill", JobKind::Simulate) {
        Err(ClientError::Api { status: 503, .. }) | Err(ClientError::Io(_)) => {}
        other => {
            eprintln!("  FAIL submission during drain answered {other:?}");
            failures += 1;
        }
    }
    let status = child.process.wait().expect("wait for drained child");
    if !status.success() {
        eprintln!("  FAIL drained server exited {status:?}");
        failures += 1;
    }
    // Durability of the drain itself: the WAL records the in-flight job's
    // terminal state, so the next boot has nothing to re-run.
    let wal = scanft_server::read_wal_file(&format!("{state_dir}/jobs.wal")).expect("wal");
    let state = scanft_server::replay(&wal);
    let mc_job = state
        .jobs
        .iter()
        .find(|j| j.admit.id == in_flight.id)
        .expect("mc admitted in WAL");
    if mc_job.done.is_none() {
        eprintln!("  FAIL drained server exited before finishing the in-flight job");
        failures += 1;
    }
    println!("  drain: 503 on submit, in-flight job finished, child exited cleanly");

    if failures > 0 {
        eprintln!("restart_drill: {failures} assertion(s) failed");
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve") {
        serve(&args);
    }
    // `--root DIR` pins the state/journal directories somewhere CI can
    // archive; the default is the system temp dir.
    let root = string_of(&args, "--root").map_or_else(std::env::temp_dir, std::path::PathBuf::from);
    std::fs::create_dir_all(&root).expect("drill root dir");
    // The kill races a finite campaign; retry on a fresh state directory
    // when the window is missed, but never mask a real assertion failure
    // (those exit(1) inside `attempt`).
    for round in 1..=5 {
        match attempt(round, &root) {
            Ok(()) => {
                println!("restart_drill: all assertions held");
                return;
            }
            Err(reason) => println!("restart_drill round {round} void: {reason}"),
        }
    }
    eprintln!("restart_drill: kill window missed 5 times — chaos delay too narrow?");
    std::process::exit(1);
}
