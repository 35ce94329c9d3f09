//! End-to-end drill for the `scanft serve` daemon — the serving analogue
//! of `chaos_resume`.
//!
//! The script (all against one in-process server with a 3-worker pool,
//! delay-only chaos holding a cancellation window open):
//!
//! 1. three client threads concurrently submit `bbtas`, `dk27` and `mc`;
//! 2. the `bbtas` thread kills its own job mid-flight via `DELETE` and
//!    asserts it lands `cancelled` (retrying the submit/kill race a few
//!    times — the cancel must beat a campaign that only takes tens of
//!    milliseconds);
//! 3. the surviving jobs must complete with coverage *equal* to the
//!    one-shot in-process pipeline (the same code `scanft simulate`
//!    drives) and byte-identical journals;
//! 4. every circuit is resubmitted warm: the artifact cache must hit, the
//!    results must again be byte-identical, and the drill reports cache
//!    hit-rate plus cold/warm submit-to-first-batch latency.
//!
//! Exits non-zero on any violated assertion, so CI can run it as a gate.
//! `--journal-dir DIR` keeps the journals somewhere uploadable.

use std::time::{Duration, Instant};

use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{benchmarks, kiss, StateTable};
use scanft_harness::JournalWriter;
use scanft_server::{Client, JobKind, JobView, Server, ServerConfig};
use scanft_sim::campaign::{self, Kernel, SupervisedConfig};
use scanft_synth::{synthesize, SynthConfig};

const WAIT: Duration = Duration::from_secs(300);

fn string_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1))
        .cloned()
}

/// The one-shot reference: exactly the pipeline `scanft simulate` runs
/// (and the server's job executor mirrors), writing `journal_path`.
/// Returns the coverage percent.
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

/// Submits `table` and waits for a terminal state; returns the final view
/// and the submit-to-first-batch latency (first journal record on disk).
fn submit_and_wait(client: &Client, table: &StateTable) -> (JobView, Duration) {
    let body = kiss::write(table);
    let submitted_at = Instant::now();
    let accepted = client
        .submit(&body, table.name(), "drill", JobKind::Simulate)
        .expect("submit");
    // First batch = journal has the header line plus at least one record.
    let journal = client
        .status(&accepted.id)
        .expect("status")
        .journal
        .expect("journal path");
    let first_batch = loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break submitted_at.elapsed();
        }
        if submitted_at.elapsed() > WAIT {
            panic!("{}: no batch within {WAIT:?}", table.name());
        }
        scanft_race::thread::sleep(Duration::from_micros(200));
    };
    let finished = client.wait(&accepted.id, WAIT).expect("wait");
    (finished, first_batch)
}

/// Submits the victim and cancels it mid-flight; retries the race (the
/// whole campaign is only tens of milliseconds long) a bounded number of
/// times. Returns the number of attempts used.
fn kill_mid_flight(client: &Client, table: &StateTable) -> usize {
    let body = kiss::write(table);
    for attempt in 1..=10 {
        let accepted = client
            .submit(&body, table.name(), "drill", JobKind::Simulate)
            .expect("submit victim");
        // Wait until the worker actually claims it, then strike.
        let deadline = Instant::now() + WAIT;
        loop {
            let view = client.status(&accepted.id).expect("status victim");
            match view.status.as_str() {
                "queued" => {}
                "running" => {
                    client.cancel(&accepted.id).expect("cancel");
                    break;
                }
                // Terminal before we could aim: lost the race this round.
                _ => break,
            }
            assert!(Instant::now() < deadline, "victim stuck queued");
            scanft_race::thread::sleep(Duration::from_millis(1));
        }
        let finished = client.wait(&accepted.id, WAIT).expect("wait victim");
        match finished.status.as_str() {
            "cancelled" => {
                println!(
                    "  victim {}: cancelled mid-flight on attempt {attempt}",
                    table.name(),
                );
                return attempt;
            }
            "completed" => continue, // campaign outran the DELETE; retry
            other => panic!("victim ended `{other}`: {:?}", finished.message),
        }
    }
    panic!("could not cancel mid-flight in 10 attempts");
}

/// `--measure`: chaos-free latency measurement — submit each circuit cold
/// then warm on an undisturbed server and report submit-to-first-batch
/// latency plus the cache-hit rate (the EXPERIMENTS.md numbers).
fn measure(journal_dir: &str) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        campaign_threads: 1,
        journal_dir: journal_dir.to_owned(),
        chaos_seed: None,
        ..ServerConfig::default()
    })
    .expect("server start");
    let client = Client::new(server.addr());
    println!(
        "serve_drill --measure: server on {} (no chaos)",
        server.addr()
    );
    println!("\ncircuit   cold first-batch   warm first-batch   warm cache");
    for name in ["bbtas", "dk27", "mc", "dk16", "ex2"] {
        let table = benchmarks::build(name).expect("benchmark");
        let (_, cold) = submit_and_wait(&client, &table);
        let (warm_view, warm) = submit_and_wait(&client, &table);
        println!(
            "{name:<9} {:>12.1}ms   {:>12.1}ms   {}",
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            warm_view.cache.as_deref().unwrap_or("?"),
        );
    }
    let metrics = client.metrics().expect("metrics");
    for line in metrics.lines().filter(|l| l.contains("server.cache.")) {
        println!("{line}");
    }
    server.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let journal_dir = string_of(&args, "--journal-dir").unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("scanft-serve-drill-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    if args.iter().any(|a| a == "--measure") {
        measure(&journal_dir);
        return;
    }

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 3,
        campaign_threads: 1,
        journal_dir: journal_dir.clone(),
        // Delay-only chaos: stretches each work unit so DELETE has a
        // window to land mid-campaign. Never injects panics or torn
        // writes.
        chaos_seed: Some(23),
        ..ServerConfig::default()
    })
    .expect("server start");
    let client = Client::new(server.addr());
    println!(
        "serve_drill: server on {} (journals in {journal_dir})",
        server.addr()
    );

    let survivors = ["dk27", "mc"];

    // Phase 1: three concurrent client threads; bbtas gets killed.
    let mut handles = Vec::new();
    for name in survivors {
        let client = client.clone();
        handles.push(scanft_race::thread::spawn(move || {
            let table = benchmarks::build(name).expect("benchmark");
            let (view, first_batch) = submit_and_wait(&client, &table);
            (name, view, first_batch)
        }));
    }
    let killer = {
        let client = client.clone();
        let table = benchmarks::build("bbtas").expect("bbtas");
        scanft_race::thread::spawn(move || kill_mid_flight(&client, &table))
    };
    let cold: Vec<(&str, JobView, Duration)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    killer.join().expect("killer thread");

    // Phase 2: verify the survivors against the one-shot pipeline.
    let mut failures = 0;
    println!("\ncircuit   phase  coverage   reference  journal   first-batch");
    for (name, view, first_batch) in &cold {
        let table = benchmarks::build(name).expect("benchmark");
        let ref_journal = format!("{journal_dir}/{name}.reference.jsonl");
        let ref_coverage = reference_run(&table, &ref_journal);
        let coverage = view.coverage.expect("coverage");
        let served = std::fs::read(view.journal.as_deref().expect("journal")).expect("read served");
        let reference = std::fs::read(&ref_journal).expect("read reference");
        let identical = served == reference;
        let coverage_ok = (coverage - ref_coverage).abs() < 1e-12;
        println!(
            "{name:<9} cold   {coverage:>7.2}%  {ref_coverage:>7.2}%   {}  {:>8.1}ms",
            if identical { "identical" } else { "DIFFERS " },
            first_batch.as_secs_f64() * 1e3,
        );
        if !identical || !coverage_ok || view.status != "completed" {
            failures += 1;
        }
    }

    // Phase 3: warm resubmissions — the cache must hit, results must not
    // change, and bbtas (killed above, artifacts already cached) must now
    // complete.
    let mut warm_names: Vec<&str> = survivors.to_vec();
    warm_names.push("bbtas");
    let mut hits = 0usize;
    for name in &warm_names {
        let table = benchmarks::build(name).expect("benchmark");
        let (view, first_batch) = submit_and_wait(&client, &table);
        let hit = view.cache.as_deref() == Some("hit");
        hits += usize::from(hit);
        let cold_view = cold.iter().find(|(n, _, _)| n == name);
        let consistent = match cold_view {
            Some((_, cold_view, _)) => {
                cold_view.coverage == view.coverage
                    && std::fs::read(view.journal.as_deref().expect("journal")).expect("read warm")
                        == std::fs::read(cold_view.journal.as_deref().expect("journal"))
                            .expect("read cold")
            }
            None => view.status == "completed",
        };
        println!(
            "{name:<9} warm   {:>7.2}%  cache {}   {}  {:>8.1}ms",
            view.coverage.unwrap_or(0.0),
            if hit { "hit " } else { "MISS" },
            if consistent { "identical" } else { "DIFFERS " },
            first_batch.as_secs_f64() * 1e3,
        );
        if !hit || !consistent {
            failures += 1;
        }
        let _ = table;
    }

    // The victim's kill-then-resubmit also proves "second submission
    // served from cache": bbtas built artifacts before dying.
    let metrics = client.metrics().expect("metrics");
    let grab = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .and_then(|l| {
                let marker = "\"value\":";
                let start = l.find(marker)? + marker.len();
                l[start..].trim_end_matches('}').parse().ok()
            })
            .unwrap_or(0)
    };
    let (cache_hits, cache_misses) = (grab("server.cache.hits"), grab("server.cache.misses"));
    println!(
        "\ncache: {cache_hits} hits / {cache_misses} misses ({:.0}% hit rate), {} warm hits of {}",
        100.0 * cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        hits,
        warm_names.len(),
    );
    println!(
        "jobs: accepted {} completed {} cancelled {} rejected {}",
        grab("server.jobs.accepted"),
        grab("server.jobs.completed"),
        grab("server.jobs.cancelled"),
        grab("server.jobs.rejected"),
    );

    server.shutdown();
    if failures > 0 {
        eprintln!("serve_drill: {failures} assertion(s) failed");
        std::process::exit(1);
    }
    println!("serve_drill: all assertions held");
}
