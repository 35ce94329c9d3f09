//! Golden test for the `--metrics` JSON-lines export.
//!
//! Runs the `scanft` binary in a fresh subprocess (the `scanft-obs`
//! registry is process-wide, so only a fresh process has deterministic
//! counter values) and pins both the schema of every line and the exact
//! counter/gauge values for the `lion` walkthrough, plus the outputs that
//! depend on netlist iteration order on two mid-size circuits.

#![allow(clippy::unwrap_used)]
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn run_with_metrics(args: &[&str]) -> Vec<String> {
    // Tests run in parallel threads of one process, and two of them may
    // run the same command: a per-call sequence number keeps one call from
    // deleting another's directory before it reads the export.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "scanft-metrics-{}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::SeqCst),
        args.join("-").replace(['/', '\\'], "_")
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("metrics.jsonl");
    let metrics_arg = format!("--metrics={}", path.display());
    let output = Command::new(env!("CARGO_BIN_EXE_scanft"))
        .args(args)
        .arg(&metrics_arg)
        .output()
        .expect("run scanft");
    assert!(
        output.status.success(),
        "scanft {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_dir_all(&dir).ok();
    assert!(text.ends_with('\n'), "export ends with a newline");
    text.lines().map(str::to_owned).collect()
}

/// Minimal field extraction for the flat one-object-per-line schema; avoids
/// a JSON dependency while still failing loudly on malformed lines.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\":");
    let start = line
        .find(&marker)
        .unwrap_or_else(|| panic!("`{key}` missing in {line}"))
        + marker.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .scan(0i32, |depth, (i, c)| {
            match c {
                '[' => *depth += 1,
                ']' if *depth > 0 => *depth -= 1,
                ',' | '}' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or_else(|| panic!("unterminated `{key}` in {line}"));
    &rest[..end]
}

fn string_field(line: &str, key: &str) -> String {
    let raw = field(line, key);
    assert!(
        raw.starts_with('"') && raw.ends_with('"'),
        "{key} not a string in {line}"
    );
    raw[1..raw.len() - 1].to_owned()
}

/// The pinned schema: every line is one flat JSON object whose shape is
/// fixed by `kind`, and lines are sorted by metric name.
#[test]
fn metrics_schema_is_pinned() {
    let lines = run_with_metrics(&["evaluate", "lion"]);
    assert!(!lines.is_empty());
    let mut names = Vec::new();
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let kind = string_field(line, "kind");
        let name = string_field(line, "name");
        match kind.as_str() {
            "counter" | "gauge" => {
                field(line, "value")
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad value in {line}"));
            }
            "timer" => {
                field(line, "count")
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad count in {line}"));
                for key in ["total_secs", "min_secs", "max_secs"] {
                    let v: f64 = field(line, key)
                        .parse()
                        .unwrap_or_else(|_| panic!("bad {key} in {line}"));
                    assert!(v.is_finite() && v >= 0.0, "{key} in {line}");
                }
                let buckets = field(line, "buckets");
                assert!(buckets.starts_with('[') && buckets.ends_with(']'), "{line}");
                let counts: Vec<u64> = buckets[1..buckets.len() - 1]
                    .split(',')
                    .map(|b| b.parse().unwrap_or_else(|_| panic!("bad bucket in {line}")))
                    .collect();
                assert_eq!(counts.len(), 9, "nine decade buckets: {line}");
                let count: u64 = field(line, "count").parse().unwrap();
                assert_eq!(counts.iter().sum::<u64>(), count, "{line}");
            }
            other => panic!("unknown kind `{other}` in {line}"),
        }
        names.push(name);
    }
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "lines sorted by metric name");
}

/// Exact counter and gauge values for `evaluate lion` — the paper's
/// walkthrough circuit, so every number here is a consequence of pinned
/// behavior (Tables 2, 4, 5 and the lion synthesis shape).
#[test]
fn evaluate_lion_counters_golden() {
    let lines = run_with_metrics(&["evaluate", "lion"]);
    let mut values: BTreeMap<String, u64> = BTreeMap::new();
    let mut timers: Vec<String> = Vec::new();
    for line in &lines {
        let kind = string_field(line, "kind");
        let name = string_field(line, "name");
        if kind == "timer" {
            timers.push(name);
        } else {
            values.insert(name, field(line, "value").parse().unwrap());
        }
    }

    let expected: &[(&str, u64)] = &[
        // Table 2 / Table 4: lion has 4 states, 2 of them with UIOs (one of
        // length 1, one of length 2).
        ("fsm.uio.machines", 1),
        ("fsm.uio.states_searched", 4),
        ("fsm.uio.found", 2),
        ("fsm.uio.found.len1", 1),
        ("fsm.uio.found.len2", 1),
        ("fsm.uio.none", 2),
        ("fsm.uio.nodes_expanded", 5),
        // Table 5 walkthrough: 9 tests, 4 of them postponed length-1 tests,
        // 2 transfer hops inside chained tests.
        ("core.generate.tests_emitted", 9),
        ("core.generate.postponed_unit_tests", 4),
        ("core.generate.transfer_hops", 2),
        // lion synthesis shape: 15 gates from 19 cover literals.
        ("synth.circuits", 1),
        ("synth.gates", 15),
        ("synth.literals", 19),
        ("netlist.built", 1),
        ("netlist.gates_built", 15),
        // 80 stuck-at + 42 bridging faults, one 256-lane wide batch each.
        // All 80 stuck-at faults are detected by the 5th of the 9 tests (the
        // last effective one), so 4 are skipped; 6 bridging faults are
        // undetectable, so that batch runs all 9 tests.
        ("sim.campaign.faults", 122),
        ("sim.campaign.batches", 2),
        ("sim.campaign.tests_simulated", 14),
        ("sim.campaign.tests_skipped", 4),
    ];
    for &(name, value) in expected {
        assert_eq!(values.get(name), Some(&value), "{name}");
    }

    for timer in [
        "fsm.uio.derive",
        "core.generate",
        "core.generate.baseline",
        "core.flow",
        "synth.synthesize",
        "sim.campaign.run_wide",
    ] {
        assert!(
            timers.iter().any(|t| t == timer),
            "timer `{timer}` exported"
        );
    }
}

/// Exact counters for the implication-guided ATPG path: `atpg lion
/// --no-functional` drives PODEM over all 45 collapsed faults, so the
/// static-learning and guidance counters must export deterministic values.
#[test]
fn atpg_lion_implication_counters_golden() {
    let lines = run_with_metrics(&["atpg", "lion", "--no-functional"]);
    let mut values: BTreeMap<String, u64> = BTreeMap::new();
    for line in &lines {
        if string_field(line, "kind") != "timer" {
            values.insert(
                string_field(line, "name"),
                field(line, "value").parse().unwrap(),
            );
        }
    }
    let expected: &[(&str, u64)] = &[
        // Static learning on the lion netlist: 13 indirect (contrapositive)
        // implications over 38 literals (19 nets).
        ("analyze.implications_learned", 13),
        ("analyze.implications.literals", 38),
        // Guided PODEM over the 45 collapsed faults: the closure fixes 17
        // necessary input assignments, leaving 14 decisions, 10 distinct
        // patterns, and not a single backtrack or unresolved fault.
        ("atpg.implications_applied", 17),
        ("atpg.decisions", 14),
        ("atpg.backtracks", 0),
        ("atpg.tests", 10),
        ("atpg.redundant", 0),
        ("atpg.aborted", 0),
        ("core.top_up.faults", 45),
    ];
    for &(name, value) in expected {
        assert_eq!(values.get(name), Some(&value), "{name}");
    }
}

/// Exact counters for the certificate-emitting optimizer: `optimize lion`
/// proves one equivalence merge (two cited lemmas), sweeps one dead gate,
/// and self-checks the proof log — so the certificate's exact shape is
/// pinned here, byte count included.
#[test]
fn optimize_lion_counters_golden() {
    let lines = run_with_metrics(&["optimize", "lion"]);
    let mut values: BTreeMap<String, u64> = BTreeMap::new();
    let mut timers: Vec<String> = Vec::new();
    for line in &lines {
        let kind = string_field(line, "kind");
        let name = string_field(line, "name");
        if kind == "timer" {
            timers.push(name);
        } else {
            values.insert(name, field(line, "value").parse().unwrap());
        }
    }
    let expected: &[(&str, u64)] = &[
        // lion: one pair of equivalent AND gates merges through the
        // closure, leaving the duplicate's generator dead; nothing is
        // constant, so nothing folds.
        ("opt.constants_folded", 0),
        ("opt.merges", 1),
        ("opt.gates_removed", 1),
        // begin + two equivalence lemmas + equiv + dead = 5 steps. The
        // byte count pins the lazy lemma emission: only the two cited
        // lemmas reach the log, not the full learned closure.
        ("opt.certificate_steps", 5),
        ("opt.certificate_bytes", 601),
    ];
    for &(name, value) in expected {
        assert_eq!(values.get(name), Some(&value), "{name}");
    }
    assert!(
        timers.iter().any(|t| t == "opt.optimize_secs"),
        "timer `opt.optimize_secs` exported"
    );
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Non-timer metric values of one run, by name.
fn counters(lines: &[String]) -> BTreeMap<String, u64> {
    lines
        .iter()
        .filter(|line| string_field(line, "kind") != "timer")
        .map(|line| {
            (
                string_field(line, "name"),
                field(line, "value").parse().unwrap(),
            )
        })
        .collect()
}

/// Outputs that depend on the netlist's fanin and fanout order, pinned on
/// two mid-size circuits: the optimizer's certificate (its merges and
/// lemmas follow the closure's iteration order), the implication closure's
/// size, and pure-ATPG top-up (PODEM's objectives and backtraces walk
/// fanins in pin order, and fault dropping follows pattern order). lion is
/// too small for an order change to show.
#[test]
fn order_dependent_outputs_on_mid_size_circuits_golden() {
    struct Pinned {
        circuit: &'static str,
        /// The `optimize` certificate: steps, bytes and FNV-1a hash.
        certificate: (u64, u64, u64),
        /// Counters of `atpg <circuit> --no-functional`.
        atpg: [(&'static str, u64); 8],
    }
    let cases = [
        Pinned {
            circuit: "ex3",
            certificate: (18, 3153, 0xa2ae_66a1_e9e7_762a),
            atpg: [
                ("analyze.implications_learned", 756),
                ("core.top_up.patterns", 51),
                ("core.top_up.dropped", 322),
                ("core.top_up.static_untestable", 1),
                ("core.top_up.redundant", 0),
                ("core.top_up.aborted", 0),
                ("atpg.decisions", 93),
                ("atpg.backtracks", 1),
            ],
        },
        Pinned {
            circuit: "dk16",
            certificate: (437, 77266, 0xa3c0_2b74_1828_08d9),
            atpg: [
                ("analyze.implications_learned", 12854),
                ("core.top_up.patterns", 118),
                ("core.top_up.dropped", 1252),
                ("core.top_up.static_untestable", 0),
                ("core.top_up.redundant", 0),
                ("core.top_up.aborted", 0),
                ("atpg.decisions", 225),
                ("atpg.backtracks", 4),
            ],
        },
    ];
    for case in &cases {
        let circuit = case.circuit;
        let (steps, bytes, hash) = case.certificate;
        let dir = std::env::temp_dir().join(format!(
            "scanft-order-golden-{}-{circuit}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cert = dir.join("cert.txt");
        let cert_arg = cert.display().to_string();
        let opt = counters(&run_with_metrics(&[
            "optimize", circuit, "--cert", &cert_arg,
        ]));
        let text = std::fs::read(&cert).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(opt.get("opt.certificate_steps"), Some(&steps), "{circuit}");
        assert_eq!(opt.get("opt.certificate_bytes"), Some(&bytes), "{circuit}");
        assert_eq!(text.len() as u64, bytes, "{circuit}: certificate file");
        assert_eq!(fnv1a(&text), hash, "{circuit}: certificate FNV-1a");

        let atpg = counters(&run_with_metrics(&["atpg", circuit, "--no-functional"]));
        for &(name, value) in &case.atpg {
            assert_eq!(atpg.get(name), Some(&value), "{circuit}: {name}");
        }
    }
}

/// `--metrics` without a file streams the export to stdout after the
/// command output; `SCANFT_METRICS` is the flag-less equivalent.
#[test]
fn metrics_to_stdout_and_env_var() {
    let output = Command::new(env!("CARGO_BIN_EXE_scanft"))
        .args(["uio", "lion", "--metrics"])
        .output()
        .expect("run scanft");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("UIO sequences for lion"));
    assert!(stdout.contains(r#"{"kind":"counter","name":"fsm.uio.found","value":2}"#));

    let output = Command::new(env!("CARGO_BIN_EXE_scanft"))
        .args(["uio", "lion"])
        .env("SCANFT_METRICS", "-")
        .output()
        .expect("run scanft");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains(r#"{"kind":"counter","name":"fsm.uio.states_searched","value":4}"#));
}
