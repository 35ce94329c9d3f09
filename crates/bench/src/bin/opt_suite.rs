//! Whole-suite drill for the certificate-emitting optimizer: every
//! in-budget benchmark circuit (see [`DEFAULT_CIRCUITS`]) is optimized,
//! every proof log is replayed by the independent checker, and the fault
//! plan is pinned verdict-for-verdict against the narrow oracle — exiting
//! non-zero on any unjustified rewrite or differential mismatch, emitting
//! `BENCH_opt.json`.
//!
//! For each circuit the binary reports the gate-count reduction, the
//! certificate size, and the fault-plan split (provably untestable /
//! fall back to the original / exact on the reduced netlist). With
//! `--measure` it additionally times the wide-kernel stuck-at campaign on
//! the original netlist against the same campaign on the reduced netlist
//! (each with its own enumerated fault universe) and reports the
//! throughput delta the gate reduction buys.
//!
//! `--cert-dir DIR` writes each certificate as `<name>.cert.jsonl` so CI
//! can archive the proof logs. Certificates above `--max-cert-bytes`
//! (default 64 MiB; keyb's is 2 MB) are checked in memory but not written,
//! and every skip is printed — no silent caps. Every row carries its
//! certificate's 64-bit FNV-1a as `cert_fnv1a`, so CI can compare the
//! proof logs against the committed `BENCH_opt.json` byte for byte.
//!
//! Usage: `opt_suite [--out FILE] [--circuits a,b,c] [--cert-dir DIR]
//! [--max-cert-bytes N] [--measure] [--reps N]`

use std::time::Instant;

use scanft_opt::fault_map::{FaultClass, FaultPlan};
use scanft_opt::{checker, optimize};
use scanft_sim::faults::{self, Fault};
use scanft_sim::{campaign, ScanTest};
use scanft_synth::{synthesize, SynthConfig};

/// Default circuit set: the same 26 in-budget machines `kernel_bench`
/// measures — the suite minus the five 8-to-13-input circuits (dvram,
/// fetch, log, nucpwr, rie) whose 20k+-gate netlists put the implication
/// closure beyond the netlist-analysis gate budget (`scanft lint` skips
/// them too unless `--full` is passed). They still optimize and check
/// correctly via an explicit `--circuits`; the run just takes tens of
/// minutes per circuit, and the default prints exactly what it skipped.
const DEFAULT_CIRCUITS: &[&str] = &[
    "lion", "mc", "dk27", "bbtas", "shiftreg", "beecount", "dk14", "ex3", "ex5", "dk16", "ex2",
    "bbara", "opus", "dk512", "ex4", "mark1", "ex6", "bbsse", "cse", "keyb", "ex7", "tav",
    "train11", "lion9", "dk15", "dk17",
];

/// Per-transition test sets explode exponentially in the input count; a
/// seeded sample keeps every circuit's differential run in the same
/// ballpark without changing what is pinned (same tests on both routes).
const MAX_TESTS: usize = 512;

/// Amortisation floor per timing rep, mirroring `kernel_bench`.
const MIN_REP_SECONDS: f64 = 0.01;

struct Row {
    name: String,
    gates: usize,
    reduced: usize,
    constants_folded: usize,
    merges: usize,
    dead: usize,
    cert_steps: usize,
    cert_bytes: usize,
    cert_fnv1a: u64,
    cert_written: bool,
    untestable: usize,
    fallback: usize,
    exact: usize,
    faults: usize,
    tests: usize,
    optimize_secs: f64,
    check_secs: f64,
    /// Wide-kernel campaign `(original_secs, reduced_secs)` when
    /// `--measure` is given.
    timing: Option<(f64, f64)>,
}

impl Row {
    fn removed_pct(&self) -> f64 {
        if self.gates == 0 {
            return 0.0;
        }
        100.0 * (self.gates - self.reduced) as f64 / self.gates as f64
    }

    fn speedup(&self) -> Option<f64> {
        self.timing.map(|(orig, opt)| orig / opt)
    }
}

struct Args {
    out: String,
    circuits: Vec<String>,
    cert_dir: Option<String>,
    max_cert_bytes: usize,
    measure: bool,
    reps: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        out: "BENCH_opt.json".to_owned(),
        circuits: DEFAULT_CIRCUITS.iter().map(|s| (*s).to_owned()).collect(),
        cert_dir: None,
        max_cert_bytes: 64 * 1024 * 1024,
        measure: false,
        reps: 3,
    };
    let mut explicit = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                args.out = argv.get(i).expect("--out FILE").clone();
            }
            "--circuits" => {
                i += 1;
                explicit = true;
                args.circuits = argv
                    .get(i)
                    .expect("--circuits a,b,c")
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--cert-dir" => {
                i += 1;
                args.cert_dir = Some(argv.get(i).expect("--cert-dir DIR").clone());
            }
            "--max-cert-bytes" => {
                i += 1;
                args.max_cert_bytes = argv
                    .get(i)
                    .expect("--max-cert-bytes N")
                    .parse()
                    .expect("--max-cert-bytes takes a byte count");
            }
            "--measure" => args.measure = true,
            "--reps" => {
                i += 1;
                args.reps = argv
                    .get(i)
                    .expect("--reps N")
                    .parse()
                    .expect("--reps takes a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: opt_suite [--out FILE] [--circuits a,b,c] [--cert-dir DIR] \
                     [--max-cert-bytes N] [--measure] [--reps N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(args.reps > 0, "--reps must be positive");
    if !explicit {
        let skipped: Vec<&str> = scanft_fsm::benchmarks::CIRCUITS
            .iter()
            .map(|s| s.name)
            .filter(|n| !DEFAULT_CIRCUITS.contains(n))
            .collect();
        println!(
            "note: default set skips {} over-budget circuits ({}); pass --circuits to include them",
            skipped.len(),
            skipped.join(", ")
        );
    }
    args
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Best-of-`reps` wall time of one campaign run, each rep amortised over
/// [`MIN_REP_SECONDS`] so tiny circuits measure as stably as large ones.
fn measure(reps: usize, run: impl Fn()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let mut iters = 0u32;
        loop {
            run();
            iters += 1;
            if t.elapsed().as_secs_f64() >= MIN_REP_SECONDS {
                break;
            }
        }
        best = best.min(t.elapsed().as_secs_f64() / f64::from(iters));
    }
    best.max(1e-9)
}

fn drill_circuit(name: &str, args: &Args) -> Row {
    let table = scanft_fsm::benchmarks::build(name).expect("suite circuit");
    let circuit = synthesize(&table, &SynthConfig::default());
    let netlist = circuit.netlist();

    let t = Instant::now();
    let opt = optimize(netlist);
    let optimize_secs = t.elapsed().as_secs_f64();

    // Independent replay of the proof log: every rewrite step must be
    // justified or the whole suite run fails.
    let t = Instant::now();
    match checker::check(netlist, &opt.netlist, &opt.certificate) {
        Ok(report) => assert_eq!(
            report.steps, opt.stats.certificate_steps,
            "{name}: checker replayed a different number of steps"
        ),
        Err(e) => {
            eprintln!("FAIL: {name}: certificate rejected by the independent checker: {e}");
            std::process::exit(1);
        }
    }
    let check_secs = t.elapsed().as_secs_f64();

    let mut cert_written = false;
    if let Some(dir) = &args.cert_dir {
        if opt.certificate.len() <= args.max_cert_bytes {
            std::fs::create_dir_all(dir).expect("create --cert-dir");
            let path = format!("{dir}/{name}.cert.jsonl");
            std::fs::write(&path, &opt.certificate).expect("write certificate");
            cert_written = true;
        } else {
            println!(
                "note: {name}: certificate ({} bytes) exceeds --max-cert-bytes ({}); \
                 checked in memory but not archived",
                opt.certificate.len(),
                args.max_cert_bytes
            );
        }
    }

    // Differential pin on a seeded test sample: every fault the plan maps
    // exactly keeps the oracle's verdict on the reduced netlist, and every
    // fault it proves untestable goes undetected on the original.
    let mut tests: Vec<ScanTest> = table
        .transitions()
        .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
        .collect();
    if tests.len() > MAX_TESTS {
        let mut rng = scanft_fsm::rng::SplitMix64::from_name(name);
        for i in 0..MAX_TESTS {
            let j = i + rng.next_below((tests.len() - i) as u64) as usize;
            tests.swap(i, j);
        }
        tests.truncate(MAX_TESTS);
    }
    let order: Vec<usize> = (0..tests.len()).collect();
    let list: Vec<Fault> = faults::as_fault_list(&faults::enumerate_stuck(netlist));

    let plan = FaultPlan::new(netlist, &opt, &list);
    let (untestable, fallback, exact) = plan.counts();
    let oracle = campaign::run_ordered_observing(netlist, &tests, &order, &list, true);
    let (exact_idx, exact_faults): (Vec<usize>, Vec<Fault>) = plan
        .classes
        .iter()
        .enumerate()
        .filter_map(|(f, class)| match class {
            FaultClass::Exact(translated) => Some((f, *translated)),
            _ => None,
        })
        .unzip();
    let reduced =
        campaign::run_ordered_observing(&opt.netlist, &tests, &order, &exact_faults, true);
    let exact_agree = exact_idx
        .iter()
        .zip(&reduced.detecting_test)
        .all(|(&f, verdict)| *verdict == oracle.detecting_test[f]);
    let untestable_agree = plan
        .classes
        .iter()
        .zip(&oracle.detecting_test)
        .all(|(class, verdict)| *class != FaultClass::Untestable || verdict.is_none());
    if !exact_agree || !untestable_agree {
        eprintln!("FAIL: {name}: fault plan verdicts differ from the oracle");
        std::process::exit(1);
    }

    let timing = args.measure.then(|| {
        let reduced_list: Vec<Fault> =
            faults::as_fault_list(&faults::enumerate_stuck(&opt.netlist));
        let orig = measure(args.reps, || {
            let _ = campaign::run_ordered_wide(netlist, &tests, &order, &list, true);
        });
        let reduced = measure(args.reps, || {
            let _ = campaign::run_ordered_wide(&opt.netlist, &tests, &order, &reduced_list, true);
        });
        (orig, reduced)
    });

    Row {
        name: name.to_owned(),
        gates: netlist.num_gates(),
        reduced: opt.stats.reduced_gates,
        constants_folded: opt.stats.constants_folded,
        merges: opt.stats.merges,
        dead: opt.stats.gates_removed,
        cert_steps: opt.stats.certificate_steps,
        cert_bytes: opt.stats.certificate_bytes,
        cert_fnv1a: fnv1a(opt.certificate.as_bytes()),
        cert_written,
        untestable,
        fallback,
        exact,
        faults: list.len(),
        tests: tests.len(),
        optimize_secs,
        check_secs,
        timing,
    }
}

fn main() {
    let args = parse_args();
    let mut rows = Vec::new();
    for name in &args.circuits {
        let row = drill_circuit(name, &args);
        let timing = match row.speedup() {
            Some(s) => format!("  wide kernel {s:>5.2}x"),
            None => String::new(),
        };
        println!(
            "{:<10} {:>5} -> {:>5} gates ({:>5.1}% removed)  cert {:>9} steps {:>11} bytes  \
             faults {:>5}U/{:>5}F/{:>5}E{timing}",
            row.name,
            row.gates,
            row.reduced,
            row.removed_pct(),
            row.cert_steps,
            row.cert_bytes,
            row.untestable,
            row.fallback,
            row.exact,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let timing = match r.timing {
                Some((orig, red)) => format!(
                    ",\"wide_original_secs\":{orig:.6},\"wide_reduced_secs\":{red:.6},\"speedup\":{:.2}",
                    orig / red
                ),
                None => String::new(),
            };
            format!(
                "    {{\"name\":\"{}\",\"gates\":{},\"reduced\":{},\"constants_folded\":{},\
                 \"merges\":{},\"dead\":{},\"cert_steps\":{},\"cert_bytes\":{},\
                 \"cert_fnv1a\":\"{:016x}\",\"cert_written\":{},\"untestable\":{},\
                 \"fallback\":{},\"exact\":{},\"faults\":{},\"tests\":{},\
                 \"optimize_secs\":{:.4},\"check_secs\":{:.4}{timing}}}",
                r.name,
                r.gates,
                r.reduced,
                r.constants_folded,
                r.merges,
                r.dead,
                r.cert_steps,
                r.cert_bytes,
                r.cert_fnv1a,
                r.cert_written,
                r.untestable,
                r.fallback,
                r.exact,
                r.faults,
                r.tests,
                r.optimize_secs,
                r.check_secs,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"opt_suite\",\n  \"circuits\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&args.out, json).expect("write benchmark JSON");
    println!("wrote {}", args.out);

    let total: usize = rows.iter().map(|r| r.gates).sum();
    let kept: usize = rows.iter().map(|r| r.reduced).sum();
    println!(
        "suite: {} circuits, {total} -> {kept} gates ({:.1}% removed), every certificate \
         validated by the independent checker, every campaign bit-identical to the oracle",
        rows.len(),
        if total == 0 {
            0.0
        } else {
            100.0 * (total - kept) as f64 / total as f64
        }
    );
}
