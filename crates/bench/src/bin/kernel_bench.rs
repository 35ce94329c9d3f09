//! Simulation-kernel throughput benchmark: narrow (64-lane, full
//! re-evaluation) versus wide (256-lane, cone-restricted event-driven
//! PPSFP) on suite circuits, emitting `BENCH_sim.json`.
//!
//! For every circuit the same stuck-at campaign — per-transition length-1
//! scan tests with fault dropping — runs on both kernels. The kernels are
//! timed in rounds whose runs alternate between narrow and wide, so both
//! see the same host conditions; each kernel reports its best round:
//!
//! * `gate_evals_per_sec` — faulty gate evaluations per second, from the
//!   engines' own counters (the wide kernel evaluates *fewer* gates, not
//!   just wider words — that is the point of PPSFP);
//! * `faults_per_sec` — campaign faults retired per second of simulation,
//!   the end-to-end figure of merit;
//! * `speedup` — the median over rounds of the round's wide over narrow
//!   `faults_per_sec` (the upper median for an even `--reps`).
//!
//! The wide report is compared verdict-for-verdict against the narrow one
//! before anything is timed as a trusted number; a mismatch exits 1
//! immediately. `--check` additionally fails the run if any circuit's wide
//! kernel is slower than its narrow kernel, so CI can gate on regressions.
//!
//! Usage: `kernel_bench [--out FILE] [--circuits a,b,c] [--reps N] [--check]`

use std::time::Instant;

use scanft_sim::campaign;
use scanft_sim::faults::{self, Fault};
use scanft_sim::ScanTest;
use scanft_synth::{synthesize, SynthConfig};

/// Default circuit set: the suite smallest to largest, excluding the
/// five 8-to-13-input machines whose exhaustive transition sets dwarf the
/// simulation being measured.
const DEFAULT_CIRCUITS: &[&str] = &[
    "lion", "mc", "dk27", "bbtas", "shiftreg", "beecount", "dk14", "ex3", "ex5", "dk16", "ex2",
    "bbara", "opus", "dk512", "ex4", "mark1", "ex6", "bbsse", "cse", "keyb", "ex7", "tav",
    "train11", "lion9", "dk15", "dk17",
];

/// Per-transition test sets explode exponentially in the input count
/// (keyb: 4096 length-1 tests); a seeded sample keeps every circuit's
/// measurement in the same ballpark without changing what is measured.
const MAX_TESTS: usize = 512;

struct Measurement {
    seconds: f64,
    gate_evals: u64,
}

struct Row {
    name: String,
    gates: usize,
    faults: usize,
    tests: usize,
    narrow: Measurement,
    wide: Measurement,
    /// Median over rounds of the round's narrow over wide mean run time.
    speedup: f64,
}

fn parse_args() -> (String, Vec<String>, usize, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_sim.json".to_owned();
    let mut circuits: Vec<String> = DEFAULT_CIRCUITS.iter().map(|s| (*s).to_owned()).collect();
    let mut reps = 3usize;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out FILE").clone();
            }
            "--circuits" => {
                i += 1;
                circuits = args
                    .get(i)
                    .expect("--circuits a,b,c")
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .expect("--reps N")
                    .parse()
                    .expect("--reps takes a positive integer");
            }
            "--check" => check = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: kernel_bench [--out FILE] [--circuits a,b,c] [--reps N] [--check]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(reps > 0, "--reps must be positive");
    (out, circuits, reps, check)
}

/// A single campaign on a 15-gate circuit finishes in microseconds, well
/// inside timer and scheduler noise; each round therefore repeats the runs
/// until each kernel has run for at least this much wall time and reports
/// the means, so tiny circuits measure as stably as large ones.
const MIN_REP_SECONDS: f64 = 0.01;

/// The wall time of one run.
fn timed(run: &impl Fn() -> campaign::CampaignReport) -> f64 {
    let t = Instant::now();
    std::hint::black_box(run());
    t.elapsed().as_secs_f64()
}

/// One untimed run: its report and the gate evals read off the engine
/// counter (they are exactly repeatable, unlike wall time).
fn representative(run: &impl Fn() -> campaign::CampaignReport) -> (campaign::CampaignReport, u64) {
    let gate_evals = scanft_obs::global().counter("sim.kernel.gate_evals");
    let before = gate_evals.get();
    let report = run();
    (report, gate_evals.get() - before)
}

/// Times the two kernels in `reps` rounds. A round alternates narrow and
/// wide runs (which goes first alternates by round) until each kernel has
/// run for `MIN_REP_SECONDS`, so a slow spell of the host hits both sides
/// of the round's ratio. Returns each kernel's best round mean and the
/// median of the per-round narrow/wide time ratios.
fn measure_pair(
    reps: usize,
    narrow: impl Fn() -> campaign::CampaignReport,
    wide: impl Fn() -> campaign::CampaignReport,
) -> (f64, f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(reps);
    for round in 0..reps {
        let (mut n, mut w, mut iters) = (0.0, 0.0, 0u32);
        while n < MIN_REP_SECONDS || w < MIN_REP_SECONDS {
            if round % 2 == 0 {
                n += timed(&narrow);
                w += timed(&wide);
            } else {
                w += timed(&wide);
                n += timed(&narrow);
            }
            iters += 1;
        }
        let (n, w) = (n / f64::from(iters), w / f64::from(iters));
        best = (best.0.min(n), best.1.min(w));
        ratios.push(n / w);
    }
    ratios.sort_by(f64::total_cmp);
    (best.0, best.1, ratios[reps / 2])
}

fn bench_circuit(name: &str, reps: usize) -> Row {
    let table = scanft_fsm::benchmarks::build(name).expect("suite circuit");
    let circuit = synthesize(&table, &SynthConfig::default());
    let netlist = circuit.netlist();
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

    let narrow = || campaign::run_ordered_observing(netlist, &tests, &order, &list, true);
    let wide = || campaign::run_ordered_wide(netlist, &tests, &order, &list, true);
    let (narrow_report, narrow_evals) = representative(&narrow);
    let (wide_report, wide_evals) = representative(&wide);

    // The benchmark is only meaningful if both kernels agree bit-for-bit.
    if wide_report.detecting_test != narrow_report.detecting_test {
        eprintln!("FAIL: {name}: wide kernel verdicts differ from narrow kernel");
        std::process::exit(1);
    }

    let (narrow_seconds, wide_seconds, speedup) = measure_pair(reps, narrow, wide);
    Row {
        name: name.to_owned(),
        gates: netlist.num_gates(),
        faults: list.len(),
        tests: tests.len(),
        narrow: Measurement {
            seconds: narrow_seconds,
            gate_evals: narrow_evals,
        },
        wide: Measurement {
            seconds: wide_seconds,
            gate_evals: wide_evals,
        },
        speedup,
    }
}

fn json_measurement(m: &Measurement, faults: usize) -> String {
    format!(
        "{{\"seconds\":{:.6},\"gate_evals\":{},\"gate_evals_per_sec\":{:.0},\"faults_per_sec\":{:.0}}}",
        m.seconds,
        m.gate_evals,
        m.gate_evals as f64 / m.seconds,
        faults as f64 / m.seconds
    )
}

fn main() {
    let (out, circuits, reps, check) = parse_args();
    let mut rows = Vec::new();
    for name in &circuits {
        let row = bench_circuit(name, reps);
        println!(
            "{:<10} {:>5} gates {:>5} faults  narrow {:>12.0} ge/s  wide {:>12.0} ge/s  speedup {:>6.2}x",
            row.name,
            row.gates,
            row.faults,
            row.narrow.gate_evals as f64 / row.narrow.seconds,
            row.wide.gate_evals as f64 / row.wide.seconds,
            row.speedup
        );
        rows.push(row);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":\"{}\",\"gates\":{},\"faults\":{},\"tests\":{},\"narrow\":{},\"wide\":{},\"speedup\":{:.2}}}",
                r.name,
                r.gates,
                r.faults,
                r.tests,
                json_measurement(&r.narrow, r.faults),
                json_measurement(&r.wide, r.faults),
                r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"kernel_bench\",\n  \"reps\": {},\n  \"circuits\": [\n{}\n  ]\n}}\n",
        reps,
        body.join(",\n")
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("wrote {out}");

    if check {
        // On the smallest circuits the two kernels are within a few
        // percent of each other and shared-runner jitter can push either
        // side of 1.0x; a genuine regression (the pre-hybrid worklist hit
        // 0.76x on lion) still trips a 10% tolerance.
        const TOLERANCE: f64 = 0.90;
        let slow: Vec<&Row> = rows.iter().filter(|r| r.speedup < TOLERANCE).collect();
        if !slow.is_empty() {
            for r in &slow {
                eprintln!(
                    "FAIL: {}: wide kernel slower than narrow ({:.2}x < {TOLERANCE:.2}x)",
                    r.name, r.speedup
                );
            }
            std::process::exit(1);
        }
        println!("check passed: wide kernel within tolerance of narrow on every circuit");
    }
}
