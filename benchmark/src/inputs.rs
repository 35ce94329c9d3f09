//! Seeded workload inputs. The program under test only ever sees the
//! KISS2 and `.tests` text made here.

use scanft_core::flow::{run_flow, FlowConfig};
use scanft_core::generate::{generate, GenConfig};
use scanft_fsm::benchmarks::{self, CircuitSpec};
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::{kiss, StateTable};
use scanft_synth::{synthesize, SynthConfig};

/// The default seed: pool entries of variant 0 are the suite's own
/// machines ([`benchmarks::build`]).
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of every tuning run, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// One machine of a workload's pool: a suite circuit's dimensions, and
/// which seeded variant of them.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Suite circuit whose `pi`/states/`sv`/outputs the machine takes.
    pub spec: &'static str,
    /// Variant index within the pool (pools that need more machines than
    /// the suite has in a size class list a spec more than once).
    pub variant: u32,
}

/// Shorthand for a pool entry.
#[must_use]
pub const fn entry(spec: &'static str, variant: u32) -> Entry {
    Entry { spec, variant }
}

/// A pool entry made concrete: its name and KISS2 text.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Machine name (seed-derived except for the default seed's suite
    /// machines).
    pub name: String,
    /// KISS2 text, as submitted or written to disk.
    pub kiss: String,
}

/// How far a variant's gate count, and its functional tests' total
/// length, may stray from the suite machine's (as a share of it).
const GATES_TOLERANCE: f64 = 0.05;
const LENGTH_TOLERANCE: f64 = 0.08;
/// How far a variant's evaluate-flow simulation work may stray, for
/// [`Fit::EvaluateWork`].
const WORK_TOLERANCE: f64 = 0.04;
/// Candidates drawn per variant before settling for the closest.
const MAX_CANDIDATES: u32 = 400;

/// What a variant must match of the suite machine it stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fit {
    /// Gate count and test length.
    Size,
    /// Also the gate evaluations of the `scanft evaluate` flow's fault
    /// simulation, which sets almost all of that command's cost.
    EvaluateWork,
}

/// Gate evaluations the evaluate flow spends on `table`, read off the
/// program's own `sim.kernel.gate_evals` counter (nothing else runs while
/// inputs are made).
fn evaluate_work(table: &StateTable) -> f64 {
    let evals = scanft_obs::global().counter("sim.kernel.gate_evals");
    let before = evals.get();
    std::hint::black_box(run_flow(table, &FlowConfig::default()));
    (evals.get() - before) as f64
}

/// The two figures that set most of a machine's cost in every layer:
/// synthesized gates and the total length of the paper's tests.
fn size(table: &StateTable) -> (f64, f64) {
    let gates = synthesize(table, &SynthConfig::default())
        .netlist()
        .stats()
        .num_gates;
    let uios = derive_uios_with(table, &UioConfig::with_max_len(table.num_state_vars()));
    let length = generate(table, &uios, &GenConfig::default()).total_length();
    (gates as f64, length as f64)
}

/// The machine for `entry` under `seed`: the suite machine itself for the
/// default seed's variant 0, otherwise a [`benchmarks::synthetic`] machine
/// of the same dimensions under a seed-derived name.
///
/// Synthetic machines of equal dimensions differ several-fold in cost, so
/// a variant is the first of a seeded sequence of candidates whose gate
/// count and test length are within [`GATES_TOLERANCE`] and
/// [`LENGTH_TOLERANCE`] of the suite machine's (and, under
/// [`Fit::EvaluateWork`], its simulation work within [`WORK_TOLERANCE`]):
/// content varies with the seed, the work it makes stays put.
#[must_use]
pub fn machine(entry: Entry, seed: u64, fit: Fit) -> StateTable {
    let suite = benchmarks::build(entry.spec).expect("pool specs are suite circuits");
    if seed == DEFAULT_SEED && entry.variant == 0 {
        return suite;
    }
    let spec = benchmarks::find_spec(entry.spec).expect("pool specs are suite circuits");
    let (gates, length) = size(&suite);
    let work = (fit == Fit::EvaluateWork).then(|| evaluate_work(&suite));
    let mut best: Option<(f64, StateTable)> = None;
    for k in 0..MAX_CANDIDATES {
        let mut name = format!("{}_s{seed}v{}", entry.spec, entry.variant);
        if k > 0 {
            name.push_str(&format!("c{k}"));
        }
        // `CircuitSpec` names are `'static`; a run draws a few hundred.
        let name: &'static str = Box::leak(name.into_boxed_str());
        let candidate = benchmarks::synthetic(&CircuitSpec { name, ..*spec });
        let (g, l) = size(&candidate);
        let mut miss = ((g / gates - 1.0).abs() / GATES_TOLERANCE)
            .max((l / length - 1.0).abs() / LENGTH_TOLERANCE);
        if let (Some(work), true) = (work, miss <= 1.0) {
            miss = miss.max((evaluate_work(&candidate) / work - 1.0).abs() / WORK_TOLERANCE);
        }
        if miss <= 1.0 {
            return candidate;
        }
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, candidate));
        }
    }
    best.expect("at least one candidate").1
}

/// The pool's machines as KISS2 text (an entry listed twice is built
/// once).
#[must_use]
pub fn circuits(pool: &[Entry], seed: u64, fit: Fit) -> Vec<Circuit> {
    let mut built: Vec<((&str, u32), Circuit)> = Vec::new();
    pool.iter()
        .map(|&e| {
            let key = (e.spec, e.variant);
            if let Some((_, c)) = built.iter().find(|(k, _)| *k == key) {
                return c.clone();
            }
            let table = machine(e, seed, fit);
            let circuit = Circuit {
                name: table.name().to_owned(),
                kiss: kiss::write(&table),
            };
            built.push((key, circuit.clone()));
            circuit
        })
        .collect()
}

/// Parses a circuit's KISS2 text the way `scanft` loads a file.
///
/// # Panics
///
/// Panics if the text does not parse; it was written by [`kiss::write`].
#[must_use]
pub fn parse(circuit: &Circuit) -> StateTable {
    kiss::parse_with(&circuit.kiss, &circuit.name, kiss::Completion::SelfLoop)
        .expect("generated KISS2 parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_keeps_suite_machines() {
        let suite = benchmarks::build("dk16").unwrap();
        let ours = machine(entry("dk16", 0), DEFAULT_SEED, Fit::Size);
        assert_eq!(kiss::write(&ours), kiss::write(&suite));
    }

    #[test]
    fn other_seeds_vary_content_not_dimensions() {
        let a = machine(entry("dk16", 0), 3, Fit::Size);
        let b = machine(entry("dk16", 0), 4, Fit::Size);
        let suite = benchmarks::build("dk16").unwrap();
        assert!(a.name().starts_with("dk16_s3v0"));
        assert_eq!(a.num_states(), suite.num_states());
        assert_eq!(a.num_inputs(), suite.num_inputs());
        assert_ne!(kiss::write(&a), kiss::write(&b));
        // Same seed, same machine.
        assert_eq!(
            kiss::write(&a),
            kiss::write(&machine(entry("dk16", 0), 3, Fit::Size))
        );
    }

    #[test]
    fn variants_match_the_suite_machine_in_size() {
        let (gates, length) = size(&benchmarks::build("ex3").unwrap());
        for variant in 0..3 {
            let (g, l) = size(&machine(entry("ex3", variant), 11, Fit::Size));
            assert!((g / gates - 1.0).abs() <= GATES_TOLERANCE, "{g} vs {gates}");
            assert!(
                (l / length - 1.0).abs() <= LENGTH_TOLERANCE,
                "{l} vs {length}"
            );
        }
    }

    #[test]
    fn generated_text_round_trips() {
        let c = &circuits(&[entry("bbara", 1)], 5, Fit::Size)[0];
        assert_eq!(kiss::write(&parse(c)), c.kiss);
    }
}
