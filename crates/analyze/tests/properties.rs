//! Property tests for the static-analysis subsystem: SCOAP measure
//! invariants on synthesized benchmark netlists, lint cleanliness of the
//! bundled MCNC circuits, deliberately corrupted sources tripping the
//! matching lint codes, and soundness cross-checks of the static
//! untestability filters (SCOAP and FIRE-style implication) and of every
//! learned implication against exhaustive enumeration.

#![allow(clippy::unwrap_used)]

use scanft_analyze::{
    lint_import_error, lint_kiss_source, lint_netlist, lint_state_table, prune_untestable,
    prune_untestable_with, Analysis, FsmLintConfig, Implications, LintCode, LintLevels,
    NetlistLintConfig, Scoap, INFINITE,
};
use scanft_fsm::{benchmarks, StateTable};
use scanft_netlist::{NetId, Netlist};
use scanft_sim::exhaustive::{is_detectable, Detectability};
use scanft_sim::faults::{enumerate_stuck, Fault};
use scanft_synth::{synthesize, SynthConfig};

/// Circuits small enough to synthesize and sweep quickly in a test.
const SMALL: &[&str] = &[
    "lion", "lion9", "train11", "dk27", "bbtas", "mc", "tav", "beecount", "shiftreg", "dk15",
];

fn netlist_of(name: &str) -> Netlist {
    let table = benchmarks::build(name).unwrap();
    synthesize(&table, &SynthConfig::default())
        .netlist()
        .clone()
}

#[test]
fn scoap_measures_are_finite_on_benchmark_netlists() {
    for name in SMALL {
        let netlist = netlist_of(name);
        let scoap = Scoap::new(&netlist);
        for net in 0..netlist.num_nets() as u32 {
            if !netlist.is_connected(net) {
                continue;
            }
            assert_ne!(scoap.cc0(net), INFINITE, "{name}: net {net} cc0 infinite");
            assert_ne!(scoap.cc1(net), INFINITE, "{name}: net {net} cc1 infinite");
            assert_ne!(scoap.co(net), INFINITE, "{name}: net {net} co infinite");
        }
    }
}

#[test]
fn scoap_controllability_is_monotone_toward_inputs() {
    // Driving a gate output to any value requires driving at least one of
    // its inputs first, so every finite output controllability must exceed
    // the cheapest controllability among the gate's inputs.
    for name in SMALL {
        let netlist = netlist_of(name);
        let scoap = Scoap::new(&netlist);
        for g in 0..netlist.num_gates() {
            let out = netlist.gate_output(g);
            let cheapest_input = netlist
                .fanins(g)
                .iter()
                .map(|&i| scoap.cc0(i).min(scoap.cc1(i)))
                .min()
                .unwrap();
            for value in [false, true] {
                let cc = scoap.controllability(out, value);
                if cc != INFINITE {
                    assert!(
                        cc > cheapest_input,
                        "{name}: gate g{g} cc({value}) = {cc} not above cheapest input \
                         controllability {cheapest_input}"
                    );
                }
            }
        }
    }
}

#[test]
fn scoap_observability_is_monotone_toward_outputs() {
    // Observing a gate input means observing the gate output too (plus the
    // side-input setup cost), so every finite pin observability must exceed
    // the observability of the gate's output net.
    for name in SMALL {
        let netlist = netlist_of(name);
        let scoap = Scoap::new(&netlist);
        for g in 0..netlist.num_gates() {
            let out_co = scoap.co(netlist.gate_output(g));
            for pin in 0..netlist.fanins(g).len() {
                let pin_co = scoap.pin_co(g, pin);
                if pin_co != INFINITE {
                    assert!(
                        pin_co > out_co,
                        "{name}: g{g} pin {pin} co {pin_co} not above output co {out_co}"
                    );
                }
            }
        }
    }
}

#[test]
fn bundled_benchmarks_have_zero_deny_diagnostics() {
    for spec in benchmarks::CIRCUITS {
        let table = benchmarks::build(spec.name).unwrap();
        let report = lint_state_table(&table, &FsmLintConfig::default());
        assert_eq!(
            report.num_deny(),
            0,
            "{}: FSM deny diagnostics: {:?}",
            spec.name,
            report.diagnostics
        );
        if !within_gate_budget(&table) {
            continue;
        }
        let circuit = synthesize(&table, &SynthConfig::default());
        let analysis = Analysis::new(circuit.netlist());
        let report = lint_netlist(circuit.netlist(), &analysis, &NetlistLintConfig::default());
        assert_eq!(
            report.num_deny(),
            0,
            "{}: netlist deny diagnostics: {:?}",
            spec.name,
            report.diagnostics
        );
    }
}

fn within_gate_budget(table: &StateTable) -> bool {
    table.num_inputs() + table.num_state_vars() <= 10 && table.num_transitions() <= 1024
}

#[test]
fn undriven_blif_net_trips_undriven_net_lint() {
    let err = scanft_netlist::blif::parse(
        ".model bad\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n",
    )
    .unwrap_err();
    let report = lint_import_error(&err, &LintLevels::default());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::UndrivenNet),
        "diagnostics: {:?}",
        report.diagnostics
    );
    assert!(!report.passes());
}

#[test]
fn nondeterministic_kiss_trips_nondeterministic_table_lint() {
    let text = ".i 1\n.o 1\n.s 2\n.p 2\n0 s0 s1 0\n0 s0 s0 1\n";
    let (_, report) = lint_kiss_source(text, "nondet", &LintLevels::default());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::NondeterministicTable),
        "diagnostics: {:?}",
        report.diagnostics
    );
    assert!(!report.passes());
}

/// All suite circuits with at most 12 combinational inputs (PIs + state
/// variables): every one is tractable for exhaustive enumeration of the
/// `2^(pi+sv)` single-cycle input points.
fn tractable_circuits() -> Vec<&'static str> {
    benchmarks::CIRCUITS
        .iter()
        .filter(|s| s.num_inputs + s.num_state_vars <= 12)
        .map(|s| s.name)
        .collect()
}

/// One truth vector per net: bit `p` of `vectors[net]` is the value of
/// `net` at enumeration point `p` (inputs then state bits, LSB-first —
/// the same ordering the exhaustive oracle uses).
fn truth_vectors(netlist: &Netlist) -> Vec<Vec<u64>> {
    let bits = netlist.num_pis() + netlist.num_ppis();
    let total: u64 = 1 << bits;
    let words = (total as usize).div_ceil(64);
    let mut vectors = vec![vec![0u64; words]; netlist.num_nets()];
    let mut eval = scanft_sim::logic::Evaluator::new(netlist);
    let mut pi_words = vec![0u64; netlist.num_pis()];
    let mut ppi_words = vec![0u64; netlist.num_ppis()];
    #[allow(clippy::needless_range_loop)] // `w` indexes every net's vector below
    for w in 0..words {
        let base = w as u64 * 64;
        let count = 64.min(total - base) as usize;
        let spread = |bit: usize| {
            let mut word = 0u64;
            for lane in 0..count {
                if (base + lane as u64) >> bit & 1 == 1 {
                    word |= 1 << lane;
                }
            }
            word
        };
        for (k, word) in pi_words.iter_mut().enumerate() {
            *word = spread(k);
        }
        for (k, word) in ppi_words.iter_mut().enumerate() {
            *word = spread(netlist.num_pis() + k);
        }
        eval.load_input_words(&pi_words);
        eval.load_state_words(&ppi_words);
        eval.eval();
        for (net, vector) in vectors.iter_mut().enumerate() {
            vector[w] = eval.value(net as NetId);
        }
        // Lanes beyond `count` (only possible in the final partial word)
        // replicate the all-zero point — a real, consistent evaluation, so
        // the universally-quantified checks below stay sound.
    }
    vectors
}

#[test]
fn learned_implications_hold_exhaustively() {
    // Every implication, constant, and equivalence the engine reports is
    // verified against the full truth table of the synthesized netlist on
    // every tractable suite circuit. A single counterexample point would
    // make the FIRE prune and the PODEM guidance unsound.
    for name in tractable_circuits() {
        let netlist = netlist_of(name);
        let implications = Implications::new(&netlist);
        let vectors = truth_vectors(&netlist);
        let mask_of = |net: NetId, v: bool, w: usize| {
            let bits = vectors[net as usize][w];
            if v {
                bits
            } else {
                !bits
            }
        };
        let words = vectors[0].len();
        for net in 0..netlist.num_nets() as NetId {
            for v in [false, true] {
                if implications.infeasible(net, v) {
                    for w in 0..words {
                        assert_eq!(
                            mask_of(net, v, w),
                            0,
                            "{name}: net {net} claimed never {v} but a point disagrees"
                        );
                    }
                    continue;
                }
                for (to, tv) in implications.implied(net, v) {
                    for w in 0..words {
                        assert_eq!(
                            mask_of(net, v, w) & !mask_of(to, tv, w),
                            0,
                            "{name}: claimed ({net}={v}) ⇒ ({to}={tv}) has a counterexample"
                        );
                    }
                }
            }
        }
        for (net, value) in implications.constants() {
            for w in 0..words {
                assert_eq!(
                    mask_of(net, !value, w),
                    0,
                    "{name}: net {net} claimed constant {value} but varies"
                );
            }
        }
        for (a, b) in implications.equivalent_pairs() {
            assert_eq!(
                vectors[a as usize], vectors[b as usize],
                "{name}: nets {a} and {b} claimed equivalent but differ"
            );
        }
    }
}

#[test]
fn fire_pruned_faults_are_undetectable_by_the_oracle() {
    // Soundness of the combined SCOAP + FIRE static prune, checked on every
    // tractable suite circuit (the SCOAP-only variant keeps its own
    // three-circuit check below). The implication engine may miss redundant
    // faults; it must never prune a detectable one.
    for name in tractable_circuits() {
        let netlist = netlist_of(name);
        let analysis = Analysis::new(&netlist);
        let faults = enumerate_stuck(&netlist);
        let pruned = prune_untestable_with(&netlist, &analysis, &faults);
        for fault in &pruned.untestable {
            assert_eq!(
                is_detectable(&netlist, &Fault::Stuck(*fault), 1 << 24),
                Detectability::Undetectable,
                "{name}: statically pruned fault {fault:?} is actually detectable"
            );
        }
    }
}

#[test]
fn statically_untestable_faults_are_undetectable_by_the_oracle() {
    // Soundness cross-check: every fault the SCOAP-based filter prunes must
    // be confirmed undetectable by exhaustive enumeration of all length-1
    // scan tests. (The filter is allowed to miss redundant faults; it must
    // never prune a detectable one.)
    for name in ["bbtas", "dk27", "mc"] {
        let netlist = netlist_of(name);
        let scoap = Scoap::new(&netlist);
        let faults = enumerate_stuck(&netlist);
        let pruned = prune_untestable(&netlist, &scoap, &faults);
        for fault in &pruned.untestable {
            assert_eq!(
                is_detectable(&netlist, &Fault::Stuck(*fault), 1 << 24),
                Detectability::Undetectable,
                "{name}: statically pruned fault {fault:?} is actually detectable"
            );
        }
    }
}
