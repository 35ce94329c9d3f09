//! Lint/optimizer agreement and idempotence over the benchmark suite.
//!
//! The `constant-net` and `equivalent-nets` lints read the same fact set
//! ([`scanft_analyze::ConstFacts`]) the optimizer folds, so the two can
//! never disagree about *what* is redundant; these tests additionally pin
//! that the prover certifies every one of those facts (nothing the lint
//! reports is skipped as unprovable) and that the rewrite is a fixpoint —
//! optimizing an optimized netlist changes nothing, so the lints are
//! idempotent across optimization.

use scanft_analyze::{Analysis, ConstFacts};
use scanft_fsm::benchmarks;
use scanft_opt::optimize;
use scanft_synth::{synthesize, SynthConfig};

#[test]
fn prover_certifies_every_lint_fact_on_the_suite() {
    for spec in benchmarks::CIRCUITS {
        if spec.num_transitions() > 2048 {
            continue; // the release-mode opt_suite bench covers the rest
        }
        let table = benchmarks::build(spec.name).expect("registry circuit");
        let c = synthesize(&table, &SynthConfig::default());
        let n = c.netlist();
        // The lint path's own analysis, apart from the optimizer's closure.
        let facts = ConstFacts::of(&Analysis::new(n).implications);
        let opt = optimize(n);
        // Every closure fact the lints surface is certified and folded.
        assert_eq!(opt.stats.unproven_constants, 0, "{}", spec.name);
        assert_eq!(opt.stats.unproven_equiv, 0, "{}", spec.name);
        for &(net, value) in facts.constants() {
            assert!(
                opt.constants.contains(&(net, value)),
                "{}: lint sees net {net} = {value} but the prover did not certify it",
                spec.name
            );
        }
        // The plain forward dataflow pass is a (usually strict) subset of
        // the closure facts — the lint never under-reports against it.
        assert!(
            opt.stats.dataflow_constants <= opt.stats.closure_constants,
            "{}",
            spec.name
        );
    }
}

#[test]
fn optimization_is_a_fixpoint_so_lints_are_idempotent() {
    for spec in benchmarks::CIRCUITS {
        if spec.num_transitions() > 2048 {
            continue;
        }
        let table = benchmarks::build(spec.name).expect("registry circuit");
        let c = synthesize(&table, &SynthConfig::default());
        let opt = optimize(c.netlist());
        let again = optimize(&opt.netlist);
        assert_eq!(
            again.netlist, opt.netlist,
            "{}: optimizing twice changed the netlist",
            spec.name
        );
        assert_eq!(again.stats.gates_removed, 0, "{}", spec.name);
        assert_eq!(again.stats.merges, 0, "{}", spec.name);
        assert_eq!(again.stats.constants_folded, 0, "{}", spec.name);
    }
}
