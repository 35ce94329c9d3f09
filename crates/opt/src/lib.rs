//! Certificate-emitting static netlist analysis and optimization.
//!
//! `scanft-opt` reduces a full-scan netlist before simulation or test
//! generation — constant folding driven by the implication closure,
//! AIG-style structural hashing, equivalence merging over the closure's
//! union-find classes, and an unobservable-logic sweep — and emits a
//! machine-checkable **certificate** justifying every rewrite step. The
//! certificate is a JSONL proof log ([`certificate`]) validated by an
//! independent minimal checker ([`checker`]) that shares no code with the
//! optimizer: it re-verifies each unit-propagation trace from gate
//! semantics alone, replays the rewrites under its own justification rules,
//! rebuilds the reduced netlist, and compares it structurally against the
//! optimizer's output.
//!
//! Because scan-in makes every pseudo-primary input a free variable, only
//! combinationally forced facts are used — the reduced netlist is
//! test-for-test equivalent to the original at all observed outputs, and
//! [`fault_map`] classifies each original fault as provably untestable,
//! exactly mapped onto the reduced netlist, or neither.
//!
//! The optimizer serves `scanft optimize` and its independent checker; the
//! simulation campaigns always run on the original netlist.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod certificate;
pub mod checker;
pub mod dataflow;
pub mod fault_map;
pub mod prover;
pub mod rewrite;

use scanft_netlist::Netlist;

pub use certificate::Certificate;
pub use rewrite::{NetMap, RewriteStats};

/// Counters describing one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Gates in the original netlist.
    pub original_gates: usize,
    /// Gates in the reduced netlist.
    pub reduced_gates: usize,
    /// Constant substitutions plus dropped constant pins.
    pub constants_folded: usize,
    /// Equivalence plus structural-hash merges.
    pub merges: usize,
    /// Gates removed by the dead sweep.
    pub gates_removed: usize,
    /// Closure facts the prover could not certify (folds skipped).
    pub unproven_constants: usize,
    /// Equivalence members the prover could not certify (merges skipped).
    pub unproven_equiv: usize,
    /// Constant nets proven by the implication closure.
    pub closure_constants: usize,
    /// Constant nets the plain forward dataflow pass alone would find — a
    /// subset of `closure_constants` by construction.
    pub dataflow_constants: usize,
    /// Certificate steps (including `begin`).
    pub certificate_steps: usize,
    /// Certificate lemmas.
    pub certificate_lemmas: u32,
    /// Certificate size in bytes.
    pub certificate_bytes: usize,
}

/// The result of optimizing a netlist: the reduced netlist, the
/// original-to-reduced mapping, the proof log, and run counters.
#[derive(Debug)]
pub struct Optimized {
    /// The reduced netlist.
    pub netlist: Netlist,
    /// Maps original nets, gates, and pins to their reduced counterparts.
    pub map: NetMap,
    /// The JSONL certificate justifying every rewrite step.
    pub certificate: String,
    /// Certified constant nets of the *original* netlist, in net order
    /// (used by [`fault_map`] to mark constant-site faults untestable).
    pub constants: Vec<(scanft_netlist::NetId, bool)>,
    /// Run counters.
    pub stats: OptStats,
}

/// Optimizes `netlist`: computes its implication closure with the learning
/// history, certifies the closure's constants and the facts the rewrites
/// cite from that history, and rewrites.
#[must_use]
pub fn optimize(netlist: &Netlist) -> Optimized {
    let (implications, history) = scanft_analyze::Implications::with_history(netlist);
    let obs = scanft_obs::global();
    let _timer = obs.timer("opt.optimize_secs").start();
    let facts = scanft_analyze::ConstFacts::of(&implications);
    let dataflow_constants = dataflow::forward_constants(netlist).len();
    let mut cert = Certificate::begin(netlist.num_pis(), netlist.num_ppis(), netlist.num_gates());
    let mut prover = prover::Prover::new(netlist, history, &mut cert);
    let (reduced, map, rw) = rewrite::run(netlist, &facts, &mut prover, &mut cert);
    let stats = OptStats {
        original_gates: netlist.num_gates(),
        reduced_gates: reduced.num_gates(),
        constants_folded: rw.constants_folded,
        merges: rw.merges,
        gates_removed: rw.gates_removed,
        unproven_constants: rw.unproven_constants,
        unproven_equiv: rw.unproven_equiv,
        closure_constants: facts.constants().len(),
        dataflow_constants,
        certificate_steps: cert.num_steps(),
        certificate_lemmas: cert.num_lemmas(),
        certificate_bytes: cert.num_bytes(),
    };
    obs.counter("opt.gates_removed")
        .add(stats.gates_removed as u64);
    obs.counter("opt.merges").add(stats.merges as u64);
    obs.counter("opt.constants_folded")
        .add(stats.constants_folded as u64);
    obs.counter("opt.certificate_bytes")
        .add(stats.certificate_bytes as u64);
    obs.counter("opt.certificate_steps")
        .add(stats.certificate_steps as u64);
    Optimized {
        netlist: reduced,
        map,
        certificate: cert.into_text(),
        constants: prover.constants(),
        stats,
    }
}
