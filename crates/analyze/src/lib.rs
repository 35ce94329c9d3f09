//! Static testability analysis and design lints for the scanft workspace.
//!
//! The paper's functional test-generation flow (and every downstream stage:
//! synthesis, fault simulation, PODEM top-up) assumes well-formed state
//! tables and scan netlists. This crate verifies those assumptions *before*
//! the expensive stages run, with three cooperating passes:
//!
//! 1. **SCOAP testability** ([`Scoap`]) — Goldstein's 0/1-controllability
//!    and observability measures, computed in one forward plus one backward
//!    topological sweep with saturating arithmetic.
//! 2. **Lint suites** ([`lint_netlist`], [`lint_state_table`],
//!    [`lint_kiss_source`]) — structural netlist checks (floating inputs,
//!    dangling outputs, unobservable/uncontrollable nets, fanin bounds,
//!    scan-chain integrity) and FSM checks (unreachable states, unused
//!    inputs, missing UIO preconditions, nondeterministic or incomplete
//!    tables), all reporting through one [`Diagnostic`] model with a
//!    deny/warn/allow [`LintLevels`] table.
//! 3. **Static learning** ([`Implications`], [`Requirements`]) — an
//!    implication engine with SOCRATES-style contrapositive learning over
//!    the netlist's literal graph, plus necessary-assignment extraction
//!    from the netlist layer's post-dominator tree. The closure yields
//!    constant and equivalent nets (surfaced as [`ConstFacts`], the one
//!    fact set shared by the lints and the `scanft-opt` rewriter),
//!    FIRE-style fault-independent untestability proofs, and the necessary
//!    assignments that guide PODEM's search in `scanft-atpg`.
//! 4. **Static pruning** ([`prune_untestable`], [`prune_untestable_with`])
//!    — faults whose SCOAP measures or implication requirements prove them
//!    undetectable are classified statically untestable and removed from
//!    the ATPG universe, and the same measures replace the raw level
//!    heuristic in PODEM's backtrace.
//!
//! Everything is surfaced through the `scanft lint` CLI subcommand and
//! `analyze.*` observability metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod diag;
pub mod facts;
pub mod fsm_lints;
pub mod implications;
pub mod netlist_lints;
pub mod prune;
pub mod requirements;
pub mod scoap;

pub use diag::{Diagnostic, LintCode, LintLevels, LintReport, Severity, ALL_LINTS};
pub use facts::ConstFacts;
pub use fsm_lints::{lint_kiss_source, lint_state_table, FsmLintConfig};
pub use implications::{FoundConstant, History, Implications};
pub use netlist_lints::{lint_import_error, lint_netlist, NetlistLintConfig};
pub use prune::{
    is_fire_untestable, is_statically_untestable, is_statically_untestable_with, prune_untestable,
    prune_untestable_with, PruneResult,
};
pub use requirements::Requirements;
pub use scoap::{Scoap, ScoapSummary, INFINITE};

use scanft_netlist::Netlist;

/// The three static analyses bundled for consumers that need them together
/// (fault pruning and implication-guided PODEM).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// SCOAP controllability/observability measures.
    pub scoap: Scoap,
    /// The static implication closure (direct + learned).
    pub implications: Implications,
    /// Necessary-requirement extraction over the post-dominator tree and
    /// fanout-cone reachability.
    pub requirements: Requirements,
}

impl Analysis {
    /// Runs all three analyses over `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        Analysis {
            scoap: Scoap::new(netlist),
            implications: Implications::new(netlist),
            requirements: Requirements::new(netlist),
        }
    }
}
