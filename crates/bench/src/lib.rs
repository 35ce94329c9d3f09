//! Benchmark harness for `scanft`: one binary per table of the paper
//! (`table1` … `table9`) plus the [`harness`]-based micro-benchmarks.
//!
//! Every binary prints the regenerated table side by side with the paper's
//! published values ([`paper`]). Absolute per-circuit values differ where
//! the MCNC state-table *contents* matter (the suite substitutes synthetic
//! machines with the published parameters — see `DESIGN.md`); structural
//! columns (`trans`, cycle baselines) and the `lion` rows match exactly.
//!
//! # Size budgets
//!
//! By default the binaries skip the most expensive circuits (the paper
//! spent up to 4.3 CPU-days on `nucpwr`); skipped rows are printed as
//! `skipped(budget)`, never silently dropped. `--full` removes the budget,
//! `--only a,b,c` restricts to named circuits.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod harness;
pub mod paper;
pub mod srclint;

use scanft_fsm::benchmarks::{CircuitSpec, CIRCUITS};

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Remove the size budget.
    pub full: bool,
    /// Restrict to these circuit names (empty = all).
    pub only: Vec<String>,
}

impl Args {
    /// Parses `--full` and `--only a,b,c` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on unknown flags.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = Args::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => args.full = true,
                "--only" => {
                    let list = iter.next().unwrap_or_else(|| usage("--only needs a value"));
                    args.only = list.split(',').map(str::to_owned).collect();
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Whether `name` passes the `--only` filter.
    #[must_use]
    pub fn selected(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|n| n == name)
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: table<N> [--full] [--only circuit,circuit,...]");
    std::process::exit(2)
}

/// What a table binary wants to do with each circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Functional-level work only (UIO derivation + test generation).
    Functional,
    /// Full gate-level fault simulation.
    GateLevel,
}

/// Whether `spec` fits the default budget for the given work.
///
/// Functional: everything except `nucpwr` (2^18 transitions; the paper
/// spent 4.3 CPU-days on it). Gate level: at most 11 PLA variables and
/// 2048 transitions (the suite up to `bbsse` and `cse`), keeping the
/// default run under a minute per circuit.
#[must_use]
pub fn within_budget(spec: &CircuitSpec, budget: Budget) -> bool {
    match budget {
        Budget::Functional => spec.num_transitions() <= 16_384,
        Budget::GateLevel => {
            spec.num_inputs + spec.num_state_vars <= 11 && spec.num_transitions() <= 2048
        }
    }
}

/// The circuits a binary should run, with skip markers for the rest:
/// returns `(spec, run)` pairs in the paper's order.
#[must_use]
pub fn plan_circuits(args: &Args, budget: Budget) -> Vec<(&'static CircuitSpec, bool)> {
    CIRCUITS
        .iter()
        .filter(|spec| args.selected(spec.name))
        .map(|spec| {
            let run = args.full || !args.only.is_empty() || within_budget(spec, budget);
            (spec, run)
        })
        .collect()
}

/// Formats a float with two decimals, the paper's table style.
#[must_use]
pub fn pct(value: f64) -> String {
    format!("{value:.2}")
}

/// Prints a rule line matching `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_sane() {
        let lion = scanft_fsm::benchmarks::find_spec("lion").unwrap();
        assert!(within_budget(lion, Budget::Functional));
        assert!(within_budget(lion, Budget::GateLevel));
        let nucpwr = scanft_fsm::benchmarks::find_spec("nucpwr").unwrap();
        assert!(!within_budget(nucpwr, Budget::Functional));
        assert!(!within_budget(nucpwr, Budget::GateLevel));
        let bbsse = scanft_fsm::benchmarks::find_spec("bbsse").unwrap();
        assert!(within_budget(bbsse, Budget::Functional));
        assert!(within_budget(bbsse, Budget::GateLevel));
        let keyb = scanft_fsm::benchmarks::find_spec("keyb").unwrap();
        assert!(within_budget(keyb, Budget::Functional));
        assert!(!within_budget(keyb, Budget::GateLevel));
    }

    #[test]
    fn plan_respects_only_and_full() {
        let args = Args {
            full: false,
            only: vec!["nucpwr".into()],
        };
        let plan = plan_circuits(&args, Budget::Functional);
        assert_eq!(plan.len(), 1);
        // Explicit selection overrides the budget.
        assert!(plan[0].1);

        let all = plan_circuits(&Args::default(), Budget::Functional);
        assert_eq!(all.len(), 31);
        assert_eq!(all.iter().filter(|(_, run)| !run).count(), 1);

        let full = plan_circuits(
            &Args {
                full: true,
                only: vec![],
            },
            Budget::GateLevel,
        );
        assert!(full.iter().all(|(_, run)| *run));
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(96.0), "96.00");
        assert_eq!(pct(48.586), "48.59");
    }
}
