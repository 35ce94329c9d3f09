//! Logic and fault simulation substrate for `scanft`.
//!
//! This crate evaluates scan-based tests on gate-level netlists and measures
//! the gate-level fault coverage of functional test sets, reproducing the
//! simulation side of the paper's evaluation (Tables 3, 6 and 7):
//!
//! - [`ScanTest`]: a test in the paper's sense — scan-in an initial state
//!   code, apply a sequence of primary-input combinations while observing
//!   the primary outputs at every cycle, scan-out the final state;
//! - [`logic`]: 64-lane bit-parallel combinational evaluation;
//! - [`faults`]: the two fault universes of the paper — single stuck-at
//!   faults on every line (stems and fanout branches) and non-feedback
//!   AND/OR bridging faults between outputs of multi-input gates;
//! - [`engine`]: a *fault-parallel* simulator (one fault per bit lane, 64
//!   or 256 lanes) with faulty-state propagation across cycles and
//!   scan-out comparison;
//! - [`campaign`]: fault-dropping simulation of a whole test set on the
//!   wide kernel (the narrow one is the differential oracle), the
//!   decreasing-length *effective-test selection* of the paper, and
//!   coverage reports;
//! - [`exhaustive`]: exhaustive combinational test application, used to
//!   classify faults left undetected by the functional tests as
//!   undetectable (the paper's redundancy argument in Table 6).
//!
//! # Example
//!
//! ```
//! use scanft_sim::{campaign, faults, ScanTest};
//! use scanft_synth::{synthesize, SynthConfig};
//!
//! let lion = scanft_fsm::benchmarks::lion();
//! let circuit = synthesize(&lion, &SynthConfig::default());
//! let netlist = circuit.netlist();
//! // One-cycle scan test per state transition (the paper's baseline).
//! let tests: Vec<ScanTest> = lion
//!     .transitions()
//!     .map(|t| ScanTest::new(circuit.encode_state(t.from), vec![t.input]))
//!     .collect();
//! let stuck = faults::enumerate_stuck(netlist);
//! let report = campaign::run(netlist, &tests, &faults::as_fault_list(&stuck));
//! // Per-transition tests are exhaustive: the irredundant lion netlist has
//! // every stuck-at fault detectable, so coverage is complete.
//! assert_eq!(report.detected(), report.num_faults());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod campaign;
pub mod collapse;
pub mod dictionary;
pub mod engine;
pub mod exhaustive;
pub mod faults;
pub mod logic;
pub mod word;

mod scan;

pub use scan::{ScanResponse, ScanTest};
pub use word::{LaneWord, W256};
