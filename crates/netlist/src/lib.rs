//! Gate-level netlist substrate for `scanft`.
//!
//! A [`Netlist`] models the combinational logic of a full-scan sequential
//! circuit: primary inputs, pseudo-primary inputs (scan flip-flop outputs,
//! i.e. present-state lines), a DAG of bounded-fanin gates, primary outputs
//! and pseudo-primary outputs (next-state lines captured into the scan
//! flip-flops). The scan chain itself needs no explicit structure — a scan
//! operation is "load the PPIs / observe the PPOs", which is exactly how the
//! paper models test application.
//!
//! The netlist is acyclic **by construction**: a gate may only reference
//! nets that already exist, so gate creation order is a topological order.
//!
//! # Example
//!
//! ```
//! use scanft_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), scanft_netlist::NetlistError> {
//! // A 1-bit full-scan toggle cell: ns = ps XOR x, z = ps AND x.
//! let mut b = NetlistBuilder::new(1, 1);
//! let x = b.pi(0);
//! let ps = b.ppi(0);
//! let ns = b.add_gate(GateKind::Xor, &[x, ps])?;
//! let z = b.add_gate(GateKind::And, &[x, ps])?;
//! let netlist = b.finish(vec![z], vec![ns])?;
//! assert_eq!(netlist.num_gates(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod blif;

mod builder;
mod cones;
mod dominators;
mod dot;
mod error;
mod net;
mod reach;

pub use builder::NetlistBuilder;
pub use cones::FaultCone;
pub use dominators::PostDominators;
pub use dot::to_dot;
pub use error::NetlistError;
pub use net::{GateKind, Netlist, NetlistStats};
pub use reach::Reachability;

/// Index of a net (a line in the circuit). PIs come first, then PPIs, then
/// one net per gate output, in creation order.
pub type NetId = u32;
