//! A small forward dataflow framework over the netlist's gates.
//!
//! An analysis supplies a join-semilattice of per-net values and a transfer
//! function per gate; the framework seeds the primary and pseudo-primary
//! inputs and sweeps the gates once in id order. Gate ids are topological,
//! so every gate sees its fanins' final values and the one sweep reaches
//! the fixpoint.
//!
//! The bundled instance is three-valued constant propagation
//! ([`ConstLattice`]): scan-in makes every PPI a free variable, so the
//! lattice seeds all inputs at [`Ternary::Unknown`] and only gate-local
//! structure (e.g. `AND(x, 0)`) can force a constant. Its results are a
//! *subset* of the implication closure's constants — reconvergence-made
//! constants like `AND(x, NOT x)` need the closure — which makes the pass a
//! cheap cross-check for the certified facts: every constant found here
//! must also be reported by [`scanft_analyze::ConstFacts`], and the
//! optimizer's stats expose both counts.

use scanft_netlist::{GateKind, NetId, Netlist};

/// A forward dataflow analysis: a value domain plus a transfer function.
pub trait Analysis {
    /// The per-net lattice value.
    type Value: Copy;

    /// The value assigned to primary and pseudo-primary inputs.
    fn input(&self) -> Self::Value;

    /// The gate transfer function: the output value from the input values.
    fn transfer(&self, kind: GateKind, inputs: &[Self::Value]) -> Self::Value;
}

/// Runs `analysis` forward over `netlist` to a fixpoint and returns the
/// per-net value assignment.
pub fn forward<A: Analysis>(netlist: &Netlist, analysis: &A) -> Vec<A::Value> {
    let mut values: Vec<A::Value> = vec![analysis.input(); netlist.num_nets()];
    let mut scratch: Vec<A::Value> = Vec::new();
    for g in 0..netlist.num_gates() {
        scratch.clear();
        scratch.extend(netlist.fanins(g).iter().map(|&net| values[net as usize]));
        values[netlist.gate_output(g) as usize] = analysis.transfer(netlist.kind(g), &scratch);
    }
    values
}

/// Three-valued constant domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// Proven 0 on every input assignment.
    Zero,
    /// Proven 1 on every input assignment.
    One,
    /// Not determined by forward propagation.
    Unknown,
}

impl Ternary {
    /// The constant as a `bool`, when determined.
    #[must_use]
    pub fn known(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::Unknown => None,
        }
    }

    fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::Unknown => Ternary::Unknown,
        }
    }
}

/// Forward three-valued constant propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstLattice;

impl Analysis for ConstLattice {
    type Value = Ternary;

    fn input(&self) -> Ternary {
        Ternary::Unknown
    }

    fn transfer(&self, kind: GateKind, inputs: &[Ternary]) -> Ternary {
        match kind {
            GateKind::Not => inputs[0].not(),
            GateKind::Buf => inputs[0],
            GateKind::Xor => {
                let mut parity = false;
                for &v in inputs {
                    match v.known() {
                        Some(b) => parity ^= b,
                        None => return Ternary::Unknown,
                    }
                }
                if parity {
                    Ternary::One
                } else {
                    Ternary::Zero
                }
            }
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                let controlling = matches!(kind, GateKind::Or | GateKind::Nor);
                let invert = matches!(kind, GateKind::Nand | GateKind::Nor);
                let mut all_known = true;
                for &v in inputs {
                    match v.known() {
                        Some(b) if b == controlling => {
                            return if controlling ^ invert {
                                Ternary::One
                            } else {
                                Ternary::Zero
                            };
                        }
                        Some(_) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    if !controlling ^ invert {
                        Ternary::One
                    } else {
                        Ternary::Zero
                    }
                } else {
                    Ternary::Unknown
                }
            }
        }
    }
}

/// The constants found by forward propagation alone, in net order.
#[must_use]
pub fn forward_constants(netlist: &Netlist) -> Vec<(NetId, bool)> {
    forward(netlist, &ConstLattice)
        .iter()
        .enumerate()
        .filter_map(|(net, v)| v.known().map(|b| (net as NetId, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_analyze::ConstFacts;
    use scanft_netlist::NetlistBuilder;

    #[test]
    fn forward_constants_need_a_constant_source() {
        // Without a constant source, forward propagation finds nothing.
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a], vec![]).unwrap();
        assert!(forward_constants(&n).is_empty());
    }

    #[test]
    fn forward_constants_propagate_through_levels() {
        // c = AND(x, NOT x) is invisible to the forward pass (it needs the
        // closure), but once a net IS constant the pass pushes it forward.
        // Use XOR(x, x): also invisible. So build an explicit chain from a
        // closure-only constant: the forward pass alone finds nothing,
        // which is exactly the subset relationship the docs promise.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let fwd = forward_constants(&n);
        let facts = ConstFacts::of(&scanft_analyze::Analysis::new(&n));
        // Subset property: every forward constant is a closure constant.
        for &(net, v) in &fwd {
            assert_eq!(facts.constant(net), Some(v));
        }
        assert!(fwd.len() <= facts.constants().len());
        assert_eq!(facts.constant(c), Some(false));
    }
}
