//! The canonical constant/equivalence fact set derived from the
//! implication closure.
//!
//! Both the `constant-net` / `equivalent-nets` lints
//! ([`crate::netlist_lints::lint_netlist`]) and the `scanft-opt` rewriting
//! pass consume facts through this one type, so the lint report and the
//! optimizer can never disagree about *which* nets are constant or
//! equivalent: there is a single extraction point, not two readings of the
//! closure.

use scanft_netlist::NetId;

use crate::Implications;

/// Constant nets and net-equivalence classes extracted once from an
/// implication closure, in a fixed deterministic order.
///
/// Constants are `(net, value)` pairs in net order; classes are sorted by
/// smallest member, each class sorted by net id, singletons omitted —
/// exactly the shapes [`crate::Implications::constants`] and
/// [`crate::Implications::equivalence_classes`] produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstFacts {
    constants: Vec<(NetId, bool)>,
    classes: Vec<Vec<NetId>>,
    constant_of: Vec<Option<bool>>,
}

impl ConstFacts {
    /// Extracts the fact set from a computed closure.
    #[must_use]
    pub fn of(implications: &Implications) -> Self {
        let constants = implications.constants();
        let classes = implications.equivalence_classes();
        let mut constant_of = vec![None; implications.num_nets()];
        for &(net, value) in &constants {
            constant_of[net as usize] = Some(value);
        }
        ConstFacts {
            constants,
            classes,
            constant_of,
        }
    }

    /// All nets proven constant, with their value, in net order.
    #[must_use]
    pub fn constants(&self) -> &[(NetId, bool)] {
        &self.constants
    }

    /// The proven constant value of `net`, if any.
    #[must_use]
    pub fn constant(&self, net: NetId) -> Option<bool> {
        self.constant_of.get(net as usize).copied().flatten()
    }

    /// Equivalence classes of non-constant nets proven equal (sorted, with
    /// singletons omitted).
    #[must_use]
    pub fn classes(&self) -> &[Vec<NetId>] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn facts_match_the_closure_accessors() {
        // c = AND(x, NOT x) is constant 0; two AND(x1, x2) copies are equal.
        let mut b = NetlistBuilder::new(2, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let g1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let g2 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, g1, g2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let implications = Implications::new(&n);
        let facts = ConstFacts::of(&implications);
        assert_eq!(facts.constants(), implications.constants());
        assert_eq!(facts.classes(), implications.equivalence_classes());
        assert_eq!(facts.constant(c), Some(false));
        assert_eq!(facts.constant(0), None);
        assert!(facts
            .classes()
            .iter()
            .any(|cl| cl.contains(&g1) && cl.contains(&g2)));
    }
}
