use crate::net::Netlist;
use crate::NetId;

/// Precomputed structural reachability ("is there a path of gates from net
/// `a` to net `b`?").
///
/// Used to enforce the paper's non-feedback condition on bridging-fault
/// pairs: a bridge between `g1` and `g2` is only considered when there is no
/// path from `g1` to `g2` nor from `g2` to `g1`.
///
/// The transitive fanout of every net is stored as a bitset row, so the
/// precomputation is `O(nets^2 / 64)` words — fine for the benchmark-scale
/// netlists this crate targets.
///
/// # Examples
///
/// ```
/// use scanft_netlist::{GateKind, NetlistBuilder, Reachability};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(2, 0);
/// let a = b.add_gate(GateKind::Not, &[b.pi(0)])?;
/// let c = b.add_gate(GateKind::And, &[a, b.pi(1)])?;
/// let n = b.finish(vec![c], vec![])?;
/// let reach = Reachability::new(&n);
/// assert!(reach.path_exists(a, c));
/// assert!(!reach.path_exists(c, a));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    words_per_row: usize,
    /// `rows[net]` = bitset of nets reachable from `net` (excluding itself
    /// unless a real path loops, which cannot happen in a DAG).
    rows: Vec<u64>,
}

impl Reachability {
    /// Computes reachability for every net of `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.num_nets();
        let words_per_row = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words_per_row];
        // Walk gates in reverse topological order; a net reaches the output
        // nets of its fanout gates and everything they reach.
        for g in (0..netlist.num_gates()).rev() {
            let out = netlist.gate_output(g) as usize;
            // Collect the row of `out` once to avoid aliasing while writing
            // into input rows.
            let out_row: Vec<u64> = rows[out * words_per_row..(out + 1) * words_per_row].to_vec();
            for &input in netlist.fanins(g) {
                let row = &mut rows[input as usize * words_per_row..];
                row[out / 64] |= 1 << (out % 64);
                for (w, &bits) in out_row.iter().enumerate() {
                    row[w] |= bits;
                }
            }
        }
        Reachability {
            words_per_row,
            rows,
        }
    }

    /// Whether a structural path of gates leads from `from` to `to`.
    ///
    /// A net does not reach itself (the netlist is a DAG).
    ///
    /// # Panics
    ///
    /// Panics if either net index is out of the netlist this was built for.
    #[must_use]
    pub fn path_exists(&self, from: NetId, to: NetId) -> bool {
        let row = &self.rows
            [from as usize * self.words_per_row..(from as usize + 1) * self.words_per_row];
        row[to as usize / 64] >> (to as usize % 64) & 1 == 1
    }

    /// Whether two nets are structurally independent (no path in either
    /// direction) — condition (3) of the paper's bridging-fault pair
    /// definition.
    #[must_use]
    pub fn independent(&self, a: NetId, b: NetId) -> bool {
        !self.path_exists(a, b) && !self.path_exists(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::GateKind;
    use crate::NetlistBuilder;

    #[test]
    fn chain_reachability() {
        let mut b = NetlistBuilder::new(1, 0);
        let g1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let g2 = b.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = b.add_gate(GateKind::Not, &[g2]).unwrap();
        let n = b.finish(vec![g3], vec![]).unwrap();
        let r = Reachability::new(&n);
        assert!(r.path_exists(0, g1));
        assert!(r.path_exists(0, g3));
        assert!(r.path_exists(g1, g3));
        assert!(!r.path_exists(g3, g1));
        assert!(!r.path_exists(g1, 0));
        assert!(!r.path_exists(g1, g1));
    }

    #[test]
    fn diamond_and_independence() {
        let mut b = NetlistBuilder::new(2, 0);
        let left = b.add_gate(GateKind::Not, &[0]).unwrap();
        let right = b.add_gate(GateKind::Not, &[1]).unwrap();
        let join = b.add_gate(GateKind::And, &[left, right]).unwrap();
        let n = b.finish(vec![join], vec![]).unwrap();
        let r = Reachability::new(&n);
        assert!(r.independent(left, right));
        assert!(!r.independent(left, join));
        assert!(r.path_exists(0, join));
        assert!(!r.path_exists(0, right));
    }

    #[test]
    fn wide_netlist_crosses_word_boundaries() {
        // More than 64 nets so bitset rows span multiple words.
        let mut b = NetlistBuilder::new(1, 0);
        let mut prev = 0;
        let mut nets = vec![0];
        for _ in 0..100 {
            prev = b.add_gate(GateKind::Not, &[prev]).unwrap();
            nets.push(prev);
        }
        let n = b.finish(vec![prev], vec![]).unwrap();
        let r = Reachability::new(&n);
        for i in 0..nets.len() {
            for j in 0..nets.len() {
                assert_eq!(r.path_exists(nets[i], nets[j]), i < j, "{i} -> {j}");
            }
        }
    }
}
