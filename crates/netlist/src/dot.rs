use std::fmt::Write as _;

use crate::net::Netlist;

/// Renders the netlist as a Graphviz DOT digraph, for debugging and
/// documentation. PIs and PPIs are boxes, gates are ellipses labelled with
/// their kind, POs/PPOs are marked with double borders.
///
/// # Examples
///
/// ```
/// use scanft_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(1, 0);
/// let g = b.add_gate(GateKind::Not, &[b.pi(0)])?;
/// let n = b.finish(vec![g], vec![])?;
/// let dot = scanft_netlist::to_dot(&n, "inverter");
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("NOT"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn to_dot(netlist: &Netlist, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let inputs = netlist.num_pis() + netlist.num_ppis();
    for net in 0..inputs as u32 {
        let _ = writeln!(
            out,
            "  n{net} [shape=box,label=\"{}\"];",
            netlist.net_name(net)
        );
    }
    for g in 0..netlist.num_gates() {
        let net = netlist.gate_output(g);
        let emphasized = netlist.pos().contains(&net) || netlist.ppos().contains(&net);
        let peripheries = if emphasized { 2 } else { 1 };
        let _ = writeln!(
            out,
            "  n{net} [shape=ellipse,peripheries={peripheries},label=\"{} {}\"];",
            netlist.kind(g),
            netlist.net_name(net)
        );
        for &input in netlist.fanins(g) {
            let _ = writeln!(out, "  n{input} -> n{net};");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::GateKind;
    use crate::NetlistBuilder;

    #[test]
    fn dot_contains_all_nets_and_edges() {
        let mut b = NetlistBuilder::new(2, 1);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let o = b.add_gate(GateKind::Or, &[a, 2]).unwrap();
        let n = b.finish(vec![o], vec![a]).unwrap();
        let dot = to_dot(&n, "t");
        assert!(dot.contains("n0 [shape=box,label=\"x1\"]"));
        assert!(dot.contains("n2 [shape=box,label=\"y1\"]"));
        assert!(dot.contains("n0 -> n3;"));
        assert!(dot.contains("n3 -> n4;"));
        // Both outputs get double peripheries.
        assert_eq!(dot.matches("peripheries=2").count(), 2);
        assert!(dot.ends_with("}\n"));
    }
}
