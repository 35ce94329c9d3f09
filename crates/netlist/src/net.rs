use std::fmt;

use crate::NetId;

/// Logic function of a gate.
///
/// Multi-input kinds (`And`, `Or`, `Nand`, `Nor`, `Xor`) accept two or more
/// inputs; `Not` and `Buf` take exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Complement of the AND of all inputs.
    Nand,
    /// Complement of the OR of all inputs.
    Nor,
    /// Parity (XOR) of all inputs.
    Xor,
    /// Inverter.
    Not,
    /// Non-inverting buffer.
    Buf,
}

impl GateKind {
    /// Evaluates the gate over 64 patterns at once (one per bit lane).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs` is empty.
    #[must_use]
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        debug_assert!(!inputs.is_empty());
        match self {
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Or => inputs.iter().fold(0, |acc, &v| acc | v),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &v| acc | v),
            GateKind::Xor => inputs.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
        }
    }

    /// Whether the kind requires exactly one input.
    #[must_use]
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Short uppercase name used in DOT output and diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: a kind and its input nets. Its output net id is
/// implicit (`num_pis + num_ppis + gate_index`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
}

/// A combinational netlist with a full-scan boundary.
///
/// Nets are numbered: `0..num_pis` are primary inputs, the next `num_ppis`
/// are pseudo-primary inputs (present-state lines), and each gate adds one
/// output net in creation order, which is guaranteed topological.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) num_pis: usize,
    pub(crate) num_ppis: usize,
    pub(crate) gates: Vec<Gate>,
    pub(crate) pos: Vec<NetId>,
    pub(crate) ppos: Vec<NetId>,
    /// `fanout[net]` = indices of gates reading `net`.
    pub(crate) fanout: Vec<Vec<u32>>,
    /// `level[net]` = longest path (in gates) from any input net.
    pub(crate) level: Vec<u32>,
}

impl Netlist {
    /// Number of primary inputs.
    #[must_use]
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of pseudo-primary inputs (state variables, `N_SV`).
    #[must_use]
    pub fn num_ppis(&self) -> usize {
        self.num_ppis
    }

    /// Number of gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Total number of nets (PIs + PPIs + gate outputs).
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_pis + self.num_ppis + self.gates.len()
    }

    /// Net id of primary input `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_pis()`.
    #[inline]
    #[must_use]
    pub fn pi(&self, k: usize) -> NetId {
        assert!(k < self.num_pis, "PI {k} out of range");
        k as NetId
    }

    /// Net id of pseudo-primary input (present-state line) `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_ppis()`.
    #[inline]
    #[must_use]
    pub fn ppi(&self, k: usize) -> NetId {
        assert!(k < self.num_ppis, "PPI {k} out of range");
        (self.num_pis + k) as NetId
    }

    /// Primary-output nets, in output order.
    #[must_use]
    pub fn pos(&self) -> &[NetId] {
        &self.pos
    }

    /// Pseudo-primary-output (next-state) nets, in state-variable order.
    #[must_use]
    pub fn ppos(&self) -> &[NetId] {
        &self.ppos
    }

    /// The gates in topological order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate driving `net`, or `None` for PI/PPI nets.
    #[must_use]
    pub fn driver(&self, net: NetId) -> Option<&Gate> {
        let inputs = self.num_pis + self.num_ppis;
        (net as usize >= inputs).then(|| &self.gates[net as usize - inputs])
    }

    /// Index of the gate driving `net`, or `None` for PI/PPI nets.
    #[must_use]
    pub fn driver_index(&self, net: NetId) -> Option<usize> {
        let inputs = self.num_pis + self.num_ppis;
        (net as usize >= inputs).then(|| net as usize - inputs)
    }

    /// Output net of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn gate_output(&self, g: usize) -> NetId {
        assert!(g < self.gates.len(), "gate {g} out of range");
        (self.num_pis + self.num_ppis + g) as NetId
    }

    /// Indices of the gates that read `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[u32] {
        &self.fanout[net as usize]
    }

    /// Logic level of `net`: 0 for inputs, `1 + max(level of gate inputs)`
    /// for gate outputs.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn level(&self, net: NetId) -> u32 {
        self.level[net as usize]
    }

    /// Largest level in the netlist (circuit depth in gates).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Human-readable name of a net: `x<k>` for PIs, `y<k>` for PPIs,
    /// `g<k>` for gate outputs.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> String {
        let n = net as usize;
        if n < self.num_pis {
            format!("x{}", n + 1)
        } else if n < self.num_pis + self.num_ppis {
            format!("y{}", n - self.num_pis + 1)
        } else {
            format!("g{}", n - self.num_pis - self.num_ppis + 1)
        }
    }

    /// Whether `net` is observable: feeds a PO or PPO directly, or fans out
    /// to at least one gate.
    #[must_use]
    pub fn is_connected(&self, net: NetId) -> bool {
        !self.fanout[net as usize].is_empty() || self.pos.contains(&net) || self.ppos.contains(&net)
    }

    /// Summary statistics (gate counts by kind, depth, net count).
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut stats = NetlistStats {
            num_pis: self.num_pis,
            num_ppis: self.num_ppis,
            num_pos: self.pos.len(),
            num_gates: self.gates.len(),
            num_nets: self.num_nets(),
            depth: self.depth(),
            ..NetlistStats::default()
        };
        for g in &self.gates {
            match g.kind {
                GateKind::And => stats.num_and += 1,
                GateKind::Or => stats.num_or += 1,
                GateKind::Nand => stats.num_nand += 1,
                GateKind::Nor => stats.num_nor += 1,
                GateKind::Xor => stats.num_xor += 1,
                GateKind::Not => stats.num_not += 1,
                GateKind::Buf => stats.num_buf += 1,
            }
        }
        stats
    }
}

/// Summary statistics of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field names are self-describing counts
pub struct NetlistStats {
    pub num_pis: usize,
    pub num_ppis: usize,
    pub num_pos: usize,
    pub num_gates: usize,
    pub num_nets: usize,
    pub num_and: usize,
    pub num_or: usize,
    pub num_nand: usize,
    pub num_nor: usize,
    pub num_xor: usize,
    pub num_not: usize,
    pub num_buf: usize,
    pub depth: u32,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} PIs, {} PPIs, {} POs, {} gates ({} AND, {} OR, {} NAND, {} NOR, {} XOR, {} NOT, {} BUF), depth {}",
            self.num_pis,
            self.num_ppis,
            self.num_pos,
            self.num_gates,
            self.num_and,
            self.num_or,
            self.num_nand,
            self.num_nor,
            self.num_xor,
            self.num_not,
            self.num_buf,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn small() -> Netlist {
        let mut b = NetlistBuilder::new(2, 1);
        let x1 = b.pi(0);
        let x2 = b.pi(1);
        let y1 = b.ppi(0);
        let a = b.add_gate(GateKind::And, &[x1, x2]).unwrap();
        let n = b.add_gate(GateKind::Not, &[y1]).unwrap();
        let o = b.add_gate(GateKind::Or, &[a, n]).unwrap();
        b.finish(vec![o], vec![a]).unwrap()
    }

    #[test]
    fn gate_eval_words_truth_tables() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & 0xF, 0b1000);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & 0xF, 0b1110);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & 0xF, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & 0xF, 0b0001);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & 0xF, 0b0110);
        assert_eq!(GateKind::Not.eval_words(&[a]) & 0xF, 0b0011);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & 0xF, 0b1100);
    }

    #[test]
    fn three_input_gates() {
        let v = [0b11110000u64, 0b11001100, 0b10101010];
        assert_eq!(GateKind::And.eval_words(&v) & 0xFF, 0b10000000);
        assert_eq!(GateKind::Or.eval_words(&v) & 0xFF, 0b11111110);
        assert_eq!(GateKind::Xor.eval_words(&v) & 0xFF, 0b10010110);
    }

    #[test]
    fn net_numbering_and_names() {
        let n = small();
        assert_eq!(n.num_nets(), 6);
        assert_eq!(n.pi(1), 1);
        assert_eq!(n.ppi(0), 2);
        assert_eq!(n.gate_output(0), 3);
        assert_eq!(n.net_name(0), "x1");
        assert_eq!(n.net_name(2), "y1");
        assert_eq!(n.net_name(3), "g1");
        assert!(n.driver(0).is_none());
        assert_eq!(n.driver(3).unwrap().kind, GateKind::And);
        assert_eq!(n.driver_index(5), Some(2));
    }

    #[test]
    fn fanout_and_levels() {
        let n = small();
        assert_eq!(n.fanout(0), &[0]); // x1 -> AND
        assert_eq!(n.fanout(3), &[2]); // AND -> OR
        assert_eq!(n.level(0), 0);
        assert_eq!(n.level(3), 1);
        assert_eq!(n.level(5), 2);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn stats_counts() {
        let s = small().stats();
        assert_eq!(s.num_gates, 3);
        assert_eq!(s.num_and, 1);
        assert_eq!(s.num_or, 1);
        assert_eq!(s.num_not, 1);
        assert_eq!(s.depth, 2);
        let text = s.to_string();
        assert!(text.contains("3 gates"));
    }

    #[test]
    fn connectivity() {
        let n = small();
        assert!(n.is_connected(0));
        assert!(n.is_connected(5)); // PO
        assert!(n.is_connected(3)); // PPO + fanout
    }
}
