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

/// A combinational netlist with a full-scan boundary.
///
/// Nets are numbered: `0..num_pis` are primary inputs, the next `num_ppis`
/// are pseudo-primary inputs (present-state lines), and each gate adds one
/// output net in creation order, which is guaranteed topological.
///
/// The gates are stored flat, in compressed-sparse-row form: one array of
/// gate kinds, one contiguous fanin array in pin order and one contiguous
/// fanout array, each indexed by `u32` offsets. Every consumer — synthesis,
/// analysis, ATPG, the optimizer and both simulation kernels — walks these
/// same slices, so a full pass is a forward sweep over gate ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) num_pis: usize,
    pub(crate) num_ppis: usize,
    /// Logic function of each gate.
    pub(crate) kinds: Vec<GateKind>,
    /// CSR offsets into `fanins`: gate `g` reads `fanins[fanin_start[g] ..
    /// fanin_start[g + 1]]`.
    pub(crate) fanin_start: Vec<u32>,
    pub(crate) fanins: Vec<NetId>,
    /// CSR offsets into `fanouts`: net `n` feeds gates `fanouts[
    /// fanout_start[n] .. fanout_start[n + 1]]`, ascending, one entry per
    /// reading pin.
    pub(crate) fanout_start: Vec<u32>,
    pub(crate) fanouts: Vec<u32>,
    pub(crate) pos: Vec<NetId>,
    pub(crate) ppos: Vec<NetId>,
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
    #[inline]
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Total number of nets (PIs + PPIs + gate outputs).
    #[inline]
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_pis + self.num_ppis + self.kinds.len()
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

    /// Logic function of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    #[must_use]
    pub fn kind(&self, g: usize) -> GateKind {
        self.kinds[g]
    }

    /// Fanin nets of gate `g`, in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    #[must_use]
    pub fn fanins(&self, g: usize) -> &[NetId] {
        &self.fanins[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    /// Index of the gate driving `net`, or `None` for PI/PPI nets.
    #[inline]
    #[must_use]
    pub fn driver_index(&self, net: NetId) -> Option<usize> {
        let inputs = self.num_pis + self.num_ppis;
        (net as usize >= inputs).then(|| net as usize - inputs)
    }

    /// Output net of gate `g` (`num_pis + num_ppis + g`; the gate index is
    /// not range-checked).
    #[inline]
    #[must_use]
    pub fn gate_output(&self, g: usize) -> NetId {
        debug_assert!(g < self.kinds.len(), "gate {g} out of range");
        (self.num_pis + self.num_ppis + g) as NetId
    }

    /// Indices of the gates that read `net`, ascending, once per reading
    /// pin.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[u32] {
        let net = net as usize;
        &self.fanouts[self.fanout_start[net] as usize..self.fanout_start[net + 1] as usize]
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
        !self.fanout(net).is_empty() || self.pos.contains(&net) || self.ppos.contains(&net)
    }

    /// Summary statistics (gate counts by kind, depth, net count).
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut stats = NetlistStats {
            num_pis: self.num_pis,
            num_ppis: self.num_ppis,
            num_pos: self.pos.len(),
            num_gates: self.num_gates(),
            num_nets: self.num_nets(),
            depth: self.depth(),
            ..NetlistStats::default()
        };
        for kind in &self.kinds {
            match kind {
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
        assert!(n.driver_index(0).is_none());
        assert_eq!(n.kind(n.driver_index(3).unwrap()), GateKind::And);
        assert_eq!(n.driver_index(5), Some(2));
    }

    #[test]
    fn fanout_and_levels() {
        let n = small();
        assert_eq!(n.fanout(0), &[0]); // x1 -> AND
        assert_eq!(n.fanout(3), &[2]); // AND -> OR
        assert!(n.fanout(5).is_empty()); // OR drives only the PO
        assert_eq!(n.fanins(2), &[3, 4]);
        assert_eq!(n.kind(1), GateKind::Not);
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

    #[test]
    fn flat_layout_mirrors_the_builder_input() {
        // Gate specs in creation order; g3 reads x1 on both pins.
        let specs: [(GateKind, &[NetId]); 5] = [
            (GateKind::And, &[0, 1]),
            (GateKind::Not, &[2]),
            (GateKind::Or, &[3, 4]),
            (GateKind::Xor, &[0, 0]),
            (GateKind::Nand, &[5, 3, 1]),
        ];
        let mut b = NetlistBuilder::new(2, 1);
        for (kind, inputs) in specs {
            b.add_gate(kind, inputs).unwrap();
        }
        let n = b.finish(vec![7], vec![3, 6]).unwrap();
        assert_eq!(n.num_gates(), specs.len());
        assert_eq!(n.num_nets(), 3 + specs.len());
        for (g, (kind, inputs)) in specs.iter().enumerate() {
            assert_eq!(n.kind(g), *kind, "gate {g}");
            assert_eq!(n.fanins(g), *inputs, "gate {g}");
            assert_eq!(n.gate_output(g), (3 + g) as NetId);
        }
        // Fanouts are the transpose of the fanins: ascending gate order,
        // one entry per reading pin.
        for net in 0..n.num_nets() as NetId {
            let readers: Vec<u32> = (0..n.num_gates())
                .flat_map(|g| {
                    n.fanins(g)
                        .iter()
                        .filter(move |&&f| f == net)
                        .map(move |_| g as u32)
                })
                .collect();
            assert_eq!(n.fanout(net), readers.as_slice(), "net {net}");
        }
    }

    #[test]
    fn gate_order_is_topological_and_levels_agree() {
        let n = small();
        let inputs = n.num_pis() + n.num_ppis();
        for net in 0..inputs as NetId {
            assert_eq!(n.level(net), 0, "input {net}");
        }
        let mut per_level = vec![0usize; n.depth() as usize + 1];
        for g in 0..n.num_gates() {
            let out = n.gate_output(g);
            for &fanin in n.fanins(g) {
                assert!(fanin < out, "gate {g} before its driver");
            }
            let deepest = n.fanins(g).iter().map(|&f| n.level(f)).max().unwrap();
            assert_eq!(n.level(out), deepest + 1, "gate {g}");
            per_level[n.level(out) as usize] += 1;
        }
        // Every level up to the depth holds a gate, and the levels
        // partition the gates.
        assert!(per_level[1..].iter().all(|&count| count > 0));
        assert_eq!(per_level.iter().sum::<usize>(), n.num_gates());
    }

    #[test]
    fn gateless_netlist_has_an_empty_layout() {
        let b = NetlistBuilder::new(1, 1);
        let pi = b.pi(0);
        let ppi = b.ppi(0);
        let n = b.finish(vec![pi], vec![ppi]).unwrap();
        assert_eq!(n.num_gates(), 0);
        assert_eq!(n.num_nets(), 2);
        assert!(n.fanout(0).is_empty());
        assert!(n.fanout(1).is_empty());
        assert_eq!(n.depth(), 0);
    }
}
