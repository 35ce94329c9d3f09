use crate::net::{GateKind, Netlist};
use crate::{NetId, NetlistError};

/// Incremental constructor for a [`Netlist`].
///
/// Gates may only reference already-created nets, which makes the result
/// acyclic by construction and creation order a valid topological order.
///
/// # Examples
///
/// ```
/// use scanft_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(2, 0);
/// let sum = b.add_gate(GateKind::Xor, &[b.pi(0), b.pi(1)])?;
/// let carry = b.add_gate(GateKind::And, &[b.pi(0), b.pi(1)])?;
/// let half_adder = b.finish(vec![sum, carry], vec![])?;
/// assert_eq!(half_adder.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    num_pis: usize,
    num_ppis: usize,
    kinds: Vec<GateKind>,
    /// CSR offsets into `fanins`, one more than there are gates.
    fanin_start: Vec<u32>,
    fanins: Vec<NetId>,
}

impl NetlistBuilder {
    /// Creates a builder for a netlist with the given scan boundary.
    #[must_use]
    pub fn new(num_pis: usize, num_ppis: usize) -> Self {
        NetlistBuilder {
            num_pis,
            num_ppis,
            kinds: Vec::new(),
            fanin_start: vec![0],
            fanins: Vec::new(),
        }
    }

    /// Net id of primary input `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn pi(&self, k: usize) -> NetId {
        assert!(k < self.num_pis, "PI {k} out of range");
        k as NetId
    }

    /// Net id of pseudo-primary input `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn ppi(&self, k: usize) -> NetId {
        assert!(k < self.num_ppis, "PPI {k} out of range");
        (self.num_pis + k) as NetId
    }

    /// Number of nets defined so far.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_pis + self.num_ppis + self.kinds.len()
    }

    /// Adds a gate and returns its output net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] when an input net does not exist
    /// yet, or [`NetlistError::BadFanin`] when the input count does not suit
    /// the gate kind (unary kinds take exactly one input, the others at
    /// least one; single-input AND/OR act as buffers).
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if kind.is_unary() {
            if inputs.len() != 1 {
                return Err(NetlistError::BadFanin {
                    kind: kind.name(),
                    fanin: inputs.len(),
                    expected: "exactly 1",
                });
            }
        } else if inputs.is_empty() {
            return Err(NetlistError::BadFanin {
                kind: kind.name(),
                fanin: 0,
                expected: "at least 1",
            });
        }
        let defined = self.num_nets();
        for (pin, &net) in inputs.iter().enumerate() {
            if net as usize >= defined {
                return Err(NetlistError::UnknownNet {
                    net,
                    num_nets: defined,
                    reference: format!("input {pin} of {} gate g{}", kind.name(), self.kinds.len()),
                });
            }
        }
        self.kinds.push(kind);
        self.fanins.extend_from_slice(inputs);
        self.fanin_start.push(csr_offset(self.fanins.len()));
        Ok(defined as NetId)
    }

    /// Builds a balanced tree of `kind` gates over `inputs`, each gate with
    /// at most `max_fanin` inputs. Returns the root net.
    ///
    /// With a single input, no gate is created for AND/OR (the input net is
    /// returned directly); for NAND/NOR a NOT gate is emitted so inversion
    /// is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadFanin`] when `inputs` is empty or
    /// `max_fanin < 2`, and propagates [`NetlistError::UnknownNet`].
    pub fn add_tree(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        max_fanin: usize,
    ) -> Result<NetId, NetlistError> {
        if inputs.is_empty() || max_fanin < 2 {
            return Err(NetlistError::BadFanin {
                kind: kind.name(),
                fanin: inputs.len(),
                expected: "at least 1, with max_fanin >= 2",
            });
        }
        if inputs.len() == 1 {
            return match kind {
                GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Buf => Ok(inputs[0]),
                GateKind::Nand | GateKind::Nor | GateKind::Not => {
                    self.add_gate(GateKind::Not, inputs)
                }
            };
        }
        // Inner levels use the non-inverting counterpart; only the root
        // applies the inversion for NAND/NOR.
        let (inner, root): (GateKind, GateKind) = match kind {
            GateKind::Nand => (GateKind::And, GateKind::Nand),
            GateKind::Nor => (GateKind::Or, GateKind::Nor),
            k => (k, k),
        };
        let mut layer: Vec<NetId> = inputs.to_vec();
        while layer.len() > max_fanin {
            let mut next_layer = Vec::with_capacity(layer.len().div_ceil(max_fanin));
            for chunk in layer.chunks(max_fanin) {
                if chunk.len() == 1 {
                    next_layer.push(chunk[0]);
                } else {
                    next_layer.push(self.add_gate(inner, chunk)?);
                }
            }
            layer = next_layer;
        }
        self.add_gate(root, &layer)
    }

    /// Finishes construction, declaring the primary-output and pseudo-
    /// primary-output (next-state) nets.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadOutputs`] when an output net does not
    /// exist.
    pub fn finish(self, pos: Vec<NetId>, ppos: Vec<NetId>) -> Result<Netlist, NetlistError> {
        let num_nets = self.num_nets();
        for (k, &net) in pos.iter().enumerate() {
            if net as usize >= num_nets {
                return Err(NetlistError::BadOutputs {
                    message: format!(
                        "primary output {k} references net {net}, but only {num_nets} nets exist"
                    ),
                });
            }
        }
        for (k, &net) in ppos.iter().enumerate() {
            if net as usize >= num_nets {
                return Err(NetlistError::BadOutputs {
                    message: format!(
                        "next-state output {k} references net {net}, but only {num_nets} nets exist"
                    ),
                });
            }
        }
        // Fanouts in CSR form, filled in gate order so each net's readers
        // come out ascending, once per reading pin.
        let inputs = self.num_pis + self.num_ppis;
        let mut fanout_start = vec![0u32; num_nets + 1];
        for &net in &self.fanins {
            fanout_start[net as usize + 1] += 1;
        }
        for n in 1..fanout_start.len() {
            fanout_start[n] += fanout_start[n - 1];
        }
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![0u32; self.fanins.len()];
        let mut level: Vec<u32> = vec![0; num_nets];
        for (g, pins) in self.fanin_start.windows(2).enumerate() {
            let mut lvl = 0;
            for &input in &self.fanins[pins[0] as usize..pins[1] as usize] {
                let slot = &mut fill[input as usize];
                fanouts[*slot as usize] = g as u32;
                *slot += 1;
                lvl = lvl.max(level[input as usize] + 1);
            }
            level[inputs + g] = lvl;
        }
        let obs = scanft_obs::global();
        obs.counter("netlist.built").inc();
        obs.counter("netlist.gates_built")
            .add(self.kinds.len() as u64);
        Ok(Netlist {
            num_pis: self.num_pis,
            num_ppis: self.num_ppis,
            kinds: self.kinds,
            fanin_start: self.fanin_start,
            fanins: self.fanins,
            fanout_start,
            fanouts,
            pos,
            ppos,
            level,
        })
    }
}

/// A CSR offset as `u32`. A netlist whose pin count overflows it is far
/// outside this crate's benchmark-scale envelope, so fail loudly instead of
/// truncating.
fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("netlist too large for u32 CSR offsets")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_forward_references() {
        let mut b = NetlistBuilder::new(1, 0);
        let err = b.add_gate(GateKind::And, &[0, 7]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::UnknownNet {
                net: 7,
                num_nets: 1,
                reference: "input 1 of AND gate g0".into(),
            }
        );
    }

    #[test]
    fn rejects_bad_fanin() {
        let mut b = NetlistBuilder::new(2, 0);
        assert!(b.add_gate(GateKind::Not, &[0, 1]).is_err());
        assert!(b.add_gate(GateKind::And, &[]).is_err());
        assert!(b.add_gate(GateKind::Buf, &[]).is_err());
    }

    #[test]
    fn rejects_bad_outputs() {
        let b = NetlistBuilder::new(1, 0);
        assert!(b.finish(vec![5], vec![]).is_err());
    }

    #[test]
    fn tree_respects_max_fanin_and_function() {
        let mut b = NetlistBuilder::new(7, 0);
        let inputs: Vec<NetId> = (0..7).collect();
        let root = b.add_tree(GateKind::And, &inputs, 2).unwrap();
        let n = b.finish(vec![root], vec![]).unwrap();
        for g in 0..n.num_gates() {
            assert!(n.fanins(g).len() <= 2);
            assert_eq!(n.kind(g), GateKind::And);
        }
        // Functional check over all 128 input combinations via eval by hand.
        for pattern in 0u32..128 {
            let mut vals = vec![0u64; n.num_nets()];
            for (k, val) in vals.iter_mut().enumerate().take(7) {
                *val = if pattern >> k & 1 == 1 { u64::MAX } else { 0 };
            }
            for g in 0..n.num_gates() {
                let ins: Vec<u64> = n.fanins(g).iter().map(|&i| vals[i as usize]).collect();
                vals[n.gate_output(g) as usize] = n.kind(g).eval_words(&ins);
            }
            let expect = if pattern == 127 { u64::MAX } else { 0 };
            assert_eq!(vals[root as usize], expect, "pattern {pattern}");
        }
    }

    #[test]
    fn tree_single_input_identity_and_inversion() {
        let mut b = NetlistBuilder::new(1, 0);
        assert_eq!(b.add_tree(GateKind::And, &[0], 4).unwrap(), 0);
        assert!(b.kinds.is_empty());
        let n = b.add_tree(GateKind::Nand, &[0], 4).unwrap();
        assert_eq!(b.kinds, vec![GateKind::Not]);
        assert_eq!(n, 1);
    }

    #[test]
    fn nand_tree_inverts_only_root() {
        let mut b = NetlistBuilder::new(5, 0);
        let inputs: Vec<NetId> = (0..5).collect();
        let root = b.add_tree(GateKind::Nand, &inputs, 2).unwrap();
        let n = b.finish(vec![root], vec![]).unwrap();
        let nands = (0..n.num_gates())
            .filter(|&g| n.kind(g) == GateKind::Nand)
            .count();
        assert_eq!(nands, 1);
        // Root must be the NAND.
        assert_eq!(n.kind(n.driver_index(root).unwrap()), GateKind::Nand);
    }

    #[test]
    fn fanouts_ascend_and_keep_one_entry_per_pin() {
        // x1 feeds g2 twice (both pins) and g0 once; g1 reads g0.
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n1 = b.add_gate(GateKind::Not, &[a]).unwrap();
        let x = b.add_gate(GateKind::Xor, &[0, 0]).unwrap();
        let n = b.finish(vec![n1, x], vec![]).unwrap();
        assert_eq!(n.fanout(0), &[0, 2, 2]);
        assert_eq!(n.fanout(1), &[0]);
        assert_eq!(n.fanout(a), &[1]);
        assert!(n.fanout(x).is_empty());
        assert_eq!(n.fanins(2), &[0, 0]);
        assert_eq!(n.level(x), 1);
        assert_eq!(n.level(n1), 2);
    }

    #[test]
    fn tree_rejects_degenerate_args() {
        let mut b = NetlistBuilder::new(2, 0);
        assert!(b.add_tree(GateKind::And, &[], 2).is_err());
        assert!(b.add_tree(GateKind::And, &[0, 1], 1).is_err());
    }
}
