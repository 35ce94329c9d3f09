//! Technology mapping: covers to a bounded-fanin gate netlist.
//!
//! Each single-output cover becomes a two-level AND-OR structure decomposed
//! into gates of at most `max_fanin` inputs:
//!
//! - one shared inverter per input variable (created lazily);
//! - one AND tree per cube with more than one literal;
//! - one OR tree per cover with more than one cube.
//!
//! Constant functions get an explicit generator: constant 0 is `AND(x, !x)`
//! and constant 1 is `OR(x, !x)` over the first input variable. These
//! introduce combinationally redundant faults — exactly the kind the paper
//! reports as undetectable under full scan in Table 6.

use scanft_netlist::{GateKind, NetId, NetlistBuilder};

use crate::cover::{Cover, LogicSpec};

/// Netlist-construction state shared across all covers of one machine.
pub(crate) struct Mapper {
    pub(crate) builder: NetlistBuilder,
    max_fanin: usize,
    /// Lazily-created inverted versions of the input variables.
    inverted: Vec<Option<NetId>>,
    num_vars: usize,
    num_inputs: usize,
}

impl Mapper {
    pub(crate) fn new(spec: &LogicSpec, max_fanin: usize) -> Self {
        Mapper {
            builder: NetlistBuilder::new(spec.num_inputs, spec.num_vars - spec.num_inputs),
            max_fanin,
            inverted: vec![None; spec.num_vars],
            num_vars: spec.num_vars,
            num_inputs: spec.num_inputs,
        }
    }

    /// Net for variable `v` (PI for low variables, PPI above).
    fn var_net(&self, v: usize) -> NetId {
        if v < self.num_inputs {
            self.builder.pi(v)
        } else {
            self.builder.ppi(v - self.num_inputs)
        }
    }

    /// Net for the literal of variable `v` with the given phase, creating a
    /// shared inverter on first negative use.
    fn literal(&mut self, v: usize, positive: bool) -> NetId {
        let net = self.var_net(v);
        if positive {
            return net;
        }
        if let Some(inv) = self.inverted[v] {
            return inv;
        }
        let inv = self
            .builder
            .add_gate(GateKind::Not, &[net])
            .expect("inverter of an existing net");
        self.inverted[v] = Some(inv);
        inv
    }

    /// Maps one cover to a net computing it.
    pub(crate) fn map_cover(&mut self, cover: &Cover) -> NetId {
        if cover.cubes.is_empty() {
            return self.constant(false);
        }
        // A single cube with no cares is the constant-1 function.
        if cover.cubes.iter().any(|c| c.mask == 0) {
            return self.constant(true);
        }
        let mut cube_nets: Vec<NetId> = Vec::with_capacity(cover.cubes.len());
        for cube in &cover.cubes {
            let mut literals: Vec<NetId> = Vec::new();
            for v in 0..self.num_vars {
                if cube.mask >> v & 1 == 1 {
                    let positive = cube.value >> v & 1 == 1;
                    literals.push(self.literal(v, positive));
                }
            }
            let net = self
                .builder
                .add_tree(GateKind::And, &literals, self.max_fanin)
                .expect("cube has at least one literal");
            cube_nets.push(net);
        }
        self.builder
            .add_tree(GateKind::Or, &cube_nets, self.max_fanin)
            .expect("cover has at least one cube")
    }

    /// Builds a constant net as `AND(x1, !x1)` or `OR(x1, !x1)`.
    fn constant(&mut self, one: bool) -> NetId {
        let x = self.var_net(0);
        let nx = self.literal(0, false);
        let kind = if one { GateKind::Or } else { GateKind::And };
        self.builder
            .add_gate(kind, &[x, nx])
            .expect("constant generator over existing nets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{extract, Cube};
    use crate::Encoding;

    fn eval_net(netlist: &scanft_netlist::Netlist, point: u32, net: NetId) -> bool {
        let mut vals = vec![0u64; netlist.num_nets()];
        let inputs = netlist.num_pis() + netlist.num_ppis();
        for (v, val) in vals.iter_mut().enumerate().take(inputs) {
            *val = if point >> v & 1 == 1 { u64::MAX } else { 0 };
        }
        for g in 0..netlist.num_gates() {
            let ins: Vec<u64> = netlist
                .fanins(g)
                .iter()
                .map(|&i| vals[i as usize])
                .collect();
            vals[netlist.gate_output(g) as usize] = netlist.kind(g).eval_words(&ins);
        }
        vals[net as usize] != 0
    }

    #[test]
    fn maps_simple_cover_correctly() {
        // f = x1'x2 + x3 over 3 PIs (variables v0=x1 ... note net naming is
        // 1-based, variables 0-based).
        let cover = Cover {
            cubes: vec![
                Cube {
                    mask: 0b011,
                    value: 0b010,
                },
                Cube {
                    mask: 0b100,
                    value: 0b100,
                },
            ],
            num_vars: 3,
        };
        let spec = crate::cover::LogicSpec {
            covers: vec![cover.clone()],
            num_outputs: 1,
            num_state_vars: 0,
            num_vars: 3,
            num_inputs: 3,
        };
        let mut mapper = Mapper::new(&spec, 4);
        let net = mapper.map_cover(&cover);
        let n = mapper.builder.finish(vec![net], vec![]).unwrap();
        for p in 0..8u32 {
            assert_eq!(eval_net(&n, p, net), cover.eval(p), "p={p:03b}");
        }
    }

    #[test]
    fn constant_covers() {
        let spec = crate::cover::LogicSpec {
            covers: vec![],
            num_outputs: 0,
            num_state_vars: 0,
            num_vars: 2,
            num_inputs: 2,
        };
        let zero_cover = Cover {
            cubes: vec![],
            num_vars: 2,
        };
        let one_cover = Cover {
            cubes: vec![Cube { mask: 0, value: 0 }],
            num_vars: 2,
        };
        let mut mapper = Mapper::new(&spec, 4);
        let z = mapper.map_cover(&zero_cover);
        let o = mapper.map_cover(&one_cover);
        let n = mapper.builder.finish(vec![z, o], vec![]).unwrap();
        for p in 0..4u32 {
            assert!(!eval_net(&n, p, z));
            assert!(eval_net(&n, p, o));
        }
    }

    #[test]
    fn inverters_are_shared() {
        let lion = scanft_fsm::benchmarks::lion();
        let spec = extract(&lion, Encoding::Binary);
        let mut mapper = Mapper::new(&spec, 4);
        for cover in &spec.covers {
            mapper.map_cover(cover);
        }
        let inverter_count = mapper
            .builder
            .clone()
            .finish(vec![], vec![])
            .unwrap()
            .stats()
            .num_not;
        // At most one inverter per variable.
        assert!(inverter_count <= spec.num_vars);
    }
}
