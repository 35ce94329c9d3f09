//! Flattened, cache-friendly evaluation arena for a [`Netlist`].
//!
//! [`Netlist`] stores each gate as a `Gate { kind, inputs: Vec<NetId> }`,
//! which is convenient to build but hostile to the simulation hot loop:
//! every gate evaluation chases a separate heap allocation for its fanins,
//! and per-net fanout lists are a `Vec<Vec<u32>>`. A [`GateArena`] flattens
//! both into compressed-sparse-row form — one contiguous fanin array, one
//! contiguous fanout array, `u32` offsets — and groups gate indices into
//! *topological batches* (all gates of one logic level), so a kernel walks
//! a handful of dense arrays in order instead of pointer-hopping.
//!
//! The arena is built once per netlist and shared read-only (typically via
//! `Arc`) by every evaluator and fault engine of a campaign; it holds no
//! mutable state.

use crate::net::{GateKind, Netlist};
use crate::NetId;

/// Compressed-sparse-row view of a netlist's gates, fanins and fanouts.
///
/// Gate `g`'s output net is `num_pis + num_ppis + g`, exactly as in the
/// source [`Netlist`]; the arena adds no renumbering, so values indexed by
/// net id are interchangeable between arena-driven and netlist-driven
/// evaluation.
#[derive(Debug, Clone)]
pub struct GateArena {
    num_pis: usize,
    num_ppis: usize,
    kinds: Vec<GateKind>,
    /// CSR offsets into `fanins`: gate `g` reads `fanins[fanin_start[g] ..
    /// fanin_start[g + 1]]`.
    fanin_start: Vec<u32>,
    fanins: Vec<NetId>,
    /// CSR offsets into `fanouts`: net `n` feeds gates `fanouts[
    /// fanout_start[n] .. fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanouts: Vec<u32>,
    /// Gate indices stably sorted by logic level — a valid topological
    /// order in which all gates of one level are adjacent.
    schedule: Vec<u32>,
    /// CSR offsets into `schedule`: level `l` spans `schedule[
    /// level_start[l] .. level_start[l + 1]]`.
    level_start: Vec<u32>,
}

impl GateArena {
    /// Flattens `netlist` into an arena.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        let num_gates = netlist.num_gates();
        let num_nets = netlist.num_nets();

        let mut kinds = Vec::with_capacity(num_gates);
        let mut fanin_start = Vec::with_capacity(num_gates + 1);
        let mut fanins = Vec::new();
        fanin_start.push(0u32);
        for gate in netlist.gates() {
            kinds.push(gate.kind);
            fanins.extend_from_slice(&gate.inputs);
            fanins_len_guard(fanins.len());
            fanin_start.push(fanins.len() as u32);
        }

        let mut fanout_start = Vec::with_capacity(num_nets + 1);
        let mut fanouts = Vec::new();
        fanout_start.push(0u32);
        for net in 0..num_nets {
            fanouts.extend_from_slice(netlist.fanout(net as NetId));
            fanins_len_guard(fanouts.len());
            fanout_start.push(fanouts.len() as u32);
        }

        let depth = netlist.depth() as usize;
        let mut schedule: Vec<u32> = (0..num_gates as u32).collect();
        schedule.sort_by_key(|&g| netlist.level(netlist.gate_output(g as usize)));
        let mut level_start = vec![0u32; depth + 2];
        for &g in &schedule {
            let level = netlist.level(netlist.gate_output(g as usize)) as usize;
            level_start[level + 1] += 1;
        }
        for l in 1..level_start.len() {
            level_start[l] += level_start[l - 1];
        }

        GateArena {
            num_pis: netlist.num_pis(),
            num_ppis: netlist.num_ppis(),
            kinds,
            fanin_start,
            fanins,
            fanout_start,
            fanouts,
            schedule,
            level_start,
        }
    }

    /// Number of gates in the arena.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Total number of nets (PIs + PPIs + gate outputs).
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_pis + self.num_ppis + self.kinds.len()
    }

    /// Logic function of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn kind(&self, g: usize) -> GateKind {
        self.kinds[g]
    }

    /// Fanin nets of gate `g`, in pin order (contiguous slice).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    #[must_use]
    pub fn fanins(&self, g: usize) -> &[NetId] {
        &self.fanins[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    /// Indices of the gates reading `net` (contiguous slice).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    #[must_use]
    pub fn fanouts(&self, net: NetId) -> &[u32] {
        &self.fanouts
            [self.fanout_start[net as usize] as usize..self.fanout_start[net as usize + 1] as usize]
    }

    /// Output net of gate `g`.
    #[must_use]
    pub fn gate_output(&self, g: usize) -> NetId {
        (self.num_pis + self.num_ppis + g) as NetId
    }

    /// All gate indices in level order (a valid topological order with the
    /// gates of each level adjacent).
    #[must_use]
    pub fn schedule(&self) -> &[u32] {
        &self.schedule
    }

    /// The gate indices of topological batch (logic level) `level`, `1 +
    /// depth` batches in all; PIs/PPIs occupy level 0, so batch 0 is empty
    /// unless the netlist has zero-level gates.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    #[must_use]
    pub fn level_batch(&self, level: usize) -> &[u32] {
        &self.schedule[self.level_start[level] as usize..self.level_start[level + 1] as usize]
    }

    /// Number of topological batches (`depth + 1`).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }
}

/// The CSR offsets are `u32`; a netlist that overflows them is far outside
/// this crate's benchmark-scale envelope, so fail loudly instead of
/// truncating.
fn fanins_len_guard(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "netlist too large for u32 CSR offsets"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn diamond() -> Netlist {
        // x1, x2, y1; a = AND(x1, x2); n = NOT(y1); o = OR(a, n).
        let mut b = NetlistBuilder::new(2, 1);
        let a = b.add_gate(GateKind::And, &[b.pi(0), b.pi(1)]).unwrap();
        let n = b.add_gate(GateKind::Not, &[b.ppi(0)]).unwrap();
        let o = b.add_gate(GateKind::Or, &[a, n]).unwrap();
        b.finish(vec![o], vec![a]).unwrap()
    }

    #[test]
    fn arena_mirrors_the_netlist() {
        let netlist = diamond();
        let arena = GateArena::build(&netlist);
        assert_eq!(arena.num_gates(), netlist.num_gates());
        assert_eq!(arena.num_nets(), netlist.num_nets());
        for g in 0..netlist.num_gates() {
            assert_eq!(arena.kind(g), netlist.gates()[g].kind, "gate {g}");
            assert_eq!(arena.fanins(g), netlist.gates()[g].inputs.as_slice());
            assert_eq!(arena.gate_output(g), netlist.gate_output(g));
        }
        for net in 0..netlist.num_nets() as NetId {
            assert_eq!(arena.fanouts(net), netlist.fanout(net), "net {net}");
        }
    }

    #[test]
    fn schedule_is_topological_and_level_batched() {
        let netlist = diamond();
        let arena = GateArena::build(&netlist);
        let mut seen = vec![false; arena.num_nets()];
        for slot in seen.iter_mut().take(netlist.num_pis() + netlist.num_ppis()) {
            *slot = true;
        }
        for &g in arena.schedule() {
            for &fanin in arena.fanins(g as usize) {
                assert!(seen[fanin as usize], "gate {g} before its driver");
            }
            seen[arena.gate_output(g as usize) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "schedule covers every gate");

        // Batches partition the schedule and agree with net levels.
        assert_eq!(arena.num_levels() as u32, netlist.depth() + 1);
        let mut total = 0;
        for level in 0..arena.num_levels() {
            for &g in arena.level_batch(level) {
                assert_eq!(
                    netlist.level(netlist.gate_output(g as usize)) as usize,
                    level
                );
                total += 1;
            }
        }
        assert_eq!(total, arena.num_gates());
    }

    #[test]
    fn gateless_netlist_has_an_empty_arena() {
        let b = NetlistBuilder::new(1, 1);
        let pi = b.pi(0);
        let ppi = b.ppi(0);
        let netlist = b.finish(vec![pi], vec![ppi]).unwrap();
        let arena = GateArena::build(&netlist);
        assert_eq!(arena.num_gates(), 0);
        assert_eq!(arena.num_nets(), 2);
        assert!(arena.schedule().is_empty());
        assert!(arena.fanouts(0).is_empty());
    }
}
