//! Lane-parallel fault simulation (64- and 256-way).
//!
//! The engine simulates one fault per bit lane of a [`LaneWord`]: with the
//! default `u64` word a batch holds 64 faults, with [`crate::word::W256`]
//! 256. Every net carries a lane word whose lane `l` is the value under
//! fault `l` of the current batch. Faulty next-state words feed the next
//! cycle's present-state lines, so faulty-state propagation across the
//! cycles of a test — the effect that makes multi-transition functional
//! tests interesting — is captured per lane. A fault is detected when its
//! lane differs from the fault-free response at a primary output in any
//! cycle, or in the scanned-out final state (exactly the paper's
//! observation model).
//!
//! Evaluation walks the netlist's flat gate arrays (contiguous fanins and
//! fanouts, `u32` indices); a full pass sweeps the gates in id order, which
//! is topological.
//!
//! # Injection
//!
//! - stuck-at **stem** faults force a net's word in their lane after the net
//!   is driven (and at PI/PPI load);
//! - stuck-at **branch** faults force the value read by one specific gate
//!   input pin;
//! - **bridging** faults replace the value read from either bridged net by
//!   the wired-AND/OR of the two driven values. Because qualifying pairs
//!   are non-feedback (no structural path either way), neither driven value
//!   depends on the bridge, so evaluating the netlist **twice** per cycle
//!   yields exact values: the first pass settles both driven values, the
//!   second re-derives every consumer from the bridged readings.
//!
//! # Event-driven PPSFP
//!
//! For stuck-only batches, [`InjectionPlan::event_driven`] additionally
//! computes the union of the batch's [`FaultCone`]s and
//! [`FaultEngine::run_test_event_driven`] evaluates **only** the gates in
//! that union, reading every other net's value from a precomputed
//! fault-free [`GoodTrace`]. Within the cone a worklist — one bit per cone
//! position, drained lowest position first — runs only the gates that carry
//! a live force or read a net deviating from the trace, so unperturbed (or
//! already-detected) lanes cost nothing. Soundness: a net outside the cone
//! union provably carries the fault-free value in every lane (the cone is
//! closed under structural fanout *and* the scan boundary), and a cone
//! gate with clean fanins, no stem force and no branch force reproduces the
//! fault-free output exactly — so skipping it cannot change any lane. A
//! cone union that spans every gate restricts nothing; such a batch runs
//! the plain full pass, which is cheaper than the worklist bookkeeping.

use scanft_netlist::{FaultCone, NetId, Netlist};

use crate::faults::{BridgeKind, Fault, FaultSite};
use crate::logic::{eval_gate, GoodTrace};
use crate::word::LaneWord;
use crate::{ScanResponse, ScanTest};

// Delay-fault modelling note: a gross transition-delay fault on net `n`
// makes the value *read* from `n` in cycle `k` lag by one cycle whenever a
// transition in the slow direction was launched at `k`:
//
//   late_k = slow_mask & (driven_k XOR-direction driven_{k-1})
//   observed_k = driven_k, with late lanes reading the previous value
//
// The driven value of `n` itself is unaffected (its cone cannot contain
// `n`), so a second evaluation pass — the same trick used for bridging
// faults — propagates the late readings exactly. No transition can be
// launched at the first cycle of a test (scan shifting is slow), so
// length-1 tests never detect delay faults, which is precisely the paper's
// at-speed argument for chaining transitions.

/// Lane-masked forcing of a value word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Force<W: LaneWord> {
    to_zero: W,
    to_one: W,
}

impl<W: LaneWord> Force<W> {
    fn apply(self, word: W) -> W {
        (word | self.to_one) & !self.to_zero
    }

    fn is_noop(self) -> bool {
        self.to_zero.is_zero() && self.to_one.is_zero()
    }

    /// Adds a stuck-at-`one` force in the lanes of `mask`.
    fn add(&mut self, mask: W, one: bool) {
        if one {
            self.to_one |= mask;
        } else {
            self.to_zero |= mask;
        }
    }

    /// The lanes this force touches.
    fn lanes(self) -> W {
        self.to_zero | self.to_one
    }

    /// The force restricted to the lanes of `live`. The event-driven path
    /// masks every force so dropped lanes quiesce to fault-free values —
    /// observationally equivalent (detection is masked by `live` anyway)
    /// and strictly cheaper, since quiesced lanes stop generating events.
    fn masked(self, live: W) -> Force<W> {
        Force {
            to_zero: self.to_zero & live,
            to_one: self.to_one & live,
        }
    }
}

/// A bridge tap attached to one net: lanes in `mask` read the wired value
/// of (this net, `partner`) instead of the driven value.
#[derive(Debug, Clone, Copy)]
struct BridgeTap<W: LaneWord> {
    partner: NetId,
    mask: W,
    kind: BridgeKind,
}

/// A delay-fault attachment to one net: lanes in `rise_mask` are
/// slow-to-rise, lanes in `fall_mask` slow-to-fall.
#[derive(Debug, Clone, Copy)]
struct DelaySite<W: LaneWord> {
    net: NetId,
    rise_mask: W,
    fall_mask: W,
}

/// Prepared lane-parallel injection for a batch of at most `W::LANES`
/// faults (64 for the narrow kernel, 256 for the wide one).
#[derive(Debug, Clone)]
pub struct InjectionPlan<W: LaneWord = u64> {
    num_faults: usize,
    stem: Vec<Force<W>>,
    /// Branch forces grouped by gate (one per forced pin) and indexed by
    /// `branch_start`, so the per-gate lookup is a dense slice instead of a
    /// linear scan of the whole batch.
    branch: Vec<(u32, u32, Force<W>)>,
    /// CSR offsets into `branch` per gate (`num_gates + 1` entries); empty
    /// when the batch has no branch faults.
    branch_start: Vec<u32>,
    /// Bridge taps sorted by net and indexed by `tap_start`.
    taps: Vec<BridgeTap<W>>,
    /// CSR offsets into `taps` per net (`num_nets + 1` entries); empty when
    /// the batch has no bridging faults, making the common case branch-free.
    tap_start: Vec<u32>,
    /// Delay-faulted nets of the batch.
    delays: Vec<DelaySite<W>>,
    has_bridges: bool,
    /// Union of the batch's fault cones (stuck-only batches built via
    /// [`InjectionPlan::event_driven`] whose cones leave some gate out);
    /// `None` forces full re-evaluation.
    cone: Option<FaultCone>,
    /// PI indices carrying a stem force — the only PIs the event-driven
    /// path must reload per cycle.
    forced_pis: Vec<u32>,
    /// Per-gate position inside `cone.gates` (`u32::MAX` for gates outside
    /// the cone); only populated alongside `cone`. The worklist is indexed
    /// by this position, which is topological.
    cone_pos: Vec<u32>,
    /// Cone positions of gates carrying a stem or branch force, each with
    /// the union of the lanes its forces touch — the worklist seeds,
    /// re-filtered per run with one AND against the live-lane mask.
    force_gates: Vec<(u32, W)>,
}

impl InjectionPlan<u64> {
    /// Builds the narrow (64-lane) injection plan for `faults`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 faults are supplied.
    #[must_use]
    pub fn new(netlist: &Netlist, faults: &[Fault]) -> Self {
        InjectionPlan::build(netlist, faults)
    }
}

impl<W: LaneWord> InjectionPlan<W> {
    /// Builds the injection plan for `faults` (one lane each).
    ///
    /// # Panics
    ///
    /// Panics if more than `W::LANES` faults are supplied.
    #[must_use]
    pub fn build(netlist: &Netlist, faults: &[Fault]) -> Self {
        assert!(
            faults.len() <= W::LANES,
            "a batch holds at most {} faults",
            W::LANES
        );
        let num_nets = netlist.num_nets();
        let mut stem = vec![Force::<W>::default(); num_nets];
        // Branch faults as (gate, pin, lane << 1 | stuck_at_one).
        let mut raw_branch: Vec<(u32, u32, u32)> = Vec::with_capacity(faults.len());
        let mut raw_taps: Vec<(NetId, BridgeTap<W>)> = Vec::new();
        let mut delays: Vec<DelaySite<W>> = Vec::new();
        let mut has_bridges = false;

        for (lane, fault) in faults.iter().enumerate() {
            let mask = W::lane_bit(lane);
            match *fault {
                Fault::Stuck(f) => match f.site {
                    FaultSite::Net(net) => stem[net as usize].add(mask, f.stuck_at_one),
                    FaultSite::Branch { gate, pin } => {
                        raw_branch.push((
                            gate,
                            pin,
                            (lane as u32) << 1 | u32::from(f.stuck_at_one),
                        ));
                    }
                },
                Fault::Bridge(f) => {
                    has_bridges = true;
                    let tap = |partner| BridgeTap {
                        partner,
                        mask,
                        kind: f.kind,
                    };
                    raw_taps.push((f.a, tap(f.b)));
                    raw_taps.push((f.b, tap(f.a)));
                }
                Fault::Delay(f) => {
                    let site = match delays.iter_mut().find(|d| d.net == f.net) {
                        Some(site) => site,
                        None => {
                            delays.push(DelaySite {
                                net: f.net,
                                rise_mask: W::zero(),
                                fall_mask: W::zero(),
                            });
                            delays.last_mut().expect("just pushed")
                        }
                    };
                    if f.slow_to_rise {
                        site.rise_mask |= mask;
                    } else {
                        site.fall_mask |= mask;
                    }
                }
            }
        }

        // Bucket the branch faults per gate (a counting sort whose buckets
        // are the CSR index) and merge the faults on one pin into one force.
        let mut branch: Vec<(u32, u32, Force<W>)> = Vec::with_capacity(raw_branch.len());
        let mut branch_start = Vec::new();
        if !raw_branch.is_empty() {
            let bucket = csr_offsets(netlist.num_gates(), raw_branch.iter().map(|b| b.0));
            let mut fill = bucket.clone();
            let mut by_gate = vec![(0u32, 0u32, 0u32); raw_branch.len()];
            for b in raw_branch {
                by_gate[fill[b.0 as usize] as usize] = b;
                fill[b.0 as usize] += 1;
            }
            branch_start.reserve_exact(bucket.len());
            branch_start.push(0);
            for range in bucket.windows(2) {
                let first = branch.len();
                for &(gate, pin, key) in &by_gate[range[0] as usize..range[1] as usize] {
                    let slot = match branch[first..].iter().position(|b| b.1 == pin) {
                        Some(i) => first + i,
                        None => {
                            branch.push((gate, pin, Force::default()));
                            branch.len() - 1
                        }
                    };
                    branch[slot]
                        .2
                        .add(W::lane_bit((key >> 1) as usize), key & 1 == 1);
                }
                branch_start.push(branch.len() as u32);
            }
        }

        // Merge bridge-tap duplicates and index them per net.
        raw_taps.sort_by_key(|&(net, tap)| (net, tap.partner, matches!(tap.kind, BridgeKind::Or)));
        let mut taps: Vec<BridgeTap<W>> = Vec::with_capacity(raw_taps.len());
        let mut tap_nets: Vec<NetId> = Vec::with_capacity(raw_taps.len());
        for (net, tap) in raw_taps {
            match (tap_nets.last(), taps.last_mut()) {
                (Some(&last_net), Some(last))
                    if last_net == net && last.partner == tap.partner && last.kind == tap.kind =>
                {
                    last.mask |= tap.mask;
                }
                _ => {
                    tap_nets.push(net);
                    taps.push(tap);
                }
            }
        }
        let tap_start = if taps.is_empty() {
            Vec::new()
        } else {
            csr_offsets(num_nets, tap_nets.iter().copied())
        };

        let forced_pis = (0..netlist.num_pis() as u32)
            .filter(|&k| !stem[netlist.pi(k as usize) as usize].is_noop())
            .collect();

        InjectionPlan {
            num_faults: faults.len(),
            stem,
            branch,
            branch_start,
            taps,
            tap_start,
            delays,
            has_bridges,
            cone: None,
            forced_pis,
            cone_pos: Vec::new(),
            force_gates: Vec::new(),
        }
    }

    /// Builds the plan **and**, for stuck-only batches, the union of the
    /// batch's fault cones so [`FaultEngine::run_test_event_driven`] can
    /// restrict evaluation to it. Batches containing bridging or delay
    /// faults get no cone (their effects are not confined to structural
    /// fanout) and transparently fall back to full evaluation, and so do
    /// batches whose cone union spans every gate: such a cone restricts
    /// nothing, and the full pass costs less than the worklist bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if more than `W::LANES` faults are supplied.
    #[must_use]
    pub fn event_driven(netlist: &Netlist, faults: &[Fault]) -> Self {
        let mut plan = Self::build(netlist, faults);
        if plan.has_bridges || plan.has_delays() {
            return plan;
        }
        // The seeds are read off the merged plan: every forced net, and
        // every gate with a forced input pin (`branch` is grouped by gate).
        let mut seed_nets: Vec<NetId> = Vec::with_capacity(netlist.num_nets());
        seed_nets.extend(
            (0..netlist.num_nets() as NetId).filter(|&net| !plan.stem[net as usize].is_noop()),
        );
        let mut seed_gates: Vec<u32> = plan.branch.iter().map(|&(g, _, _)| g).collect();
        seed_gates.dedup();
        let cone = FaultCone::compute(netlist, &seed_nets, &seed_gates);
        if cone.gates.len() == netlist.num_gates() {
            return plan;
        }
        let mut cone_pos = vec![u32::MAX; netlist.num_gates()];
        plan.force_gates.reserve_exact(cone.gates.len());
        for (pos, &g) in cone.gates.iter().enumerate() {
            cone_pos[g as usize] = pos as u32;
            let lanes = plan.branch_range(g as usize).iter().fold(
                plan.stem[netlist.gate_output(g as usize) as usize].lanes(),
                |acc, b| acc | b.2.lanes(),
            );
            if !lanes.is_zero() {
                plan.force_gates.push((pos as u32, lanes));
            }
        }
        plan.cone_pos = cone_pos;
        plan.cone = Some(cone);
        plan
    }

    /// Whether the batch contains delay faults (needs launch cycles).
    #[must_use]
    pub fn has_delays(&self) -> bool {
        !self.delays.is_empty()
    }

    /// Number of lanes in use.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.num_faults
    }

    /// Lane mask covering the batch (`num_faults` low lanes).
    #[must_use]
    pub fn lane_mask(&self) -> W {
        W::low_lanes(self.num_faults)
    }

    /// The batch's cone union, when built via
    /// [`InjectionPlan::event_driven`] on a stuck-only batch whose cones
    /// leave some gate out.
    #[must_use]
    pub fn cone(&self) -> Option<&FaultCone> {
        self.cone.as_ref()
    }

    /// Branch forces of gate `g` (one per forced pin; empty for most gates).
    #[inline]
    fn branch_range(&self, g: usize) -> &[(u32, u32, Force<W>)] {
        if self.branch_start.is_empty() {
            return &[];
        }
        &self.branch[self.branch_start[g] as usize..self.branch_start[g + 1] as usize]
    }

    fn read(&self, net: NetId, values: &[W], late: &[Force<W>]) -> W {
        let mut word = values[net as usize];
        if !self.tap_start.is_empty() {
            let taps = &self.taps
                [self.tap_start[net as usize] as usize..self.tap_start[net as usize + 1] as usize];
            for tap in taps {
                let wired = match tap.kind {
                    BridgeKind::And => values[net as usize] & values[tap.partner as usize],
                    BridgeKind::Or => values[net as usize] | values[tap.partner as usize],
                };
                word = (word & !tap.mask) | (wired & tap.mask);
            }
        }
        if let Some(&force) = late.get(net as usize) {
            word = force.apply(word);
        }
        word
    }
}

/// The event-driven path's word for `net` at `cycle`: the faulty word when
/// the net deviates from the good trace, else the trace's fault-free value.
#[inline(always)]
fn current_word<W: LaneWord>(
    dirty: &[bool],
    values: &[W],
    trace: &GoodTrace,
    cycle: usize,
    net: NetId,
) -> W {
    if dirty[net as usize] {
        values[net as usize]
    } else {
        W::splat_bit(trace.bit(cycle, net))
    }
}

/// Sets bit `pos` of a bitset stored as `u64` words.
#[inline]
fn set_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] |= 1 << (pos % 64);
}

/// Builds CSR offsets (`buckets + 1` entries) for `keys`, each `< buckets`:
/// entry `k` counts the keys below `k`.
fn csr_offsets(buckets: usize, keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; buckets + 1];
    for key in keys {
        start[key as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    start
}

/// Reusable fault-parallel simulation state for one netlist.
#[derive(Debug)]
pub struct FaultEngine<'a, W: LaneWord = u64> {
    netlist: &'a Netlist,
    values: Vec<W>,
    /// Per-net late-reading overlay for delay faults, rebuilt every cycle.
    late: Vec<Force<W>>,
    /// Nets whose `late` slot may be non-default from a previous run —
    /// cleared on the next run so engines can be reused across batches
    /// with different plans.
    late_dirty: Vec<NetId>,
    /// Previous-cycle driven values of the delay-faulted nets, parallel to
    /// the plan's delay list.
    delay_prev: Vec<W>,
    /// Per-PPI captured-state scratch, reused across runs.
    state_words: Vec<W>,
    /// Event-driven state: per-net "deviates from the good trace" flags
    /// and the list of nets marked this cycle.
    dirty: Vec<bool>,
    touched: Vec<NetId>,
    /// The worklist: one bit per cone position, queued for evaluation this
    /// cycle. All zero after every drain.
    work: Vec<u64>,
    /// Per-run worklist seeds, as bits over cone positions: the gates
    /// whose forces survive the live-lane mask. Copied into `work` at the
    /// start of every cycle.
    seeds: Vec<u64>,
    /// Gate evaluations performed since construction (or the last
    /// [`FaultEngine::take_gate_evals`]) — the kernel's work metric.
    gate_evals: u64,
}

impl<'a, W: LaneWord> FaultEngine<'a, W> {
    /// Creates an engine for `netlist` (`FaultEngine::<W256>::new` is the
    /// wide kernel). Engines borrow the netlist and own only per-run
    /// scratch, so per-thread engines of a campaign are cheap.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        FaultEngine {
            netlist,
            values: vec![W::zero(); netlist.num_nets()],
            late: Vec::new(),
            late_dirty: Vec::new(),
            delay_prev: Vec::new(),
            state_words: Vec::new(),
            dirty: Vec::new(),
            touched: Vec::new(),
            work: Vec::new(),
            seeds: Vec::new(),
            gate_evals: 0,
        }
    }

    /// Gate evaluations performed so far (work metric for benchmarks).
    #[must_use]
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Returns and resets the gate-evaluation counter.
    pub fn take_gate_evals(&mut self) -> u64 {
        std::mem::take(&mut self.gate_evals)
    }

    /// Clears any late-reading overlay left by a previous plan and
    /// registers this plan's delay sites as the new dirty set.
    fn reset_late_overlay(&mut self, plan: &InjectionPlan<W>) {
        for net in self.late_dirty.drain(..) {
            if let Some(slot) = self.late.get_mut(net as usize) {
                *slot = Force::default();
            }
        }
        if plan.has_delays() {
            if self.late.len() != self.netlist.num_nets() {
                self.late = vec![Force::default(); self.netlist.num_nets()];
            }
            self.late_dirty
                .extend(plan.delays.iter().map(|site| site.net));
        }
    }

    /// Simulates `test` under the batch `plan`, given the precomputed
    /// fault-free response, and returns the mask of lanes whose fault was
    /// detected (PO mismatch at any cycle or final-state mismatch).
    ///
    /// `skip_lanes` marks lanes that need no simulation (already detected by
    /// an earlier test); they are excluded from the result. The test is cut
    /// short once every live lane has been detected.
    #[must_use]
    pub fn run_test(
        &mut self,
        test: &ScanTest,
        fault_free: &ScanResponse,
        plan: &InjectionPlan<W>,
        skip_lanes: W,
    ) -> W {
        self.run_test_observing(test, fault_free, plan, skip_lanes, true)
    }

    /// Like [`FaultEngine::run_test`], but with the final scan-out
    /// comparison made optional: pass `observe_scan_out = false` to model a
    /// **non-scan** application where only the primary outputs are observed
    /// (the setting of the paper's references \[2\]\[3\], used by the
    /// scan-vs-non-scan ablation).
    #[must_use]
    pub fn run_test_observing(
        &mut self,
        test: &ScanTest,
        fault_free: &ScanResponse,
        plan: &InjectionPlan<W>,
        skip_lanes: W,
        observe_scan_out: bool,
    ) -> W {
        debug_assert_eq!(fault_free.outputs.len(), test.inputs.len());
        self.run_test_full(
            test,
            &fault_free.outputs,
            fault_free.final_code,
            plan,
            skip_lanes,
            observe_scan_out,
        )
    }

    /// Stores `word` as the value of `net`; if it deviates from the
    /// fault-free value `good`, marks the net dirty and queues its in-cone
    /// fanout gates.
    #[inline]
    fn settle(&mut self, plan: &InjectionPlan<W>, net: NetId, word: W, good: W) {
        self.values[net as usize] = word;
        if word == good {
            return;
        }
        self.dirty[net as usize] = true;
        self.touched.push(net);
        for &g in self.netlist.fanout(net) {
            let pos = plan.cone_pos[g as usize];
            if pos != u32::MAX {
                set_bit(&mut self.work, pos as usize);
            }
        }
    }

    /// Evaluates one cone gate against the good trace: clean fanins read
    /// through from the trace, branch and stem forces applied under the
    /// live mask; a deviating output is marked dirty and its in-cone
    /// fanouts queued.
    #[inline]
    fn eval_cone_gate(
        &mut self,
        plan: &InjectionPlan<W>,
        trace: &GoodTrace,
        cycle: usize,
        g: usize,
        live: W,
    ) {
        let netlist = self.netlist;
        let out = netlist.gate_output(g);
        let fanins = netlist.fanins(g);
        let branch = plan.branch_range(g);
        self.gate_evals += 1;
        let (dirty, values) = (&self.dirty, &self.values);
        let word = if branch.is_empty() {
            eval_gate(
                netlist.kind(g),
                fanins
                    .iter()
                    .map(|&f| current_word(dirty, values, trace, cycle, f)),
            )
        } else {
            eval_gate(
                netlist.kind(g),
                fanins.iter().enumerate().map(|(pin, &f)| {
                    branch
                        .iter()
                        .filter(|b| b.1 as usize == pin)
                        .fold(current_word(dirty, values, trace, cycle, f), |v, b| {
                            b.2.masked(live).apply(v)
                        })
                }),
            )
        };
        let word = plan.stem[out as usize].masked(live).apply(word);
        self.settle(plan, out, word, W::splat_bit(trace.bit(cycle, out)));
    }

    /// Event-driven PPSFP variant of [`FaultEngine::run_test_observing`]:
    /// given the fault-free `trace` of `test`, evaluates only the gates of
    /// the plan's cone union whose fanins deviate from the trace. Falls
    /// back to full evaluation when the plan carries no cone (non-stuck
    /// batches, cones spanning every gate, or plans built with
    /// [`InjectionPlan::build`]).
    ///
    /// Detection results are bit-identical to the full path in every live
    /// lane.
    #[must_use]
    pub fn run_test_event_driven(
        &mut self,
        test: &ScanTest,
        trace: &GoodTrace,
        plan: &InjectionPlan<W>,
        skip_lanes: W,
        observe_scan_out: bool,
    ) -> W {
        debug_assert_eq!(trace.num_cycles(), test.inputs.len());
        let Some(cone) = plan.cone.as_ref() else {
            return self.run_test_full(
                test,
                trace.outputs(),
                trace.final_code(),
                plan,
                skip_lanes,
                observe_scan_out,
            );
        };
        let live = plan.lane_mask() & !skip_lanes;
        if live.is_zero() {
            return W::zero();
        }
        let netlist = self.netlist;
        let num_ppis = netlist.num_ppis();
        let mut detected = W::zero();

        if self.dirty.len() != netlist.num_nets() {
            self.dirty = vec![false; netlist.num_nets()];
        }
        debug_assert!(self.touched.is_empty());

        // Worklist seeds for this run: forced gates whose forces survive
        // the live mask. Dropped lanes' forces are masked to noops, so a
        // mostly-detected batch seeds (and evaluates) almost nothing.
        let words = cone.gates.len().div_ceil(64);
        self.seeds.clear();
        self.seeds.resize(words, 0);
        for &(pos, lanes) in &plan.force_gates {
            if !(lanes & live).is_zero() {
                set_bit(&mut self.seeds, pos as usize);
            }
        }
        self.work.resize(words, 0);

        let mut state_words = std::mem::take(&mut self.state_words);
        state_words.clear();
        state_words.extend((0..num_ppis).map(|k| W::splat_bit(test.init_code >> k & 1 == 1)));

        for (cycle, &input) in test.inputs.iter().enumerate() {
            self.work.copy_from_slice(&self.seeds);
            // Forced PIs: the only primary inputs that can deviate.
            for &k in &plan.forced_pis {
                let net = netlist.pi(k as usize);
                let good = W::splat_bit(input >> k & 1 == 1);
                let word = plan.stem[net as usize].masked(live).apply(good);
                self.settle(plan, net, word, good);
            }
            // PPIs: reload the captured faulty state every cycle.
            for (k, &word) in state_words.iter().enumerate() {
                let net = netlist.ppi(k);
                let word = plan.stem[net as usize].masked(live).apply(word);
                self.settle(plan, net, word, W::splat_bit(trace.bit(cycle, net)));
            }
            // Drain the worklist lowest position first: every queued gate
            // carries a live force or has a fanin that deviates. Cone
            // positions follow `cone.gates`, which is topological, so a
            // gate queues its fanouts only at positions above its own. A
            // forward sweep that re-reads the current word after each
            // evaluation therefore sees every event, and runs each gate
            // once per cycle, after all of its fanin events.
            for w in 0..words {
                while self.work[w] != 0 {
                    let bit = self.work[w].trailing_zeros() as usize;
                    self.work[w] &= self.work[w] - 1;
                    let g = cone.gates[w * 64 + bit] as usize;
                    self.eval_cone_gate(plan, trace, cycle, g, live);
                    debug_assert_eq!(
                        self.work[w] & (u64::MAX >> (63 - bit)),
                        0,
                        "a gate queued a fanout at or below its own cone position"
                    );
                }
            }
            debug_assert!(
                self.work.iter().all(|&w| w == 0),
                "a gate queued a fanout behind the sweep"
            );

            // Observe POs: only dirty nets can deviate from the reference.
            let ff_out = trace.outputs()[cycle];
            for (z, &net) in netlist.pos().iter().enumerate() {
                if self.dirty[net as usize] {
                    let reference = W::splat_bit(ff_out >> z & 1 == 1);
                    detected |= (self.values[net as usize] ^ reference) & live;
                }
            }
            // Capture next state per lane (good values read through).
            for (slot, &net) in state_words.iter_mut().zip(netlist.ppos()) {
                *slot = current_word(&self.dirty, &self.values, trace, cycle, net);
            }
            // Clear the dirty flags so the next cycle starts clean.
            for net in self.touched.drain(..) {
                self.dirty[net as usize] = false;
            }
            if detected == live {
                self.state_words = state_words;
                return detected;
            }
        }

        if observe_scan_out {
            for (k, &word) in state_words.iter().enumerate() {
                let reference = W::splat_bit(trace.final_code() >> k & 1 == 1);
                detected |= (word ^ reference) & live;
            }
        }
        self.state_words = state_words;
        detected
    }

    fn run_test_full(
        &mut self,
        test: &ScanTest,
        ff_outputs: &[u64],
        ff_final_code: u64,
        plan: &InjectionPlan<W>,
        skip_lanes: W,
        observe_scan_out: bool,
    ) -> W {
        let live = plan.lane_mask() & !skip_lanes;
        if live.is_zero() {
            return W::zero();
        }
        let netlist = self.netlist;
        let num_pis = netlist.num_pis();
        let num_ppis = netlist.num_ppis();
        let mut detected = W::zero();

        // Delay-fault state: late overlay (per net) and previous driven
        // values per delayed net.
        self.reset_late_overlay(plan);
        self.delay_prev.clear();
        self.delay_prev.resize(plan.delays.len(), W::zero());

        // Scan-in: broadcast the initial code, then stem forces on PPIs.
        let mut state_words = std::mem::take(&mut self.state_words);
        state_words.clear();
        state_words.extend((0..num_ppis).map(|k| W::splat_bit(test.init_code >> k & 1 == 1)));

        for (cycle, &input) in test.inputs.iter().enumerate() {
            // Load PIs (broadcast + stem forces).
            for k in 0..num_pis {
                let net = netlist.pi(k);
                let word = W::splat_bit(input >> k & 1 == 1);
                self.values[net as usize] = plan.stem[net as usize].apply(word);
            }
            // Load PPIs (per-lane faulty state + stem forces).
            for (k, &word) in state_words.iter().enumerate() {
                let net = netlist.ppi(k);
                self.values[net as usize] = plan.stem[net as usize].apply(word);
            }

            // Pass 1 settles the driven values (late overlay cleared).
            if plan.has_delays() {
                for site in &plan.delays {
                    self.late[site.net as usize] = Force::default();
                }
            }
            self.eval_pass(plan);
            // Compute late readings from this cycle's launches, then
            // re-derive all consumers in a second exact pass (the first
            // test cycle launches nothing: scan shifting is slow).
            let mut needs_second_pass = plan.has_bridges;
            if plan.has_delays() {
                for (site, prev) in plan.delays.iter().zip(self.delay_prev.iter_mut()) {
                    let driven = self.values[site.net as usize];
                    if cycle > 0 {
                        let late_rise = site.rise_mask & driven & !*prev;
                        let late_fall = site.fall_mask & !driven & *prev;
                        self.late[site.net as usize] = Force {
                            to_zero: late_rise,
                            to_one: late_fall,
                        };
                        needs_second_pass |= !late_rise.is_zero() || !late_fall.is_zero();
                    }
                    *prev = driven;
                }
            }
            if needs_second_pass {
                self.eval_pass(plan);
            }

            // Observe POs against the fault-free response.
            let ff_out = ff_outputs[cycle];
            for (z, &net) in netlist.pos().iter().enumerate() {
                let observed = plan.read(net, &self.values, &self.late);
                let reference = W::splat_bit(ff_out >> z & 1 == 1);
                detected |= (observed ^ reference) & live;
            }

            // Capture next state per lane (bridged/late readings included).
            for (k, slot) in state_words.iter_mut().enumerate() {
                *slot = plan.read(netlist.ppos()[k], &self.values, &self.late);
            }

            if detected == live {
                self.state_words = state_words;
                return detected;
            }
        }

        // Scan-out: compare the captured final state.
        if observe_scan_out {
            for (k, &word) in state_words.iter().enumerate() {
                let reference = W::splat_bit(ff_final_code >> k & 1 == 1);
                detected |= (word ^ reference) & live;
            }
        }
        self.state_words = state_words;
        detected
    }

    /// Evaluates one combinational cycle with **pattern-parallel lanes**:
    /// each bit lane carries a different (input, state) point while the
    /// plan's faults are injected in every lane (build the plan from
    /// `W::LANES` copies of one fault). Writes the per-PO and per-PPO value
    /// words into the caller-provided buffers (cleared first), so the
    /// per-block hot loop of the exhaustive analysis allocates nothing.
    ///
    /// This is the kernel of the exhaustive detectability analysis: no
    /// launch cycle exists, so delay faults never show up here (their
    /// detectability is inherently sequential).
    ///
    /// # Panics
    ///
    /// Panics if the word slices do not match the netlist's PI/PPI counts.
    pub fn eval_single_cycle_patterns_into(
        &mut self,
        pi_words: &[W],
        ppi_words: &[W],
        plan: &InjectionPlan<W>,
        po_out: &mut Vec<W>,
        ppo_out: &mut Vec<W>,
    ) {
        let netlist = self.netlist;
        assert_eq!(pi_words.len(), netlist.num_pis());
        assert_eq!(ppi_words.len(), netlist.num_ppis());
        self.reset_late_overlay(plan);
        for (k, &word) in pi_words.iter().enumerate() {
            let net = netlist.pi(k);
            self.values[net as usize] = plan.stem[net as usize].apply(word);
        }
        for (k, &word) in ppi_words.iter().enumerate() {
            let net = netlist.ppi(k);
            self.values[net as usize] = plan.stem[net as usize].apply(word);
        }
        self.eval_pass(plan);
        if plan.has_bridges {
            self.eval_pass(plan);
        }
        po_out.clear();
        po_out.extend(
            netlist
                .pos()
                .iter()
                .map(|&net| plan.read(net, &self.values, &self.late)),
        );
        ppo_out.clear();
        ppo_out.extend(
            netlist
                .ppos()
                .iter()
                .map(|&net| plan.read(net, &self.values, &self.late)),
        );
    }

    fn eval_pass(&mut self, plan: &InjectionPlan<W>) {
        let netlist = self.netlist;
        let branchy = !plan.branch.is_empty();
        let tapped = plan.has_bridges || plan.has_delays();
        for g in 0..netlist.num_gates() {
            let out = netlist.gate_output(g) as usize;
            let stem = plan.stem[out];
            let word = if tapped || branchy {
                // Slow path: inputs read through bridge taps, late
                // readings, and branch forces.
                let branch = plan.branch_range(g);
                let (values, late) = (&self.values, &self.late);
                eval_gate(
                    netlist.kind(g),
                    netlist.fanins(g).iter().enumerate().map(|(pin, &input)| {
                        let v = if tapped {
                            plan.read(input, values, late)
                        } else {
                            values[input as usize]
                        };
                        branch
                            .iter()
                            .filter(|b| b.1 as usize == pin)
                            .fold(v, |v, b| b.2.apply(v))
                    }),
                )
            } else {
                let values = &self.values;
                eval_gate(
                    netlist.kind(g),
                    netlist.fanins(g).iter().map(|&f| values[f as usize]),
                )
            };
            self.values[out] = stem.apply(word);
        }
        self.gate_evals += netlist.num_gates() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BridgingFault, StuckFault};
    use crate::logic::{self, Evaluator};
    use crate::word::W256;
    use scanft_netlist::{GateKind, NetlistBuilder};
    use scanft_synth::{synthesize, SynthConfig};

    fn lion_netlist() -> scanft_synth::SynthesizedCircuit {
        synthesize(&scanft_fsm::benchmarks::lion(), &SynthConfig::default())
    }

    #[test]
    fn empty_plan_detects_nothing() {
        let c = lion_netlist();
        let test = ScanTest::new(0, vec![0b01, 0b11]);
        let ff = logic::simulate(c.netlist(), &test);
        let plan = InjectionPlan::new(c.netlist(), &[]);
        let mut engine = FaultEngine::new(c.netlist());
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 0);
        // An empty batch must not cost any gate evaluations either — the
        // regression guard for the empty-batch bug fixed at the campaign
        // layer.
        assert_eq!(engine.gate_evals(), 0);
    }

    #[test]
    fn stem_stuck_fault_on_po_net_is_detected() {
        let c = lion_netlist();
        let n = c.netlist();
        // Stuck-at-0 on the PO net: any test whose fault-free output has a 1
        // detects it.
        let po_net = n.pos()[0];
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(po_net),
            stuck_at_one: false,
        });
        let test = ScanTest::new(0, vec![0b01]); // output 1 fault-free
        let ff = logic::simulate(n, &test);
        assert_eq!(ff.outputs, vec![1]);
        let plan = InjectionPlan::new(n, &[fault]);
        let mut engine = FaultEngine::new(n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 1);
        assert!(engine.gate_evals() > 0);
    }

    #[test]
    fn fault_free_lanes_stay_silent() {
        // A batch of one fault leaves lanes 1..64 unused; they must not
        // produce detections.
        let c = lion_netlist();
        let n = c.netlist();
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(n.pos()[0]),
            stuck_at_one: true,
        });
        let test = ScanTest::new(0, vec![0b00]); // output 0 fault-free
        let ff = logic::simulate(n, &test);
        let plan = InjectionPlan::new(n, &[fault]);
        let mut engine = FaultEngine::new(n);
        let det = engine.run_test(&test, &ff, &plan, 0);
        assert_eq!(det, 1);
    }

    #[test]
    fn skip_lanes_are_excluded() {
        let c = lion_netlist();
        let n = c.netlist();
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(n.pos()[0]),
            stuck_at_one: false,
        });
        let test = ScanTest::new(0, vec![0b01]);
        let ff = logic::simulate(n, &test);
        let plan = InjectionPlan::new(n, &[fault]);
        let mut engine = FaultEngine::new(n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 1), 0);
    }

    #[test]
    fn final_state_mismatch_detects() {
        // A fault on a next-state line only (not observable at the PO in
        // one cycle) is caught by the scan-out comparison.
        let c = lion_netlist();
        let n = c.netlist();
        let ns0 = n.ppos()[0];
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(ns0),
            stuck_at_one: true,
        });
        // From state 0 input 00: ns = 0 (bit0 = 0 fault-free), output 0.
        let test = ScanTest::new(0, vec![0b00]);
        let ff = logic::simulate(n, &test);
        assert_eq!(ff.final_code, 0);
        let plan = InjectionPlan::new(n, &[fault]);
        let mut engine = FaultEngine::new(n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 1);
    }

    #[test]
    fn faulty_state_propagates_across_cycles() {
        // Build a tiny machine by hand where a fault flips the state in
        // cycle 1 and the difference surfaces at the PO only in cycle 2.
        // ns = x XOR ps, z = ps.
        let mut b = NetlistBuilder::new(1, 1);
        let x = b.pi(0);
        let ps = b.ppi(0);
        let ns = b.add_gate(GateKind::Xor, &[x, ps]).unwrap();
        let z = b.add_gate(GateKind::Buf, &[ps]).unwrap();
        let n = b.finish(vec![z], vec![ns]).unwrap();
        // Fault: ns stuck-at-1.
        let fault = Fault::Stuck(StuckFault {
            site: FaultSite::Net(ns),
            stuck_at_one: true,
        });
        // Test: start 0, apply (0, 0): fault-free states 0,0 outputs 0,0.
        // Faulty: cycle1 captures 1, cycle2 output = 1 -> detected at PO.
        let test = ScanTest::new(0, vec![0, 0]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(ff.outputs, vec![0, 0]);
        let plan = InjectionPlan::new(&n, &[fault]);
        let mut engine = FaultEngine::new(&n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 1);
        // With a length-1 test the same fault is caught at scan-out instead.
        let short = ScanTest::new(0, vec![0]);
        let ff_short = logic::simulate(&n, &short);
        assert_eq!(engine.run_test(&short, &ff_short, &plan, 0), 1);
    }

    #[test]
    fn branch_fault_differs_from_stem() {
        // x1 fans out to two ANDs; a branch fault on one pin must leave the
        // other path healthy.
        let mut b = NetlistBuilder::new(2, 0);
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let a2 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a1, a2], vec![]).unwrap();
        // Branch: gate 1 (a2), pin 0 (reads x1) stuck-at-0.
        let branch = Fault::Stuck(StuckFault {
            site: FaultSite::Branch { gate: 1, pin: 0 },
            stuck_at_one: false,
        });
        let stem = Fault::Stuck(StuckFault {
            site: FaultSite::Net(0),
            stuck_at_one: false,
        });
        let test = ScanTest::new(0, vec![0b11]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(ff.outputs, vec![0b11]); // both POs 1
        let plan = InjectionPlan::new(&n, &[branch, stem]);
        let mut engine = FaultEngine::new(&n);
        let det = engine.run_test(&test, &ff, &plan, 0);
        assert_eq!(det, 0b11); // both detected...
                               // ...but the branch fault must NOT disturb PO a1. Verify by
                               // injecting only the branch fault and checking which PO flips.
        let plan1 = InjectionPlan::new(&n, &[branch]);
        // Simulate manually: load 11, eval.
        let mut eng = FaultEngine::new(&n);
        let det1 = eng.run_test(&test, &ff, &plan1, 0);
        assert_eq!(det1, 1);
        // PO values after the run: a1 unaffected (lane 0 must still be 1).
        assert_eq!(plan1.read(n.pos()[0], &eng.values, &[]) & 1, 1);
        assert_eq!(plan1.read(n.pos()[1], &eng.values, &[]) & 1, 0);
    }

    #[test]
    fn duplicate_branch_faults_share_one_indexed_entry() {
        // Two branch faults on the same (gate, pin) — opposite polarities in
        // different lanes — must merge into one CSR entry and act per lane.
        let mut b = NetlistBuilder::new(2, 0);
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let n = b.finish(vec![a1], vec![]).unwrap();
        let sa0 = Fault::Stuck(StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 0 },
            stuck_at_one: false,
        });
        let sa1 = Fault::Stuck(StuckFault {
            site: FaultSite::Branch { gate: 0, pin: 0 },
            stuck_at_one: true,
        });
        let plan = InjectionPlan::new(&n, &[sa0, sa1]);
        assert_eq!(plan.branch.len(), 1);
        assert_eq!(plan.branch_range(0).len(), 1);
        let mut engine = FaultEngine::new(&n);
        // 11 -> PO 1 fault-free: lane 0 (sa0) flips it, lane 1 (sa1) agrees.
        let test = ScanTest::new(0, vec![0b11]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 0b01);
        // 01 -> PO 0 fault-free: lane 1 flips it.
        let test = ScanTest::new(0, vec![0b10]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 0b10);
    }

    #[test]
    fn bridge_fault_wired_and() {
        // Independent cones: a = AND(x1,x2) -> PO1 via NOT; b = OR(x3,x4)
        // -> PO2 via NOT. Bridge a~b wired-AND.
        let mut bld = NetlistBuilder::new(4, 0);
        let a = bld.add_gate(GateKind::And, &[0, 1]).unwrap();
        let na = bld.add_gate(GateKind::Not, &[a]).unwrap();
        let o = bld.add_gate(GateKind::Or, &[2, 3]).unwrap();
        let no = bld.add_gate(GateKind::Not, &[o]).unwrap();
        let n = bld.finish(vec![na, no], vec![]).unwrap();
        let bridge = Fault::Bridge(BridgingFault {
            a,
            b: o,
            kind: BridgeKind::And,
        });
        // Pattern x = 1 1 0 0: a=1, o=0; wired-AND makes a read as 0:
        // PO1 flips 0 -> 1. Detected.
        let test = ScanTest::new(0, vec![0b0011]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(ff.outputs, vec![0b10]); // na=0, no=1
        let plan = InjectionPlan::new(&n, &[bridge]);
        let mut engine = FaultEngine::new(&n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 1);
        // Pattern 1 1 1 1: a=1, o=1, wired value 1 = both driven: no effect.
        let quiet = ScanTest::new(0, vec![0b1111]);
        let ff_quiet = logic::simulate(&n, &quiet);
        assert_eq!(engine.run_test(&quiet, &ff_quiet, &plan, 0), 0);
    }

    #[test]
    fn bridge_fault_wired_or_and_order_independence() {
        // The bridged pair is deliberately ordered so one consumer comes
        // between the two drivers in topological order: the two-pass
        // evaluation must still be exact.
        let mut bld = NetlistBuilder::new(4, 0);
        let a = bld.add_gate(GateKind::And, &[0, 1]).unwrap(); // g1
        let na = bld.add_gate(GateKind::Not, &[a]).unwrap(); // consumer of a, before b
        let o = bld.add_gate(GateKind::Or, &[2, 3]).unwrap(); // g3 = b
        let no = bld.add_gate(GateKind::Not, &[o]).unwrap();
        let n = bld.finish(vec![na, no], vec![]).unwrap();
        let bridge = Fault::Bridge(BridgingFault {
            a,
            b: o,
            kind: BridgeKind::Or,
        });
        // x = 0 0 1 0: a=0, o=1; wired-OR -> a reads as 1: PO1 flips 1 -> 0.
        let test = ScanTest::new(0, vec![0b0100]);
        let ff = logic::simulate(&n, &test);
        assert_eq!(ff.outputs, vec![0b01]);
        let plan = InjectionPlan::new(&n, &[bridge]);
        let mut engine = FaultEngine::new(&n);
        assert_eq!(engine.run_test(&test, &ff, &plan, 0), 1);
    }

    #[test]
    fn sixty_four_faults_in_one_batch() {
        let c = lion_netlist();
        let n = c.netlist();
        let stuck = crate::faults::enumerate_stuck(n);
        let batch: Vec<Fault> = stuck.iter().take(64).copied().map(Fault::Stuck).collect();
        let plan = InjectionPlan::new(n, &batch);
        assert_eq!(plan.lane_mask(), u64::MAX);
        // The exhaustive per-transition test set must detect a good chunk.
        let lion = scanft_fsm::benchmarks::lion();
        let mut engine = FaultEngine::new(n);
        let mut detected = 0u64;
        for t in lion.transitions() {
            let test = ScanTest::new(u64::from(t.from), vec![t.input]);
            let ff = logic::simulate(n, &test);
            detected |= engine.run_test(&test, &ff, &plan, detected);
        }
        assert!(detected.count_ones() > 32, "{detected:b}");
    }

    #[test]
    fn wide_kernel_lanes_agree_with_narrow_ones() {
        // 256 lanes: the same fault placed in lane l of a W256 batch must
        // behave exactly like lane l % 64 of the narrow batch.
        let c = lion_netlist();
        let n = c.netlist();
        let stuck = crate::faults::enumerate_stuck(n);
        let wide_batch: Vec<Fault> = stuck
            .iter()
            .cycle()
            .take(256)
            .copied()
            .map(Fault::Stuck)
            .collect();
        let wide_plan = InjectionPlan::<W256>::build(n, &wide_batch);
        assert_eq!(wide_plan.lane_mask(), W256::ones());
        let mut wide = FaultEngine::<W256>::new(n);
        let mut narrow = FaultEngine::new(n);
        let lion = scanft_fsm::benchmarks::lion();
        for t in lion.transitions() {
            let test = ScanTest::new(u64::from(t.from), vec![t.input]);
            let ff = logic::simulate(n, &test);
            let w = wide.run_test(&test, &ff, &wide_plan, W256::zero());
            for (chunk, faults64) in wide_batch.chunks(64).enumerate() {
                let plan = InjectionPlan::new(n, faults64);
                let d = narrow.run_test(&test, &ff, &plan, 0);
                assert_eq!(w.limb(chunk), d, "test {t:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn event_driven_matches_full_resimulation() {
        let c = lion_netlist();
        let n = c.netlist();
        let stuck = crate::faults::enumerate_stuck(n);
        let lion = scanft_fsm::benchmarks::lion();
        let tests: Vec<ScanTest> = lion
            .transitions()
            .map(|t| ScanTest::new(u64::from(t.from), vec![t.input]))
            .collect();
        let mut full = FaultEngine::new(n);
        let mut event = FaultEngine::new(n);
        let mut evaluator = Evaluator::new(n);
        let mut cones = Vec::new();
        for batch in stuck.chunks(64) {
            let faults: Vec<Fault> = batch.iter().copied().map(Fault::Stuck).collect();
            let plan = InjectionPlan::event_driven(n, &faults);
            cones.push(plan.cone().map(FaultCone::num_gates));
            for test in &tests {
                let trace = evaluator.record_trace(test);
                let ff = trace.response();
                for skip in [0u64, 0b1010] {
                    let reference = full.run_test(test, &ff, &plan, skip);
                    let got = event.run_test_event_driven(test, &trace, &plan, skip, true);
                    assert_eq!(got, reference);
                    let reference = full.run_test_observing(test, &ff, &plan, skip, false);
                    let got = event.run_test_event_driven(test, &trace, &plan, skip, false);
                    assert_eq!(got, reference);
                }
            }
        }
        // The first batch's cone union spans all 15 gates, so its plan
        // carries no cone and runs the full pass; the second batch's cone
        // leaves gates out and runs event-driven.
        assert_eq!(cones, vec![None, Some(12)]);
        // The whole point: the event-driven engine does less work.
        assert!(event.gate_evals() < full.gate_evals());
    }

    #[test]
    fn event_driven_plan_with_bridges_falls_back_to_full() {
        let mut bld = NetlistBuilder::new(4, 0);
        let a = bld.add_gate(GateKind::And, &[0, 1]).unwrap();
        let na = bld.add_gate(GateKind::Not, &[a]).unwrap();
        let o = bld.add_gate(GateKind::Or, &[2, 3]).unwrap();
        let no = bld.add_gate(GateKind::Not, &[o]).unwrap();
        let n = bld.finish(vec![na, no], vec![]).unwrap();
        let bridge = Fault::Bridge(BridgingFault {
            a,
            b: o,
            kind: BridgeKind::And,
        });
        let plan = InjectionPlan::event_driven(&n, &[bridge]);
        assert!(plan.cone().is_none(), "bridge batches get no cone");
        let test = ScanTest::new(0, vec![0b0011]);
        let mut evaluator = Evaluator::new(&n);
        let trace = evaluator.record_trace(&test);
        let mut engine = FaultEngine::new(&n);
        assert_eq!(
            engine.run_test_event_driven(&test, &trace, &plan, 0, true),
            1
        );
    }

    #[test]
    fn delay_fault_needs_a_launch_cycle() {
        use crate::faults::DelayFault;
        // z = BUF(x1): a slow-to-rise x1 is visible only when a 0->1 launch
        // happens between consecutive at-speed cycles.
        let mut b = NetlistBuilder::new(1, 0);
        let z = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let fault = Fault::Delay(DelayFault {
            net: 0,
            slow_to_rise: true,
        });
        let plan = InjectionPlan::new(&n, &[fault]);
        assert!(plan.has_delays());
        let mut engine = FaultEngine::new(&n);

        // Length-1 tests can never detect it (no launch).
        for input in [0u32, 1] {
            let t = ScanTest::new(0, vec![input]);
            let ff = logic::simulate(&n, &t);
            assert_eq!(engine.run_test(&t, &ff, &plan, 0), 0, "input {input}");
        }
        // 0 -> 1 launches the slow rise: detected at the PO of cycle 2.
        let t = ScanTest::new(0, vec![0, 1]);
        let ff = logic::simulate(&n, &t);
        assert_eq!(ff.outputs, vec![0, 1]);
        assert_eq!(engine.run_test(&t, &ff, &plan, 0), 1);
        // 1 -> 1 launches nothing.
        let t = ScanTest::new(0, vec![1, 1]);
        let ff = logic::simulate(&n, &t);
        assert_eq!(engine.run_test(&t, &ff, &plan, 0), 0);
        // 1 -> 0 is the fast direction for slow-to-rise.
        let t = ScanTest::new(0, vec![1, 0]);
        let ff = logic::simulate(&n, &t);
        assert_eq!(engine.run_test(&t, &ff, &plan, 0), 0);
        // ...but it is the slow direction for a slow-to-fall fault.
        let fall = Fault::Delay(DelayFault {
            net: 0,
            slow_to_rise: false,
        });
        let plan_fall = InjectionPlan::new(&n, &[fall]);
        assert_eq!(engine.run_test(&t, &ff, &plan_fall, 0), 1);
    }

    #[test]
    fn delay_fault_on_state_feedback_path() {
        use crate::faults::DelayFault;
        // ns = XOR(x, ps), z = BUF(ps): a slow next-state line corrupts the
        // captured state, visible one cycle later at the PO.
        let mut b = NetlistBuilder::new(1, 1);
        let x = b.pi(0);
        let ps = b.ppi(0);
        let ns = b.add_gate(GateKind::Xor, &[x, ps]).unwrap();
        let z = b.add_gate(GateKind::Buf, &[ps]).unwrap();
        let n = b.finish(vec![z], vec![ns]).unwrap();
        let fault = Fault::Delay(DelayFault {
            net: ns,
            slow_to_rise: true,
        });
        let plan = InjectionPlan::new(&n, &[fault]);
        let mut engine = FaultEngine::new(&n);
        // Start 0; inputs (0, 1, 0): ns sequence 0,1,1; the 0->1 rise of ns
        // is launched at cycle 2, so the captured state stays 0 and the
        // cycle-3 PO (and the scan-out) expose it.
        let t = ScanTest::new(0, vec![0, 1, 0]);
        let ff = logic::simulate(&n, &t);
        assert_eq!(ff.final_code, 1);
        assert_eq!(engine.run_test(&t, &ff, &plan, 0), 1);
        // The same fault with only one cycle: no launch, no detection.
        let t1 = ScanTest::new(0, vec![1]);
        let ff1 = logic::simulate(&n, &t1);
        assert_eq!(engine.run_test(&t1, &ff1, &plan, 0), 0);
    }

    #[test]
    fn delay_and_stuck_in_one_batch() {
        use crate::faults::DelayFault;
        let c = lion_netlist();
        let n = c.netlist();
        let stuck = Fault::Stuck(StuckFault {
            site: FaultSite::Net(n.pos()[0]),
            stuck_at_one: false,
        });
        let delay = Fault::Delay(DelayFault {
            net: n.pos()[0],
            slow_to_rise: true,
        });
        let plan = InjectionPlan::new(n, &[stuck, delay]);
        let mut engine = FaultEngine::new(n);
        // From state 0: 00 (z=0) then 01 (z=1): the stuck-at-0 is caught at
        // cycle 2, and the z-net 0->1 rise is launched at cycle 2 too.
        let t = ScanTest::new(0, vec![0b00, 0b01]);
        let ff = logic::simulate(n, &t);
        assert_eq!(ff.outputs, vec![0, 1]);
        let det = engine.run_test(&t, &ff, &plan, 0);
        assert_eq!(det, 0b11);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn plan_rejects_oversized_batches() {
        let c = lion_netlist();
        let n = c.netlist();
        let faults = vec![
            Fault::Stuck(StuckFault {
                site: FaultSite::Net(0),
                stuck_at_one: false,
            });
            65
        ];
        let _ = InjectionPlan::new(n, &faults);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn wide_plan_rejects_oversized_batches() {
        let c = lion_netlist();
        let n = c.netlist();
        let faults = vec![
            Fault::Stuck(StuckFault {
                site: FaultSite::Net(0),
                stuck_at_one: false,
            });
            257
        ];
        let _ = InjectionPlan::<W256>::build(n, &faults);
    }

    #[test]
    fn event_driven_work_on_ex3_is_pinned() {
        // The worklist runs exactly the gates that carry a live force or
        // read a deviating net, so its gate count is a fixed property of
        // the circuit, the faults and the tests. Pinned on ex3's wide
        // stuck-at batches over its generated tests, with fault dropping
        // in the paper's decreasing-length order; some batch's cone spans
        // more than one 64-position worklist word.
        let table = scanft_fsm::benchmarks::build("ex3").unwrap();
        let c = synthesize(&table, &SynthConfig::default());
        let n = c.netlist();
        let uios = scanft_fsm::uio::derive_uios(&table, table.num_state_vars());
        let set = scanft_core::generate::generate(
            &table,
            &uios,
            &scanft_core::generate::GenConfig::default(),
        );
        // Rebuilt from the generated tests: `scanft_core` links its own
        // build of this crate, whose `ScanTest` is a different type here.
        let tests: Vec<ScanTest> = set
            .tests
            .iter()
            .map(|t| ScanTest::new(c.encode_state(t.initial_state), t.inputs.clone()))
            .collect();
        let mut evaluator = Evaluator::new(n);
        let traces: Vec<GoodTrace> = tests.iter().map(|t| evaluator.record_trace(t)).collect();
        let faults = crate::faults::as_fault_list(&crate::faults::enumerate_stuck(n));
        let mut engine = FaultEngine::<W256>::new(n);
        let mut widest = 0;
        for batch in faults.chunks(256) {
            let plan = InjectionPlan::event_driven(n, batch);
            widest = widest.max(plan.cone().map_or(0, FaultCone::num_gates));
            let mut detected = W256::zero();
            for t in crate::campaign::decreasing_length_order(&tests) {
                if detected == plan.lane_mask() {
                    break;
                }
                detected |=
                    engine.run_test_event_driven(&tests[t], &traces[t], &plan, detected, true);
            }
        }
        assert!(widest > 64, "widest cone union: {widest} gates");
        assert_eq!(engine.gate_evals(), 44_898);
    }
}
