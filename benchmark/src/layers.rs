//! The per-layer metrics of a traced run, named by the repository's
//! modules. Most are deltas of the program's own `scanft-obs` counters
//! and timers over the traced traffic phase, per job completed in it; the
//! rest are measured by the benchmark around the public calls it makes.

use crate::trace::Delta;
use crate::Metric;

/// What a workload measured beside the metric deltas. Fields a workload
/// does not exercise stay 0.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Jobs completed in the traced phase (`oneshot`: commands).
    pub jobs: f64,
    /// ms to parse the KISS2 texts the workload's set-up parses.
    pub parse_ms: f64,
    /// Mean total functional test length per simulated job, in cycles.
    pub test_length: f64,
    /// ms per `.tests` parse of the submitted test sections.
    pub tests_parse_ms: f64,
    /// `run_flow` time not covered by its layers' timers, ms per job.
    pub flow_self_ms: f64,
    /// Mean gates per synthesized pool circuit.
    pub synth_gates: f64,
    /// Exhaustive classification calls per job.
    pub exhaustive_calls: f64,
    /// `checker::check` ms per job.
    pub opt_check_ms: f64,
    /// `FaultPlan::new` ms per job.
    pub opt_fault_plan_ms: f64,
    /// Gates removed by the optimizer over gates it was given.
    pub opt_removed_ratio: f64,
    /// Collapsed faults falling back to the original netlist, over all.
    pub opt_fallback_ratio: f64,
    /// Events-stream bytes read per job.
    pub journal_bytes: f64,
    /// Median `Server::start` duration (WAL replay included), ms.
    pub recovery_ms: f64,
    /// WAL records replayed per start.
    pub wal_records: f64,
    /// Median `POST /jobs` round trip, ms.
    pub submit_p50_ms: f64,
    /// 429/503 refusals in the traced phase.
    pub refused: f64,
    /// Untraced minus traced `jobs_per_s`, percent of untraced.
    pub overhead_pct: f64,
}

/// Timers of the narrow (64-lane) kernel's campaign loop.
const NARROW: &[&str] = &["sim.campaign.run", "sim.campaign.parallel"];
/// Timers of the wide kernel and of supervised (served) campaigns, which
/// the server runs on the wide kernel.
const WIDE: &[&str] = &["sim.campaign.run_wide", "sim.campaign.supervised"];

/// Every per-layer metric, in `BENCHMARK.json` order.
#[must_use]
pub fn metrics(d: &Delta, m: &Measured) -> Vec<Metric> {
    let per_job = |v: f64| if m.jobs > 0.0 { v / m.jobs } else { 0.0 };
    let ms_per_job = |names: &[&str]| per_job(d.sum(names) * 1e3);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sim_secs = d.sum(NARROW) + d.sum(WIDE);
    let hits = d.get("server.cache.hits");
    let misses = d.get("server.cache.misses");
    let skipped = d.get("sim.campaign.tests_skipped");
    let metric = |name, value, unit| Metric::new(name, value, unit, m.jobs as usize);
    vec![
        metric("fsm.parse_ms", m.parse_ms, "ms"),
        metric("fsm.uio_ms", ms_per_job(&["fsm.uio.derive"]), "ms/job"),
        metric(
            "fsm.uio_nodes",
            per_job(d.get("fsm.uio.nodes_expanded")),
            "count/job",
        ),
        metric(
            "core.generate_ms",
            ms_per_job(&["core.generate", "core.generate.baseline"]),
            "ms/job",
        ),
        metric("core.test_length", m.test_length, "cycles/job"),
        metric("core.tests_parse_ms", m.tests_parse_ms, "ms/parse"),
        metric("core.top_up_ms", ms_per_job(&["core.top_up"]), "ms/job"),
        metric("core.flow_self_ms", m.flow_self_ms, "ms/job"),
        metric(
            "synth.synthesize_ms",
            ms_per_job(&["synth.synthesize"]),
            "ms/job",
        ),
        metric("synth.gates", m.synth_gates, "gates"),
        metric(
            "analyze.analysis_ms",
            ms_per_job(&["analyze.implications_secs", "analyze.scoap_secs"]),
            "ms/job",
        ),
        metric(
            "analyze.implications_learned",
            per_job(d.get("analyze.implications_learned")),
            "count/job",
        ),
        metric("sim.narrow_ms", ms_per_job(NARROW), "ms/job"),
        metric("sim.exhaustive_calls", m.exhaustive_calls, "count/job"),
        metric("sim.wide_ms", ms_per_job(WIDE), "ms/job"),
        metric(
            "sim.gate_evals",
            per_job(d.get("sim.kernel.gate_evals")),
            "count/job",
        ),
        metric(
            "sim.gate_evals_per_s",
            ratio(d.get("sim.kernel.gate_evals"), sim_secs),
            "1/s",
        ),
        metric(
            "sim.faults_per_s",
            ratio(d.get("sim.campaign.faults"), sim_secs),
            "1/s",
        ),
        metric(
            "sim.drop_ratio",
            ratio(skipped, skipped + d.get("sim.campaign.tests_simulated")),
            "ratio",
        ),
        metric(
            "atpg.decisions",
            per_job(d.get("atpg.decisions")),
            "count/job",
        ),
        metric(
            "atpg.backtracks",
            per_job(d.get("atpg.backtracks")),
            "count/job",
        ),
        metric(
            "atpg.patterns",
            per_job(d.get("core.top_up.patterns")),
            "count/job",
        ),
        metric(
            "atpg.aborted",
            per_job(d.get("core.top_up.aborted")),
            "count/job",
        ),
        metric(
            "opt.optimize_ms",
            ms_per_job(&["opt.optimize_secs"]),
            "ms/job",
        ),
        metric("opt.check_ms", m.opt_check_ms, "ms/job"),
        metric("opt.fault_plan_ms", m.opt_fault_plan_ms, "ms/job"),
        metric("opt.removed_ratio", m.opt_removed_ratio, "ratio"),
        metric("opt.fallback_ratio", m.opt_fallback_ratio, "ratio"),
        metric(
            "harness.units",
            per_job(d.get("harness.units_completed")),
            "count/job",
        ),
        metric("harness.journal_bytes", m.journal_bytes, "bytes/job"),
        metric("server.recovery_ms", m.recovery_ms, "ms"),
        metric("server.wal_records", m.wal_records, "count"),
        metric("server.submit_p50_ms", m.submit_p50_ms, "ms"),
        metric("server.refused", m.refused, "count"),
        metric(
            "server.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "server.cache_evictions",
            per_job(d.get("server.cache.evictions")),
            "count/job",
        ),
        metric(
            "server.cache_build_ms",
            1e3 * ratio(
                d.get("server.cache.build"),
                d.get("server.cache.build#count"),
            ),
            "ms/build",
        ),
        metric("trace.overhead_pct", m.overhead_pct, "%"),
    ]
}
