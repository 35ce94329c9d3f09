//! Table 6 of the paper: gate-level stuck-at and bridging fault coverage of
//! the functional tests, with effective-test counts.
//!
//! The claim being reproduced: **all detectable faults of both models are
//! detected** — every fault the functional tests miss is proven
//! combinationally redundant by exhaustive analysis. Absolute fault counts
//! are for our synthesized netlists.

use scanft_bench::{paper::paper_row, pct, plan_circuits, Args, Budget};
use scanft_core::flow::{run_flow, FlowConfig};
use scanft_fsm::benchmarks;

fn main() {
    let args = Args::parse();
    println!("Table 6: Simulation of gate-level faults (functional tests of Table 5)");
    println!();
    println!(
        "  circuit  || s.a.: tsts |  len |   tot |   det |   f.c. | complete || bridg: tsts |  len |   tot |   det |   f.c. | complete || paper f.c.: s.a. | bridg"
    );
    scanft_bench::rule(160);
    let mut all_complete = true;
    let mut masked_total = 0usize;
    for (spec, run) in plan_circuits(&args, Budget::GateLevel) {
        let p = paper_row(spec.name).expect("paper row exists");
        if !run {
            println!(
                "  {:<8} || {:>53} || {:>54} || {:>15} | {:>5}",
                spec.name,
                "skipped(budget)",
                "",
                pct(p.t6_sa.4),
                pct(p.t6_br.4)
            );
            continue;
        }
        let table = benchmarks::build(spec.name).expect("registry circuit");
        let report = run_flow(&table, &FlowConfig::default());
        let gate = report.gate.expect("gate level enabled");
        let sa = &gate.stuck;
        let br = &gate.bridging;
        let sa_complete = sa.complete_detectable_coverage() && sa.unclassified == 0;
        let br_complete = br.complete_detectable_coverage() && br.unclassified == 0;
        let masked = (sa.total_faults - sa.detected - sa.proven_undetectable - sa.unclassified)
            + (br.total_faults - br.detected - br.proven_undetectable - br.unclassified);
        masked_total += masked;
        all_complete &= sa_complete && br_complete;
        println!(
            "  {:<8} || {:>10} | {:>4} | {:>5} | {:>5} | {:>6} | {:>8} || {:>11} | {:>4} | {:>5} | {:>5} | {:>6} | {:>8} || {:>15} | {:>5}",
            spec.name,
            sa.effective_tests,
            sa.effective_length,
            sa.total_faults,
            sa.detected,
            pct(sa.coverage),
            if sa_complete { "yes" } else { "NO" },
            br.effective_tests,
            br.effective_length,
            br.total_faults,
            br.detected,
            pct(br.coverage),
            if br_complete { "yes" } else { "NO" },
            pct(p.t6_sa.4),
            pct(p.t6_br.4)
        );
        if gate.bridge_truncated {
            println!(
                "  {:<8}    note: bridging pairs subsampled ({} of {} structural pairs)",
                "",
                br.total_faults / 2,
                gate.bridge_pairs_total
            );
        }
    }
    println!();
    if all_complete {
        println!("paper's claim (all detectable faults of both models detected): REPRODUCED on every simulated circuit");
    } else {
        println!(
            "paper's claim holds except for {masked_total} fault(s) masked inside chained tests —"
        );
        println!("the masking the paper's Section 2 calls out as possible but rare; the library's");
        println!("FlowConfig::top_up option appends length-1 tests for exactly these and restores");
        println!("complete detectable coverage.");
    }
}
