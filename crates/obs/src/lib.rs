//! Observability substrate for `scanft`: counters, gauges, histogram-style
//! timers and span scopes behind a thread-safe registry, with JSON-lines
//! export.
//!
//! The paper's experimental claims are all *counting* claims — tests
//! generated, UIO search nodes expanded, fault batches simulated, detections
//! per test — so every stage of the pipeline reports its work through this
//! crate rather than through ad-hoc fields and print statements.
//!
//! # Design
//!
//! - **No external dependencies.** Everything is built on atomics and a
//!   registration-time `Mutex`, both taken from the `scanft-race` sync
//!   facade so the deterministic model checker can schedule them.
//! - **No locks on the counter/gauge hot path.** A [`Counter`], [`Gauge`]
//!   or [`Timer`] is a clonable handle around an `Arc` of atomics;
//!   registration takes the registry lock once, after which counter and
//!   gauge updates are single relaxed atomic operations. Timer
//!   observations serialize on a tiny per-timer writer lock so the
//!   count/total/min/max/bucket statistics stay mutually coherent (see
//!   [`Timer::stats`]). Fetch handles outside loops.
//! - **Deterministic export.** [`Registry::to_jsonl`] emits one JSON object
//!   per metric, sorted by name, so exports diff cleanly and golden tests
//!   can pin the schema.
//!
//! # Example
//!
//! ```
//! use scanft_obs::Registry;
//!
//! let registry = Registry::new();
//! let tests = registry.counter("core.generate.tests_emitted");
//! tests.add(9);
//! let timer = registry.timer("core.generate_secs");
//! let span = timer.start();
//! // ... do the work ...
//! let secs = span.stop_secs();
//! assert!(secs >= 0.0);
//! assert_eq!(tests.get(), 9);
//! let jsonl = registry.to_jsonl();
//! assert!(jsonl.contains("\"name\":\"core.generate.tests_emitted\",\"value\":9"));
//! ```
//!
//! Most callers use the process-wide registry via [`global`]; the CLI's
//! `--metrics` flag exports it after a command finishes.
//!
//! # Metric namespaces
//!
//! Names are dot-separated, prefixed by the reporting crate or stage:
//! `fsm.*`, `synth.*`, `sim.campaign.*`, `atpg.*` (including
//! `atpg.deadline_aborts`), `core.generate.*`, `core.top_up.*` (including
//! `core.top_up.budget_stops`), and `harness.*` for the resilience layer —
//! `harness.units_completed`, `harness.units_quarantined`,
//! `harness.deadline_hits`, `harness.unitcap_hits`, and the
//! `harness.chaos.*` injection counters.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod export;
mod json;
mod metric;
mod registry;

pub use export::{MetricSnapshot, SnapshotValue};
pub use json::{escape_json_string, field_f64, field_str, field_u64};
pub use metric::{Counter, Gauge, Span, Timer, TimerStats, TIMER_BUCKETS};
pub use registry::{global, Registry};
