//! `scanft serve` — the ATPG-as-a-service campaign server.
//!
//! Every one-shot `scanft` invocation rebuilds the same expensive pipeline
//! stages — synthesis, gate arena, implication/dominator/SCOAP analysis —
//! and throws them away on exit. This crate turns the resilient supervisor
//! (`scanft-harness`) and the wide PPSFP kernel (`scanft-sim`) into a
//! long-running daemon:
//!
//! - [`http`]: a minimal hand-rolled HTTP/1.1 layer on
//!   `std::net::TcpListener` — blocking, thread-per-connection, with
//!   request-size limits and read timeouts. The workspace is offline and
//!   dependency-free, so there is no hyper/tokio; a campaign server's
//!   concurrency is worker-pool shaped anyway.
//! - [`cache`]: a content-addressed artifact cache keyed by a hash of the
//!   *canonicalized* KISS2 input (never the file name), sharing synthesis
//!   output, the gate arena, and the `Analysis` implication/dominator/SCOAP
//!   bundle across jobs and tenants, with hit/miss/eviction counters in
//!   `scanft-obs`.
//! - [`job`]: the job registry and queue with per-tenant quotas (max
//!   queued jobs, work-unit budget) riding the PR 5 [`Budget`] types;
//!   cancellation flips the job's [`CancelToken`] so a running campaign
//!   stops through the ordinary budget claim path.
//! - [`server`]: the daemon — accept loop, sharded campaign worker pool
//!   (on the wide kernel), and the route table:
//!
//!   | endpoint | behaviour |
//!   |---|---|
//!   | `POST /jobs` | submit a KISS2 circuit (+ optional `.tests` section); idempotent under `Idempotency-Key` (sticky) or the content-hash default (while active) |
//!   | `GET /jobs/:id` | job status/result JSON |
//!   | `GET /jobs/:id/events` | live JSONL progress streamed from the campaign journal |
//!   | `DELETE /jobs/:id` | cancel via the budget stop path (WAL-logged) |
//!   | `POST /admin/drain` | stop admission (503 + `Retry-After`), finish in-flight work, let the serve loop exit |
//!   | `GET /healthz` | liveness + drain/recovery state, always 200 |
//!   | `GET /readyz` | 200 while accepting, 503 + `Retry-After` while draining |
//!   | `GET /metrics` | the `scanft-obs` JSON-lines export |
//!
//! - [`wal`]: the durable job write-ahead log behind `serve --state-dir`.
//!   Admission, claim, cancellation, and terminal transitions are flushed
//!   (in the harness's torn-write-tolerant JSONL shape) before they are
//!   acknowledged; startup replay re-queues pending jobs and resumes
//!   interrupted campaigns from their on-disk journals via the ordinary
//!   checkpoint/resume path, byte-identical to an uninterrupted run. A WAL
//!   that cannot be replayed is [`ScanftError::Recovery`] (exit code 9) —
//!   the server refuses to start rather than drop acknowledged work.
//! - [`client`]: a tiny blocking client used by `scanft submit` /
//!   `scanft status` / `scanft cancel` and the CI drills, with a
//!   [`retry`] layer: capped exponential backoff + seeded jitter,
//!   honoring `Retry-After` on 503/429.
//!
//! [`ScanftError::Recovery`]: scanft_harness::ScanftError::Recovery
//!
//! Structured errors reuse the workspace error taxonomy: the JSON body is
//! `{"error":{"code":N,"class":"...","message":"..."}}` where `code` and
//! `class` are exactly [`ScanftError::exit_code`] / [`ScanftError::class`],
//! so a client can treat API errors and CLI exit codes uniformly.
//!
//! [`Budget`]: scanft_harness::Budget
//! [`CancelToken`]: scanft_harness::CancelToken
//! [`ScanftError::exit_code`]: scanft_harness::ScanftError::exit_code
//! [`ScanftError::class`]: scanft_harness::ScanftError::class

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod client;
pub mod hash;
pub mod http;
pub mod job;
pub mod retry;
pub mod server;
pub mod wal;

pub use cache::{ArtifactCache, Artifacts};
pub use client::{Client, ClientError, JobView};
pub use hash::ContentKey;
pub use job::{AdmitOutcome, Job, JobKind, JobRegistry, JobSpec, JobStatus, TenantQuota};
pub use retry::{Backoff, RetryPolicy};
pub use server::{RecoverySummary, Server, ServerConfig};
pub use wal::{read_wal, read_wal_file, replay, Wal, WalAdmit, WalEvent, WalJob, WalWriter};
