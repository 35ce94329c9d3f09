//! Deterministic model checking of the `JobRegistry` protocol.
//!
//! Every sync op inside these closures routes through the `scanft-race`
//! virtual scheduler (the `model` dev-feature), so submit/claim,
//! cancel-vs-claim, and shutdown wakeup are checked across the whole
//! bounded schedule space instead of whatever interleaving the OS happens
//! to produce. Jobs enter through `admit_guarded`, the admission path
//! `POST /jobs` runs, each under its own non-sticky idempotency key.
#![allow(clippy::unwrap_used)]

use scanft_race::model::{self, ModelConfig};
use scanft_race::sync::Arc;
use scanft_race::thread;
use scanft_server::{AdmitOutcome, ContentKey, Job, JobKind, JobRegistry, JobSpec, JobStatus};

fn cfg() -> ModelConfig {
    ModelConfig {
        max_schedules: 1000,
        random_runs: 8,
        ..ModelConfig::default()
    }
}

fn job(id: String) -> Job {
    let table = scanft_fsm::benchmarks::build("lion").unwrap();
    Job::new(
        id,
        JobSpec {
            tenant: "model".to_owned(),
            circuit: "lion".to_owned(),
            kind: JobKind::Simulate,
            key: ContentKey::of_table(&table),
            table,
            tests: None,
            journal_path: String::new(),
        },
    )
}

/// Queue bound for the model admissions; never reached by one job.
const MAX_QUEUE: usize = 8;

/// Admits one job under the non-sticky idempotency key `key`, as the
/// `POST /jobs` handler does.
fn admit(registry: &JobRegistry, key: &str) -> Arc<Job> {
    match registry
        .admit_guarded(key, false, MAX_QUEUE, |id| (job(id), String::new(), None))
        .unwrap()
    {
        AdmitOutcome::Fresh(job) => job,
        other => panic!("a fresh key must admit a fresh job, got {other:?}"),
    }
}

#[test]
fn submit_claim_race_hands_out_each_job_exactly_once() {
    let report = model::check_named("registry-submit-claim", &cfg(), || {
        let registry = Arc::new(JobRegistry::new());
        let submitter = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || admit(&registry, "submit-1").id.clone())
        };
        let claimer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // The queue may be empty or full when the claimer runs;
                // claim blocks until the submit lands, in every schedule.
                registry.claim().map(|j| j.id.clone())
            })
        };
        let submitted = submitter.join().unwrap();
        let claimed = claimer.join().unwrap();
        assert_eq!(claimed.as_deref(), Some(submitted.as_str()));
        let fetched = registry.get(&submitted).unwrap();
        assert_eq!(fetched.status(), JobStatus::Running);
    });
    report.assert_ok();
    assert!(
        report.schedules >= 2,
        "expected >= 2 schedules, got {}",
        report.schedules
    );
}

#[test]
fn cancel_vs_claim_never_runs_a_cancelled_job_twice() {
    // A queued job is cancelled while a claimer races for it. In every
    // schedule the job ends either Running (claim won, cancel arrives for
    // the budget path) or Cancelled-and-skipped (cancel won) — never both,
    // and the claimer never returns a job whose cancel it already saw.
    let report = model::check_named("registry-cancel-claim", &cfg(), || {
        let registry = Arc::new(JobRegistry::new());
        let admitted = admit(&registry, "cancel-1");
        let canceller = {
            let cancel = admitted.cancel.clone();
            thread::spawn(move || cancel.cancel())
        };
        let claimer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.claim())
        };
        canceller.join().unwrap();
        // Shutdown releases a claimer that skipped the cancelled job and
        // went back to waiting on the (now empty) queue.
        registry.shutdown();
        match claimer.join().unwrap() {
            Some(running) => {
                assert_eq!(running.id, admitted.id);
                assert_eq!(running.status(), JobStatus::Running);
            }
            None => {
                // Either claim skipped the cancelled job, or shutdown beat
                // the claim to a still-queued job; never a running one.
                assert!(matches!(
                    admitted.status(),
                    JobStatus::Cancelled | JobStatus::Queued
                ));
            }
        }
    });
    report.assert_ok();
    assert!(report.schedules >= 2);
}

#[test]
fn drain_vs_claim_vs_late_cancel_never_loses_or_doubles_a_job() {
    // A queued job, two racing claimers, a drain request, and a late
    // cancel, across every bounded schedule. The invariants: at most one
    // claimer ever receives the job (no double execution); a job the
    // drain beat to the queue stays Queued or Cancelled — still in the
    // registry, never silently dropped (a real drain persists it in the
    // WAL for the next boot); and once drain is requested no further
    // claim can succeed.
    let report = model::check_named("registry-drain-claim-cancel", &cfg(), || {
        let registry = Arc::new(JobRegistry::new());
        let admitted = admit(&registry, "drain-1");
        let claimers: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || registry.claim().map(|j| j.id.clone()))
            })
            .collect();
        let drainer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.drain())
        };
        let canceller = {
            let cancel = admitted.cancel.clone();
            thread::spawn(move || cancel.cancel())
        };
        drainer.join().unwrap();
        canceller.join().unwrap();
        let winners: Vec<String> = claimers
            .into_iter()
            .filter_map(|c| c.join().unwrap())
            .collect();
        assert!(winners.len() <= 1, "job claimed twice: {winners:?}");
        match winners.first() {
            Some(id) => {
                assert_eq!(id, &admitted.id);
                assert_eq!(admitted.status(), JobStatus::Running);
            }
            None => {
                // Unclaimed: still accounted for, ready to be re-queued
                // by recovery or terminally cancelled — never vanished.
                assert!(matches!(
                    admitted.status(),
                    JobStatus::Queued | JobStatus::Cancelled
                ));
            }
        }
        assert!(registry.get(&admitted.id).is_some(), "job never vanishes");
        // Drain is in effect by now: claims fail fast, in every schedule.
        assert!(registry.claim().is_none());
    });
    report.assert_ok();
    assert!(report.schedules >= 2);
    assert!(
        report.failure.is_none(),
        "no schedule may lose or double a job"
    );
}

#[test]
fn drain_wakes_a_blocked_claimer_in_every_schedule() {
    // Same missed-wakeup shape as shutdown, for the drain flag: a claimer
    // blocked on an empty queue must observe a concurrent drain and
    // return None rather than sleep forever.
    let report = model::check_named("registry-drain-wakeup", &cfg(), || {
        let registry = Arc::new(JobRegistry::new());
        let claimer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.claim())
        };
        let drainer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.drain())
        };
        drainer.join().unwrap();
        assert!(claimer.join().unwrap().is_none());
    });
    report.assert_ok();
    assert!(report.schedules >= 2);
    assert!(
        report.failure.is_none(),
        "no schedule may lose the drain wakeup"
    );
}

#[test]
fn shutdown_wakes_a_blocked_claimer_in_every_schedule() {
    // The classic missed-wakeup shape: a claimer blocks on an empty queue
    // while shutdown flips the flag and notifies. If claim checked the
    // flag before waiting without re-checking under the lock, the model
    // would find the lost notification as a deadlock.
    let report = model::check_named("registry-shutdown-wakeup", &cfg(), || {
        let registry = Arc::new(JobRegistry::new());
        let claimer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.claim())
        };
        let stopper = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || registry.shutdown())
        };
        stopper.join().unwrap();
        assert!(claimer.join().unwrap().is_none());
    });
    report.assert_ok();
    assert!(report.schedules >= 2);
    assert!(report.failure.is_none(), "no schedule may lose the wakeup");
}
