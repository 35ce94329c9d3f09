//! Seeded real-thread stress test for the `JobRegistry` (the satellite to
//! the deterministic model tests in `model_registry.rs`): N submitters,
//! claimers and cancellers hammer one registry with SplitMix64-derived
//! per-thread behavior, and the invariants the model proves on small
//! instances are asserted at scale on real OS scheduling:
//!
//! - no job is ever claimed twice;
//! - a job cancelled while still queued is never handed to a worker;
//! - when the dust settles, every job is terminal and the per-tenant
//!   active count (the quota input) is back to zero.
#![allow(clippy::unwrap_used)]

use std::collections::HashSet;

use scanft_fsm::rng::SplitMix64;
use scanft_race::sync::{Arc, AtomicBool, Mutex, Ordering};
use scanft_race::thread;
use scanft_server::{AdmitOutcome, ContentKey, Job, JobKind, JobRegistry, JobSpec, JobStatus};

fn job(id: String, tenant: &str) -> Job {
    let table = scanft_fsm::benchmarks::build("lion").unwrap();
    Job::new(
        id,
        JobSpec {
            tenant: tenant.to_owned(),
            circuit: "lion".to_owned(),
            kind: JobKind::Simulate,
            key: ContentKey::of_table(&table),
            table,
            tests: None,
            journal_path: String::new(),
        },
    )
}

#[test]
fn seeded_submit_claim_cancel_storm_preserves_invariants() {
    const SUBMITTERS: usize = 3;
    const CLAIMERS: usize = 3;
    const JOBS_PER_SUBMITTER: usize = 40;
    const SEED: u64 = 0x5ca1_ab1e_0000_0009;

    let registry = Arc::new(JobRegistry::new());
    let submitted: Arc<Mutex<Vec<Arc<Job>>>> = Arc::new(Mutex::new(Vec::new()));
    let claimed_ids: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let done_submitting = Arc::new(AtomicBool::new(false));

    thread::scope(|s| {
        for submitter in 0..SUBMITTERS {
            let registry = Arc::clone(&registry);
            let submitted = Arc::clone(&submitted);
            s.spawn(move || {
                let mut rng = SplitMix64::new(SEED ^ ((submitter as u64) << 8));
                for n in 0..JOBS_PER_SUBMITTER {
                    let tenant = format!("t{}", rng.next_u64() % 2);
                    // The `POST /jobs` admission path, one fresh
                    // non-sticky key per job and no queue bound in reach.
                    let key = format!("s{submitter}-{n}");
                    let outcome = registry
                        .admit_guarded(&key, false, usize::MAX, |id| {
                            (job(id, &tenant), String::new(), None)
                        })
                        .unwrap();
                    let AdmitOutcome::Fresh(admitted) = outcome else {
                        panic!("a fresh key must admit a fresh job, got {outcome:?}")
                    };
                    // Roughly a third of submissions are cancelled while
                    // (possibly still) queued — the canceller role.
                    if rng.next_u64().is_multiple_of(3) {
                        admitted.cancel.cancel();
                    }
                    submitted.lock().push(admitted);
                    if rng.next_u64().is_multiple_of(4) {
                        thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..CLAIMERS {
            let registry = Arc::clone(&registry);
            let claimed_ids = Arc::clone(&claimed_ids);
            s.spawn(move || {
                while let Some(running) = registry.claim() {
                    // The claim contract: a handed-out job was not
                    // cancelled while queued; claim marked it Running.
                    assert_eq!(running.status(), JobStatus::Running);
                    claimed_ids.lock().push(running.id.clone());
                    running.set_status(JobStatus::Completed {
                        coverage: 100.0,
                        detected: 0,
                        faults: 0,
                        completed_units: 0,
                        units: 0,
                    });
                }
            });
        }
        // Drain: once all submitters finish, shut the registry down so the
        // claimers exit after emptying the queue. `shutdown` makes claim
        // return None immediately, so spin-wait for an empty backlog first.
        let registry = Arc::clone(&registry);
        let submitted = Arc::clone(&submitted);
        let done = Arc::clone(&done_submitting);
        s.spawn(move || {
            let total = SUBMITTERS * JOBS_PER_SUBMITTER;
            loop {
                let jobs = submitted.lock();
                let all_in = jobs.len() == total;
                let backlog = jobs
                    .iter()
                    .any(|j| matches!(j.status(), JobStatus::Queued | JobStatus::Running));
                drop(jobs);
                if all_in && !backlog {
                    break;
                }
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
            registry.shutdown();
        });
    });
    assert!(done_submitting.load(Ordering::Acquire));

    let submitted = submitted.lock();
    let claimed_ids = claimed_ids.lock();
    assert_eq!(submitted.len(), SUBMITTERS * JOBS_PER_SUBMITTER);

    // No job claimed twice.
    let unique: HashSet<&String> = claimed_ids.iter().collect();
    assert_eq!(unique.len(), claimed_ids.len(), "a job was claimed twice");

    // Every job is terminal, and cancelled-while-queued jobs never ran.
    let claimed_set: HashSet<&str> = claimed_ids.iter().map(String::as_str).collect();
    for job in submitted.iter() {
        let status = job.status();
        assert!(status.is_terminal(), "job {} ended {:?}", job.id, status);
        if status == JobStatus::Cancelled {
            assert!(
                !claimed_set.contains(job.id.as_str()),
                "cancelled-while-queued job {} was handed to a worker",
                job.id
            );
        }
    }

    // Quota accounting returns to zero for every tenant.
    assert_eq!(registry.active_for("t0"), 0);
    assert_eq!(registry.active_for("t1"), 0);
    assert_eq!(registry.active_for("default"), 0);
}
