//! The multi-tenant service contract (DESIGN.md §13): worker count and
//! co-tenant scheduling change wall-clock only. N concurrent jobs must
//! produce byte-identical per-job traces and results to N sequential
//! runs, a job through the service must match a solo `Dse::run`, and a
//! warm shared store must serve cross-job hits without perturbing a
//! single byte of any tenant's artifacts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseResult};
use overgen_service::{JobRequest, JobServer, JobStatus, ServiceConfig, SubmitError};
use overgen_workloads as workloads;

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("overgen-service-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job_config(iterations: usize, seed: u64) -> DseConfig {
    DseConfig {
        iterations,
        seed,
        threads: 1,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn job(name: &str, workload: &str, seed: u64) -> JobRequest {
    JobRequest {
        name: name.to_string(),
        kernels: vec![workloads::by_name(workload).unwrap()],
        config: job_config(12, seed),
    }
}

/// A four-tenant fleet: two workloads, overlapping domains so tenants can
/// share store entries.
fn fleet() -> Vec<JobRequest> {
    vec![
        job("tenant-a", "fir", 11),
        job("tenant-b", "fir", 22),
        job("tenant-c", "mm", 11),
        job("tenant-d", "fir", 11), // same domain+seed as tenant-a
    ]
}

/// Run a fleet to completion and return each job's on-disk artifacts
/// (trace.jsonl bytes, result.json bytes) by job name.
fn run_fleet(
    root: &Path,
    workers: usize,
    jobs: Vec<JobRequest>,
) -> BTreeMap<String, (String, String)> {
    let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
    let server = JobServer::start(ServiceConfig {
        root: root.to_path_buf(),
        workers,
        store: true,
    })
    .unwrap();
    let ids: Vec<_> = jobs
        .into_iter()
        .map(|j| server.submit(j).unwrap())
        .collect();
    for id in ids {
        assert_eq!(server.wait(id), Some(JobStatus::Done));
    }
    server.shutdown();
    names
        .into_iter()
        .map(|name| {
            let dir = root.join("jobs").join(&name);
            let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
            let result = std::fs::read_to_string(dir.join("result.json")).unwrap();
            (name, (trace, result))
        })
        .collect()
}

#[test]
fn concurrent_jobs_match_sequential_jobs_byte_for_byte() {
    let sequential_root = temp_root("seq");
    let concurrent_root = temp_root("conc");
    let sequential = run_fleet(&sequential_root, 1, fleet());
    let concurrent = run_fleet(&concurrent_root, 4, fleet());
    assert_eq!(sequential.len(), 4);
    for (name, (trace, result)) in &sequential {
        let (ctrace, cresult) = &concurrent[name];
        assert!(!trace.is_empty(), "{name}: empty trace");
        assert_eq!(trace, ctrace, "{name}: workers=4 changed the trace");
        assert_eq!(result, cresult, "{name}: workers=4 changed the result");
    }
    let _ = std::fs::remove_dir_all(&sequential_root);
    let _ = std::fs::remove_dir_all(&concurrent_root);
}

/// Comparable view of a run (same shape as `parallel_determinism`).
fn digest(r: &DseResult) -> (u64, u64, Vec<(u64, u64)>) {
    (
        r.objective.to_bits(),
        r.sys_adg.fingerprint(),
        r.history
            .iter()
            .map(|(h, o)| (h.to_bits(), o.to_bits()))
            .collect(),
    )
}

#[test]
fn service_jobs_match_solo_dse_runs() {
    let root = temp_root("solo");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 2,
        store: true,
    })
    .unwrap();
    let id = server.submit(job("tenant", "fir", 33)).unwrap();
    assert_eq!(server.wait(id), Some(JobStatus::Done));
    let through_service = server.result(id).expect("done job has a result");
    server.shutdown();

    let solo = Dse::new(vec![workloads::by_name("fir").unwrap()], job_config(12, 33))
        .run()
        .unwrap();
    assert_eq!(digest(&through_service), digest(&solo));
    assert_eq!(through_service.stats, solo.stats);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tenants_share_cache_entries_within_one_server() {
    let root = temp_root("share");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1, // sequential, so the sharing below is guaranteed
        store: true,
    })
    .unwrap();
    let first = server.submit(job("first", "fir", 44)).unwrap();
    let second = server.submit(job("second", "fir", 44)).unwrap();
    assert_eq!(server.wait(first), Some(JobStatus::Done));
    assert_eq!(server.wait(second), Some(JobStatus::Done));
    let report = server.shutdown();
    let stats = report.store.expect("store enabled");
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert!(
        stats.shared_serves > 0,
        "second tenant should be served from the first tenant's entries: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_store_survives_restart_without_changing_artifacts() {
    let root = temp_root("warm");
    let cold = run_fleet(&root, 1, vec![job("tenant", "fir", 55)]);

    // Same root, fresh process-equivalent server: entries load from disk.
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: true,
    })
    .unwrap();
    let warm_entries = server.store().unwrap().stats().warm_entries;
    assert!(warm_entries > 0, "first run should have persisted entries");
    let id = server.submit(job("tenant-warm", "fir", 55)).unwrap();
    assert_eq!(server.wait(id), Some(JobStatus::Done));
    let report = server.shutdown();
    let stats = report.store.expect("store enabled");
    assert!(stats.hits > 0, "warm run should hit the store: {stats:?}");
    assert_eq!(
        stats.misses, 0,
        "an identical domain should be fully warm: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, stats.lookups);

    let warm_trace =
        std::fs::read_to_string(root.join("jobs").join("tenant-warm").join("trace.jsonl")).unwrap();
    // Job names differ but job traces carry the name only in the
    // service.job.* bracket events; normalize those and require identity.
    let (cold_trace, _) = &cold["tenant"];
    assert_eq!(
        cold_trace.replace("\"job\":\"tenant\"", "\"job\":\"tenant-warm\""),
        warm_trace,
        "a fully warm store changed the job trace"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let root = temp_root("cancel-queued");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    // A long job occupies the single worker while we cancel the other.
    let busy = server.submit(job("busy", "fir", 66)).unwrap();
    let victim = server
        .submit(JobRequest {
            name: "victim".to_string(),
            kernels: vec![workloads::by_name("fir").unwrap()],
            config: job_config(500, 67),
        })
        .unwrap();
    assert!(server.cancel(victim));
    assert_eq!(server.wait(victim), Some(JobStatus::Cancelled));
    assert_eq!(server.wait(busy), Some(JobStatus::Done));
    assert!(server.result(victim).is_none());
    assert!(
        !root
            .join("jobs")
            .join("victim")
            .join("trace.jsonl")
            .exists(),
        "cancelled-while-queued job must never start"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancelling_a_running_job_stops_it_gracefully() {
    let root = temp_root("cancel-running");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    let id = server
        .submit(JobRequest {
            name: "long".to_string(),
            kernels: vec![workloads::by_name("fir").unwrap()],
            config: DseConfig {
                exchange_interval: 5, // frequent segment boundaries
                ..job_config(20_000, 68)
            },
        })
        .unwrap();
    while server.status(id) == Some(JobStatus::Queued) {
        std::thread::yield_now();
    }
    assert!(server.cancel(id));
    assert_eq!(server.wait(id), Some(JobStatus::Cancelled));
    let partial = server
        .result(id)
        .expect("graceful stop keeps the partial result");
    assert!(!partial.completed);
    assert!(partial.stats.iterations < 20_000);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression (PR 9): a running job cancelled through the `StopFlag`
/// must receive exactly the same terminal accounting as a queued-job
/// cancel — `wait()` unblocks with `Cancelled`, and the
/// `service.jobs.cancelled` counter reads exactly 1 (not 0, which would
/// mean the worker skipped the accounting; not 2, which would mean
/// `cancel` and the worker both accounted).
#[test]
fn running_job_cancel_accounts_terminally_exactly_once() {
    let root = temp_root("cancel-accounting");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    let id = server
        .submit(JobRequest {
            name: "long".to_string(),
            kernels: vec![workloads::by_name("fir").unwrap()],
            config: DseConfig {
                exchange_interval: 5, // frequent segment boundaries
                ..job_config(20_000, 69)
            },
        })
        .unwrap();
    while server.status(id) == Some(JobStatus::Queued) {
        std::thread::yield_now();
    }
    assert!(server.cancel(id));
    assert_eq!(server.wait(id), Some(JobStatus::Cancelled));
    let reg = server.registry();
    assert_eq!(
        reg.counter_value("service.jobs.cancelled"),
        1,
        "a running-job cancel must be accounted exactly once"
    );
    assert_eq!(reg.counter_value("service.jobs.completed"), 0);
    assert_eq!(reg.counter_value("service.jobs.failed"), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn submission_rejects_bad_and_duplicate_names() {
    let root = temp_root("names");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    assert!(server.submit(job("", "fir", 1)).is_err());
    assert!(server.submit(job("../escape", "fir", 1)).is_err());
    let ok = server.submit(job("taken", "fir", 1)).unwrap();
    assert!(server.submit(job("taken", "fir", 2)).is_err());
    assert_eq!(server.wait(ok), Some(JobStatus::Done));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dot_names_cannot_escape_the_jobs_directory() {
    let root = temp_root("dots");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    for name in [".", ".."] {
        assert_eq!(
            server.submit(job(name, "fir", 1)),
            Err(SubmitError::InvalidName(name.to_string()))
        );
    }
    server.shutdown();
    for artifact in ["trace.jsonl", "result.json", "metrics.json"] {
        assert!(!root.join(artifact).exists(), "{artifact} escaped to root");
        assert!(!root.join("jobs").join(artifact).exists());
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression: a panic inside a job used to kill its worker thread and
/// leave the job `Running`, so `wait` blocked forever and, with one
/// worker, no later job ever ran. A zero weight trips the debug assert in
/// `weighted_geomean_ipc`, which stands in for any panicking job.
#[cfg(debug_assertions)]
#[test]
fn a_panicking_job_fails_without_stalling_the_server() {
    let root = temp_root("panic");
    let server = JobServer::start(ServiceConfig {
        root: root.clone(),
        workers: 1,
        store: false,
    })
    .unwrap();
    let mut bad = job("bad", "fir", 1);
    bad.config.weights.insert("fir".to_string(), 0.0);
    let bad = server.submit(bad).unwrap();
    let good = server.submit(job("good", "fir", 2)).unwrap();
    assert_eq!(server.wait(bad), Some(JobStatus::Failed));
    let error = server.error(bad).expect("a failed job reports its error");
    assert!(
        error.contains("panicked") && error.contains("non-positive weight"),
        "unexpected error: {error}"
    );
    assert_eq!(server.wait(good), Some(JobStatus::Done));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
