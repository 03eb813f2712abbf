//! `service-store`: the DSE service with its persistent evaluation store,
//! fed a seeded sequence of trials. A trial is a cold/warm pair, as the
//! repository's service experiment (`crates/bench/src/experiments/service.rs`)
//! runs them: one (domain, seed) job runs cold on a one-worker `JobServer`
//! over an empty store root — its evaluations are computed and written to
//! the store — then a new server reopens the same root and the same job
//! runs warm, every evaluation read from the store and its trace replayed.
//! One op is one trial: the cold job's and the warm job's latencies,
//! submit to completion, added.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use overgen_dse::EvalStore;
use overgen_ir::Kernel;
use overgen_service::{JobRequest, JobServer, JobStatus, ServiceConfig};

use super::{dse_config, fmt_dse, secs, share};
use crate::pins::Checker;
use crate::stats::{best, geomean, median, SeedRng};
use crate::trace::Tracer;
use crate::{Measured, RunInfo, Traced, Workload};

/// DSE seeds of the jobs: the first entries of the DSE workload's pinned
/// pool, all of which every run covers.
const JOBS: usize = 4;

pub struct ServiceStore;

pub struct Input {
    kernels: Vec<Kernel>,
    rng: SeedRng,
    work: PathBuf,
}

fn start_server(root: &Path) -> JobServer {
    JobServer::start(ServiceConfig {
        root: root.to_path_buf(),
        workers: 1,
        store: true,
    })
    .expect("service root is writable")
}

/// One job's outcome, as seen by the client.
struct Job {
    /// Job seed (index into the pinned pool).
    seed: usize,
    ms: f64,
    objective: f64,
    /// `result.json` with the job's own name taken out.
    result: String,
}

/// Submit one job and wait for it, under `service.*` spans.
fn job(
    server: &JobServer,
    root: &Path,
    kernels: &[Kernel],
    name: &str,
    i: usize,
    tr: &mut Tracer,
    check: &mut Checker,
) -> Job {
    let t = Instant::now();
    let id = tr
        .span("service.submit", || {
            server.submit(JobRequest {
                name: name.to_string(),
                kernels: kernels.to_vec(),
                config: dse_config(i),
            })
        })
        .expect("job names are unique");
    let status = tr.span("service.wait", || server.wait(id));
    let ms = secs(t) * 1e3;
    check.expect(
        status == Some(JobStatus::Done),
        &format!("job {name} ended {status:?}"),
    );
    let r = server.result(id).expect("a done job has a result");
    tr.span("adg.fingerprint", || r.sys_adg.adg.fingerprint());
    check.pinned(&format!("dse {i}"), &fmt_dse(&r));
    let result = std::fs::read_to_string(root.join("jobs").join(name).join("result.json"))
        .unwrap_or_default()
        .replace(&format!("\"job\":\"{name}\""), "\"job\":\"\"");
    Job {
        seed: i,
        ms,
        objective: r.objective,
        result,
    }
}

/// Jobs and store accounting of a sequence of trials.
#[derive(Default)]
struct Trials {
    cold: Vec<Job>,
    warm: Vec<Job>,
    hits: u64,
    lookups: u64,
    publishes: u64,
    /// Store hits and lookups of the warm jobs alone.
    warm_hits: u64,
    warm_lookups: u64,
    /// Wall seconds of each trial, server starts included, by job seed.
    trial_s: Vec<(usize, f64)>,
    /// Wall seconds of the whole sequence.
    wall_s: f64,
}

/// Run trials until `seconds` have passed and every job seed has run (or
/// exactly `count` trials), calling `setups` before each. With `probe`,
/// each trial ends by reopening its store from outside.
fn run_trials(
    input: &mut Input,
    seconds: f64,
    count: Option<usize>,
    probe: bool,
    setups: &mut dyn FnMut(),
    tr: &mut Tracer,
    check: &mut Checker,
) -> Trials {
    let mut out = Trials::default();
    let start = Instant::now();
    let mut seq = Vec::new();
    for g in 0.. {
        let done = match count {
            Some(n) => g >= n,
            None => g >= JOBS && secs(start) >= seconds,
        };
        if done {
            break;
        }
        if g == seq.len() {
            seq.extend(input.rng.permutation(JOBS));
        }
        setups();
        let i = seq[g];
        let t = Instant::now();
        let root = input.work.join(format!("trial{g}"));
        let _ = std::fs::remove_dir_all(&root);
        let server = tr.span("service.start", || start_server(&root));
        let cold = job(&server, &root, &input.kernels, "cold", i, tr, check);
        let written = tr
            .span("service.shutdown", || server.shutdown())
            .store
            .expect("store is enabled");
        let server = tr.span("service.start", || start_server(&root));
        let warm = job(&server, &root, &input.kernels, "warm", i, tr, check);
        check.expect(
            warm.result == cold.result,
            &format!("trial {g}: the warm job's result differs from the cold job's"),
        );
        let read = tr
            .span("service.shutdown", || server.shutdown())
            .store
            .expect("store is enabled");
        check.expect(
            read.misses == 0,
            &format!("trial {g}: {} warm lookups missed the store", read.misses),
        );
        if probe {
            let reopened = tr.span("dse.store.open", || EvalStore::open(root.join("store")));
            check.expect(
                reopened.map(|s| s.len()).ok() == Some(written.publishes as usize),
                "reopened store holds every published entry",
            );
        }
        out.hits += written.hits + read.hits;
        out.lookups += written.lookups + read.lookups;
        out.publishes += written.publishes + read.publishes;
        out.warm_hits += read.hits;
        out.warm_lookups += read.lookups;
        out.cold.push(cold);
        out.warm.push(warm);
        let _ = std::fs::remove_dir_all(&root);
        out.trial_s.push((i, secs(t)));
    }
    out.wall_s = secs(start);
    out
}

fn latencies(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().map(|j| j.ms).collect()
}

/// The best of the samples of each job seed (see `stats::best`), in seed
/// order.
fn per_seed(samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, v) in samples {
        by.entry(i).or_default().push(v);
    }
    by.values().map(|v| best(v)).collect()
}

impl Workload for ServiceStore {
    const NAME: &'static str = "service-store";
    const PARALLELISM: (usize, usize, usize) = (1, 1, 1);
    type Input = Input;

    fn setup(info: &RunInfo) -> Input {
        std::fs::create_dir_all(&info.work).expect("work directory is writable");
        Input {
            kernels: super::machsuite(),
            rng: SeedRng::new(info.seed),
            work: info.work.clone(),
        }
    }

    fn measure(input: &mut Input, info: &RunInfo, setups: &mut dyn FnMut()) -> Measured {
        let mut check = Checker::default();
        let t = run_trials(
            input,
            info.seconds,
            None,
            false,
            setups,
            &mut Tracer::new(false),
            &mut check,
        );
        // Each job seed counts once, at its best trial (see `stats::best`).
        let op_ms = per_seed(
            t.cold
                .iter()
                .zip(&t.warm)
                .map(|(c, w)| (c.seed, c.ms + w.ms)),
        );
        let cold = per_seed(t.cold.iter().map(|j| (j.seed, j.ms)));
        let warm = per_seed(t.warm.iter().map(|j| (j.seed, j.ms)));
        let trial_s = per_seed(t.trial_s.iter().copied());
        let jobs_per_s = (2 * trial_s.len()) as f64 / trial_s.iter().sum::<f64>();
        let objectives = per_seed(t.cold.iter().map(|j| (j.seed, j.objective)));
        Measured {
            check,
            throughput_per_s: jobs_per_s,
            result_ipc: geomean(&objectives),
            report: vec![
                ("jobs_per_s", jobs_per_s, "1/s"),
                ("cold_job_p50_ms", median(&cold), "ms"),
                ("warm_job_p50_ms", median(&warm), "ms"),
                ("warm_speedup", median(&cold) / median(&warm), "x"),
                (
                    "store_hit_rate",
                    share(t.warm_hits as f64, t.warm_lookups as f64),
                    "ratio",
                ),
                (
                    "store_publishes_per_trial",
                    t.publishes as f64 / t.cold.len() as f64,
                    "count",
                ),
                ("trials", t.cold.len() as f64, "count"),
            ],
            op_ms,
        }
    }

    fn traced(input: &mut Input, info: &RunInfo) -> Traced {
        let mut check = Checker::default();
        // Half the time untraced, then the same trials traced.
        let replay = input.rng.clone();
        let off = run_trials(
            input,
            info.seconds / 2.0,
            None,
            true,
            &mut || {},
            &mut Tracer::new(false),
            &mut check,
        );
        let mut tracer = Tracer::new(true);
        input.rng = replay;
        let on = run_trials(
            input,
            0.0,
            Some(off.cold.len()),
            true,
            &mut || {},
            &mut tracer,
            &mut check,
        );
        let layers = [
            (
                "service.submit_us",
                median(&tracer.durations_us("service.submit")),
            ),
            ("service.cold_job_ms_p50", median(&latencies(&on.cold))),
            ("service.warm_job_ms_p50", median(&latencies(&on.warm))),
            (
                "dse.store.open_ms",
                median(&tracer.durations_us("dse.store.open")) / 1e3,
            ),
            (
                "dse.store.hit_rate",
                share(on.hits as f64, on.lookups as f64),
            ),
            (
                "dse.store.publishes",
                on.publishes as f64 / on.cold.len().max(1) as f64,
            ),
            (
                "adg.fingerprint_us",
                median(&tracer.durations_us("adg.fingerprint")),
            ),
        ];
        Traced {
            check,
            ops: on.cold.len() as u64,
            untraced_s: off.wall_s,
            traced_s: on.wall_s,
            tracer,
            layers: layers.into_iter().collect(),
        }
    }
}
