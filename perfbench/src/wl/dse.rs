//! `dse-machsuite`: overlay generation as the figure binaries run it — a
//! `Dse::run` over the 5-kernel MachSuite domain with the default
//! `Estimate` backend and schedule-preserving proposals, one thread, one
//! chain. One op is one `Dse::run` of `DSE_ITERS` proposals, its seed
//! drawn from the pinned pool.
//!
//! `Dse::run` is one opaque call, so the traced run replays a seeded
//! proposal chain from outside through the same public calls the engine
//! makes, and reads the library's own counters from untimed runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use overgen_adg::{SysAdg, SystemParams};
use overgen_dse::{random_mutation, system_dse, Dse, SystemDseConfig, TransformCtx};
use overgen_mdfg::Mdfg;
use overgen_model::{
    breakdown, estimate_ipc, AnalyticModel, ComponentFeatures, Placement, ResourceModel, Resources,
};
use overgen_scheduler::{repair_with, RepairOptions, ScheduleFootprint};
use overgen_telemetry::{install, json, Rng};

use super::{counting_collector, dse_config, fmt_dse, secs, share, Domain, DSE_ITERS, POOL};
use crate::pins::Checker;
use crate::stats::{best, median, percentile, SeedRng};
use crate::trace::Tracer;
use crate::{Measured, RunInfo, Traced, Workload};

pub struct DseMachsuite;

pub struct Input {
    /// One engine per pool entry, run as the figure binaries run it.
    dses: Vec<Dse>,
    rng: SeedRng,
}

#[derive(Default)]
struct ReplayTally {
    proposals: u64,
    valid: u64,
    /// Per `system_dse` call: its component estimates over those of one
    /// `breakdown` of the same ADG (only when replayed with `Counting`).
    breakdowns_per_call: Vec<f64>,
}

/// `AnalyticModel`, counting its component estimates. `breakdown` asks
/// for one per PE, switch and port, so the count over that of one
/// `breakdown` is the number of `breakdown`s made.
#[derive(Default)]
struct Counting(AtomicU64);

impl Counting {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl ResourceModel for Counting {
    fn component(&self, feats: &ComponentFeatures) -> Resources {
        self.0.fetch_add(1, Ordering::Relaxed);
        AnalyticModel.component(feats)
    }
}

/// Replay `DSE_ITERS` proposals of a random-walk chain seeded by `seed`:
/// two rewrite rules, lowering to a system ADG, validation, schedule
/// repair, fingerprinting, the nested system DSE, and the resource and
/// performance models at the winner. A proposal that fails validation or
/// repair is reverted. With `count`, the models run through it and each
/// `system_dse` call's `breakdown`s are tallied. Returns the final ADG
/// fingerprint.
fn replay(
    dom: &Domain,
    seed: u64,
    count: Option<&Counting>,
    tr: &mut Tracer,
    tally: &mut ReplayTally,
) -> u64 {
    let model: &dyn ResourceModel = match count {
        Some(c) => c,
        None => &AnalyticModel,
    };
    let mut adg = dom.seed_adg.clone();
    let mut schedules = dom.schedules.clone();
    let mut rng = Rng::seed_from_u64(seed);
    let sys_cfg = SystemDseConfig::default();
    for _ in 0..DSE_ITERS {
        tally.proposals += 1;
        let backup = (adg.clone(), schedules.clone());
        let mut footprint = ScheduleFootprint::Pure;
        let id = tr.enter("dse.rewrite");
        for _ in 0..2 {
            let mut ctx = TransformCtx {
                cap_pool: &dom.caps,
                schedules: &mut schedules,
                preserving: rng.gen_bool(0.7),
            };
            footprint = footprint.merge(random_mutation(&mut adg, &mut ctx, &mut rng).1);
        }
        tr.exit(id);
        let sys = tr.span("adg.sysadg_new", || {
            SysAdg::new(adg.clone(), SystemParams::default())
        });
        if tr.span("adg.validate", || sys.validate()).is_err() {
            (adg, schedules) = backup;
            continue;
        }
        let opts = RepairOptions {
            incremental: true,
            footprint: Some(footprint),
            scope: None,
        };
        let mut next = Vec::with_capacity(schedules.len());
        for (m, prior) in dom.mdfgs.iter().zip(&schedules) {
            match tr.span("scheduler.repair", || repair_with(prior, m, &sys, &opts)) {
                Ok((s, _)) => next.push(s),
                Err(_) => break,
            }
        }
        if next.len() < schedules.len() {
            (adg, schedules) = backup;
            continue;
        }
        tally.valid += 1;
        schedules = next;
        tr.span("adg.fingerprint", || adg.fingerprint());
        let per: Vec<(&Mdfg, &Placement, f64)> = dom
            .mdfgs
            .iter()
            .zip(&schedules)
            .map(|(m, s)| (m, &s.placement, 1.0))
            .collect();
        let before = count.map_or(0, Counting::get);
        let best = tr.span("dse.system", || system_dse(&adg, &per, model, &sys_cfg, 1));
        if let Some(c) = count {
            let in_call = c.get() - before;
            breakdown(&sys, c);
            let one = c.get() - before - in_call;
            tally
                .breakdowns_per_call
                .push(share(in_call as f64, one as f64));
        }
        if let Some((params, _)) = best {
            let win = tr.span("adg.sysadg_new", || SysAdg::new(adg.clone(), params));
            tr.span("model.breakdown", || breakdown(&win, model));
            let spad_bw: f64 = adg
                .nodes()
                .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
                .sum();
            for (m, p, _) in &per {
                tr.span("model.estimate_ipc", || {
                    estimate_ipc(m, &params, spad_bw, p)
                });
            }
        }
    }
    adg.fingerprint()
}

impl Workload for DseMachsuite {
    const NAME: &'static str = "dse-machsuite";
    const PARALLELISM: (usize, usize, usize) = (1, 1, 0);
    type Input = Input;

    fn setup(info: &RunInfo) -> Input {
        let kernels = super::machsuite();
        Input {
            dses: (0..POOL)
                .map(|i| Dse::new(kernels.clone(), dse_config(i)))
                .collect(),
            rng: SeedRng::new(info.seed),
        }
    }

    fn measure(input: &mut Input, info: &RunInfo, setups: &mut dyn FnMut()) -> Measured {
        let mut check = Checker::default();
        // Per pool entry: run times in ms, proposals, objective, DSE hours.
        let mut runs: BTreeMap<usize, (Vec<f64>, usize, f64, f64)> = BTreeMap::new();
        let start = Instant::now();
        // Seeded passes over the pool; the first always completes.
        'passes: loop {
            for i in input.rng.permutation(POOL) {
                if runs.len() == POOL && secs(start) >= info.seconds {
                    break 'passes;
                }
                setups();
                let t = Instant::now();
                let r = input.dses[i]
                    .run()
                    .expect("MachSuite schedules on the seed accelerator");
                let ms = secs(t) * 1e3;
                check.pinned(&format!("dse {i}"), &fmt_dse(&r));
                let e = runs.entry(i).or_insert((
                    Vec::new(),
                    r.stats.iterations,
                    r.objective,
                    r.dse_hours,
                ));
                e.0.push(ms);
            }
        }
        // Each entry counts once, at its best time (see `stats::best`).
        let op_ms: Vec<f64> = runs.values().map(|r| best(&r.0)).collect();
        let proposals: usize = runs.values().map(|r| r.1).sum();
        let objectives: Vec<f64> = runs.values().map(|r| r.2).collect();
        let hours: Vec<f64> = runs.values().map(|r| r.3).collect();
        let proposals_per_s = proposals as f64 / (op_ms.iter().sum::<f64>() / 1e3);
        Measured {
            check,
            throughput_per_s: proposals_per_s,
            result_ipc: median(&objectives),
            report: vec![
                ("proposals_per_s", proposals_per_s, "1/s"),
                ("overlay_objective", median(&objectives), "IPC"),
                ("overlay_dse_hours", median(&hours), "h"),
                (
                    "dse_runs",
                    runs.values().map(|r| r.0.len()).sum::<usize>() as f64,
                    "count",
                ),
            ],
            op_ms,
        }
    }

    fn traced(input: &mut Input, info: &RunInfo) -> Traced {
        let mut check = Checker::default();
        let domain = Domain::prepare(&super::machsuite());
        // The engine's own counts, from one untimed run of the first seed.
        let first = input.rng.permutation(POOL)[0];
        let (collector, ring) = overgen_telemetry::Collector::ring(1 << 20);
        let r = {
            let _g = install(collector.clone());
            input.dses[first]
                .run()
                .expect("MachSuite schedules on the seed accelerator")
        };
        check.pinned(&format!("dse {first}"), &fmt_dse(&r));
        let reg = collector.registry();
        let hits = reg.counter_value("dse.cache.hit") as f64;
        let misses = reg.counter_value("dse.cache.miss") as f64;
        let (mut candidates, mut over) = (0u64, 0u64);
        for line in ring.lines() {
            let event = json::parse(&line).expect("the library writes JSON events");
            if event.get("type").and_then(json::Value::as_str) == Some("dse.system") {
                let count = |f: &str| event.get(f).and_then(json::Value::as_u64).unwrap_or(0);
                candidates += count("candidates");
                over += count("over_budget");
            }
        }

        // Pairs of identical chains, tracer off then on, with nothing
        // installed in the library, until time is up.
        let mut tracer = Tracer::new(true);
        let mut tally = ReplayTally::default();
        let mut seeds = Vec::new();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let start = Instant::now();
        while traced_s == 0.0 || secs(start) < info.seconds {
            let seed = input.rng.next_u64();
            let t = Instant::now();
            let off = replay(
                &domain,
                seed,
                None,
                &mut Tracer::new(false),
                &mut ReplayTally::default(),
            );
            untraced_s += secs(t);
            let t = Instant::now();
            let on = replay(&domain, seed, None, &mut tracer, &mut tally);
            traced_s += secs(t);
            check.expect(off == on, "replayed chain differs with tracing on");
            seeds.push((seed, on));
        }

        // The same chains again, untimed, under a counting collector and a
        // counting resource model.
        let mut counted = ReplayTally::default();
        let (c, _g) = counting_collector();
        let model = Counting::default();
        for (seed, fingerprint) in seeds {
            let again = replay(
                &domain,
                seed,
                Some(&model),
                &mut Tracer::new(false),
                &mut counted,
            );
            check.expect(again == fingerprint, "replayed chain differs when counted");
        }
        let fast = c.registry().counter_value("scheduler.repair.fast") as f64;
        let fallback = c.registry().counter_value("scheduler.repair.fallback") as f64;

        let repair_us = tracer.durations_us("scheduler.repair");
        let system_ms: Vec<f64> = tracer
            .durations_us("dse.system")
            .iter()
            .map(|u| u / 1e3)
            .collect();
        let layers = [
            (
                "dse.rewrite.apply_us",
                median(&tracer.durations_us("dse.rewrite")),
            ),
            (
                "dse.rewrite.valid_share",
                share(tally.valid as f64, tally.proposals as f64),
            ),
            (
                "adg.sysadg_new_us",
                median(&tracer.durations_us("adg.sysadg_new")),
            ),
            (
                "adg.validate_us",
                median(&tracer.durations_us("adg.validate")),
            ),
            (
                "adg.fingerprint_us",
                median(&tracer.durations_us("adg.fingerprint")),
            ),
            ("scheduler.repair_us_p50", median(&repair_us)),
            ("scheduler.repair_us_p90", percentile(&repair_us, 0.9)),
            ("scheduler.repair_fast_share", share(fast, fast + fallback)),
            ("dse.system.call_ms_p50", median(&system_ms)),
            ("dse.system.call_ms_p90", percentile(&system_ms, 0.9)),
            (
                "dse.system.feasible_share",
                share((candidates - over) as f64, candidates as f64),
            ),
            ("dse.eval.cache_hit_rate", share(hits, hits + misses)),
            (
                "model.breakdown_us",
                median(&tracer.durations_us("model.breakdown")),
            ),
            (
                "model.breakdown_calls_per_proposal",
                median(&counted.breakdowns_per_call),
            ),
            (
                "model.estimate_ipc_us",
                median(&tracer.durations_us("model.estimate_ipc")),
            ),
        ];
        Traced {
            check,
            ops: tally.proposals,
            untraced_s,
            traced_s,
            tracer,
            layers: layers.into_iter().collect(),
        }
    }
}
