//! The proposal evaluation pipeline (paper Figure 6, steps 2–3), split out
//! of the annealing driver: compile-variant lookup → per-workload
//! schedule/repair → nested system DSE → performance estimate, producing a
//! structured [`EvalReport`] that an [`Objective`](crate::Objective) maps
//! to scalar fitness.
//!
//! [`EvalPipeline`] owns everything a proposal evaluation needs — the
//! workload set, pre-compiled mDFG variants, the resource model, both
//! memoization caches, and the telemetry plumbing. The annealer in
//! `engine.rs` only proposes mutations and accepts/rejects on the fitness
//! the pipeline returns; it contains no objective math.
//!
//! Determinism contract (unchanged from the pre-split engine): every
//! evaluation runs under an isolated capture collector, per-workload
//! results fold in workload-name order, and a cache hit replays the stored
//! trace and merges the stored metric deltas, so hits and misses are
//! observationally identical. The objective is folded into every cache key
//! through the run's config hash.
//!
//! This module also hosts the [`ParetoFront`] tracker: the set of
//! non-dominated (IPC, accelerator-resource) points the search has
//! visited, maintained per chain and merged into
//! [`DseResult::pareto`](crate::DseResult::pareto).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use overgen_telemetry::profile::PhaseTimer;
use overgen_telemetry::{
    capture, capture_isolated, current_profiler, event, replay, Counter, Phase, Profiler, Registry,
};

use overgen_adg::{Adg, StableHasher, SysAdg, SystemParams};
use overgen_ir::Kernel;
use overgen_mdfg::Mdfg;
use overgen_model::{
    accelerator_resources, Placement, PlacementMetrics, PlacementReport, ResourceModel, Resources,
    TimeModel,
};
use overgen_scheduler::{
    repair_with, RepairOptions, RepairOutcome, RepairScope, Schedule, ScheduleFootprint,
};

use crate::cache::{hash_placement, hash_schedule, Memo};
use crate::engine::DseConfig;
use crate::system::{system_dse, system_dse_sim, SystemDseBackend};

/// Structured outcome of one successful proposal evaluation: everything an
/// [`Objective`](crate::Objective) may want to score, plus the artifacts
/// the annealer keeps for the winning design.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Estimated IPC per workload (balance-penalty applied, weights not),
    /// in workload-name order.
    pub per_workload_ipc: BTreeMap<String, f64>,
    /// Weighted-geomean estimated IPC over the domain — the run's primary
    /// objective regardless of fitness policy.
    pub ipc: f64,
    /// Accelerator-tile resource vector (no core/NoC/L2).
    pub resources: Resources,
    /// Winning system parameters from the nested system DSE.
    pub sys: SystemParams,
    /// Best schedule per workload on this hardware.
    pub schedules: BTreeMap<String, Schedule>,
    /// Chosen variant index per workload.
    pub variants: BTreeMap<String, u32>,
    /// Merged footprint of the mutations that produced this proposal.
    pub footprint: ScheduleFootprint,
    /// Spatial placement of the winning system configuration. `Some` only
    /// under a placement-aware objective; `None` keeps default-config
    /// evaluations placement-invisible.
    pub placement: Option<PlacementReport>,
}

/// Outcome of evaluating one design point, as the annealer keeps it.
/// `pub(crate)` so checkpoints can persist and rebuild it
/// (`checkpoint.rs`).
#[derive(Debug, Clone)]
pub(crate) struct EvalState {
    pub(crate) sys: SystemParams,
    pub(crate) schedules: BTreeMap<String, Schedule>,
    pub(crate) variants: BTreeMap<String, u32>,
    /// Weighted-geomean estimated IPC (the display objective).
    pub(crate) objective: f64,
    /// Scalar the annealer compares: `Objective::fitness` of the report.
    pub(crate) fitness: f64,
    /// Accelerator resource vector, kept for Pareto tracking.
    pub(crate) resources: Resources,
    /// Placement quality axes (placement-aware objectives only), kept for
    /// three-axis Pareto tracking.
    pub(crate) placement: Option<PlacementMetrics>,
}

/// A memoized evaluation: outcome plus every side effect it produced, so
/// replaying the trace and merging the registry makes a cache hit
/// indistinguishable from re-running. `pub(crate)` so the persistent
/// store (`store.rs`) can serialize and rebuild whole artifacts.
pub(crate) struct CachedEval {
    pub(crate) state: Option<EvalState>,
    pub(crate) sim: f64,
    pub(crate) trace: overgen_telemetry::CapturedTrace,
    pub(crate) registry: Registry,
}

/// A memoized system-DSE winner (no metrics: `system_dse` only traces).
pub(crate) struct CachedSystem {
    pub(crate) result: Option<(SystemParams, f64)>,
    pub(crate) trace: overgen_telemetry::CapturedTrace,
}

/// Handles for the counters an evaluation updates, bound to the isolated
/// capture registry so they travel with the cached artifact.
struct EvalCounters {
    full_schedules: Counter,
    repairs: Counter,
    intact: Counter,
    repair_moved: overgen_telemetry::Histogram,
}

/// The evaluation pipeline: shared, read-only context for scoring
/// proposals. All interior mutability (the memo caches, counters) is
/// thread-safe and commutative, so concurrently running chains may query
/// one pipeline.
pub(crate) struct EvalPipeline<'a> {
    workloads: &'a [Kernel],
    cfg: &'a DseConfig,
    time: &'a TimeModel,
    mdfgs: &'a BTreeMap<String, Vec<Mdfg>>,
    model: &'a dyn ResourceModel,
    run_registry: &'a Registry,
    cache_hit: Counter,
    cache_miss: Counter,
    cache_system_hit: Counter,
    cache_system_miss: Counter,
    eval_cache: Memo<CachedEval>,
    sys_cache: Memo<CachedSystem>,
    cfg_hash: u64,
    /// Domain discriminator folded into persistent-store keys only (the
    /// full mDFG variant set; see [`EvalPipeline::new`]).
    store_salt: u64,
    cache_enabled: bool,
    /// Phase-attribution profiler, captured from the constructing thread
    /// (worker threads have no thread-local profiler). Wall-time only —
    /// records nothing into traces or the run registry, so determinism is
    /// untouched whether it is present or not.
    profiler: Option<Arc<Profiler>>,
}

impl<'a> EvalPipeline<'a> {
    /// Build a pipeline. `warm` carries the cache-key sets a checkpoint
    /// recorded, so a resumed run re-computes exactly the evaluations the
    /// interrupted run had already memoized (warm keys count as hits).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        workloads: &'a [Kernel],
        cfg: &'a DseConfig,
        time: &'a TimeModel,
        mdfgs: &'a BTreeMap<String, Vec<Mdfg>>,
        model: &'a dyn ResourceModel,
        run_registry: &'a Registry,
        cfg_hash: u64,
        warm: Option<(&[u64], &[u64])>,
    ) -> Self {
        let (eval_cache, sys_cache) = match warm {
            Some((ek, sk)) => (
                Memo::with_warm(ek.iter().copied()),
                Memo::with_warm(sk.iter().copied()),
            ),
            None => (Memo::new(), Memo::new()),
        };
        // The persistent store is shared across tenants whose memo keys
        // can collide (two domains with identical config and seed ADG):
        // salt store keys with the full variant set so entries never cross
        // domain boundaries. In-memory keys stay unsalted — byte-stable
        // with every pre-existing checkpoint and golden trace.
        let store_salt = {
            let mut h = StableHasher::new();
            h.write_u64(mdfgs.len() as u64);
            for (name, variants) in mdfgs {
                h.write_str(name);
                h.write_u64(variants.len() as u64);
                for m in variants {
                    crate::cache::hash_mdfg(&mut h, m);
                }
            }
            h.finish()
        };
        EvalPipeline {
            workloads,
            cfg,
            time,
            mdfgs,
            model,
            run_registry,
            cache_hit: run_registry.counter("dse.cache.hit"),
            cache_miss: run_registry.counter("dse.cache.miss"),
            cache_system_hit: run_registry.counter("dse.cache.system_hit"),
            cache_system_miss: run_registry.counter("dse.cache.system_miss"),
            eval_cache,
            sys_cache,
            cfg_hash,
            store_salt,
            cache_enabled: cfg.cache,
            profiler: current_profiler(),
        }
    }

    /// Persistent-store key for an in-memory memo key: the memo key plus
    /// the domain salt.
    fn store_key(&self, memo_key: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.store_salt);
        h.write_u64(memo_key);
        h.finish()
    }

    /// Start a phase timer when a profiler is installed (`None` otherwise,
    /// a no-op guard).
    fn phase(&self, phase: Phase, class: &'static str) -> Option<PhaseTimer> {
        self.profiler.as_ref().map(|p| p.phase(phase, class))
    }

    /// The run registry stats are read from and merged into.
    pub(crate) fn registry(&self) -> &Registry {
        self.run_registry
    }

    /// Cache-key snapshots for checkpointing.
    pub(crate) fn eval_keys(&self) -> Vec<u64> {
        self.eval_cache.keys()
    }

    pub(crate) fn sys_keys(&self) -> Vec<u64> {
        self.sys_cache.keys()
    }

    /// Evaluate an ADG through the fingerprint cache. Returns the outcome
    /// and the simulated seconds to charge. On a hit the memoized trace is
    /// replayed and the memoized metric deltas merged, so hits and misses
    /// are observationally identical; with the cache disabled the same
    /// capture/replay path runs without memoization, keeping traces
    /// identical between cache modes.
    pub(crate) fn evaluate(
        &self,
        adg: &Adg,
        prior: &BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
    ) -> (Option<EvalState>, f64) {
        self.evaluate_with(adg, prior, footprint, None, None)
    }

    /// [`Evaluator::evaluate`] with the rewrite engine's extras: a
    /// recorded [`RepairScope`] (an empty one lets repair skip its full
    /// decision scan) and, for compound proposals, the rule trace string
    /// folded into the cache key — compound proposals carry their rule
    /// chain in `dse.propose` events, so two proposals that differ only
    /// in how they were composed must not share a cached trace. Default
    /// (single-rule) runs pass `None` and keep historical cache keys.
    pub(crate) fn evaluate_with(
        &self,
        adg: &Adg,
        prior: &BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
        scope: Option<&RepairScope>,
        rule_trace: Option<&str>,
    ) -> (Option<EvalState>, f64) {
        let run = || {
            // Umbrella phase: one uncached evaluation end to end. Cache
            // hits never reach here; their cost is reconstructed via the
            // cache-adjustment factor in the profile report.
            let _eval_timer = self.phase(Phase::Eval, footprint.name());
            let (out, trace, registry) =
                capture_isolated(|| self.evaluate_uncached(adg, prior, footprint, scope));
            let (state, sim) = out;
            CachedEval {
                state,
                sim,
                trace,
                registry,
            }
        };
        if self.cache_enabled {
            let mut h = StableHasher::new();
            h.write_u64(self.cfg_hash);
            adg.fingerprint_into(&mut h);
            // The footprint is advisory but recorded in repair trace
            // events, so two proposals that differ only in footprint must
            // not share a cached trace.
            h.write_u64(u64::from(footprint.code()));
            if let Some(trace) = rule_trace {
                h.write_str("rules");
                h.write_str(trace);
            }
            h.write_u64(prior.len() as u64);
            for s in prior.values() {
                hash_schedule(&mut h, s);
            }
            let key = h.finish();
            // The persistent store sits strictly inside the in-memory miss
            // path: a store-served artifact is byte-identical to
            // recomputation, so per-job hit/miss counters and traces are
            // unaffected by store contents (DESIGN.md §13).
            let skey = self.store_key(key);
            let with_store = || match self.cfg.store.as_deref() {
                Some(st) => st.fetch_eval(skey).unwrap_or_else(|| {
                    let c = run();
                    st.publish_eval(skey, &c);
                    c
                }),
                None => run(),
            };
            let (cell, miss) = self.eval_cache.get_or_compute(key, with_store);
            if miss {
                self.cache_miss.inc();
            } else {
                self.cache_hit.inc();
            }
            let c = cell.get().expect("memo cell initialized");
            replay(&c.trace);
            self.run_registry.merge_from(&c.registry);
            (c.state.clone(), c.sim)
        } else {
            let c = run();
            replay(&c.trace);
            self.run_registry.merge_from(&c.registry);
            (c.state, c.sim)
        }
    }

    /// One full evaluation (Figure 6 steps 2-3): gate on the objective's
    /// hard resource budget, schedule or repair every workload in
    /// workload-name order, then run the nested system DSE and score the
    /// report. Always runs under an isolated capture collector (see
    /// [`capture_isolated`]).
    ///
    /// Every workload is processed even after one fails, so the recorded
    /// operation stream and the simulated time cover every workload.
    fn evaluate_uncached(
        &self,
        adg: &Adg,
        prior: &BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
        scope: Option<&RepairScope>,
    ) -> (Option<EvalState>, f64) {
        let mut sim = 0.0f64;
        let validate_timer = self.phase(Phase::Validate, footprint.name());
        let sys_probe = SysAdg::new(adg.clone(), SystemParams::default());
        if sys_probe.validate().is_err() {
            return (None, sim);
        }

        let eval_collector =
            overgen_telemetry::current().expect("evaluate_uncached runs under capture_isolated");

        // Hard feasibility gate: under a budgeted objective an oversized
        // accelerator is rejected before any scheduling or system-DSE work
        // is spent on it. The default objective admits everything, so this
        // is trace-invisible unless a budget is configured.
        let resources = accelerator_resources(adg, self.model);
        if let Err(channel) = self.cfg.objective.admit(&resources) {
            eval_collector
                .registry()
                .counter("dse.eval.infeasible")
                .inc();
            event!(
                "dse.eval.infeasible",
                channel = channel,
                lut = resources.lut,
                ff = resources.ff,
                bram = resources.bram,
                dsp = resources.dsp,
            );
            return (None, sim);
        }

        drop(validate_timer);

        let counters = {
            let _capture_timer = self.phase(Phase::Capture, footprint.name());
            let reg = eval_collector.registry();
            EvalCounters {
                full_schedules: reg.counter("dse.full_schedules"),
                repairs: reg.counter("dse.repairs"),
                intact: reg.counter("dse.intact"),
                repair_moved: reg.histogram("dse.repair_moved"),
            }
        };

        let mut schedules: BTreeMap<String, Schedule> = BTreeMap::new();
        let mut variants: BTreeMap<String, u32> = BTreeMap::new();
        let mut complete = true;
        for k in self.workloads {
            let hot = self
                .profiler
                .as_ref()
                .map(|p| p.hot_timer("workload", k.name()));
            let (found, sim_delta) =
                self.schedule_workload(k, &sys_probe, prior, footprint, scope, &counters);
            drop(hot);
            sim += sim_delta;
            match found {
                Some((variant, s)) => {
                    variants.insert(k.name().to_string(), variant);
                    schedules.insert(k.name().to_string(), s);
                }
                None => complete = false,
            }
        }
        // The probe's ADG clone is built under `validate`; free it there
        // too, so its teardown is not left to the end of the function,
        // after every phase timer has stopped.
        let validate_timer = self.phase(Phase::Validate, footprint.name());
        drop(sys_probe);
        drop(validate_timer);
        if !complete {
            return (None, sim);
        }

        // Nested system DSE, memoized by (ADG, per-workload mapping).
        let variant_of = |name: &str| {
            self.mdfgs[name]
                .iter()
                .find(|v| v.variant() == variants[name])
                .expect("variant exists")
        };
        let weight_of = |name: &str| self.cfg.weights.get(name).copied().unwrap_or(1.0);
        let run_system = || {
            let _t = self.phase(Phase::SystemDse, footprint.name());
            let start = Instant::now();
            let (result, trace) = capture(overgen_telemetry::current().as_ref(), || {
                match self.cfg.system.backend {
                    SystemDseBackend::Estimate => {
                        let per: Vec<(&Mdfg, &Placement, f64)> = self
                            .workloads
                            .iter()
                            .map(|k| {
                                let name = k.name();
                                (
                                    variant_of(name),
                                    &schedules[name].placement,
                                    weight_of(name),
                                )
                            })
                            .collect();
                        system_dse(adg, &per, self.model, &self.cfg.system, 1)
                    }
                    SystemDseBackend::Simulate { prune } => {
                        // Simulator-backed scoring needs the full schedule
                        // (stream-to-engine bindings), not just the
                        // placement.
                        let per_sim: Vec<(&Mdfg, &Schedule, f64)> = self
                            .workloads
                            .iter()
                            .map(|k| {
                                let name = k.name();
                                (variant_of(name), &schedules[name], weight_of(name))
                            })
                            .collect();
                        system_dse_sim(
                            adg,
                            &per_sim,
                            self.model,
                            &self.cfg.system,
                            &overgen_sim::SimConfig::default(),
                            prune,
                        )
                    }
                }
            });
            if let (Some(p), Some((sys, _))) = (self.profiler.as_ref(), result.as_ref()) {
                p.record_hot("sys-grid", &format!("tiles={}", sys.tiles), start.elapsed());
            }
            CachedSystem { result, trace }
        };
        let sys_opt = if self.cache_enabled {
            let key_timer = self.phase(Phase::CacheKey, footprint.name());
            let mut h = StableHasher::new();
            h.write_u64(self.cfg_hash);
            h.write_str("system");
            adg.fingerprint_into(&mut h);
            for k in self.workloads {
                let name = k.name();
                h.write_str(name);
                h.write_u64(u64::from(variants[name]));
                hash_placement(&mut h, &schedules[name].placement);
            }
            let key = h.finish();
            // Same store-inside-miss-path contract as `evaluate` above.
            let skey = self.store_key(key);
            drop(key_timer);
            let with_store = || match self.cfg.store.as_deref() {
                Some(st) => st.fetch_sys(skey).unwrap_or_else(|| {
                    let c = run_system();
                    st.publish_sys(skey, &c);
                    c
                }),
                None => run_system(),
            };
            let (cell, miss) = self.sys_cache.get_or_compute(key, with_store);
            let _capture_timer = self.phase(Phase::Capture, footprint.name());
            if miss {
                self.cache_system_miss.inc();
            } else {
                self.cache_system_hit.inc();
            }
            let c = cell.get().expect("memo cell initialized");
            replay(&c.trace);
            c.result
        } else {
            let c = run_system();
            let _capture_timer = self.phase(Phase::Capture, footprint.name());
            replay(&c.trace);
            c.result
        };
        let Some((sys, _raw)) = sys_opt else {
            return (None, sim);
        };

        // Spatial placement of the winning system configuration, only when
        // the objective asks for it: the default path takes no timer, no
        // counters, and no events here, keeping its traces byte-identical.
        let placement = self.cfg.objective.placement().map(|p| {
            let _place_timer = self.phase(Phase::Place, footprint.name());
            let rep = p
                .placer
                .placer()
                .place(&SysAdg::new(adg.clone(), sys), &resources, &p.grid);
            eval_collector.registry().counter("dse.place.runs").inc();
            eval_collector
                .registry()
                .counter("dse.place.slr_crossings")
                .add(rep.slr_crossings);
            event!(
                "dse.place",
                placer = p.placer.name(),
                tiles = u64::from(sys.tiles),
                span = u64::from(rep.span),
                wirelength = rep.wirelength,
                congestion = rep.congestion,
                slr_crossings = rep.slr_crossings,
                fmax_mhz = rep.fmax_mhz,
            );
            rep
        });

        // Performance estimate: per-workload IPC (with the schedule's
        // balance penalty) folded into the weighted geomean — the primary
        // objective of §V-A.
        let _objective_timer = self.phase(Phase::Objective, footprint.name());
        let mut per_workload_ipc: BTreeMap<String, f64> = BTreeMap::new();
        let ipc = {
            let spad_bw = adg.spad_bw_bytes();
            let ipcs: Vec<(f64, f64)> = self
                .workloads
                .iter()
                .map(|k| {
                    let name = k.name();
                    let s = &schedules[name];
                    let est =
                        overgen_model::estimate_ipc(variant_of(name), &sys, spad_bw, &s.placement);
                    per_workload_ipc.insert(name.to_string(), est.ipc * s.balance_penalty);
                    (est.ipc * s.balance_penalty, weight_of(name))
                })
                .collect();
            overgen_model::weighted_geomean_ipc(&ipcs)
        };

        let report = EvalReport {
            per_workload_ipc,
            ipc,
            resources,
            sys,
            schedules,
            variants,
            footprint,
            placement,
        };
        let fitness = self.cfg.objective.fitness(&report);
        (
            Some(EvalState {
                sys: report.sys,
                schedules: report.schedules,
                variants: report.variants,
                objective: report.ipc,
                fitness,
                resources: report.resources,
                placement: report.placement.as_ref().map(PlacementReport::metrics),
            }),
            sim,
        )
    }

    /// Schedule one workload: repair the prior schedule's variant first
    /// (the common path — no placement search when the dirty set is
    /// empty), then walk the remaining variants with full scheduling only
    /// if repair proved impossible. Returns the chosen (variant, schedule)
    /// and the simulated seconds spent.
    ///
    /// Simulated-time charges are a pure function of the repair
    /// *classification* (intact / moved count / reschedule), never of the
    /// execution path, so the debug-build repair oracle leaves `sim` as is.
    fn schedule_workload(
        &self,
        k: &Kernel,
        sys_probe: &SysAdg,
        prior: &BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
        scope: Option<&RepairScope>,
        counters: &EvalCounters,
    ) -> (Option<(u32, Schedule)>, f64) {
        let adg_nodes = sys_probe.adg.node_count();
        let mut sim = 0.0f64;
        let name = k.name();
        let Some(vs) = self.mdfgs.get(name) else {
            return (None, sim);
        };
        let opts = RepairOptions {
            footprint: Some(footprint),
            scope: scope.cloned(),
            ..RepairOptions::default()
        };
        let mut repair_failed_variant = None;
        if let Some(p) = prior.get(name) {
            if let Some(v) = vs.iter().find(|v| v.variant() == p.variant) {
                let repair_timer = self.phase(Phase::Repair, footprint.name());
                let outcome = repair_with(p, v, sys_probe, &opts);
                drop(repair_timer);
                let capture_timer = self.phase(Phase::Capture, footprint.name());
                match outcome {
                    Ok((s, RepairOutcome::Intact)) => {
                        counters.intact.inc();
                        event!("dse.repair", workload = name, outcome = "intact");
                        sim += self.time.repair_seconds(2, adg_nodes);
                        return (Some((v.variant(), s)), sim);
                    }
                    Ok((s, RepairOutcome::Repaired { moved })) => {
                        counters.repairs.inc();
                        counters.repair_moved.record(moved as u64);
                        event!(
                            "dse.repair",
                            workload = name,
                            outcome = "repaired",
                            moved = moved,
                        );
                        sim += self.time.repair_seconds(moved.max(1), adg_nodes);
                        return (Some((v.variant(), s)), sim);
                    }
                    Err(_) => {
                        // The fallback already ran (and failed) the seeded
                        // full placement inside `repair_with`; charge it
                        // and skip this variant in the walk below.
                        counters.full_schedules.inc();
                        event!("dse.repair", workload = name, outcome = "reschedule");
                        sim += self.time.schedule_seconds(v.node_count(), adg_nodes);
                        repair_failed_variant = Some(v.variant());
                    }
                }
                drop(capture_timer);
            }
        }
        for v in vs {
            if repair_failed_variant == Some(v.variant()) {
                continue;
            }
            counters.full_schedules.inc();
            sim += self.time.schedule_seconds(v.node_count(), adg_nodes);
            let _schedule_timer = self.phase(Phase::Schedule, footprint.name());
            if let Ok(s) = overgen_scheduler::schedule(v, sys_probe, None) {
                return (Some((v.variant(), s)), sim);
            }
        }
        (None, sim)
    }
}

/// One point on the trade-off frontier: IPC against the four accelerator
/// resource channels, plus — under a placement-aware objective — the
/// placement quality axes (wirelength, congestion, SLR crossings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Weighted-geomean estimated IPC of the design.
    pub ipc: f64,
    /// Accelerator-tile resource vector of the design.
    pub resources: Resources,
    /// Placement quality of the design. `None` on default-objective runs,
    /// where the frontier stays the historical two-axis IPC/resources
    /// trade-off.
    pub placement: Option<PlacementMetrics>,
}

impl ParetoPoint {
    /// A two-axis point (no placement), as every pre-placement caller
    /// built them.
    pub fn new(ipc: f64, resources: Resources) -> ParetoPoint {
        ParetoPoint {
            ipc,
            resources,
            placement: None,
        }
    }

    /// `self` dominates `other` when it is no worse on every axis (IPC
    /// maximized; resource channels and — when both points carry them —
    /// placement wirelength/congestion/SLR-crossings minimized) and
    /// strictly better on at least one. Points without placement metrics
    /// compare exactly as before, so default-objective frontiers are
    /// unchanged.
    fn dominates(&self, other: &ParetoPoint) -> bool {
        let mut no_worse = self.ipc >= other.ipc
            && self.resources.lut <= other.resources.lut
            && self.resources.ff <= other.resources.ff
            && self.resources.bram <= other.resources.bram
            && self.resources.dsp <= other.resources.dsp;
        let mut better = self.ipc > other.ipc
            || self.resources.lut < other.resources.lut
            || self.resources.ff < other.resources.ff
            || self.resources.bram < other.resources.bram
            || self.resources.dsp < other.resources.dsp;
        if let (Some(a), Some(b)) = (&self.placement, &other.placement) {
            no_worse &= a.wirelength <= b.wirelength
                && a.congestion <= b.congestion
                && a.slr_crossings <= b.slr_crossings;
            better |= a.wirelength < b.wirelength
                || a.congestion < b.congestion
                || a.slr_crossings < b.slr_crossings;
        }
        no_worse && better
    }

    /// Canonical ordering of the placement axes: wirelength, congestion,
    /// then crossings ascending; placement-free points tie.
    fn placement_cmp(&self, other: &ParetoPoint) -> std::cmp::Ordering {
        match (&self.placement, &other.placement) {
            (Some(a), Some(b)) => a
                .wirelength
                .total_cmp(&b.wirelength)
                .then(a.congestion.total_cmp(&b.congestion))
                .then(a.slr_crossings.cmp(&b.slr_crossings)),
            _ => std::cmp::Ordering::Equal,
        }
    }
}

/// The non-dominated frontier of every design point a run evaluated:
/// IPC (maximize) against the four accelerator resource channels
/// (minimize). Kept in a canonical order — IPC descending, then
/// LUT/FF/BRAM/DSP ascending — so the frontier is deterministic and
/// independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// An empty frontier.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Build a frontier from arbitrary points (dominated ones are
    /// discarded).
    pub fn from_points<I: IntoIterator<Item = ParetoPoint>>(points: I) -> Self {
        let mut f = ParetoFront::new();
        for p in points {
            f.insert(p);
        }
        f
    }

    /// Offer a point. Returns `true` when it joined the frontier (it was
    /// not dominated by, or identical to, an existing point); dominated
    /// incumbents are evicted.
    pub fn insert(&mut self, p: ParetoPoint) -> bool {
        if self.points.iter().any(|q| q.dominates(&p) || *q == p) {
            return false;
        }
        self.points.retain(|q| !p.dominates(q));
        self.points.push(p);
        self.points.sort_by(|a, b| {
            b.ipc
                .total_cmp(&a.ipc)
                .then(a.resources.lut.total_cmp(&b.resources.lut))
                .then(a.resources.ff.total_cmp(&b.resources.ff))
                .then(a.resources.bram.total_cmp(&b.resources.bram))
                .then(a.resources.dsp.total_cmp(&b.resources.dsp))
                .then(a.placement_cmp(b))
        });
        true
    }

    /// Merge another frontier into this one (used to combine per-chain
    /// frontiers in chain-index order).
    pub fn merge(&mut self, other: &ParetoFront) {
        for p in &other.points {
            self.insert(*p);
        }
    }

    /// The frontier, in canonical order.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(ipc: f64, lut: f64, bram: f64) -> ParetoPoint {
        ParetoPoint::new(
            ipc,
            Resources {
                lut,
                ff: lut * 1.2,
                bram,
                dsp: 8.0,
            },
        )
    }

    fn place_pt(ipc: f64, lut: f64, wirelength: f64, congestion: f64, slr: u64) -> ParetoPoint {
        ParetoPoint {
            placement: Some(PlacementMetrics {
                wirelength,
                congestion,
                slr_crossings: slr,
                fmax_mhz: 100.0,
            }),
            ..pt(ipc, lut, 100.0)
        }
    }

    #[test]
    fn dominated_points_never_join_and_get_evicted() {
        let mut f = ParetoFront::new();
        assert!(f.insert(pt(10.0, 50_000.0, 100.0)));
        // Strictly worse: rejected.
        assert!(!f.insert(pt(9.0, 60_000.0, 120.0)));
        assert_eq!(f.len(), 1);
        // Strictly better: evicts the incumbent.
        assert!(f.insert(pt(11.0, 40_000.0, 90.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].ipc, 11.0);
        // Trade-off (slower but smaller): coexists.
        assert!(f.insert(pt(6.0, 10_000.0, 20.0)));
        assert_eq!(f.len(), 2);
        // Duplicate: rejected.
        assert!(!f.insert(pt(6.0, 10_000.0, 20.0)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn frontier_is_insertion_order_independent() {
        let pts = [
            pt(10.0, 50_000.0, 100.0),
            pt(6.0, 10_000.0, 20.0),
            pt(9.0, 60_000.0, 120.0),
            pt(8.0, 30_000.0, 60.0),
            pt(10.0, 50_000.0, 100.0),
        ];
        let fwd = ParetoFront::from_points(pts);
        let rev = ParetoFront::from_points(pts.into_iter().rev());
        assert_eq!(fwd, rev);
        // Canonical order: IPC descending.
        for w in fwd.points().windows(2) {
            assert!(w[0].ipc >= w[1].ipc);
        }
    }

    /// The third axis: identical IPC and resources with better placement
    /// must dominate, and a placement trade-off must coexist.
    #[test]
    fn placement_is_a_dominance_axis() {
        let mut f = ParetoFront::new();
        assert!(f.insert(place_pt(10.0, 50_000.0, 20.0, 0.9, 4)));
        // Same IPC/area, strictly better placement: replaces.
        assert!(f.insert(place_pt(10.0, 50_000.0, 12.0, 0.7, 2)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].placement.unwrap().slr_crossings, 2);
        // Worse placement but better IPC: a genuine trade-off, coexists.
        assert!(f.insert(place_pt(12.0, 50_000.0, 30.0, 1.1, 6)));
        assert_eq!(f.len(), 2);
        // Worse on every axis including placement: rejected.
        assert!(!f.insert(place_pt(9.0, 60_000.0, 40.0, 1.2, 8)));
        // Canonical order is deterministic regardless of insertion order.
        let rev = ParetoFront::from_points(f.points().iter().rev().copied());
        assert_eq!(f, rev);
    }

    /// Placement-free points (default objective) compare exactly as
    /// before: the new axis contributes nothing when absent.
    #[test]
    fn placement_free_points_keep_two_axis_semantics() {
        let mut f = ParetoFront::new();
        f.insert(pt(10.0, 50_000.0, 100.0));
        assert!(!f.insert(pt(10.0, 50_000.0, 100.0)));
        assert!(f.insert(pt(10.0, 45_000.0, 100.0)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn resource_only_improvement_joins() {
        let mut f = ParetoFront::new();
        f.insert(pt(10.0, 50_000.0, 100.0));
        // Same IPC, fewer LUTs: dominates and replaces.
        assert!(f.insert(pt(10.0, 45_000.0, 100.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].resources.lut, 45_000.0);
    }
}
