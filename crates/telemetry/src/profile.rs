//! Phase-level wall-time attribution for DSE runs.
//!
//! A [`Profiler`] aggregates the wall-clock microseconds each pipeline
//! phase spends — validate / compile / schedule / repair / system-DSE /
//! simulate / objective, keyed by the proposal's
//! `ScheduleFootprint` class — into per-`(phase, class)` [`Histogram`]s,
//! plus "hot key" tables (time per workload, per system-DSE grid point)
//! for top-k reporting. The end-of-run [`ProfileSnapshot`] renders to the
//! `profile.json` schema documented in DESIGN.md §11.
//!
//! The profiler is deliberately **not** part of the [`Collector`] world:
//! it never emits events, never touches the ambient metrics [`Registry`],
//! and stores real (non-deterministic) wall times. Keeping it out of the
//! trace path is what lets profiling run unconditionally while traces stay
//! byte-identical with the profiler installed or absent — the determinism
//! suite proves exactly that.
//!
//! Like the collector, a profiler is installed per thread
//! ([`install_profiler`]) and discovered with [`current_profiler`]; code
//! that fans work out to a pool captures the `Arc` instead (worker threads
//! have no thread-local state).
//!
//! [`Collector`]: crate::Collector
//! [`Registry`]: crate::Registry

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Obj;
use crate::metrics::Histogram;

/// A pipeline phase, as attributed in `profile.json`.
///
/// [`Phase::Eval`] is the umbrella around one full proposal evaluation
/// (cache misses only — a hit replays a stored artifact and costs no
/// attributable phase time); the other evaluation-side phases nest inside
/// it, so `attributed / eval_total` is the coverage ratio the acceptance
/// gate checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// System-ADG validation plus the objective's hard admissibility gate.
    Validate,
    /// Up-front mDFG variant generation (once per run, outside `Eval`).
    Compile,
    /// Full from-scratch scheduling of one variant.
    Schedule,
    /// Incremental schedule repair (fast path and fallback).
    Repair,
    /// The nested exhaustive system-parameter sweep.
    SystemDse,
    /// Cycle-level simulation (bench/overlay execution, outside `Eval`).
    Simulate,
    /// Closed-form analytic lower-bound pruning in the simulator-backed
    /// system DSE.
    Analytic,
    /// Spatial placement onto the modeled clock-region grid (only under a
    /// placement-aware objective; absent from default-config profiles).
    Place,
    /// Performance estimation and fitness scoring.
    Objective,
    /// Umbrella: one uncached proposal evaluation end to end.
    Eval,
}

impl Phase {
    /// Every phase, in canonical report order.
    pub const ALL: [Phase; 10] = [
        Phase::Validate,
        Phase::Compile,
        Phase::Schedule,
        Phase::Repair,
        Phase::SystemDse,
        Phase::Simulate,
        Phase::Analytic,
        Phase::Place,
        Phase::Objective,
        Phase::Eval,
    ];

    /// Phases nested inside [`Phase::Eval`]; their sum is the "attributed"
    /// share of total evaluation time.
    pub const EVAL_INNER: [Phase; 6] = [
        Phase::Validate,
        Phase::Schedule,
        Phase::Repair,
        Phase::SystemDse,
        Phase::Place,
        Phase::Objective,
    ];

    /// Stable label used in `profile.json` and the phase table.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Validate => "validate",
            Phase::Compile => "compile",
            Phase::Schedule => "schedule",
            Phase::Repair => "repair",
            Phase::SystemDse => "system-dse",
            Phase::Simulate => "simulate",
            Phase::Analytic => "analytic",
            Phase::Place => "place",
            Phase::Objective => "objective",
            Phase::Eval => "eval",
        }
    }
}

/// Class label for phase samples with no associated proposal footprint
/// (compile, simulate, seed evaluations run with `ScheduleFootprint::Pure`
/// and use its name instead).
pub const NO_CLASS: &str = "-";

#[derive(Debug, Default, Clone, Copy)]
struct HotAgg {
    count: u64,
    total_us: u64,
}

/// Aggregates phase wall times. Cheap to share (`Arc`) and update from
/// worker threads: one mutex-guarded map lookup plus relaxed atomic
/// histogram ops per sample.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<BTreeMap<(Phase, &'static str), Histogram>>,
    hot: Mutex<BTreeMap<(&'static str, String), HotAgg>>,
}

impl Profiler {
    /// A fresh, empty profiler.
    pub fn new() -> Arc<Self> {
        Arc::new(Profiler::default())
    }

    /// Record one phase sample of `micros` wall microseconds.
    pub fn record(&self, phase: Phase, class: &'static str, micros: u64) {
        let hist = {
            let mut m = self.phases.lock().unwrap();
            m.entry((phase, class)).or_default().clone()
        };
        hist.record(micros);
    }

    /// Fold `micros` into the hot-key table `dim` (e.g. `"workload"`,
    /// `"sys-grid"`) under `key`.
    pub fn record_hot(&self, dim: &'static str, key: &str, micros: u64) {
        let mut m = self.hot.lock().unwrap();
        let agg = m.entry((dim, key.to_string())).or_default();
        agg.count += 1;
        agg.total_us += micros;
    }

    /// Start timing a phase; the sample is recorded when the returned
    /// guard drops.
    pub fn phase(self: &Arc<Self>, phase: Phase, class: &'static str) -> PhaseTimer {
        PhaseTimer {
            prof: Arc::clone(self),
            phase,
            class,
            start: Instant::now(),
        }
    }

    /// Start timing a hot-key entry; recorded under (`dim`, `key`) on drop.
    pub fn hot_timer(self: &Arc<Self>, dim: &'static str, key: &str) -> HotTimer {
        HotTimer {
            prof: Arc::clone(self),
            dim,
            key: key.to_string(),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of every aggregate, in canonical order.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let rows = {
            let m = self.phases.lock().unwrap();
            m.iter()
                .map(|((phase, class), h)| PhaseRow {
                    phase: *phase,
                    class,
                    count: h.count(),
                    total_us: h.sum(),
                    mean_us: h.mean(),
                    p50_us: h.percentile(50.0),
                    p95_us: h.percentile(95.0),
                    p99_us: h.percentile(99.0),
                    max_us: h.max(),
                })
                .collect()
        };
        let hot = {
            let m = self.hot.lock().unwrap();
            m.iter()
                .map(|((dim, key), agg)| HotRow {
                    dim,
                    key: key.clone(),
                    count: agg.count,
                    total_us: agg.total_us,
                })
                .collect()
        };
        ProfileSnapshot { rows, hot }
    }
}

/// RAII guard from [`Profiler::phase`]; records elapsed µs on drop.
#[must_use = "a phase sample is recorded when its timer drops"]
pub struct PhaseTimer {
    prof: Arc<Profiler>,
    phase: Phase,
    class: &'static str,
    start: Instant,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.prof.record(self.phase, self.class, us);
    }
}

/// RAII guard from [`Profiler::hot_timer`].
#[must_use = "a hot-key sample is recorded when its timer drops"]
pub struct HotTimer {
    prof: Arc<Profiler>,
    dim: &'static str,
    key: String,
    start: Instant,
}

impl Drop for HotTimer {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.prof.record_hot(self.dim, &self.key, us);
    }
}

thread_local! {
    static PROFILERS: RefCell<Vec<Arc<Profiler>>> = const { RefCell::new(Vec::new()) };
}

/// Install `profiler` as this thread's current profiler until the returned
/// guard drops. Installs nest; the innermost wins.
#[must_use = "the profiler is uninstalled when this guard drops"]
pub fn install_profiler(profiler: Arc<Profiler>) -> ProfilerGuard {
    PROFILERS.with(|s| s.borrow_mut().push(profiler));
    ProfilerGuard { _priv: () }
}

/// Guard returned by [`install_profiler`]; pops the profiler on drop.
pub struct ProfilerGuard {
    _priv: (),
}

impl Drop for ProfilerGuard {
    fn drop(&mut self) {
        PROFILERS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The innermost installed profiler on this thread, if any.
pub fn current_profiler() -> Option<Arc<Profiler>> {
    PROFILERS.with(|s| s.borrow().last().cloned())
}

/// Time a phase against the current profiler, if one is installed. For
/// leaf call sites (e.g. the simulator entry point) that should not carry
/// profiler plumbing in their signatures.
pub fn maybe_phase(phase: Phase, class: &'static str) -> Option<PhaseTimer> {
    current_profiler().map(|p| p.phase(phase, class))
}

/// One `(phase, class)` aggregate in a [`ProfileSnapshot`].
#[derive(Debug, Clone)]
pub struct PhaseRow {
    pub phase: Phase,
    pub class: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// One hot-key aggregate (`dim` × `key`).
#[derive(Debug, Clone)]
pub struct HotRow {
    pub dim: &'static str,
    pub key: String,
    pub count: u64,
    pub total_us: u64,
}

/// Cache traffic the run saw, used to compute cache-hit-adjusted phase
/// costs: `total_us × lookups ⁄ misses` estimates what a phase would have
/// cost had every memoized hit been computed fresh.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub eval_hits: u64,
    pub eval_misses: u64,
    pub system_hits: u64,
    pub system_misses: u64,
}

impl CacheStats {
    /// Adjustment factor for phases inside the evaluation cache.
    fn eval_factor(&self) -> f64 {
        factor(self.eval_hits, self.eval_misses)
    }

    /// Adjustment factor for the system-DSE cache (which nests inside the
    /// evaluation cache, so both factors compound).
    fn system_factor(&self) -> f64 {
        self.eval_factor() * factor(self.system_hits, self.system_misses)
    }
}

fn factor(hits: u64, misses: u64) -> f64 {
    if misses == 0 {
        1.0
    } else {
        (hits + misses) as f64 / misses as f64
    }
}

/// A frozen view of a [`Profiler`], ready for reporting.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Per-`(phase, class)` aggregates, keyed canonically.
    pub rows: Vec<PhaseRow>,
    /// Hot-key aggregates, keyed canonically.
    pub hot: Vec<HotRow>,
}

impl ProfileSnapshot {
    /// Total microseconds recorded for one phase across all classes.
    pub fn phase_total_us(&self, phase: Phase) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.total_us)
            .sum()
    }

    /// Microseconds attributed to a named phase inside evaluations.
    pub fn attributed_us(&self) -> u64 {
        Phase::EVAL_INNER
            .iter()
            .map(|&p| self.phase_total_us(p))
            .sum()
    }

    /// Total umbrella evaluation microseconds (uncached evaluations only).
    pub fn eval_total_us(&self) -> u64 {
        self.phase_total_us(Phase::Eval)
    }

    /// Share of total eval wall time attributed to a named phase. Each
    /// evaluation runs on one thread, so this is ≤ 1 unless phase timers
    /// of one evaluation overlap. `1.0` when nothing was evaluated.
    pub fn coverage(&self) -> f64 {
        let total = self.eval_total_us();
        if total == 0 {
            1.0
        } else {
            self.attributed_us() as f64 / total as f64
        }
    }

    /// The top-`k` hottest keys of dimension `dim` by total time.
    pub fn top_hot(&self, dim: &str, k: usize) -> Vec<&HotRow> {
        let mut rows: Vec<&HotRow> = self.hot.iter().filter(|r| r.dim == dim).collect();
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.key.cmp(&b.key)));
        rows.truncate(k);
        rows
    }

    /// Render the `overgen.profile/1` JSON document (DESIGN.md §11).
    pub fn render_json(&self, experiment: &str, cache: &CacheStats, top_k: usize) -> String {
        let eval_total = self.eval_total_us();
        let phases = arr(self.rows.iter().map(|r| {
            let share = if eval_total > 0 {
                r.total_us as f64 / eval_total as f64
            } else {
                0.0
            };
            let adjust = match r.phase {
                Phase::SystemDse => cache.system_factor(),
                Phase::Compile | Phase::Simulate => 1.0,
                _ => cache.eval_factor(),
            };
            Obj::new()
                .str("phase", r.phase.name())
                .str("class", r.class)
                .u64("count", r.count)
                .u64("total_us", r.total_us)
                .f64("mean_us", r.mean_us)
                .u64("p50_us", r.p50_us)
                .u64("p95_us", r.p95_us)
                .u64("p99_us", r.p99_us)
                .u64("max_us", r.max_us)
                .f64("share", share)
                .f64("cache_adjusted_us", r.total_us as f64 * adjust)
                .finish()
        }));
        let hot_dim = |dim: &str| {
            arr(self.top_hot(dim, top_k).iter().map(|r| {
                Obj::new()
                    .str("key", &r.key)
                    .u64("count", r.count)
                    .u64("total_us", r.total_us)
                    .finish()
            }))
        };
        let hot = Obj::new()
            .raw("workload", &hot_dim("workload"))
            .raw("sys-grid", &hot_dim("sys-grid"))
            .finish();
        let cache_obj = Obj::new()
            .u64("eval_hits", cache.eval_hits)
            .u64("eval_misses", cache.eval_misses)
            .u64("system_hits", cache.system_hits)
            .u64("system_misses", cache.system_misses)
            .finish();
        Obj::new()
            .str("schema", "overgen.profile/1")
            .str("experiment", experiment)
            .str("clock", "wall_us")
            .u64("eval_total_us", eval_total)
            .u64("attributed_us", self.attributed_us())
            .f64("coverage", self.coverage())
            .raw("cache", &cache_obj)
            .raw("phases", &phases)
            .raw("hot", &hot)
            .finish()
    }
}

fn arr<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn phase_timer_records_into_the_right_bucket() {
        let p = Profiler::new();
        {
            let _t = p.phase(Phase::Repair, "additive");
        }
        p.record(Phase::Repair, "additive", 100);
        p.record(Phase::Eval, "additive", 400);
        let snap = p.snapshot();
        let row = snap
            .rows
            .iter()
            .find(|r| r.phase == Phase::Repair && r.class == "additive")
            .expect("repair row exists");
        assert_eq!(row.count, 2);
        assert!(row.total_us >= 100);
        assert_eq!(snap.eval_total_us(), 400);
    }

    #[test]
    fn coverage_is_attributed_over_eval_total() {
        let p = Profiler::new();
        p.record(Phase::Eval, NO_CLASS, 1000);
        p.record(Phase::Schedule, NO_CLASS, 600);
        p.record(Phase::SystemDse, NO_CLASS, 390);
        // Compile and simulate sit outside the eval umbrella.
        p.record(Phase::Compile, NO_CLASS, 5000);
        p.record(Phase::Simulate, NO_CLASS, 5000);
        let snap = p.snapshot();
        assert_eq!(snap.attributed_us(), 990);
        assert!((snap.coverage() - 0.99).abs() < 1e-12);
        // An idle profiler reports full coverage, not a 0/0 panic.
        assert_eq!(Profiler::new().snapshot().coverage(), 1.0);
    }

    #[test]
    fn hot_keys_rank_by_total_time() {
        let p = Profiler::new();
        p.record_hot("workload", "gemm", 50);
        p.record_hot("workload", "gemm", 50);
        p.record_hot("workload", "fir", 30);
        p.record_hot("workload", "spmv", 200);
        p.record_hot("sys-grid", "tiles=4", 10);
        let snap = p.snapshot();
        let top: Vec<&str> = snap
            .top_hot("workload", 2)
            .iter()
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(top, ["spmv", "gemm"]);
        assert_eq!(snap.top_hot("sys-grid", 5).len(), 1);
    }

    #[test]
    fn install_nests_and_maybe_phase_uses_innermost() {
        assert!(current_profiler().is_none());
        assert!(maybe_phase(Phase::Simulate, NO_CLASS).is_none());
        let outer = Profiler::new();
        let inner = Profiler::new();
        let _g1 = install_profiler(outer.clone());
        {
            let _g2 = install_profiler(inner.clone());
            drop(maybe_phase(Phase::Simulate, NO_CLASS));
        }
        drop(maybe_phase(Phase::Compile, NO_CLASS));
        assert_eq!(inner.snapshot().phase_total_us(Phase::Compile), 0);
        assert_eq!(inner.snapshot().rows.len(), 1);
        assert_eq!(outer.snapshot().rows.len(), 1);
        assert_eq!(outer.snapshot().rows[0].phase, Phase::Compile);
    }

    #[test]
    fn render_json_carries_schema_and_cache_adjustment() {
        let p = Profiler::new();
        p.record(Phase::Eval, "pure", 1000);
        p.record(Phase::Schedule, "pure", 980);
        p.record_hot("workload", "gemm", 980);
        let cache = CacheStats {
            eval_hits: 3,
            eval_misses: 1,
            ..Default::default()
        };
        let doc = p.snapshot().render_json("unit", &cache, 5);
        let v = json::parse(&doc).expect("profile.json parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("overgen.profile/1"));
        assert_eq!(v.get("eval_total_us").unwrap().as_u64(), Some(1000));
        assert_eq!(v.get("attributed_us").unwrap().as_u64(), Some(980));
        // 4 lookups / 1 miss: adjusted cost is 4x the measured cost.
        let phases = match v.get("phases").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("phases not an array: {other:?}"),
        };
        let sched = phases
            .iter()
            .find(|p| p.get("phase").and_then(json::Value::as_str) == Some("schedule"))
            .unwrap();
        assert_eq!(
            sched.get("cache_adjusted_us").and_then(json::Value::as_f64),
            Some(3920.0)
        );
        let hot = v.get("hot").unwrap().get("workload").unwrap();
        match hot {
            json::Value::Arr(a) => {
                assert_eq!(a[0].get("key").unwrap().as_str(), Some("gemm"));
            }
            other => panic!("hot.workload not an array: {other:?}"),
        }
    }

    #[test]
    fn zero_misses_mean_no_adjustment() {
        let c = CacheStats {
            eval_hits: 10,
            eval_misses: 0,
            system_hits: 2,
            system_misses: 0,
        };
        assert_eq!(c.eval_factor(), 1.0);
        assert_eq!(c.system_factor(), 1.0);
    }
}
