//! Phase-level wall-time attribution for DSE runs.
//!
//! A [`Profiler`] aggregates the wall-clock time each pipeline phase
//! spends — validate / compile / schedule / repair / system-DSE /
//! cache-key / capture / simulate / objective, keyed by the proposal's
//! `ScheduleFootprint` class — into per-`(phase, class)` [`Histogram`]s,
//! plus "hot key" tables (time per workload, per system-DSE grid point)
//! for top-k reporting. Samples accumulate in nanoseconds and are reported
//! in (rounded) microseconds, so many short samples do not each lose up to
//! a microsecond. The end-of-run [`ProfileSnapshot`] renders to the
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
use std::time::{Duration, Instant};

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
    /// System-ADG validation plus the objective's hard admissibility gate,
    /// and freeing the validation probe once scheduling is done.
    Validate,
    /// Up-front mDFG variant generation (once per run, outside `Eval`).
    Compile,
    /// Full from-scratch scheduling of one variant.
    Schedule,
    /// Incremental schedule repair (fast path and fallback).
    Repair,
    /// The nested exhaustive system-parameter sweep.
    SystemDse,
    /// Hashing the system-DSE memo and store keys (ADG fingerprint plus
    /// every workload's variant and scratchpad placement).
    CacheKey,
    /// Telemetry bookkeeping inside an evaluation: binding the capture
    /// registry's counter handles, emitting the per-workload repair
    /// events, and replaying the (memoized) system-DSE trace.
    Capture,
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
    pub const ALL: [Phase; 12] = [
        Phase::Validate,
        Phase::Compile,
        Phase::Schedule,
        Phase::Repair,
        Phase::SystemDse,
        Phase::CacheKey,
        Phase::Capture,
        Phase::Simulate,
        Phase::Analytic,
        Phase::Place,
        Phase::Objective,
        Phase::Eval,
    ];

    /// Phases nested inside [`Phase::Eval`]; their sum is the "attributed"
    /// share of total evaluation time.
    pub const EVAL_INNER: [Phase; 8] = [
        Phase::Validate,
        Phase::Schedule,
        Phase::Repair,
        Phase::SystemDse,
        Phase::CacheKey,
        Phase::Capture,
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
            Phase::CacheKey => "cache-key",
            Phase::Capture => "capture",
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
    total_ns: u64,
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX`.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to microseconds, rounded to nearest.
fn ns_to_us(ns: u64) -> u64 {
    ns / 1_000 + u64::from(ns % 1_000 >= 500)
}

/// Aggregates phase wall times. Cheap to share (`Arc`) and update from
/// worker threads: one mutex-guarded map lookup plus relaxed atomic
/// histogram ops per sample. Histograms hold nanoseconds.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<BTreeMap<(Phase, &'static str), Histogram>>,
    /// Hot-key aggregates by dimension, then key.
    hot: Mutex<BTreeMap<&'static str, BTreeMap<String, HotAgg>>>,
}

impl Profiler {
    /// A fresh, empty profiler.
    pub fn new() -> Arc<Self> {
        Arc::new(Profiler::default())
    }

    /// The shared histogram of one `(phase, class)`, created on first use.
    fn histogram(&self, phase: Phase, class: &'static str) -> Histogram {
        let mut m = self
            .phases
            .lock()
            .expect("no thread panics while holding the phase map");
        m.entry((phase, class)).or_default().clone()
    }

    /// Record one phase sample of `elapsed` wall time.
    pub fn record(&self, phase: Phase, class: &'static str, elapsed: Duration) {
        self.histogram(phase, class).record(nanos(elapsed));
    }

    /// Fold `elapsed` into the hot-key table `dim` (e.g. `"workload"`,
    /// `"sys-grid"`) under `key`.
    pub fn record_hot(&self, dim: &'static str, key: &str, elapsed: Duration) {
        let mut m = self.hot.lock().unwrap();
        let keys = m.entry(dim).or_default();
        let agg = match keys.get_mut(key) {
            Some(agg) => agg,
            None => keys.entry(key.to_string()).or_default(),
        };
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(nanos(elapsed));
    }

    /// Start timing a phase; the sample is recorded when the returned
    /// guard drops.
    ///
    /// The clock starts before the histogram lookup, so the timer's own
    /// bookkeeping is charged to the phase it times; the drop only adds
    /// into the resolved histogram.
    pub fn phase(&self, phase: Phase, class: &'static str) -> PhaseTimer {
        let start = Instant::now();
        PhaseTimer {
            hist: self.histogram(phase, class),
            start,
        }
    }

    /// Start timing a hot-key entry; recorded under (`dim`, `key`) on drop.
    pub fn hot_timer<'a>(&'a self, dim: &'static str, key: &'a str) -> HotTimer<'a> {
        HotTimer {
            prof: self,
            dim,
            key,
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
                    total_ns: h.sum(),
                    total_us: ns_to_us(h.sum()),
                    mean_us: h.mean() / 1_000.0,
                    p50_us: ns_to_us(h.percentile(50.0)),
                    p95_us: ns_to_us(h.percentile(95.0)),
                    p99_us: ns_to_us(h.percentile(99.0)),
                    max_us: ns_to_us(h.max()),
                })
                .collect()
        };
        let hot = {
            let m = self.hot.lock().unwrap();
            m.iter()
                .flat_map(|(dim, keys)| {
                    keys.iter().map(|(key, agg)| HotRow {
                        dim,
                        key: key.clone(),
                        count: agg.count,
                        total_us: ns_to_us(agg.total_ns),
                    })
                })
                .collect()
        };
        ProfileSnapshot { rows, hot }
    }
}

/// RAII guard from [`Profiler::phase`]; records the elapsed time on drop.
#[must_use = "a phase sample is recorded when its timer drops"]
pub struct PhaseTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.hist.record(nanos(self.start.elapsed()));
    }
}

/// RAII guard from [`Profiler::hot_timer`].
#[must_use = "a hot-key sample is recorded when its timer drops"]
pub struct HotTimer<'a> {
    prof: &'a Profiler,
    dim: &'static str,
    key: &'a str,
    start: Instant,
}

impl Drop for HotTimer<'_> {
    fn drop(&mut self) {
        self.prof
            .record_hot(self.dim, self.key, self.start.elapsed());
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
    /// Exact sum of the samples; `total_us` is it rounded.
    pub total_ns: u64,
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
    fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.total_ns)
            .sum()
    }

    fn attributed_ns(&self) -> u64 {
        Phase::EVAL_INNER
            .iter()
            .map(|&p| self.phase_total_ns(p))
            .sum()
    }

    /// Total microseconds recorded for one phase across all classes.
    pub fn phase_total_us(&self, phase: Phase) -> u64 {
        ns_to_us(self.phase_total_ns(phase))
    }

    /// Microseconds attributed to a named phase inside evaluations.
    pub fn attributed_us(&self) -> u64 {
        ns_to_us(self.attributed_ns())
    }

    /// Total umbrella evaluation microseconds (uncached evaluations only).
    pub fn eval_total_us(&self) -> u64 {
        self.phase_total_us(Phase::Eval)
    }

    /// Umbrella evaluation microseconds no named phase claims:
    /// `eval_total_us - attributed_us`, or 0 if overlapping phase timers
    /// push the attributed time past the total.
    pub fn unattributed_us(&self) -> u64 {
        self.eval_total_us().saturating_sub(self.attributed_us())
    }

    /// Share of total eval wall time attributed to a named phase. Each
    /// evaluation runs on one thread, so this is ≤ 1 unless phase timers
    /// of one evaluation overlap. `1.0` when nothing was evaluated.
    pub fn coverage(&self) -> f64 {
        let total = self.phase_total_ns(Phase::Eval);
        if total == 0 {
            1.0
        } else {
            self.attributed_ns() as f64 / total as f64
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
        let share = |us: u64| {
            if eval_total > 0 {
                us as f64 / eval_total as f64
            } else {
                0.0
            }
        };
        // The unattributed remainder of the eval umbrella, as a derived
        // row after the measured ones.
        let unattributed = Obj::new()
            .str("phase", "unattributed")
            .str("class", NO_CLASS)
            .u64("total_us", self.unattributed_us())
            .f64("share", share(self.unattributed_us()))
            .f64(
                "cache_adjusted_us",
                self.unattributed_us() as f64 * cache.eval_factor(),
            )
            .finish();
        let phases = arr(self
            .rows
            .iter()
            .map(|r| {
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
                    .f64("share", share(r.total_us))
                    .f64("cache_adjusted_us", r.total_us as f64 * adjust)
                    .finish()
            })
            .chain([unattributed]));
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
            .u64("unattributed_us", self.unattributed_us())
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

    fn us(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    #[test]
    fn phase_timer_records_into_the_right_bucket() {
        let p = Profiler::new();
        {
            let _t = p.phase(Phase::Repair, "additive");
        }
        p.record(Phase::Repair, "additive", us(100));
        p.record(Phase::Eval, "additive", us(400));
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
        p.record(Phase::Eval, NO_CLASS, us(1000));
        p.record(Phase::Schedule, NO_CLASS, us(600));
        p.record(Phase::SystemDse, NO_CLASS, us(390));
        // Compile and simulate sit outside the eval umbrella.
        p.record(Phase::Compile, NO_CLASS, us(5000));
        p.record(Phase::Simulate, NO_CLASS, us(5000));
        let snap = p.snapshot();
        assert_eq!(snap.attributed_us(), 990);
        assert!((snap.coverage() - 0.99).abs() < 1e-12);
        // An idle profiler reports full coverage, not a 0/0 panic.
        assert_eq!(Profiler::new().snapshot().coverage(), 1.0);
    }

    #[test]
    fn short_samples_keep_their_fractional_microseconds() {
        // 1000 samples of 1.6 µs are 1.6 ms; flooring each sample to whole
        // microseconds would report 1.0 ms.
        let p = Profiler::new();
        for _ in 0..1000 {
            p.record(Phase::Repair, NO_CLASS, Duration::from_nanos(1_600));
            p.record_hot("workload", "fir", Duration::from_nanos(1_600));
        }
        let snap = p.snapshot();
        assert_eq!(snap.phase_total_us(Phase::Repair), 1_600);
        assert_eq!(snap.top_hot("workload", 1)[0].total_us, 1_600);
        let row = &snap.rows[0];
        assert_eq!(row.total_ns, 1_600_000);
        assert!((row.mean_us - 1.6).abs() < 1e-12);
        assert_eq!(row.max_us, 2, "1.6 µs rounds to 2, not down to 1");
    }

    #[test]
    fn unattributed_completes_the_eval_total() {
        let p = Profiler::new();
        p.record(Phase::Eval, "pure", Duration::from_nanos(1_000_400));
        p.record(Phase::Schedule, "pure", Duration::from_nanos(600_300));
        p.record(Phase::CacheKey, "pure", Duration::from_nanos(10_200));
        p.record(Phase::Capture, "pure", Duration::from_nanos(5_100));
        p.record(Phase::Compile, NO_CLASS, us(9_000));
        let snap = p.snapshot();
        assert_eq!(snap.eval_total_us(), 1_000);
        assert_eq!(snap.attributed_us(), 616);
        assert_eq!(snap.unattributed_us(), 384);
        assert_eq!(
            snap.attributed_us() + snap.unattributed_us(),
            snap.eval_total_us()
        );
        let doc = snap.render_json("unit", &CacheStats::default(), 5);
        let v = json::parse(&doc).expect("profile.json parses");
        assert_eq!(v.get("unattributed_us").unwrap().as_u64(), Some(384));
        let phases = match v.get("phases").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("phases not an array: {other:?}"),
        };
        let row = phases.last().expect("unattributed row");
        assert_eq!(row.get("phase").unwrap().as_str(), Some("unattributed"));
        assert_eq!(row.get("total_us").unwrap().as_u64(), Some(384));
        assert_eq!(row.get("share").unwrap().as_f64(), Some(0.384));
        // Overlapping timers can claim more than the umbrella; the
        // remainder floors at zero instead of wrapping.
        p.record(Phase::Schedule, "pure", us(2_000));
        assert_eq!(p.snapshot().unattributed_us(), 0);
    }

    #[test]
    fn hot_keys_rank_by_total_time() {
        let p = Profiler::new();
        p.record_hot("workload", "gemm", us(50));
        p.record_hot("workload", "gemm", us(50));
        p.record_hot("workload", "fir", us(30));
        p.record_hot("workload", "spmv", us(200));
        p.record_hot("sys-grid", "tiles=4", us(10));
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
        p.record(Phase::Eval, "pure", us(1000));
        p.record(Phase::Schedule, "pure", us(980));
        p.record_hot("workload", "gemm", us(980));
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
