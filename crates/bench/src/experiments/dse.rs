//! Engine throughput benchmark (`BENCH_dse.json`).
//!
//! One wall-clocked preserving DSE run over the repair benchmark's
//! MachSuite domain, recorded as a machine-readable throughput baseline:
//! proposals/sec, acceptance and cache behaviour, and — when the profiler
//! is on (`OVERGEN_PROFILE`, default) — per-phase wall-time totals with
//! attribution coverage. `bench-compare` gates CI on this record: the
//! deterministic ratios (fast share, cache hit rate, coverage) get hard
//! tolerance bands; the wall-clock numbers only get `require:` presence
//! checks, since absolute throughput varies across machines.

use std::time::Instant;

use overgen_dse::{Dse, DseStats};
use overgen_telemetry::{current_profiler, fs::write_atomic, json, Phase};
use overgen_workloads as workloads;

use crate::experiments::repair::DOMAIN;
use crate::harness::{dse_config, dse_iters, results_dir, seed};
use crate::table::Table;

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct DseReport {
    pub stats: DseStats,
    pub wall_seconds: f64,
    pub proposals_per_sec: f64,
    /// `(phase name, total µs)` for every phase that recorded samples;
    /// empty when the profiler is disabled.
    pub phase_totals: Vec<(&'static str, u64)>,
    /// Eval-umbrella µs no named phase claims (`0` when the profiler is
    /// off).
    pub unattributed_us: u64,
    /// Attribution coverage (attributed / eval total); `1.0` when the
    /// profiler is off or nothing was evaluated.
    pub coverage: f64,
}

/// Run the DSE and write `results/BENCH_dse.json`.
pub fn run() -> DseReport {
    let domain: Vec<_> = DOMAIN
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect();
    let cfg = dse_config(dse_iters(), seed() ^ 0x0D5E_0BE2);
    let wall = Instant::now();
    let r = Dse::new(domain, cfg).run().expect("domain schedules");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let stats = r.stats;

    let (phase_totals, unattributed_us, coverage) = match current_profiler() {
        Some(p) => {
            let snap = p.snapshot();
            let totals = Phase::ALL
                .iter()
                .map(|&ph| (ph.name(), snap.phase_total_us(ph)))
                .filter(|(_, us)| *us > 0)
                .collect();
            (totals, snap.unattributed_us(), snap.coverage())
        }
        None => (Vec::new(), 0, 1.0),
    };

    let report = DseReport {
        stats,
        wall_seconds,
        proposals_per_sec: stats.iterations as f64 / wall_seconds.max(1e-9),
        phase_totals,
        unattributed_us,
        coverage,
    };

    let decisions = stats.repair_fast + stats.repair_fallback + stats.full_schedules;
    let lookups = stats.cache_hits + stats.cache_misses;
    let dse = json::Obj::new()
        .u64("iterations", stats.iterations as u64)
        .u64("accepted", stats.accepted as u64)
        .u64("invalid", stats.invalid as u64)
        .u64("cache_hits", stats.cache_hits as u64)
        .u64("cache_misses", stats.cache_misses as u64)
        .f64(
            "cache_hit_rate",
            stats.cache_hits as f64 / lookups.max(1) as f64,
        )
        .u64("repair_fast", stats.repair_fast as u64)
        .u64("repair_fallback", stats.repair_fallback as u64)
        .u64("full_schedules", stats.full_schedules as u64)
        .f64(
            "fast_share",
            stats.repair_fast as f64 / decisions.max(1) as f64,
        )
        .finish();
    let mut phases = json::Obj::new();
    for (name, us) in &report.phase_totals {
        phases = phases.u64(name, *us);
    }
    let profile = json::Obj::new()
        .f64("coverage", report.coverage)
        .u64("unattributed_us", report.unattributed_us)
        .raw("phase_total_us", &phases.finish())
        .finish();
    let record = json::Obj::new()
        .str("bench", "dse")
        .u64("seed", seed())
        .f64("wall_seconds", report.wall_seconds)
        .f64("proposals_per_sec", report.proposals_per_sec)
        .raw("dse", &dse)
        .raw("profile", &profile)
        .finish();
    let path = results_dir().join("BENCH_dse.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &DseReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.row(["proposals".into(), r.stats.iterations.to_string()]);
    t.row(["  accepted".into(), r.stats.accepted.to_string()]);
    t.row(["  invalid".into(), r.stats.invalid.to_string()]);
    t.row([
        "proposals/sec".into(),
        format!("{:.1}", r.proposals_per_sec),
    ]);
    t.row([
        "cache hits / misses".into(),
        format!("{} / {}", r.stats.cache_hits, r.stats.cache_misses),
    ]);
    for (name, us) in &r.phase_totals {
        t.row([format!("phase {name} (us)"), us.to_string()]);
    }
    if !r.phase_totals.is_empty() {
        t.row([
            "phase unattributed (us)".into(),
            r.unattributed_us.to_string(),
        ]);
    }
    t.row([
        "attribution coverage".into(),
        format!("{:.1}%", r.coverage * 100.0),
    ]);
    format!(
        "DSE engine throughput\n\n{t}\n\
         Phase totals are profiler wall time; coverage is the share of the\n\
         eval umbrella attributed to a named phase (serial runs stay <= 1),\n\
         and `unattributed` is the rest of the eval umbrella.\n\
         Record: results/BENCH_dse.json\n"
    )
}
