//! The nested system-level DSE (§V-A): for a candidate accelerator ADG,
//! exhaustively search tile count, L2 banks, L2 capacity, and NoC bandwidth
//! under the FPGA resource budget; "it is relatively inexpensive to nest
//! system DSE inside of spatial DSE".

use overgen_adg::{Adg, SystemParams};
use overgen_mdfg::Mdfg;
use overgen_model::resources::FpgaDevice;
use overgen_model::{
    estimate_ipc, scale_breakdown, tile_breakdown, weighted_geomean_ipc, Placement, ResourceModel,
};
use overgen_scheduler::Schedule;
use overgen_sim::{SimBatch, SimConfig};
use overgen_telemetry::{profile, span, FieldValue, Phase};

/// How the nested system DSE scores a feasible grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SystemDseBackend {
    /// Score with the closed-form `overgen_model::estimate_ipc` (the
    /// historical behaviour, byte-identical traces).
    #[default]
    Estimate,
    /// Score with the cycle-level flow simulator, batched per compiled
    /// schedule. With `prune`, the analytic lower bound skips grid
    /// points that provably cannot beat the incumbent.
    Simulate {
        /// Enable analytic pruning (sound: never changes the winner).
        prune: bool,
    },
}

/// System DSE configuration, including the candidate grids the exhaustive
/// sweep walks. The grids are plain data so tests can shrink or extend the
/// sweep and so evaluation-cache keys can cover non-default grids.
#[derive(Debug, Clone)]
pub struct SystemDseConfig {
    /// Device budget.
    pub device: FpgaDevice,
    /// Maximum utilization of any single resource ("our DSE greedily
    /// consumes as many resources as possible", Q4 — up to this cap).
    pub util_cap: f64,
    /// Candidate tile counts (1..=max explored).
    pub max_tiles: u32,
    /// DRAM channels (fixed by the experiment; 1 for the paper's FPGA).
    pub dram_channels: u32,
    /// Candidate L2 bank counts.
    pub l2_banks_grid: Vec<u32>,
    /// Candidate total L2 capacities in KiB.
    pub l2_kb_grid: Vec<u32>,
    /// Candidate NoC bandwidths in bytes/cycle.
    pub noc_bw_grid: Vec<u32>,
    /// Scoring backend for feasible grid points.
    pub backend: SystemDseBackend,
}

impl Default for SystemDseConfig {
    fn default() -> Self {
        SystemDseConfig {
            device: overgen_model::XCVU9P,
            util_cap: 0.97,
            max_tiles: 16,
            dram_channels: 1,
            l2_banks_grid: vec![2, 4, 8, 16],
            l2_kb_grid: vec![256, 512, 1024, 2048],
            noc_bw_grid: vec![32, 64],
            backend: SystemDseBackend::Estimate,
        }
    }
}

/// Exhaustively choose the best system parameters for an accelerator ADG
/// given the best-scheduled mDFG (plus its scratchpad placement) per
/// workload, scoring each feasible grid point with the closed-form
/// `overgen_model::estimate_ipc`. Returns `None` when not even a single
/// tile fits the budget.
///
/// The sweep is serial, with one resource-model walk of `adg` for the
/// whole grid (see [`walk_grid`]). `_threads` is kept for API stability
/// and ignored.
pub fn system_dse(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Placement, f64)], // (mdfg, placement, weight)
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    _threads: usize,
) -> Option<(SystemParams, f64)> {
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let spad_bw = adg.spad_bw_bytes();
    let mut ipcs: Vec<(f64, f64)> = Vec::with_capacity(per_workload.len());
    let walk = walk_grid(adg, model, cfg, |sys, _| {
        ipcs.clear();
        for (m, p, w) in per_workload {
            ipcs.push((estimate_ipc(m, sys, spad_bw, p).ipc, *w));
        }
        Some(weighted_geomean_ipc(&ipcs))
    });
    emit_winner(&walk, &[]);
    walk.best
}

/// The canonical selection predicate: prefer strictly better scores; on
/// (near-)ties prefer MORE tiles — the paper's DSE "greedily consumes as
/// many resources as possible, even if there is no parallelism" (Q4),
/// which is what pushes overlays to 81-97% LUT occupancy. The rule is
/// order-dependent, so the candidate walk order is part of the contract.
fn beats(best: &Option<(SystemParams, f64)>, sys: &SystemParams, score: f64) -> bool {
    match best {
        None => true,
        Some((b_sys, b_score)) => {
            score > b_score * 1.001 || (score >= b_score * 0.999 && sys.tiles > b_sys.tiles)
        }
    }
}

/// Whether the truthy value of [`beats`] is reachable for *any* score
/// `<= upper`: both branches of the predicate are monotone nondecreasing
/// in `score`, so if the upper bound itself cannot be selected, no score
/// it dominates can be either. The `1e-9` relative slack absorbs f64
/// rounding in the geomean of per-workload upper bounds.
fn upper_bound_can_win(best: &Option<(SystemParams, f64)>, sys: &SystemParams, upper: f64) -> bool {
    let u = upper * (1.0 + 1e-9);
    beats(best, sys, u)
}

/// The winner and tallies of one grid walk.
#[derive(Default)]
struct Walk {
    best: Option<(SystemParams, f64)>,
    candidates: u64,
    over_budget: u64,
    pruned: u64,
    admitted: u64,
}

/// The one system-DSE grid walk: tiles → L2 banks → L2 KiB → NoC, in
/// canonical order, folding feasible points through [`beats`]. `score`
/// sees each feasible point together with the incumbent the fold holds at
/// that position and returns `None` to prune the point. The walk itself
/// emits no telemetry.
///
/// The accelerator ADG goes through the resource model once per walk
/// ([`tile_breakdown`]); each grid point only rescales that tile by its
/// tile count and adds its NoC + L2 ([`scale_breakdown`]).
fn walk_grid(
    adg: &Adg,
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    mut score: impl FnMut(&SystemParams, &Option<(SystemParams, f64)>) -> Option<f64>,
) -> Walk {
    let mut walk = Walk::default();
    let tile = tile_breakdown(adg, model);
    for tiles in 1..=cfg.max_tiles {
        for &l2_banks in &cfg.l2_banks_grid {
            for &l2_kb in &cfg.l2_kb_grid {
                for &noc_bw in &cfg.noc_bw_grid {
                    let sys = SystemParams {
                        tiles,
                        l2_banks,
                        l2_kb,
                        noc_bw_bytes: noc_bw,
                        dram_channels: cfg.dram_channels,
                    };
                    walk.candidates += 1;
                    let used = scale_breakdown(&tile, &sys).total();
                    if !cfg.device.fits(&used, cfg.util_cap) {
                        walk.over_budget += 1;
                        continue;
                    }
                    let Some(s) = score(&sys, &walk.best) else {
                        walk.pruned += 1;
                        continue;
                    };
                    walk.admitted += 1;
                    if beats(&walk.best, &sys, s) {
                        walk.best = Some((sys, s));
                    }
                }
            }
        }
    }
    walk
}

/// Emit the `dse.system` summary event: the walk tallies, the backend's
/// own fields, then the winner (or `feasible = false`).
fn emit_winner(walk: &Walk, backend_fields: &[(&str, FieldValue)]) {
    let Some(c) = overgen_telemetry::current() else {
        return;
    };
    let mut fields = vec![
        ("candidates", walk.candidates.into()),
        ("over_budget", walk.over_budget.into()),
    ];
    fields.extend_from_slice(backend_fields);
    match &walk.best {
        Some((sys, score)) => fields.extend([
            ("tiles", sys.tiles.into()),
            ("l2_banks", sys.l2_banks.into()),
            ("l2_kb", sys.l2_kb.into()),
            ("noc_bw", sys.noc_bw_bytes.into()),
            ("score", (*score).into()),
        ]),
        None => fields.push(("feasible", false.into())),
    }
    c.emit("dse.system", &fields);
}

/// Walk the grid scoring feasible points with warm [`SimBatch`] runs
/// behind the sibling-reuse cache. With `prune`, each candidate's
/// analytic score upper bound is tested against the *same incumbent the
/// exhaustive fold would hold at that position*; a candidate is skipped
/// only when the selection predicate provably rejects it (see DESIGN.md
/// §12), so the incumbent evolves identically with pruning on or off.
/// `shadow` suppresses the profiler phase timers and bypasses the reuse
/// cache (plain [`SimBatch::run`]), so the debug-build oracle's duplicate
/// walk differentially checks pruning *and* reuse.
fn walk_sim(
    adg: &Adg,
    batches: &mut [SimBatch],
    weights: &[f64],
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    prune: bool,
    shadow: bool,
) -> Walk {
    let phase = |p: Phase| {
        if shadow {
            None
        } else {
            profile::maybe_phase(p, profile::NO_CLASS)
        }
    };
    let mut scores: Vec<(f64, f64)> = Vec::with_capacity(batches.len());
    walk_grid(adg, model, cfg, |sys, best| {
        if prune {
            let _t = phase(Phase::Analytic);
            scores.clear();
            for (batch, &w) in batches.iter().zip(weights) {
                scores.push((batch.bound(sys).ipc_upper, w));
            }
            if !upper_bound_can_win(best, sys, weighted_geomean_ipc(&scores)) {
                return None;
            }
        }
        let _t = phase(Phase::Simulate);
        scores.clear();
        for (batch, &w) in batches.iter_mut().zip(weights) {
            let r = if shadow {
                batch.run(sys)
            } else {
                batch.run_cached(sys)
            };
            scores.push((r.ipc, w));
        }
        Some(weighted_geomean_ipc(&scores))
    })
}

/// Simulator-backed system DSE: choose the best system parameters for an
/// accelerator ADG by running the cycle-level flow simulator on every
/// admitted grid point, batching sibling points over warm per-workload
/// [`SimBatch`] templates. With `prune`, grid points whose analytic score
/// upper bound cannot beat the incumbent are skipped before simulation —
/// provably without changing the winner. Returns `None` when not even a
/// single tile fits the budget.
///
/// Debug builds also run a silent exhaustive shadow walk (no pruning, no
/// reuse cache) and panic if the winners (params or exact score bits)
/// diverge — the differential oracle every `cargo test` arms. Release
/// builds skip it.
pub fn system_dse_sim(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Schedule, f64)], // (mdfg, schedule, weight)
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    sim_cfg: &SimConfig,
    prune: bool,
) -> Option<(SystemParams, f64)> {
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let mut batches: Vec<SimBatch> = per_workload
        .iter()
        .map(|(m, s, _)| SimBatch::new(m, s, adg, sim_cfg))
        .collect();
    let weights: Vec<f64> = per_workload.iter().map(|(_, _, w)| *w).collect();
    let walk = walk_sim(adg, &mut batches, &weights, model, cfg, prune, false);
    let reused: u64 = batches.iter().map(SimBatch::cache_hits).sum();
    if cfg!(debug_assertions) {
        let shadow = walk_sim(adg, &mut batches, &weights, model, cfg, false, true);
        let bits = |w: &Walk| w.best.map(|(sys, score)| (sys, score.to_bits()));
        assert_eq!(
            bits(&walk),
            bits(&shadow),
            "sim oracle: pruned winner != exhaustive winner (pruned {} of {} candidates)",
            walk.pruned,
            walk.candidates,
        );
    }
    if let Some(c) = overgen_telemetry::current() {
        let reg = c.registry();
        reg.counter("sim.analytic.pruned").add(walk.pruned);
        reg.counter("sim.analytic.admitted").add(walk.admitted);
        reg.counter("sim.batch.reuse").add(reused);
    }
    emit_winner(
        &walk,
        &[
            ("pruned", walk.pruned.into()),
            ("admitted", walk.admitted.into()),
            ("reused", reused.into()),
        ],
    );
    walk.best
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SysAdg};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};
    use overgen_model::AnalyticModel;

    fn mdfg(n: u64, unroll: u32) -> Mdfg {
        let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", n)
            .array_input("b", n)
            .array_output("c", n)
            .loop_const("i", n)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        lower(
            &k,
            0,
            &LowerChoices {
                unroll,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// A compute-bound, high-reuse kernel (FIR) whose hot array sits in a
    /// scratchpad: tile count should scale performance.
    fn fir_mdfg(unroll: u32) -> Mdfg {
        let k = KernelBuilder::new("fir", Suite::Dsp, DataType::I64)
            .array_input("a", 255)
            .array_input("b", 128)
            .array_output("c", 128)
            .loop_const("io", 4)
            .loop_const("j", 128)
            .loop_const("ii", 32)
            .accum(
                "c",
                expr::idx_scaled("io", 32) + expr::idx("ii"),
                expr::load(
                    "a",
                    expr::idx_scaled("io", 32) + expr::idx("ii") + expr::idx("j"),
                ) * expr::load("b", expr::idx("j")),
            )
            .build()
            .unwrap();
        lower(
            &k,
            0,
            &LowerChoices {
                unroll,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn small_tile_gets_many_copies() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let (sys, score) =
            system_dse(&adg, &per, &AnalyticModel, &SystemDseConfig::default(), 1).unwrap();
        assert!(score > 0.0);
        // a tiny accelerator tile running a compute-bound kernel should
        // replicate several times
        assert!(sys.tiles >= 4, "tiles {}", sys.tiles);
    }

    #[test]
    fn general_tile_fits_fewer_copies() {
        let small = mesh(&MeshSpec::default());
        let general = mesh(&MeshSpec::general());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig::default();
        let (s_small, _) = system_dse(&small, &per, &AnalyticModel, &cfg, 1).unwrap();
        let (s_general, _) = system_dse(&general, &per, &AnalyticModel, &cfg, 1).unwrap();
        assert!(s_general.tiles <= 4, "general tiles {}", s_general.tiles);
        assert!(s_small.tiles > s_general.tiles);
    }

    #[test]
    fn dram_bound_kernel_is_tile_insensitive() {
        // Streaming vecadd with no reuse: DRAM bandwidth caps whole-FPGA
        // IPC, so tile count barely moves the score (the §III-C
        // "balancing bandwidths" trade-off).
        let adg = mesh(&MeshSpec::default());
        let m = mdfg(65536, 2);
        let placement = Placement::default();
        let per = vec![(&m, &placement, 1.0)];
        let (_, score) =
            system_dse(&adg, &per, &AnalyticModel, &SystemDseConfig::default(), 1).unwrap();
        let one_tile = overgen_model::estimate_ipc(
            &m,
            &SystemParams {
                tiles: 1,
                ..SystemParams::default()
            },
            0.0,
            &placement,
        )
        .ipc;
        assert!(score < one_tile * 4.0, "score {score} vs 1-tile {one_tile}");
    }

    /// A device too small for even one tile of the general mesh.
    fn tiny_device() -> FpgaDevice {
        FpgaDevice {
            name: "tiny",
            total: overgen_model::Resources {
                lut: 10_000.0,
                ff: 20_000.0,
                bram: 50.0,
                dsp: 100.0,
            },
        }
    }

    #[test]
    fn none_when_budget_too_small() {
        let adg = mesh(&MeshSpec::general());
        let m = mdfg(1024, 1);
        let placement = Placement::default();
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig {
            device: tiny_device(),
            ..Default::default()
        };
        assert!(system_dse(&adg, &per, &AnalyticModel, &cfg, 1).is_none());
    }

    fn sched_for(adg: &Adg, m: &Mdfg) -> Schedule {
        let sys = SysAdg::new(adg.clone(), SystemParams::default());
        overgen_scheduler::schedule(m, &sys, None).unwrap()
    }

    /// A reduced grid that keeps the debug-build sim sweep quick.
    fn small_cfg() -> SystemDseConfig {
        SystemDseConfig {
            max_tiles: 4,
            l2_banks_grid: vec![4, 16],
            l2_kb_grid: vec![256, 2048],
            noc_bw_grid: vec![32, 64],
            ..Default::default()
        }
    }

    #[test]
    fn sim_backend_pruned_matches_exhaustive() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = small_cfg();
        let sim_cfg = overgen_sim::SimConfig::default();
        let exhaustive = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, false);
        let pruned = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true);
        let (e, p) = (exhaustive.unwrap(), pruned.unwrap());
        assert_eq!(e.0, p.0);
        assert_eq!(e.1.to_bits(), p.1.to_bits());
    }

    #[test]
    fn sim_backend_none_when_budget_too_small() {
        let adg = mesh(&MeshSpec::general());
        let m = mdfg(1024, 1);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = SystemDseConfig {
            device: tiny_device(),
            ..small_cfg()
        };
        let sim_cfg = overgen_sim::SimConfig::default();
        assert!(system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true).is_none());
    }

    #[test]
    fn sim_backend_oracle_mode_agrees() {
        // In debug builds the pruned walk self-checks against a shadow
        // exhaustive walk and panics on divergence; surviving the call IS
        // the assertion.
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = small_cfg();
        let sim_cfg = overgen_sim::SimConfig::default();
        let got = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true);
        assert!(got.is_some());
    }

    #[test]
    fn shadow_walk_is_telemetry_silent() {
        // The oracle's shadow walk must record no events and touch no
        // counters, so arming it can never perturb a trace.
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let mut batches = vec![SimBatch::new(&m, &s, &adg, &SimConfig::default())];
        let (collector, ring) = overgen_telemetry::Collector::ring(64);
        let empty = overgen_telemetry::Collector::ring(1).0;
        let _install = overgen_telemetry::install(collector.clone());
        let shadow = walk_sim(
            &adg,
            &mut batches,
            &[1.0],
            &AnalyticModel,
            &small_cfg(),
            false,
            true,
        );
        assert!(shadow.best.is_some());
        assert!(ring.is_empty(), "shadow walk emitted {:?}", ring.lines());
        assert_eq!(
            collector.registry().snapshot_json(),
            empty.registry().snapshot_json()
        );
    }

    /// `AnalyticModel`, counting its component estimates.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicU64);

    impl Counting {
        fn calls(&self) -> u64 {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl ResourceModel for Counting {
        fn component(&self, feats: &overgen_model::ComponentFeatures) -> overgen_model::Resources {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            AnalyticModel.component(feats)
        }
    }

    #[test]
    fn the_grid_walks_the_tile_through_the_model_once() {
        // The default grid has 512 points; only the NoC/L2 terms depend on
        // the point, so the sweep must cost one breakdown's component
        // estimates, not one per point.
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let model = Counting::default();
        assert!(system_dse(&adg, &per, &model, &SystemDseConfig::default(), 1).is_some());
        let in_sweep = model.calls();
        overgen_model::breakdown(&SysAdg::new(adg, SystemParams::default()), &model);
        let one_breakdown = model.calls() - in_sweep;
        assert!(one_breakdown > 0);
        assert_eq!(in_sweep, one_breakdown);
    }

    #[test]
    fn custom_grids_restrict_the_search() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig {
            l2_banks_grid: vec![8],
            l2_kb_grid: vec![512],
            noc_bw_grid: vec![64],
            ..Default::default()
        };
        let (sys, _) = system_dse(&adg, &per, &AnalyticModel, &cfg, 1).unwrap();
        assert_eq!(sys.l2_banks, 8);
        assert_eq!(sys.l2_kb, 512);
        assert_eq!(sys.noc_bw_bytes, 64);
    }
}
