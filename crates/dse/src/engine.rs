//! The simulated-annealing DSE driver (paper Figure 6), parallelized with
//! `std::thread::scope` only, across chains: [`DseConfig::chains`]
//! independent chains (seeds derived with [`Rng::split`]) run concurrently
//! and exchange their best state every [`DseConfig::exchange_interval`]
//! iterations. Within a proposal everything is serial: workloads are
//! scheduled in workload-name order and the nested system DSE walks its
//! grid on the calling thread.
//!
//! Determinism is by construction: chains emit telemetry through
//! capture/replay (`overgen_telemetry::capture`) and their traces replay
//! in chain order — so the `DseResult` and the deterministic-clock JSONL
//! trace are byte-identical for any thread count.
//!
//! Proposal *evaluation* — scheduling, the nested system DSE, performance
//! estimation, memoization — lives in [`crate::eval::EvalPipeline`], and
//! the mapping from an evaluation report to scalar fitness lives in
//! [`crate::Objective`]. This driver only proposes mutations, runs the
//! accept/reject rule on the fitness the pipeline returns, exchanges best
//! states among chains, and tracks the Pareto frontier of visited designs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

use overgen_telemetry::profile::{maybe_phase, NO_CLASS};
use overgen_telemetry::{
    capture, capture_isolated, event, replay, span, Counter, FieldValue, Phase, Registry, Rng,
    SpanGuard,
};

use overgen_adg::{mesh, Adg, MeshSpec, SpadNode, StableHasher, SysAdg};
use overgen_compiler::{compile_variants, CompileOptions};
use overgen_ir::{Expr, FuCap, Kernel, Op};
use overgen_mdfg::Mdfg;
use overgen_model::{AnalyticModel, ResourceModel, TimeModel};
use overgen_scheduler::{Schedule, ScheduleFootprint};

use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::eval::{EvalPipeline, EvalState, ParetoFront, ParetoPoint};
use crate::heartbeat::{Heartbeat, HeartbeatConfig};
use crate::objective::Objective;
use crate::pool::fan_out;
use crate::rewrite::{AdgDelta, RuleSet, TransformCtx};
use crate::system::SystemDseConfig;

/// DSE configuration.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Simulated-annealing iterations (total, per chain).
    pub iterations: usize,
    /// RNG seed. Chain RNGs are derived from it with [`Rng::split`], so
    /// every chain explores a distinct but reproducible trajectory.
    pub seed: u64,
    /// Enable schedule-preserving transformations (§V-B). Disabling this
    /// reproduces the "non-preserved" curves of Figure 20.
    pub schedule_preserving: bool,
    /// Fitness policy: how an evaluation report becomes the scalar the
    /// annealer optimizes. The default ([`Objective::WeightedGeomeanIpc`])
    /// reproduces the classic weighted-geomean-IPC behavior bit-for-bit;
    /// [`Objective::ConstrainedIpc`] adds a hard device budget. The
    /// objective is folded into the config hash, so it also keys the
    /// evaluation caches and checkpoint compatibility.
    pub objective: Objective,
    /// Nested system-DSE configuration.
    pub system: SystemDseConfig,
    /// Compiler options for the up-front variant generation.
    pub compile: CompileOptions,
    /// Per-workload weights (defaults to 1.0 each).
    pub weights: BTreeMap<String, f64>,
    /// Mutations applied per proposal.
    pub mutations_per_step: usize,
    /// Worker threads running chains concurrently; each proposal is
    /// evaluated serially on its chain's thread. `0` = one worker per
    /// available core. The result and trace are independent of this value.
    pub threads: usize,
    /// Independent annealing chains run as an island model with periodic
    /// best-state exchange. The result depends on `chains` (more chains =
    /// more exploration) but not on how many threads execute them.
    pub chains: usize,
    /// Iterations between best-state exchanges among chains.
    pub exchange_interval: usize,
    /// Memoize evaluations and system-DSE winners by ADG fingerprint.
    pub cache: bool,
    /// Compound proposals: maximum rewrite rules chained into one
    /// proposal step. `1` (the default) applies exactly one rule per step
    /// and is bit-identical to the historical single-mutation dispatch;
    /// `K > 1` draws 1..=K rules per step — the first from the full
    /// registry, follow-ups from the benign (non-removing) subset — with
    /// their deltas and inferred footprints merged into the proposal and
    /// the rule chain folded into evaluation cache keys. Folded into the
    /// config hash (only when enabled, so default hashes are unchanged)
    /// and persisted in checkpoints.
    pub compound: usize,
    /// Periodic crash-safe checkpointing: every `interval` proposals the
    /// full annealer state is atomically written to `path`, and
    /// [`Checkpoint::load`] + [`Checkpoint::resume`] continue the run with
    /// byte-identical results (see `checkpoint.rs` and `DESIGN.md` §9).
    /// `None` disables checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Graceful-stop proposal budget: stop at the first segment boundary
    /// once this many proposals have run per chain, finalize a checkpoint
    /// (when configured) instead of tearing down mid-proposal, and return
    /// with [`DseResult::completed`] `false`. `None` = run to
    /// `iterations`. Not persisted in checkpoints.
    pub max_proposals: Option<usize>,
    /// Graceful-stop wall-clock budget in seconds, checked at segment
    /// boundaries. Inherently non-deterministic in *where* it stops, but
    /// the finalized checkpoint still resumes deterministically. Not
    /// persisted in checkpoints.
    pub max_wall_seconds: Option<f64>,
    /// Periodic live progress gauges (`dse.heartbeat.*`), refreshed at
    /// segment boundaries. Registry-only and trace-invisible, so traces
    /// stay byte-identical with the heartbeat on or off. Like the stop
    /// budgets, not persisted in checkpoints. `None` disables it.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Persistent shared evaluation store ([`crate::EvalStore`]), consulted
    /// and fed on the in-memory caches' miss path when `cache` is on. A
    /// store-served artifact is byte-identical to recomputation, so
    /// results, counters, and traces are independent of store contents
    /// (DESIGN.md §13). Not part of the config hash; not persisted in
    /// checkpoints. `None` runs fully in-memory.
    pub store: Option<std::sync::Arc<crate::EvalStore>>,
    /// Cooperative cancellation flag for service-managed runs. When raised
    /// the run stops at the next segment boundary with `stop_reason`
    /// `"cancelled"`, finalizing a checkpoint when configured. Like the
    /// stop budgets, not hashed and not persisted.
    pub stop: Option<StopFlag>,
}

/// A sharable cooperative-cancellation flag for [`DseConfig::stop`]: cheap
/// to clone, raised once, never lowered.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl StopFlag {
    /// A fresh, unraised flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Request a graceful stop at the next segment boundary.
    pub fn raise(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Has a stop been requested?
    pub fn raised(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            iterations: 150,
            seed: 17,
            schedule_preserving: true,
            objective: Objective::default(),
            system: SystemDseConfig::default(),
            compile: CompileOptions::default(),
            weights: BTreeMap::new(),
            mutations_per_step: 2,
            threads: 1,
            chains: 1,
            exchange_interval: 25,
            cache: true,
            compound: 1,
            checkpoint: None,
            max_proposals: None,
            max_wall_seconds: None,
            heartbeat: None,
            store: None,
            stop: None,
        }
    }
}

/// Why a DSE run could not start or continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The seed accelerator could not schedule every workload in the
    /// domain, even after repeatedly widening its ports.
    UnschedulableSeed {
        /// Port-widening rounds attempted before giving up.
        widenings: usize,
    },
    /// A checkpoint could not be written, read, or resumed. Checkpoint
    /// write failures are hard errors: silently continuing would leave the
    /// user believing the run is crash-safe when it is not.
    Checkpoint(String),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::UnschedulableSeed { widenings } => write!(
                f,
                "seed accelerator cannot schedule the domain \
                 (after {widenings} port-widening rounds)"
            ),
            DseError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for DseError {}

/// Counters of what the DSE did.
///
/// This is a *snapshot view*: the live values are telemetry
/// [`Counter`]s (named `dse.iterations`, `dse.accepted`, …) registered on
/// the installed collector, and a `DseStats` is the per-run delta read off
/// them when [`Dse::run`] returns. With no collector installed the counters
/// live on a private run registry and the semantics are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Proposals evaluated.
    pub iterations: usize,
    /// Proposals accepted.
    pub accepted: usize,
    /// Proposals rejected because some workload had no schedulable variant.
    pub invalid: usize,
    /// Full (from-scratch) scheduling invocations.
    pub full_schedules: usize,
    /// Repair invocations that moved nodes.
    pub repairs: usize,
    /// Repairs that found the schedule intact.
    pub intact: usize,
    /// Evaluations served from the fingerprint cache.
    pub cache_hits: usize,
    /// Evaluations computed fresh (distinct design points visited).
    pub cache_misses: usize,
    /// Repairs resolved on the incremental fast path (empty dirty set — no
    /// placement search ran).
    pub repair_fast: usize,
    /// Repairs that fell back to a seeded full placement.
    pub repair_fallback: usize,
    /// Proposals rejected by the objective's hard resource budget before
    /// any scheduling work (only [`Objective::ConstrainedIpc`] rejects;
    /// always 0 under the default objective).
    pub infeasible: usize,
}

impl DseStats {
    /// Field-wise sum: stats a checkpoint accumulated before the cut plus
    /// the delta the resumed run adds on top.
    pub fn merged(&self, other: &DseStats) -> DseStats {
        DseStats {
            iterations: self.iterations + other.iterations,
            accepted: self.accepted + other.accepted,
            invalid: self.invalid + other.invalid,
            full_schedules: self.full_schedules + other.full_schedules,
            repairs: self.repairs + other.repairs,
            intact: self.intact + other.intact,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            repair_fast: self.repair_fast + other.repair_fast,
            repair_fallback: self.repair_fallback + other.repair_fallback,
            infeasible: self.infeasible + other.infeasible,
        }
    }
}

/// Live counters the driver updates directly. Everything evaluation-side
/// (`dse.full_schedules`, `dse.repairs`, `dse.intact`, `dse.cache.*`,
/// `dse.eval.infeasible`, `sched.*`) is owned by the evaluation pipeline
/// or incremented inside isolated captures and reaches the run registry
/// through [`Registry::merge_from`] — identically on a cache miss and on
/// every hit.
struct DseCounters {
    iterations: Counter,
    accepted: Counter,
    invalid: Counter,
}

impl DseCounters {
    fn attach(r: &Registry) -> Self {
        DseCounters {
            iterations: r.counter("dse.iterations"),
            accepted: r.counter("dse.accepted"),
            invalid: r.counter("dse.invalid"),
        }
    }
}

/// Absolute counter values on `reg` (used as a baseline at run start).
fn stat_totals(reg: &Registry) -> DseStats {
    DseStats {
        iterations: reg.counter_value("dse.iterations") as usize,
        accepted: reg.counter_value("dse.accepted") as usize,
        invalid: reg.counter_value("dse.invalid") as usize,
        full_schedules: reg.counter_value("dse.full_schedules") as usize,
        repairs: reg.counter_value("dse.repairs") as usize,
        intact: reg.counter_value("dse.intact") as usize,
        cache_hits: reg.counter_value("dse.cache.hit") as usize,
        cache_misses: reg.counter_value("dse.cache.miss") as usize,
        repair_fast: reg.counter_value("scheduler.repair.fast") as usize,
        repair_fallback: reg.counter_value("scheduler.repair.fallback") as usize,
        infeasible: reg.counter_value("dse.eval.infeasible") as usize,
    }
}

pub(crate) fn stat_delta(reg: &Registry, base: &DseStats) -> DseStats {
    let now = stat_totals(reg);
    DseStats {
        iterations: now.iterations - base.iterations,
        accepted: now.accepted - base.accepted,
        invalid: now.invalid - base.invalid,
        full_schedules: now.full_schedules - base.full_schedules,
        repairs: now.repairs - base.repairs,
        intact: now.intact - base.intact,
        cache_hits: now.cache_hits - base.cache_hits,
        cache_misses: now.cache_misses - base.cache_misses,
        repair_fast: now.repair_fast - base.repair_fast,
        repair_fallback: now.repair_fallback - base.repair_fallback,
        infeasible: now.infeasible - base.infeasible,
    }
}

/// Result of a DSE run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The chosen system-level ADG.
    pub sys_adg: SysAdg,
    /// Best schedule per workload (on the chosen hardware).
    pub schedules: BTreeMap<String, Schedule>,
    /// Chosen variant index per workload.
    pub variants: BTreeMap<String, u32>,
    /// Pre-generated mDFG variants per workload (kept so callers can
    /// simulate or re-schedule).
    pub mdfgs: BTreeMap<String, Vec<Mdfg>>,
    /// Final objective: weighted geomean estimated IPC.
    pub objective: f64,
    /// Convergence history of the winning chain: (simulated hours, best
    /// objective so far).
    pub history: Vec<(f64, f64)>,
    /// Total simulated DSE hours (Figure 15 accounting): chains run
    /// concurrently, so this is the *maximum* over chains, not the sum.
    pub dse_hours: f64,
    /// Activity counters (summed over all chains; for a resumed run,
    /// summed over every leg of the run).
    pub stats: DseStats,
    /// Non-dominated (IPC, accelerator-resources) frontier over every
    /// valid design point any chain evaluated, merged in chain-index
    /// order. Deterministic and independent of thread count.
    pub pareto: ParetoFront,
    /// `true` when the run reached `iterations`; `false` when a graceful
    /// stop ([`DseConfig::max_proposals`] / `max_wall_seconds`) ended it
    /// early with a finalized checkpoint to resume from.
    pub completed: bool,
}

/// One annealing chain's mutable state. `Clone` + `pub(crate)` so
/// checkpoints can snapshot and rebuild it (`checkpoint.rs`).
#[derive(Clone)]
pub(crate) struct ChainState {
    pub(crate) rng: Rng,
    pub(crate) cur_adg: Adg,
    pub(crate) cur: EvalState,
    pub(crate) best_adg: Adg,
    pub(crate) best: EvalState,
    pub(crate) sim_seconds: f64,
    pub(crate) history: Vec<(f64, f64)>,
    pub(crate) t0: f64,
    pub(crate) pareto: ParetoFront,
}

/// The DSE driver.
pub struct Dse {
    pub(crate) workloads: Vec<Kernel>,
    pub(crate) cfg: DseConfig,
    time: TimeModel,
}

impl Dse {
    /// Create a DSE over a set of workloads (the domain). Workloads are
    /// kept sorted by name: name order is the canonical order in which a
    /// proposal schedules them.
    pub fn new(mut workloads: Vec<Kernel>, cfg: DseConfig) -> Self {
        workloads.sort_by(|a, b| a.name().cmp(b.name()));
        Dse {
            workloads,
            cfg,
            time: TimeModel::default(),
        }
    }

    /// The capability pool of a domain: every `(op, dtype)` its kernels
    /// execute (plus the adds implied by accumulation and the selects
    /// implied by guards).
    pub fn cap_pool(workloads: &[Kernel]) -> Vec<FuCap> {
        let mut pool = BTreeSet::new();
        for k in workloads {
            let dt = k.dtype();
            pool.insert(FuCap::new(Op::Add, dt));
            for stmt in k.body() {
                if stmt.guarded {
                    pool.insert(FuCap::new(Op::Select, dt));
                }
                stmt.value.visit(&mut |e| match e {
                    Expr::Binary { op, .. } | Expr::Unary { op, .. } => {
                        pool.insert(FuCap::new(*op, dt));
                    }
                    _ => {}
                });
            }
        }
        pool.into_iter().collect()
    }

    /// Seed accelerator for the annealer: a mesh whose PEs carry the
    /// domain's capability pool, sized so every kernel's narrowest
    /// (unroll-1) variant is guaranteed to fit with headroom.
    pub fn seed_adg(workloads: &[Kernel]) -> Adg {
        let caps: BTreeSet<FuCap> = Self::cap_pool(workloads).into_iter().collect();
        // Size by the largest unroll-1 DFG of the domain.
        let mut max_insts = 8usize;
        let mut max_in = 6usize;
        let mut max_out = 4usize;
        for k in workloads {
            if let Ok(m) = overgen_compiler::lower(
                k,
                0,
                &overgen_compiler::LowerChoices {
                    unroll: 1,
                    ..Default::default()
                },
            ) {
                max_insts = max_insts.max(m.inst_count());
                max_in = max_in.max(m.input_stream_count());
                max_out = max_out.max(m.output_stream_count());
            }
        }
        let cols = 5usize;
        let rows = (max_insts + 4).div_ceil(cols).max(3);
        mesh(&MeshSpec {
            rows,
            cols,
            caps,
            in_ports: max_in + 1,
            out_ports: max_out + 1,
            port_width_bytes: 16,
            dma_bw: 32,
            spads: vec![SpadNode {
                capacity_kb: 16,
                bw_bytes: 32,
                indirect: true,
            }],
            with_gen: true,
            with_rec: true,
            with_reg: true,
        })
    }

    /// Everything outside the ADG that evaluation outcomes depend on —
    /// including the objective. Folded into every cache key so a `Memo`
    /// never confuses two configurations (cheap insurance, even though
    /// caches are per-run), and into checkpoints so a run can only resume
    /// under the configuration that produced it.
    pub(crate) fn config_hash(cfg: &DseConfig) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(cfg.system.device.name);
        h.write_f64(cfg.system.device.total.lut);
        h.write_f64(cfg.system.device.total.ff);
        h.write_f64(cfg.system.device.total.bram);
        h.write_f64(cfg.system.device.total.dsp);
        h.write_f64(cfg.system.util_cap);
        h.write_u64(u64::from(cfg.system.max_tiles));
        h.write_u64(u64::from(cfg.system.dram_channels));
        for grid in [
            &cfg.system.l2_banks_grid,
            &cfg.system.l2_kb_grid,
            &cfg.system.noc_bw_grid,
        ] {
            h.write_u64(grid.len() as u64);
            for v in grid {
                h.write_u64(u64::from(*v));
            }
        }
        h.write_u64(cfg.weights.len() as u64);
        for (name, w) in &cfg.weights {
            h.write_str(name);
            h.write_f64(*w);
        }
        cfg.objective.hash_into(&mut h);
        // Folded in only when non-default so every pre-existing cache key,
        // checkpoint hash, and golden trace stays byte-identical for the
        // historical Estimate backend.
        match cfg.system.backend {
            crate::system::SystemDseBackend::Estimate => {}
            crate::system::SystemDseBackend::Simulate { prune } => {
                h.write_str("backend:simulate");
                h.write_u64(u64::from(prune));
            }
        }
        // Same conditional-fold contract for compound proposals: the
        // default (off, = 1) keeps historical hashes.
        if cfg.compound > 1 {
            h.write_str("compound");
            h.write_u64(cfg.compound as u64);
        }
        h.finish()
    }

    /// Run the exploration. Fails with [`DseError::UnschedulableSeed`]
    /// when the domain cannot even be scheduled on a widened seed mesh.
    pub fn run(&self) -> Result<DseResult, DseError> {
        let chains = self.cfg.chains.max(1);
        let run_span = span!(
            "dse.run",
            seed = self.cfg.seed,
            iterations = self.cfg.iterations,
            workloads = self.workloads.len(),
            preserving = self.cfg.schedule_preserving,
            chains = chains,
        );
        let model: &dyn ResourceModel = &AnalyticModel;

        // Up-front variant generation (once; §V-A).
        let mut mdfgs: BTreeMap<String, Vec<Mdfg>> = BTreeMap::new();
        {
            let _span = span!("dse.compile_variants");
            let _timer = maybe_phase(Phase::Compile, NO_CLASS);
            for k in &self.workloads {
                let vs = compile_variants(k, &self.cfg.compile).unwrap_or_default();
                mdfgs.insert(k.name().to_string(), vs);
            }
        }

        // The run registry: the ambient collector's when telemetry is on,
        // a private one otherwise. Stats are deltas against it either way.
        let ambient_registry = overgen_telemetry::current().map(|c| c.registry().clone());
        let run_registry = ambient_registry.unwrap_or_default();
        let counters = DseCounters::attach(&run_registry);
        let pipe = EvalPipeline::new(
            &self.workloads,
            &self.cfg,
            &self.time,
            &mdfgs,
            model,
            &run_registry,
            Self::config_hash(&self.cfg),
            None,
        );
        let base = stat_totals(&run_registry);

        // Seed: evaluate, widening ports until the domain schedules.
        let mut cur_adg = Self::seed_adg(&self.workloads);
        let mut seed_sim = 0.0f64;
        let mut widenings = 0usize;
        let seed_state = loop {
            let (state, sim) = pipe.evaluate(&cur_adg, &BTreeMap::new(), ScheduleFootprint::Pure);
            seed_sim += sim;
            if let Some(s) = state {
                break s;
            }
            if widenings >= 8 {
                return Err(DseError::UnschedulableSeed { widenings });
            }
            // Widen every input port as a fallback seed fix.
            for id in cur_adg.nodes_of_kind(overgen_adg::NodeKind::InPort) {
                if let Some(overgen_adg::AdgNode::InPort(p)) = cur_adg.node_mut(id) {
                    p.width_bytes = (p.width_bytes * 2).min(64);
                }
            }
            widenings += 1;
        };

        // Chains all start from the same seed state with split-derived
        // RNGs, and from a frontier holding just the seed point.
        let t0 = (seed_state.objective * 0.25).max(1e-3);
        let seed_pareto = ParetoFront::from_points([ParetoPoint {
            ipc: seed_state.objective,
            resources: seed_state.resources,
            placement: seed_state.placement,
        }]);
        let mut master = Rng::seed_from_u64(self.cfg.seed);
        let states: Vec<ChainState> = (0..chains)
            .map(|_| ChainState {
                rng: master.split(),
                cur_adg: cur_adg.clone(),
                cur: seed_state.clone(),
                best_adg: cur_adg.clone(),
                best: seed_state.clone(),
                sim_seconds: seed_sim,
                history: vec![(seed_sim / 3600.0, seed_state.objective)],
                t0,
                pareto: seed_pareto.clone(),
            })
            .collect();

        let out = self.run_loop(
            &pipe,
            &counters,
            states,
            0,
            DseStats::default(),
            base,
            &run_span,
        )?;
        Ok(DseResult {
            sys_adg: SysAdg::new(out.champ.best_adg, out.champ.best.sys),
            schedules: out.champ.best.schedules,
            variants: out.champ.best.variants,
            mdfgs,
            objective: out.champ.best.objective,
            history: out.champ.history,
            dse_hours: out.dse_hours,
            stats: out.stats,
            pareto: out.pareto,
            completed: out.completed,
        })
    }

    /// Continue a checkpointed run: rebuild the evaluation pipeline with
    /// warmed caches, restore the telemetry cursor and re-enter the
    /// `dse.run` span, then run the shared annealing loop from `ck.done`.
    /// The seed evaluation is skipped entirely — the chains carry their
    /// state.
    pub(crate) fn resume_from(&self, ck: &Checkpoint) -> Result<DseResult, DseError> {
        // Variants are recompiled rather than persisted (large, and a
        // deterministic function of the kernels). The interrupted run
        // emitted its `dse.compile_variants` span *before* the cursor, so
        // recompilation runs under a discarded capture collector and the
        // resumed trace continues exactly at the cursor.
        let (mdfgs, _trace, _registry) = capture_isolated(|| {
            let mut m: BTreeMap<String, Vec<Mdfg>> = BTreeMap::new();
            for k in &self.workloads {
                let vs = compile_variants(k, &self.cfg.compile).unwrap_or_default();
                m.insert(k.name().to_string(), vs);
            }
            m
        });

        let collector = overgen_telemetry::current();
        if let (Some(c), Some(cur)) = (collector.as_ref(), ck.cursor.as_ref()) {
            c.restore_cursor(cur.seq, cur.tick);
        }
        let run_span = SpanGuard::reenter(
            "dse.run",
            ck.cursor.as_ref().map_or(0, |c| c.span),
            vec![
                ("seed", FieldValue::from(self.cfg.seed)),
                ("iterations", FieldValue::from(self.cfg.iterations)),
                ("workloads", FieldValue::from(self.workloads.len())),
                ("preserving", FieldValue::from(self.cfg.schedule_preserving)),
                ("chains", FieldValue::from(ck.chains.len())),
            ],
        );

        let ambient_registry = collector.as_ref().map(|c| c.registry().clone());
        let run_registry = ambient_registry.unwrap_or_default();
        let counters = DseCounters::attach(&run_registry);
        let pipe = EvalPipeline::new(
            &self.workloads,
            &self.cfg,
            &self.time,
            &mdfgs,
            &AnalyticModel,
            &run_registry,
            Self::config_hash(&self.cfg),
            Some((&ck.eval_keys, &ck.sys_keys)),
        );
        run_registry.counter("dse.checkpoint.restore").inc();
        let base = stat_totals(&run_registry);

        let out = self.run_loop(
            &pipe,
            &counters,
            ck.chains.clone(),
            ck.done,
            ck.stats,
            base,
            &run_span,
        )?;
        Ok(DseResult {
            sys_adg: SysAdg::new(out.champ.best_adg, out.champ.best.sys),
            schedules: out.champ.best.schedules,
            variants: out.champ.best.variants,
            mdfgs,
            objective: out.champ.best.objective,
            history: out.champ.history,
            dse_hours: out.dse_hours,
            stats: out.stats,
            pareto: out.pareto,
            completed: out.completed,
        })
    }

    /// Island-model annealing loop shared by [`Dse::run`] and checkpoint
    /// resume: run every chain segment by segment (concurrently when
    /// threads allow), replay telemetry in chain order, exchange best
    /// states at `exchange_interval` multiples, and write checkpoints at
    /// `checkpoint.interval` multiples.
    ///
    /// Segment boundaries land on the *absolute-multiple* grid of both
    /// intervals (not "every N from wherever we started"), so a resumed
    /// run reproduces the uninterrupted run's segmentation no matter where
    /// the cut fell. `prior` carries the stats a checkpoint accumulated
    /// before the cut; `base` is the counter baseline of this leg.
    #[allow(clippy::too_many_arguments)]
    fn run_loop(
        &self,
        pipe: &EvalPipeline,
        counters: &DseCounters,
        mut states: Vec<ChainState>,
        mut done: usize,
        prior: DseStats,
        base: DseStats,
        run_span: &SpanGuard,
    ) -> Result<LoopOutcome, DseError> {
        let iterations = self.cfg.iterations;
        let chains = states.len();
        let exchange = self.cfg.exchange_interval.max(1);
        let interval = self.cfg.checkpoint.as_ref().map(|c| c.interval.max(1));
        let wall = Instant::now();
        let parent = overgen_telemetry::current();
        let threads = match self.cfg.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            t => t,
        };
        let mut written_at = None::<usize>;
        let mut stop_reason = None::<&'static str>;
        // The proposal budget the heartbeat reports progress/ETA against.
        let budget = self
            .cfg
            .max_proposals
            .map_or(iterations, |b| b.min(iterations));
        let mut heartbeat = self
            .cfg
            .heartbeat
            .as_ref()
            .map(|h| Heartbeat::new(h, pipe.registry(), done));
        while done < iterations {
            if self.cfg.max_proposals.is_some_and(|b| done >= b) {
                stop_reason = Some("proposals");
                break;
            }
            if self
                .cfg
                .max_wall_seconds
                .is_some_and(|w| wall.elapsed().as_secs_f64() >= w)
            {
                stop_reason = Some("wall_clock");
                break;
            }
            if self.cfg.stop.as_ref().is_some_and(StopFlag::raised) {
                stop_reason = Some("cancelled");
                break;
            }
            let mut end = done + (exchange - done % exchange);
            if let Some(i) = interval {
                end = end.min(done + (i - done % i));
            }
            if let Some(b) = self.cfg.max_proposals {
                end = end.min(b);
            }
            end = end.min(iterations);
            let seg = end - done;

            let jobs: Vec<(usize, ChainState)> = states.into_iter().enumerate().collect();
            let outputs = fan_out(threads, jobs, |(idx, mut st)| {
                let ((), trace) = capture(parent.as_ref(), || {
                    self.run_segment(&mut st, idx, done, seg, pipe, counters);
                });
                (st, trace)
            });
            states = outputs
                .into_iter()
                .map(|(st, trace)| {
                    replay(&trace);
                    st
                })
                .collect();
            done = end;

            if chains > 1 && done < iterations && done.is_multiple_of(exchange) {
                // Deterministic exchange: the best chain (ties to the
                // lowest index) seeds everyone's *current* state; each
                // chain's own best/history stay untouched.
                let winner = best_chain(&states);
                let (gb_adg, gb) = (states[winner].best_adg.clone(), states[winner].best.clone());
                event!(
                    "dse.exchange",
                    at = done,
                    winner = winner as u64,
                    objective = gb.objective,
                );
                for (idx, st) in states.iter_mut().enumerate() {
                    if idx != winner && gb.fitness > st.cur.fitness {
                        st.cur_adg = gb_adg.clone();
                        st.cur = gb.clone();
                    }
                }
            }

            if interval.is_some_and(|i| done.is_multiple_of(i)) {
                Checkpoint::write(self, pipe, &states, done, &prior, &base, run_span)?;
                written_at = Some(done);
            }

            // Registry-only: refreshes gauges, emits nothing into the
            // trace, never changes segmentation.
            if let Some(hb) = heartbeat.as_mut() {
                let mut front = ParetoFront::new();
                for st in &states {
                    front.merge(&st.pareto);
                }
                hb.tick(done, budget, pipe.registry(), &base, front.len());
            }
        }

        // A graceful stop finalizes a checkpoint even off-interval; a run
        // that completed (or stopped) exactly on an interval boundary
        // already wrote it. The cursor is captured before the terminal
        // event below, so resuming reproduces that event too.
        if self.cfg.checkpoint.is_some() && written_at != Some(done) {
            Checkpoint::write(self, pipe, &states, done, &prior, &base, run_span)?;
        }

        let winner = best_chain(&states);
        let dse_hours = states
            .iter()
            .map(|s| s.sim_seconds / 3600.0)
            .fold(0.0f64, f64::max);
        // Merge the per-chain frontiers in chain-index order: the result
        // is deterministic and independent of how chains were scheduled.
        let mut pareto = ParetoFront::new();
        for st in &states {
            pareto.merge(&st.pareto);
        }
        let champ = states.swap_remove(winner);
        let stats = prior.merged(&stat_delta(pipe.registry(), &base));
        match stop_reason {
            None => event!(
                "dse.done",
                objective = champ.best.objective,
                accepted = stats.accepted,
                invalid = stats.invalid,
                cache_hits = stats.cache_hits,
                dse_hours = dse_hours,
            ),
            Some(reason) => event!(
                "dse.stopped",
                at = done,
                reason = reason,
                objective = champ.best.objective,
            ),
        }
        Ok(LoopOutcome {
            champ,
            dse_hours,
            stats,
            pareto,
            completed: stop_reason.is_none(),
        })
    }

    /// Run `len` annealing iterations (numbers `start..start+len`) on one
    /// chain. Runs under a capture collector when telemetry is active, so
    /// chains may execute concurrently.
    fn run_segment(
        &self,
        st: &mut ChainState,
        chain: usize,
        start: usize,
        len: usize,
        pipe: &EvalPipeline,
        counters: &DseCounters,
    ) {
        let caps = Self::cap_pool(&self.workloads);
        for it in start..start + len {
            let _iter_span = span!("dse.iteration", iter = it, chain = chain);
            counters.iterations.inc();
            let temp = st.t0 * (0.985f64).powi(it as i32);

            // Propose.
            let mut prop_adg = st.cur_adg.clone();
            let mut prop_schedules: Vec<Schedule> = st.cur.schedules.values().cloned().collect();
            let mut kinds = String::new();
            let mut footprint = ScheduleFootprint::Pure;
            let mut delta = AdgDelta::new((it * self.cfg.mutations_per_step) as u64);
            {
                // "ADG* is constructed using a combination of random and
                // schedule-preserving transformations" (§V-A): preserving
                // guidance applies to most mutations, but some stay fully
                // random so the annealer can restructure used hardware.
                let rules = RuleSet::legacy();
                for step in 0..self.cfg.mutations_per_step {
                    let preserving = self.cfg.schedule_preserving && st.rng.gen_bool(0.7);
                    let mut ctx = TransformCtx {
                        cap_pool: &caps,
                        schedules: &mut prop_schedules,
                        preserving,
                    };
                    let epoch = (it * self.cfg.mutations_per_step + step) as u64;
                    if !kinds.is_empty() {
                        kinds.push(',');
                    }
                    if self.cfg.compound > 1 {
                        let apps = rules.apply_compound(
                            &mut prop_adg,
                            &mut ctx,
                            &mut st.rng,
                            epoch,
                            self.cfg.compound,
                        );
                        for (i, app) in apps.iter().enumerate() {
                            footprint = footprint.merge(app.inferred);
                            if i > 0 {
                                kinds.push('+');
                            }
                            kinds.push_str(app.mutation.kind());
                            delta.absorb(&app.delta);
                        }
                    } else {
                        let app = rules.apply_random(&mut prop_adg, &mut ctx, &mut st.rng, epoch);
                        footprint = footprint.merge(app.inferred);
                        kinds.push_str(app.mutation.kind());
                        delta.absorb(&app.delta);
                    }
                    if preserving {
                        kinds.push('*');
                    }
                }
            }
            event!(
                "dse.propose",
                iter = it,
                temp = temp,
                mutations = kinds.as_str(),
                footprint = footprint.name(),
            );
            st.sim_seconds += 0.5; // proposal overhead

            let prior: BTreeMap<String, Schedule> = prop_schedules
                .into_iter()
                .map(|s| (s.mdfg_name.clone(), s))
                .collect();
            // The proposal's merged delta feeds repair classification (an
            // empty scope skips the dirty-set scan); the rule chain keys
            // the evaluation cache only in compound mode, so default-run
            // cache keys stay historical.
            let scope = delta.scope();
            let rule_trace = (self.cfg.compound > 1).then_some(kinds.as_str());
            let (state, sim) =
                pipe.evaluate_with(&prop_adg, &prior, footprint, Some(&scope), rule_trace);
            st.sim_seconds += sim;
            let Some(prop) = state else {
                counters.invalid.inc();
                event!("dse.invalid", iter = it);
                st.history
                    .push((st.sim_seconds / 3600.0, st.best.objective));
                continue;
            };

            // Every valid evaluation feeds the frontier, accepted or not.
            st.pareto.insert(ParetoPoint {
                ipc: prop.objective,
                resources: prop.resources,
                placement: prop.placement,
            });

            let delta = prop.fitness - st.cur.fitness;
            let accept = prop.fitness >= st.cur.fitness || st.rng.gen_f64() < (delta / temp).exp();
            if accept {
                counters.accepted.inc();
                event!(
                    "dse.accept",
                    iter = it,
                    delta = delta,
                    temp = temp,
                    objective = prop.objective,
                );
                st.cur_adg = prop_adg;
                st.cur = prop;
                if st.cur.fitness > st.best.fitness {
                    st.best = st.cur.clone();
                    st.best_adg = st.cur_adg.clone();
                }
            } else {
                event!("dse.reject", iter = it, delta = delta, temp = temp);
            }
            st.history
                .push((st.sim_seconds / 3600.0, st.best.objective));
        }
    }
}

/// What the shared annealing loop hands back to `run`/`resume_from`.
struct LoopOutcome {
    champ: ChainState,
    dse_hours: f64,
    stats: DseStats,
    pareto: ParetoFront,
    completed: bool,
}

/// Index of the chain with the best `best.fitness`; ties break to the
/// lowest index so selection never depends on scheduling.
fn best_chain(states: &[ChainState]) -> usize {
    let mut winner = 0usize;
    for (idx, st) in states.iter().enumerate().skip(1) {
        if st.best.fitness > states[winner].best.fitness {
            winner = idx;
        }
    }
    winner
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn vecadd() -> Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 4096)
            .array_input("b", 4096)
            .array_output("c", 4096)
            .loop_const("i", 4096)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap()
    }

    fn fir() -> Kernel {
        KernelBuilder::new("fir", Suite::Dsp, DataType::I64)
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
            .unwrap()
    }

    fn quick_cfg(iters: usize, preserving: bool) -> DseConfig {
        DseConfig {
            iterations: iters,
            schedule_preserving: preserving,
            compile: CompileOptions {
                max_unroll: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn cap_pool_covers_domain() {
        let pool = Dse::cap_pool(&[vecadd(), fir()]);
        assert!(pool.contains(&FuCap::new(Op::Add, DataType::I64)));
        assert!(pool.contains(&FuCap::new(Op::Mul, DataType::I64)));
    }

    #[test]
    fn seed_schedules_and_dse_improves() {
        let dse = Dse::new(vec![vecadd(), fir()], quick_cfg(30, true));
        let r = dse.run().unwrap();
        assert!(r.objective > 0.0);
        assert_eq!(r.schedules.len(), 2);
        assert!(r.history.len() > 10);
        // history is monotone non-decreasing (best-so-far)
        for w in r.history.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        // final hardware validates and fits
        r.sys_adg.validate().unwrap();
        assert!(r.dse_hours > 0.0);
        // the frontier is populated and the winner is on or below it
        assert!(!r.pareto.is_empty());
        assert!(r
            .pareto
            .points()
            .iter()
            .any(|p| p.ipc >= r.objective - 1e-12));
    }

    #[test]
    fn preserving_reduces_full_schedules() {
        let with = Dse::new(vec![fir()], quick_cfg(40, true)).run().unwrap();
        let without = Dse::new(
            vec![fir()],
            DseConfig {
                seed: 17,
                ..quick_cfg(40, false)
            },
        )
        .run()
        .unwrap();
        // preserving mode should do more repairs/intact checks and fewer
        // full schedules per iteration
        let with_rate = with.stats.full_schedules as f64 / with.stats.iterations.max(1) as f64;
        let without_rate =
            without.stats.full_schedules as f64 / without.stats.iterations.max(1) as f64;
        assert!(
            with_rate <= without_rate + 0.5,
            "with {} vs without {}",
            with_rate,
            without_rate
        );
        assert!(with.stats.intact + with.stats.repairs > 0);
    }

    #[test]
    fn weights_steer_objective() {
        let mut cfg = quick_cfg(10, true);
        cfg.weights.insert("fir".into(), 5.0);
        let r = Dse::new(vec![vecadd(), fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
    }

    #[test]
    fn cache_hits_on_revisited_designs() {
        let r = Dse::new(vec![fir()], quick_cfg(40, true)).run().unwrap();
        assert_eq!(
            r.stats.cache_hits + r.stats.cache_misses,
            r.stats.iterations + 1, // +1: the seed evaluation
        );
        assert!(r.stats.cache_misses > 0);
    }

    #[test]
    fn cache_off_matches_cache_on() {
        let on = Dse::new(vec![fir()], quick_cfg(20, true)).run().unwrap();
        let off = Dse::new(
            vec![fir()],
            DseConfig {
                cache: false,
                ..quick_cfg(20, true)
            },
        )
        .run()
        .unwrap();
        assert_eq!(on.objective.to_bits(), off.objective.to_bits());
        assert_eq!(on.variants, off.variants);
        assert_eq!(on.history, off.history);
        assert_eq!(on.pareto, off.pareto);
        assert_eq!((off.stats.cache_hits, off.stats.cache_misses), (0, 0));
    }

    #[test]
    fn multi_chain_runs_and_improves() {
        let cfg = DseConfig {
            chains: 3,
            exchange_interval: 5,
            ..quick_cfg(15, true)
        };
        let r = Dse::new(vec![fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
        // every chain contributes iterations
        assert_eq!(r.stats.iterations, 45);
        // history covers only the winning chain
        assert_eq!(r.history.len(), 16);
    }
}
