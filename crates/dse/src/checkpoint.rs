//! Crash-safe DSE checkpoints.
//!
//! A checkpoint captures everything [`crate::Dse`] needs to continue an
//! annealing run *exactly* where it left off: per-chain RNG state, current
//! and best design points (ADG + evaluation), the accumulated stats and
//! simulated time, the memo-table key sets (the warm set — artifacts are
//! recomputed, see `cache.rs`), and the telemetry trace cursor. The
//! invariant the whole format serves is **resume equivalence**: an
//! interrupted-then-resumed run produces the same `DseResult`, the same
//! `DseStats`, and (at a checkpoint-aligned boundary, or with one chain)
//! the same deterministic trace, byte for byte, as the uninterrupted run —
//! at any thread count. See `DESIGN.md` §9.
//!
//! The on-disk format is a single JSON object written through
//! [`overgen_telemetry::fs::write_atomic`], so a crash mid-write leaves
//! the previous checkpoint intact. All `u64` values and `f64` bit patterns
//! are encoded as hex *strings* — the in-tree JSON parser reads numbers as
//! `f64`, which cannot hold a full 64-bit integer, and a float that round
//! trips through decimal is not guaranteed bit-identical. Hex strings make
//! every field lossless.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use overgen_adg::{
    Adg, AdgNode, DmaNode, GenNode, InPortNode, NodeId, OutPortNode, PeNode, PortableAdg, RecNode,
    RegNode, SpadNode, SwitchNode, SystemParams,
};
use overgen_compiler::CompileOptions;
use overgen_ir::{DataType, FuCap, Kernel, Op};
use overgen_mdfg::MdfgNodeId;
use overgen_model::{
    ClockRegionGrid, FpgaDevice, PerfEstimate, Placement, PlacementMetrics, PlacerKind, Resources,
    XCVU9P,
};
use overgen_scheduler::Schedule;
use overgen_telemetry::json::{self, Obj, Value};
use overgen_telemetry::{Rng, SpanGuard};

use overgen_model::DeviceBudget;

use crate::engine::{stat_delta, ChainState, Dse, DseConfig, DseError, DseResult, DseStats};
use crate::eval::{EvalPipeline, EvalState, ParetoFront, ParetoPoint};
use crate::objective::{GeomeanIpcWeights, Objective, PlacementObjective};
use crate::system::{SystemDseBackend, SystemDseConfig};

const MAGIC: &str = "overgen-dse-checkpoint";
// Version history: 1 = original format; 2 = pluggable objectives (top-level
// objective header, `objective` config field, per-eval fitness + resource
// vector, per-chain Pareto frontier, `infeasible` stat); 3 = spatial
// placement (per-eval `placement` metrics, three-element Pareto points,
// `placement_aware` objective serialization); 4 = rewrite engine
// (`compound` config field for compound rule proposals).
const VERSION: u64 = 4;

/// Periodic checkpointing policy for a DSE run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where to write the checkpoint file (atomically replaced on every
    /// write; the path's parent directories are created as needed).
    pub path: PathBuf,
    /// Proposals (per chain) between checkpoint writes. Writes land on
    /// segment boundaries, so the effective granularity is also bounded by
    /// [`crate::DseConfig::exchange_interval`]. Clamped to at least 1.
    pub interval: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every 25 proposals.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            interval: 25,
        }
    }
}

/// Position in the deterministic telemetry stream at checkpoint time, so a
/// resumed run continues stamping events exactly where the interrupted one
/// stopped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceCursor {
    /// Next event sequence number.
    pub(crate) seq: u64,
    /// Next deterministic clock tick.
    pub(crate) tick: u64,
    /// Open handle of the enclosing `dse.run` span (its start tick), so the
    /// resumed run's close event matches the uninterrupted run's.
    pub(crate) span: u64,
}

/// A loaded (or about-to-be-written) DSE checkpoint.
///
/// Obtain one with [`Checkpoint::load`], optionally adjust the embedded
/// configuration (e.g. thread count, or a fresh proposal budget) through
/// [`Checkpoint::config_mut`], then continue the run with
/// [`Checkpoint::resume`]. Graceful-stop budgets
/// ([`crate::DseConfig::max_proposals`] / `max_wall_seconds`) are *not*
/// persisted: a resumed run goes to completion unless the caller sets new
/// ones.
pub struct Checkpoint {
    pub(crate) cfg: DseConfig,
    pub(crate) workloads: Vec<String>,
    pub(crate) done: usize,
    pub(crate) stats: DseStats,
    pub(crate) chains: Vec<ChainState>,
    pub(crate) eval_keys: Vec<u64>,
    pub(crate) sys_keys: Vec<u64>,
    pub(crate) cursor: Option<TraceCursor>,
}

impl Checkpoint {
    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, DseError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DseError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| DseError::Checkpoint(format!("{}: {e}", path.display())))
    }

    /// Serialize and atomically write the checkpoint to `path`.
    pub fn save(&self, path: &Path) -> Result<(), DseError> {
        let mut body = self.to_json();
        body.push('\n');
        overgen_telemetry::fs::write_atomic(path, body.as_bytes())
            .map_err(|e| DseError::Checkpoint(format!("write {}: {e}", path.display())))
    }

    /// Sorted names of the workloads the checkpointed run explored.
    /// [`Checkpoint::resume`] requires kernels with exactly these names.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Proposals already run per chain.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Stats accumulated up to the checkpoint.
    pub fn stats(&self) -> DseStats {
        self.stats
    }

    /// Trace sequence number at the checkpoint: events with `seq` below
    /// this were emitted before the cut, events from the resumed run start
    /// here. `None` when the interrupted run had no collector installed.
    pub fn trace_seq(&self) -> Option<u64> {
        self.cursor.as_ref().map(|c| c.seq)
    }

    /// The run configuration stored in the checkpoint.
    pub fn config(&self) -> &DseConfig {
        &self.cfg
    }

    /// Mutable access to the stored configuration, for overrides that do
    /// not change the search (thread count, checkpoint path, fresh stop
    /// budgets). Changing search-relevant fields (seed, iterations,
    /// weights, system grids, …) voids resume equivalence.
    pub fn config_mut(&mut self) -> &mut DseConfig {
        &mut self.cfg
    }

    /// Continue the checkpointed run to completion (or to a new stop
    /// budget). `workloads` must carry exactly the kernel names reported by
    /// [`Checkpoint::workloads`]; kernels are assumed unchanged since the
    /// interrupted run — the mDFG variants they compile to are part of
    /// every evaluation, so a changed kernel voids resume equivalence.
    pub fn resume(&self, workloads: Vec<Kernel>) -> Result<DseResult, DseError> {
        let mut names: Vec<String> = workloads.iter().map(|k| k.name().to_string()).collect();
        names.sort();
        if names != self.workloads {
            return Err(DseError::Checkpoint(format!(
                "workload set mismatch: checkpoint has [{}], caller supplied [{}]",
                self.workloads.join(", "),
                names.join(", ")
            )));
        }
        Dse::new(workloads, self.cfg.clone()).resume_from(self)
    }

    /// Snapshot a running search into `cfg.checkpoint.path` (the
    /// engine-side writer; no-op when checkpointing is off). Hard-fails on
    /// write errors (see [`DseError::Checkpoint`]). The write itself is
    /// trace-invisible — only registry counters record it — so
    /// checkpointing cannot perturb trace determinism.
    pub(crate) fn write(
        dse: &Dse,
        pipe: &EvalPipeline,
        states: &[ChainState],
        done: usize,
        prior: &DseStats,
        base: &DseStats,
        run_span: &SpanGuard,
    ) -> Result<(), DseError> {
        let Some(ckc) = dse.cfg.checkpoint.as_ref() else {
            return Ok(());
        };
        let cursor = overgen_telemetry::current().map(|c| {
            let (seq, tick) = c.cursor();
            TraceCursor {
                seq,
                tick,
                span: run_span.handle().unwrap_or(0),
            }
        });
        let ck = Checkpoint {
            cfg: dse.cfg.clone(),
            workloads: dse.workloads.iter().map(|k| k.name().to_string()).collect(),
            done,
            stats: prior.merged(&stat_delta(pipe.registry(), base)),
            chains: states.to_vec(),
            eval_keys: pipe.eval_keys(),
            sys_keys: pipe.sys_keys(),
            cursor,
        };
        let t = std::time::Instant::now();
        ck.save(&ckc.path)?;
        pipe.registry().counter("dse.checkpoint.write").inc();
        pipe.registry()
            .counter("dse.checkpoint.write_us")
            .add(t.elapsed().as_micros() as u64);
        Ok(())
    }

    fn to_json(&self) -> String {
        let cursor = match &self.cursor {
            Some(c) => Obj::new()
                .raw("seq", &hx(c.seq))
                .raw("tick", &hx(c.tick))
                .raw("span", &hx(c.span))
                .finish(),
            None => "null".into(),
        };
        Obj::new()
            .str("magic", MAGIC)
            .raw("version", &hx(VERSION))
            .raw("cfg_hash", &hx(Dse::config_hash(&self.cfg)))
            .str("objective", self.cfg.objective.kind())
            .raw("config", &config_to_json(&self.cfg))
            .raw(
                "workloads",
                &arr(self.workloads.iter().map(|n| json::quote(n))),
            )
            .raw("done", &hx(self.done as u64))
            .raw("stats", &stats_to_json(&self.stats))
            .raw("chains", &arr(self.chains.iter().map(chain_to_json)))
            .raw("eval_keys", &arr(self.eval_keys.iter().map(|&k| hx(k))))
            .raw("sys_keys", &arr(self.sys_keys.iter().map(|&k| hx(k))))
            .raw("cursor", &cursor)
            .finish()
    }

    fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v = json::parse(text)?;
        if d_str(get(&v, "magic")?)? != MAGIC {
            return Err("not an OverGen DSE checkpoint".into());
        }
        let version = d_u64(get(&v, "version")?)?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let cfg = config_from_json(get(&v, "config")?)?;
        // The objective header duplicates the config's objective kind so a
        // checkpoint taken under one objective fails *specifically* when
        // pointed at a config edited to another, instead of as a generic
        // hash mismatch.
        let header_kind = d_str(get(&v, "objective")?)?;
        if header_kind != cfg.objective.kind() {
            return Err(format!(
                "checkpoint objective mismatch: checkpoint was taken under \
                 `{header_kind}` but its config says `{}` — a run can only \
                 resume under the objective that produced it",
                cfg.objective.kind()
            ));
        }
        if d_u64(get(&v, "cfg_hash")?)? != Dse::config_hash(&cfg) {
            return Err("config hash mismatch (corrupt or hand-edited checkpoint; \
                 the hash covers the objective and its parameters too)"
                .into());
        }
        let workloads = d_arr(get(&v, "workloads")?)?
            .iter()
            .map(|w| d_str(w).map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let chains = d_arr(get(&v, "chains")?)?
            .iter()
            .map(chain_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if chains.is_empty() {
            return Err("checkpoint has no chains".into());
        }
        let keys = |k: &str| -> Result<Vec<u64>, String> {
            d_arr(get(&v, k)?)?.iter().map(d_u64).collect()
        };
        let cursor = match get(&v, "cursor")? {
            Value::Null => None,
            c => Some(TraceCursor {
                seq: d_u64(get(c, "seq")?)?,
                tick: d_u64(get(c, "tick")?)?,
                span: d_u64(get(c, "span")?)?,
            }),
        };
        Ok(Checkpoint {
            cfg,
            workloads,
            done: d_usize(get(&v, "done")?)?,
            stats: stats_from_json(get(&v, "stats")?)?,
            chains,
            eval_keys: keys("eval_keys")?,
            sys_keys: keys("sys_keys")?,
            cursor,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives. Hex strings keep u64 and f64 bit patterns exact
// (see module docs); `arr` builds raw JSON arrays the `Obj` builder
// doesn't cover.

pub(crate) fn hx(v: u64) -> String {
    json::quote(&format!("{v:x}"))
}

pub(crate) fn fx(v: f64) -> String {
    hx(v.to_bits())
}

fn res_to_json(r: &Resources) -> String {
    arr(r.to_array().iter().map(|&v| fx(v)))
}

fn res_from_json(v: &Value) -> Result<Resources, String> {
    match d_arr(v)? {
        [a, b, c, d] => Ok(Resources::from_array([
            d_f64(a)?,
            d_f64(b)?,
            d_f64(c)?,
            d_f64(d)?,
        ])),
        _ => Err("expected 4 resource channels".into()),
    }
}

pub(crate) fn arr(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, s) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s);
    }
    out.push(']');
    out
}

pub(crate) fn get<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
    v.get(k).ok_or_else(|| format!("missing field `{k}`"))
}

pub(crate) fn d_str(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected string".to_string())
}

fn d_bool(v: &Value) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| "expected bool".to_string())
}

pub(crate) fn d_u64(v: &Value) -> Result<u64, String> {
    u64::from_str_radix(d_str(v)?, 16).map_err(|e| format!("bad hex integer: {e}"))
}

pub(crate) fn d_f64(v: &Value) -> Result<f64, String> {
    Ok(f64::from_bits(d_u64(v)?))
}

fn d_usize(v: &Value) -> Result<usize, String> {
    usize::try_from(d_u64(v)?).map_err(|e| format!("integer out of range: {e}"))
}

pub(crate) fn d_u32(v: &Value) -> Result<u32, String> {
    u32::try_from(d_u64(v)?).map_err(|e| format!("integer out of range: {e}"))
}

fn d_u16(v: &Value) -> Result<u16, String> {
    u16::try_from(d_u64(v)?).map_err(|e| format!("integer out of range: {e}"))
}

pub(crate) fn d_arr(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Arr(a) => Ok(a),
        _ => Err("expected array".into()),
    }
}

pub(crate) fn d_pair(v: &Value) -> Result<(&Value, &Value), String> {
    match d_arr(v)? {
        [a, b] => Ok((a, b)),
        _ => Err("expected 2-element array".into()),
    }
}

// ---------------------------------------------------------------------------
// ADG nodes and graphs, via the faithful `PortableAdg` mirror.

fn node_to_json(n: &AdgNode) -> String {
    match n {
        AdgNode::Pe(p) => Obj::new()
            .str("k", "pe")
            .raw(
                "caps",
                &arr(p.caps.iter().map(|c| json::quote(&c.to_string()))),
            )
            .raw("fifo", &hx(u64::from(p.delay_fifo_depth)))
            .finish(),
        AdgNode::Switch(_) => Obj::new().str("k", "switch").finish(),
        AdgNode::InPort(p) => Obj::new()
            .str("k", "in")
            .raw("w", &hx(u64::from(p.width_bytes)))
            .bool("pad", p.padding)
            .bool("ss", p.stream_state)
            .finish(),
        AdgNode::OutPort(p) => Obj::new()
            .str("k", "out")
            .raw("w", &hx(u64::from(p.width_bytes)))
            .finish(),
        AdgNode::Dma(d) => Obj::new()
            .str("k", "dma")
            .raw("bw", &hx(u64::from(d.bw_bytes)))
            .finish(),
        AdgNode::Gen(g) => Obj::new()
            .str("k", "gen")
            .raw("bw", &hx(u64::from(g.bw_bytes)))
            .finish(),
        AdgNode::Rec(r) => Obj::new()
            .str("k", "rec")
            .raw("bw", &hx(u64::from(r.bw_bytes)))
            .finish(),
        AdgNode::Reg(r) => Obj::new()
            .str("k", "reg")
            .raw("bw", &hx(u64::from(r.bw_bytes)))
            .finish(),
        AdgNode::Spad(s) => Obj::new()
            .str("k", "spad")
            .raw("cap", &hx(u64::from(s.capacity_kb)))
            .raw("bw", &hx(u64::from(s.bw_bytes)))
            .bool("ind", s.indirect)
            .finish(),
    }
}

fn cap_from_str(s: &str) -> Result<FuCap, String> {
    let (op_s, dt_s) = s
        .split_once('.')
        .ok_or_else(|| format!("bad capability `{s}`"))?;
    let op = Op::ALL
        .iter()
        .copied()
        .find(|o| o.to_string() == op_s)
        .ok_or_else(|| format!("unknown op `{op_s}`"))?;
    let dtype = DataType::ALL
        .iter()
        .copied()
        .find(|d| d.to_string() == dt_s)
        .ok_or_else(|| format!("unknown dtype `{dt_s}`"))?;
    Ok(FuCap::new(op, dtype))
}

fn node_from_json(v: &Value) -> Result<AdgNode, String> {
    Ok(match d_str(get(v, "k")?)? {
        "pe" => AdgNode::Pe(PeNode {
            caps: d_arr(get(v, "caps")?)?
                .iter()
                .map(|c| cap_from_str(d_str(c)?))
                .collect::<Result<_, _>>()?,
            delay_fifo_depth: u8::try_from(d_u64(get(v, "fifo")?)?)
                .map_err(|e| format!("fifo depth out of range: {e}"))?,
        }),
        "switch" => AdgNode::Switch(SwitchNode {}),
        "in" => AdgNode::InPort(InPortNode {
            width_bytes: d_u16(get(v, "w")?)?,
            padding: d_bool(get(v, "pad")?)?,
            stream_state: d_bool(get(v, "ss")?)?,
        }),
        "out" => AdgNode::OutPort(OutPortNode {
            width_bytes: d_u16(get(v, "w")?)?,
        }),
        "dma" => AdgNode::Dma(DmaNode {
            bw_bytes: d_u16(get(v, "bw")?)?,
        }),
        "gen" => AdgNode::Gen(GenNode {
            bw_bytes: d_u16(get(v, "bw")?)?,
        }),
        "rec" => AdgNode::Rec(RecNode {
            bw_bytes: d_u16(get(v, "bw")?)?,
        }),
        "reg" => AdgNode::Reg(RegNode {
            bw_bytes: d_u16(get(v, "bw")?)?,
        }),
        "spad" => AdgNode::Spad(SpadNode {
            capacity_kb: d_u32(get(v, "cap")?)?,
            bw_bytes: d_u16(get(v, "bw")?)?,
            indirect: d_bool(get(v, "ind")?)?,
        }),
        k => return Err(format!("unknown node kind `{k}`")),
    })
}

fn adg_to_json(a: &Adg) -> String {
    let p = a.to_portable();
    let adj = |t: &[Vec<u32>]| {
        arr(t
            .iter()
            .map(|row| arr(row.iter().map(|&i| hx(u64::from(i))))))
    };
    Obj::new()
        .raw(
            "slots",
            &arr(p.slots.iter().map(|s| match s {
                Some(n) => node_to_json(n),
                None => "null".into(),
            })),
        )
        .raw("out", &adj(&p.out_adj))
        .raw("in", &adj(&p.in_adj))
        .finish()
}

fn adg_from_json(v: &Value) -> Result<Adg, String> {
    let slots = d_arr(get(v, "slots")?)?
        .iter()
        .map(|s| match s {
            Value::Null => Ok(None),
            n => node_from_json(n).map(Some),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let adj = |k: &str| -> Result<Vec<Vec<u32>>, String> {
        d_arr(get(v, k)?)?
            .iter()
            .map(|row| d_arr(row)?.iter().map(d_u32).collect())
            .collect()
    };
    Adg::from_portable(PortableAdg {
        slots,
        out_adj: adj("out")?,
        in_adj: adj("in")?,
    })
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Schedules and evaluation states.

fn schedule_to_json(s: &Schedule) -> String {
    let id_pairs = |m: &BTreeMap<MdfgNodeId, NodeId>| {
        arr(m
            .iter()
            .map(|(k, v)| format!("[{},{}]", hx(k.index() as u64), hx(v.index() as u64))))
    };
    Obj::new()
        .str("name", &s.mdfg_name)
        .raw("variant", &hx(u64::from(s.variant)))
        .raw("assign", &id_pairs(&s.assignment))
        .raw("engines", &id_pairs(&s.stream_engines))
        .raw(
            "routes",
            &arr(s.routes.iter().map(|((src, dst), path)| {
                format!(
                    "[{},{},{}]",
                    hx(src.index() as u64),
                    hx(dst.index() as u64),
                    arr(path.iter().map(|n| hx(n.index() as u64)))
                )
            })),
        )
        .raw(
            "spads",
            &arr(s.placement.spad_arrays.iter().map(|a| json::quote(a))),
        )
        .raw("ipc", &fx(s.est.ipc))
        .raw("tile_ipc", &fx(s.est.per_tile_ipc))
        .raw("factors", &arr(s.est.factors.iter().map(|&f| fx(f))))
        .raw("balance", &fx(s.balance_penalty))
        .finish()
}

fn schedule_from_json(v: &Value) -> Result<Schedule, String> {
    let id_pairs = |k: &str| -> Result<BTreeMap<MdfgNodeId, NodeId>, String> {
        d_arr(get(v, k)?)?
            .iter()
            .map(|p| {
                let (m, n) = d_pair(p)?;
                Ok((
                    MdfgNodeId::from_index(d_usize(m)?),
                    NodeId::from_index(d_usize(n)?),
                ))
            })
            .collect()
    };
    let routes = d_arr(get(v, "routes")?)?
        .iter()
        .map(|r| match d_arr(r)? {
            [src, dst, path] => {
                let key = (
                    MdfgNodeId::from_index(d_usize(src)?),
                    MdfgNodeId::from_index(d_usize(dst)?),
                );
                let path = d_arr(path)?
                    .iter()
                    .map(|n| Ok(NodeId::from_index(d_usize(n)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((key, path))
            }
            _ => Err("expected [src, dst, path] route".to_string()),
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    let factors = d_arr(get(v, "factors")?)?;
    let factors: [f64; 3] = match factors {
        [a, b, c] => [d_f64(a)?, d_f64(b)?, d_f64(c)?],
        _ => return Err("expected 3 bottleneck factors".into()),
    };
    Ok(Schedule {
        mdfg_name: d_str(get(v, "name")?)?.to_string(),
        variant: d_u32(get(v, "variant")?)?,
        assignment: id_pairs("assign")?,
        stream_engines: id_pairs("engines")?,
        routes,
        placement: Placement {
            spad_arrays: d_arr(get(v, "spads")?)?
                .iter()
                .map(|a| d_str(a).map(str::to_string))
                .collect::<Result<_, _>>()?,
        },
        est: PerfEstimate {
            ipc: d_f64(get(v, "ipc")?)?,
            per_tile_ipc: d_f64(get(v, "tile_ipc")?)?,
            factors,
        },
        balance_penalty: d_f64(get(v, "balance")?)?,
    })
}

pub(crate) fn eval_to_json(e: &EvalState) -> String {
    let sys = Obj::new()
        .raw("tiles", &hx(u64::from(e.sys.tiles)))
        .raw("l2_banks", &hx(u64::from(e.sys.l2_banks)))
        .raw("l2_kb", &hx(u64::from(e.sys.l2_kb)))
        .raw("noc_bw", &hx(u64::from(e.sys.noc_bw_bytes)))
        .raw("dram", &hx(u64::from(e.sys.dram_channels)))
        .finish();
    Obj::new()
        .raw("sys", &sys)
        .raw(
            "schedules",
            &arr(e.schedules.values().map(schedule_to_json)),
        )
        .raw(
            "variants",
            &arr(e
                .variants
                .iter()
                .map(|(n, v)| format!("[{},{}]", json::quote(n), hx(u64::from(*v))))),
        )
        .raw("objective", &fx(e.objective))
        .raw("fitness", &fx(e.fitness))
        .raw("resources", &res_to_json(&e.resources))
        .raw("placement", &place_to_json(&e.placement))
        .finish()
}

fn place_to_json(p: &Option<PlacementMetrics>) -> String {
    match p {
        None => "null".into(),
        Some(m) => Obj::new()
            .raw("wirelength", &fx(m.wirelength))
            .raw("congestion", &fx(m.congestion))
            .raw("slr_crossings", &hx(m.slr_crossings))
            .raw("fmax_mhz", &fx(m.fmax_mhz))
            .finish(),
    }
}

fn place_from_json(v: &Value) -> Result<Option<PlacementMetrics>, String> {
    if matches!(v, Value::Null) {
        return Ok(None);
    }
    Ok(Some(PlacementMetrics {
        wirelength: d_f64(get(v, "wirelength")?)?,
        congestion: d_f64(get(v, "congestion")?)?,
        slr_crossings: d_u64(get(v, "slr_crossings")?)?,
        fmax_mhz: d_f64(get(v, "fmax_mhz")?)?,
    }))
}

pub(crate) fn eval_from_json(v: &Value) -> Result<EvalState, String> {
    let sys = get(v, "sys")?;
    let schedules = d_arr(get(v, "schedules")?)?
        .iter()
        .map(|s| {
            let s = schedule_from_json(s)?;
            Ok((s.mdfg_name.clone(), s))
        })
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    let variants = d_arr(get(v, "variants")?)?
        .iter()
        .map(|p| {
            let (n, ver) = d_pair(p)?;
            Ok((d_str(n)?.to_string(), d_u32(ver)?))
        })
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    Ok(EvalState {
        sys: SystemParams {
            tiles: d_u32(get(sys, "tiles")?)?,
            l2_banks: d_u32(get(sys, "l2_banks")?)?,
            l2_kb: d_u32(get(sys, "l2_kb")?)?,
            noc_bw_bytes: d_u32(get(sys, "noc_bw")?)?,
            dram_channels: d_u32(get(sys, "dram")?)?,
        },
        schedules,
        variants,
        objective: d_f64(get(v, "objective")?)?,
        fitness: d_f64(get(v, "fitness")?)?,
        resources: res_from_json(get(v, "resources")?)?,
        placement: place_from_json(get(v, "placement")?)?,
    })
}

// ---------------------------------------------------------------------------
// Chains, stats, configuration.

fn chain_to_json(c: &ChainState) -> String {
    Obj::new()
        .raw("rng", &arr(c.rng.state().iter().map(|&w| hx(w))))
        .raw("cur_adg", &adg_to_json(&c.cur_adg))
        .raw("cur", &eval_to_json(&c.cur))
        .raw("best_adg", &adg_to_json(&c.best_adg))
        .raw("best", &eval_to_json(&c.best))
        .raw("sim_seconds", &fx(c.sim_seconds))
        .raw("t0", &fx(c.t0))
        .raw(
            "history",
            &arr(c
                .history
                .iter()
                .map(|&(h, o)| format!("[{},{}]", fx(h), fx(o)))),
        )
        .raw(
            "pareto",
            &arr(c.pareto.points().iter().map(|p| {
                format!(
                    "[{},{},{}]",
                    fx(p.ipc),
                    res_to_json(&p.resources),
                    place_to_json(&p.placement)
                )
            })),
        )
        .finish()
}

fn chain_from_json(v: &Value) -> Result<ChainState, String> {
    let rng_words = d_arr(get(v, "rng")?)?;
    let rng: [u64; 4] = match rng_words {
        [a, b, c, d] => [d_u64(a)?, d_u64(b)?, d_u64(c)?, d_u64(d)?],
        _ => return Err("expected 4 RNG state words".into()),
    };
    let history = d_arr(get(v, "history")?)?
        .iter()
        .map(|p| {
            let (h, o) = d_pair(p)?;
            Ok((d_f64(h)?, d_f64(o)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pareto = ParetoFront::from_points(
        d_arr(get(v, "pareto")?)?
            .iter()
            .map(|p| {
                let [ipc, res, place] = d_arr(p)? else {
                    return Err("expected a 3-element Pareto point".into());
                };
                Ok(ParetoPoint {
                    ipc: d_f64(ipc)?,
                    resources: res_from_json(res)?,
                    placement: place_from_json(place)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    Ok(ChainState {
        rng: Rng::from_state(rng),
        cur_adg: adg_from_json(get(v, "cur_adg")?)?,
        cur: eval_from_json(get(v, "cur")?)?,
        best_adg: adg_from_json(get(v, "best_adg")?)?,
        best: eval_from_json(get(v, "best")?)?,
        sim_seconds: d_f64(get(v, "sim_seconds")?)?,
        t0: d_f64(get(v, "t0")?)?,
        history,
        pareto,
    })
}

fn stats_to_json(s: &DseStats) -> String {
    Obj::new()
        .raw("iterations", &hx(s.iterations as u64))
        .raw("accepted", &hx(s.accepted as u64))
        .raw("invalid", &hx(s.invalid as u64))
        .raw("full_schedules", &hx(s.full_schedules as u64))
        .raw("repairs", &hx(s.repairs as u64))
        .raw("intact", &hx(s.intact as u64))
        .raw("cache_hits", &hx(s.cache_hits as u64))
        .raw("cache_misses", &hx(s.cache_misses as u64))
        .raw("repair_fast", &hx(s.repair_fast as u64))
        .raw("repair_fallback", &hx(s.repair_fallback as u64))
        .raw("infeasible", &hx(s.infeasible as u64))
        .finish()
}

fn stats_from_json(v: &Value) -> Result<DseStats, String> {
    let f = |k: &str| d_usize(get(v, k)?);
    Ok(DseStats {
        iterations: f("iterations")?,
        accepted: f("accepted")?,
        invalid: f("invalid")?,
        full_schedules: f("full_schedules")?,
        repairs: f("repairs")?,
        intact: f("intact")?,
        cache_hits: f("cache_hits")?,
        cache_misses: f("cache_misses")?,
        repair_fast: f("repair_fast")?,
        repair_fallback: f("repair_fallback")?,
        infeasible: f("infeasible")?,
    })
}

fn objective_to_json(o: &Objective) -> String {
    let obj = Obj::new().str("kind", o.kind());
    match o {
        Objective::WeightedGeomeanIpc(w) => obj
            .raw("lut_penalty", &fx(w.lut_penalty))
            .raw("lut_scale", &fx(w.lut_scale))
            .finish(),
        Objective::ConstrainedIpc(b) => obj
            .str("name", b.name)
            .raw("limit", &res_to_json(&b.limit))
            .raw("soft_frac", &fx(b.soft_frac))
            .raw("soft_penalty", &fx(b.soft_penalty))
            .finish(),
        Objective::IpcPerLut => obj.finish(),
        Objective::PlacementAware(p) => {
            let device = Obj::new()
                .str("name", p.grid.device.name)
                .raw(
                    "total",
                    &arr(p.grid.device.total.to_array().iter().map(|&v| fx(v))),
                )
                .finish();
            let grid = Obj::new()
                .raw("device", &device)
                .raw("cols", &hx(u64::from(p.grid.cols)))
                .raw("rows", &hx(u64::from(p.grid.rows)))
                .raw("rows_per_slr", &hx(u64::from(p.grid.rows_per_slr)))
                .finish();
            obj.str("placer", p.placer.name())
                .raw("grid", &grid)
                .raw("wirelength_penalty", &fx(p.wirelength_penalty))
                .raw("wirelength_scale", &fx(p.wirelength_scale))
                .raw("base_mhz", &fx(p.base_mhz))
                .finish()
        }
    }
}

fn objective_from_json(v: &Value) -> Result<Objective, String> {
    Ok(match d_str(get(v, "kind")?)? {
        "weighted_geomean_ipc" => Objective::WeightedGeomeanIpc(GeomeanIpcWeights {
            lut_penalty: d_f64(get(v, "lut_penalty")?)?,
            lut_scale: d_f64(get(v, "lut_scale")?)?,
        }),
        "constrained_ipc" => {
            let name = d_str(get(v, "name")?)?;
            let limit = res_from_json(get(v, "limit")?)?;
            let loaded = DeviceBudget {
                name: "", // placeholder; resolved below
                limit,
                soft_frac: d_f64(get(v, "soft_frac")?)?,
                soft_penalty: d_f64(get(v, "soft_penalty")?)?,
            };
            // Reuse a preset's static name when the budget matches one;
            // otherwise leak the (tiny) custom name, as for devices.
            let budget = [
                DeviceBudget::vcu118(),
                DeviceBudget::vcu118_medium(),
                DeviceBudget::vcu118_small(),
            ]
            .into_iter()
            .find(|p| {
                p.name == name
                    && *p
                        == DeviceBudget {
                            name: p.name,
                            ..loaded
                        }
            })
            .unwrap_or(DeviceBudget {
                name: Box::leak(name.to_string().into_boxed_str()),
                ..loaded
            });
            Objective::ConstrainedIpc(budget)
        }
        "ipc_per_lut" => Objective::IpcPerLut,
        "placement_aware" => {
            let placer_name = d_str(get(v, "placer")?)?;
            let placer = PlacerKind::from_name(placer_name)
                .ok_or_else(|| format!("unknown placer `{placer_name}`"))?;
            let g = get(v, "grid")?;
            let dev = get(g, "device")?;
            let dev_name = d_str(get(dev, "name")?)?;
            let total: [f64; 4] = match d_arr(get(dev, "total")?)? {
                [a, b, c, d] => [d_f64(a)?, d_f64(b)?, d_f64(c)?, d_f64(d)?],
                _ => return Err("expected 4 device resource totals".into()),
            };
            let total = Resources::from_array(total);
            // Same static-name policy as devices in the config: reuse the
            // builtin when it matches, otherwise leak the (tiny) name.
            let device = if dev_name == XCVU9P.name && total.to_array() == XCVU9P.total.to_array() {
                XCVU9P
            } else {
                FpgaDevice {
                    name: Box::leak(dev_name.to_string().into_boxed_str()),
                    total,
                }
            };
            Objective::PlacementAware(PlacementObjective {
                placer,
                grid: ClockRegionGrid {
                    device,
                    cols: d_u32(get(g, "cols")?)?,
                    rows: d_u32(get(g, "rows")?)?,
                    rows_per_slr: d_u32(get(g, "rows_per_slr")?)?,
                },
                wirelength_penalty: d_f64(get(v, "wirelength_penalty")?)?,
                wirelength_scale: d_f64(get(v, "wirelength_scale")?)?,
                base_mhz: d_f64(get(v, "base_mhz")?)?,
            })
        }
        k => return Err(format!("unknown objective kind `{k}`")),
    })
}

fn config_to_json(cfg: &DseConfig) -> String {
    let grid = |g: &[u32]| arr(g.iter().map(|&v| hx(u64::from(v))));
    let device = Obj::new()
        .str("name", cfg.system.device.name)
        .raw(
            "total",
            &arr(cfg.system.device.total.to_array().iter().map(|&v| fx(v))),
        )
        .finish();
    let system = Obj::new()
        .raw("device", &device)
        .raw("util_cap", &fx(cfg.system.util_cap))
        .raw("max_tiles", &hx(u64::from(cfg.system.max_tiles)))
        .raw("dram_channels", &hx(u64::from(cfg.system.dram_channels)))
        .raw("l2_banks_grid", &grid(&cfg.system.l2_banks_grid))
        .raw("l2_kb_grid", &grid(&cfg.system.l2_kb_grid))
        .raw("noc_bw_grid", &grid(&cfg.system.noc_bw_grid))
        .finish();
    let compile = Obj::new()
        .raw("max_unroll", &hx(u64::from(cfg.compile.max_unroll)))
        .bool("no_recurrence", cfg.compile.include_no_recurrence)
        .raw("spad_cap_bytes", &hx(cfg.compile.spad_cap_bytes))
        .finish();
    let ck = match &cfg.checkpoint {
        Some(c) => Obj::new()
            .str("path", &c.path.display().to_string())
            .raw("interval", &hx(c.interval as u64))
            .finish(),
        None => "null".into(),
    };
    Obj::new()
        .raw("iterations", &hx(cfg.iterations as u64))
        .raw("seed", &hx(cfg.seed))
        .bool("preserving", cfg.schedule_preserving)
        .raw("objective", &objective_to_json(&cfg.objective))
        .raw("system", &system)
        .raw("compile", &compile)
        .raw(
            "weights",
            &arr(cfg
                .weights
                .iter()
                .map(|(n, &w)| format!("[{},{}]", json::quote(n), fx(w)))),
        )
        .raw("mutations_per_step", &hx(cfg.mutations_per_step as u64))
        .raw("threads", &hx(cfg.threads as u64))
        .raw("chains", &hx(cfg.chains as u64))
        .raw("exchange_interval", &hx(cfg.exchange_interval as u64))
        .bool("cache", cfg.cache)
        .raw("compound", &hx(cfg.compound as u64))
        .raw("checkpoint", &ck)
        .finish()
}

fn config_from_json(v: &Value) -> Result<DseConfig, String> {
    let sys = get(v, "system")?;
    let dev = get(sys, "device")?;
    let name = d_str(get(dev, "name")?)?;
    let total_arr = d_arr(get(dev, "total")?)?;
    let total: [f64; 4] = match total_arr {
        [a, b, c, d] => [d_f64(a)?, d_f64(b)?, d_f64(c)?, d_f64(d)?],
        _ => return Err("expected 4 device resource totals".into()),
    };
    let total = Resources::from_array(total);
    let builtin = overgen_model::XCVU9P;
    let device = if name == builtin.name && total.to_array() == builtin.total.to_array() {
        builtin
    } else {
        // A custom device: the name needs a 'static str, so loading a
        // checkpoint with a non-builtin device leaks its (tiny) name.
        FpgaDevice {
            name: Box::leak(name.to_string().into_boxed_str()),
            total,
        }
    };
    let grid =
        |k: &str| -> Result<Vec<u32>, String> { d_arr(get(sys, k)?)?.iter().map(d_u32).collect() };
    let compile = get(v, "compile")?;
    let weights = d_arr(get(v, "weights")?)?
        .iter()
        .map(|p| {
            let (n, w) = d_pair(p)?;
            Ok((d_str(n)?.to_string(), d_f64(w)?))
        })
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    let checkpoint = match get(v, "checkpoint")? {
        Value::Null => None,
        c => Some(CheckpointConfig {
            path: PathBuf::from(d_str(get(c, "path")?)?),
            interval: d_usize(get(c, "interval")?)?,
        }),
    };
    Ok(DseConfig {
        iterations: d_usize(get(v, "iterations")?)?,
        seed: d_u64(get(v, "seed")?)?,
        schedule_preserving: d_bool(get(v, "preserving")?)?,
        objective: objective_from_json(get(v, "objective")?)?,
        system: SystemDseConfig {
            device,
            util_cap: d_f64(get(sys, "util_cap")?)?,
            max_tiles: d_u32(get(sys, "max_tiles")?)?,
            dram_channels: d_u32(get(sys, "dram_channels")?)?,
            l2_banks_grid: grid("l2_banks_grid")?,
            l2_kb_grid: grid("l2_kb_grid")?,
            noc_bw_grid: grid("noc_bw_grid")?,
            // Not serialized: the scoring backend does not change the
            // checkpoint byte format, and a non-default backend is folded
            // into the config hash, so a resume under a different backend
            // is rejected by the existing hash check.
            backend: SystemDseBackend::default(),
        },
        compile: CompileOptions {
            max_unroll: d_u32(get(compile, "max_unroll")?)?,
            include_no_recurrence: d_bool(get(compile, "no_recurrence")?)?,
            spad_cap_bytes: d_u64(get(compile, "spad_cap_bytes")?)?,
        },
        weights,
        mutations_per_step: d_usize(get(v, "mutations_per_step")?)?,
        threads: d_usize(get(v, "threads")?)?,
        chains: d_usize(get(v, "chains")?)?,
        exchange_interval: d_usize(get(v, "exchange_interval")?)?,
        cache: d_bool(get(v, "cache")?)?,
        compound: d_usize(get(v, "compound")?)?,
        checkpoint,
        // Stop budgets and monitoring are per-invocation, never persisted:
        // a resumed run goes to completion unless the caller sets fresh
        // ones, and watches only if the caller asks again.
        max_proposals: None,
        max_wall_seconds: None,
        heartbeat: None,
        // The shared store and cancellation flag are likewise runtime
        // wiring, not exploration state.
        store: None,
        stop: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, KernelBuilder, Suite};

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

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("overgen-ck-{}-{name}.json", std::process::id()))
    }

    fn small_cfg(path: PathBuf) -> DseConfig {
        DseConfig {
            iterations: 6,
            compile: CompileOptions {
                max_unroll: 2,
                ..Default::default()
            },
            checkpoint: Some(CheckpointConfig { path, interval: 2 }),
            ..Default::default()
        }
    }

    #[test]
    fn file_round_trips_byte_identically() {
        let path = tmp("roundtrip");
        let r = Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        assert!(r.completed);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.workloads(), ["vecadd".to_string()]);
        assert_eq!(ck.done(), 6);
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_with_retired_repair_key_still_loads() {
        // Version-4 checkpoints written before the `repair` config switch
        // was removed carry a `"repair"` key; the reader must ignore it.
        let path = tmp("retired-repair-key");
        Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        let current = std::fs::read_to_string(&path).unwrap();
        assert_eq!(current.matches(",\"checkpoint\":").count(), 1);
        let legacy = current.replace(",\"checkpoint\":", ",\"repair\":true,\"checkpoint\":");
        std::fs::write(&path, legacy).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(current, re);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_final_checkpoint_is_a_noop_run() {
        let path = tmp("final");
        let full = Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert!(resumed.completed);
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.history, resumed.history);
        assert_eq!(full.variants, resumed.variants);
        assert_eq!(full.stats, resumed.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_workloads() {
        let path = tmp("wrong-workloads");
        Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let err = ck.resume(vec![]).unwrap_err();
        assert!(matches!(err, DseError::Checkpoint(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_edited_objective_is_rejected_with_a_clear_error() {
        let path = tmp("objective-mismatch");
        Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        // Hand-edit the config's objective while the header (and the
        // cfg-hash) still say the run used the default objective.
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = text.replace(
            "\"kind\":\"weighted_geomean_ipc\"",
            "\"kind\":\"ipc_per_lut\"",
        );
        assert_ne!(
            text, edited,
            "test premise: the objective kind is in the file"
        );
        std::fs::write(&path, edited).unwrap();
        let Err(err) = Checkpoint::load(&path) else {
            panic!("edited checkpoint must not load");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("objective mismatch")
                && msg.contains("weighted_geomean_ipc")
                && msg.contains("ipc_per_lut"),
            "unhelpful error: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constrained_objective_round_trips() {
        let path = tmp("constrained-roundtrip");
        // A generous budget (nothing rejected) keeps the run fast while
        // exercising the ConstrainedIpc serialization path end to end.
        let cfg = DseConfig {
            objective: Objective::ConstrainedIpc(DeviceBudget::vcu118()),
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.config().objective.kind(), "constrained_ipc");
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.pareto, resumed.pareto);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compound_config_round_trips() {
        let path = tmp("compound-roundtrip");
        let cfg = DseConfig {
            compound: 3,
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(
            ck.config().compound,
            3,
            "compound cap must survive the round trip — a resume that \
             silently fell back to single-rule proposals would replay a \
             different RNG stream"
        );
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.stats, resumed.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn placement_aware_objective_round_trips() {
        let path = tmp("placement-roundtrip");
        let cfg = DseConfig {
            objective: Objective::PlacementAware(PlacementObjective::default()),
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.config().objective.kind(), "placement_aware");
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.pareto, resumed.pareto);
        assert!(
            full.pareto.points().iter().all(|p| p.placement.is_some()),
            "a placement-aware run must carry placement metrics through \
             the checkpoint"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"magic\":\"nope\"}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(DseError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
