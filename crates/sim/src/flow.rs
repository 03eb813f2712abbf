//! The cycle-stepped flow simulation.
//!
//! The simulator is organized as a reusable [`SimBatch`]: a
//! *system-independent template* (stream classification, engine layout,
//! hoisted engine bandwidths) plus a struct-of-arrays arena of per-cycle
//! state (port FIFOs, byte scoreboards). [`SimBatch::new`] allocates
//! everything once; [`SimBatch::run`] resets the arena for one
//! [`SystemParams`] grid point and ticks the flow loop without a single
//! heap allocation or telemetry emission — which is what lets the nested
//! system DSE evaluate sibling grid points of one compiled schedule with
//! warm simulator state. [`simulate`] is the one-shot wrapper that keeps
//! the historical signature, span, and `sim.*` events.

use std::collections::BTreeMap;

use overgen_adg::{Adg, AdgNode, NodeId, SystemParams};
use overgen_mdfg::{Mdfg, MdfgNode, MdfgNodeId, MdfgNodeKind};
use overgen_scheduler::Schedule;
use overgen_telemetry::{event, span};

use crate::report::SimReport;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
    /// DRAM access latency in cycles (pipeline-fill only; streams prefetch
    /// deeply so bandwidth dominates steady state).
    pub dram_latency: u64,
    /// Port FIFO capacity as a multiple of the firing quantum.
    pub fifo_factor: u64,
    /// Enable the stream-table one-hot bypass (Figure 11). Disabling it
    /// halves the issue rate of engines with a single active stream.
    pub one_hot_bypass: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 200_000_000,
            dram_latency: 40,
            fifo_factor: 4,
            one_hot_bypass: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EngineKind {
    Dma,
    Spad,
    Gen,
    Rec,
    Reg,
}

/// One engine's slice of the grouped stream arrays, with its bandwidth
/// hoisted out of the tick loop (it used to be a `BTreeMap` lookup per
/// engine per cycle).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) bw: u64,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// A compiled-schedule simulation batch: the template is built once per
/// (mDFG, schedule, accelerator ADG) and [`SimBatch::run`] replays it
/// against any number of [`SystemParams`] grid points, reusing the arena.
///
/// Stream state lives in struct-of-arrays form, grouped by engine in
/// `NodeId`-ascending order (insertion order within an engine) — the same
/// visit order the original per-`StreamState` loop produced, so reports
/// are bit-identical to the historical implementation.
#[derive(Debug)]
pub struct SimBatch {
    pub(crate) cfg: SimConfig,
    // ---- region-level template ----------------------------------------
    sequential: bool,
    pub(crate) fire_interval: u64,
    pub(crate) firings_total: u64,
    critical_path: u64,
    pub(crate) insts_per_firing: f64,
    config_bytes: u64,
    // ---- per-stream template (grouped by engine) -----------------------
    pub(crate) kind: Vec<EngineKind>,
    pub(crate) is_write: Vec<bool>,
    pub(crate) has_port: Vec<bool>,
    pub(crate) bytes_per_firing: Vec<u64>,
    pub(crate) stationary: Vec<u64>,
    pub(crate) mem_amp: Vec<u64>,
    fifo_cap: Vec<u64>,
    pub(crate) footprint: Vec<f64>,
    pub(crate) broadcast: Vec<bool>,
    /// For write streams feeding a recurrence: the paired read stream.
    rec_pair: Vec<Option<usize>>,
    /// Read streams primed by a recurrence pair (FIFO starts full).
    rec_read: Vec<bool>,
    pub(crate) lanes: Vec<Lane>,
    /// Unique scratchpad-resident read arrays: (footprint bytes,
    /// broadcast) — preloaded from DRAM before the region starts.
    spad_reads: Vec<(u64, bool)>,
    // ---- per-run arena (reset for every grid point) --------------------
    total_bytes: Vec<u64>,
    moved: Vec<u64>,
    fifo: Vec<u64>,
    dram_left: Vec<u64>,
    rec_avail: Vec<u64>,
    /// Scratch list of issue-eligible streams (capacity = stream count).
    active: Vec<usize>,
    // ---- sibling-reuse cache (one entry, kept by `run_cached`) ---------
    cache_valid: bool,
    cache_tiles: u64,
    cache_dram_channels: u32,
    cache_l2_frac: f64,
    cache_noc: u64,
    cache_cert: Certificate,
    /// Initial cold-miss budgets of the cached run (covers `l2_kb`).
    cache_dram_left: Vec<u64>,
    cache_report: SimReport,
    cache_hits: u64,
}

/// What a finished run proved about its shared-budget usage: whether the
/// L2 or NoC budget ever altered a transfer, and the largest per-cycle
/// budget level each needed (in pre-amplification bytes) to reproduce the
/// run unchanged. [`SimBatch::run_cached`] uses it to decide when a
/// sibling grid point — same tiles, DRAM channels, and cold-miss budgets,
/// different L2/NoC bandwidth — must replay to the exact same report.
#[derive(Debug, Clone, Copy, Default)]
struct Certificate {
    /// The L2 budget clamped at least one transfer.
    l2_limited: bool,
    /// The NoC budget clamped at least one transfer.
    noc_limited: bool,
    /// Max per-cycle L2 budget the unclamped transfers required.
    r_l2: u64,
    /// See `r_l2`, for the NoC.
    r_noc: u64,
}

impl SimBatch {
    /// Build the template for one scheduled mDFG on one accelerator ADG.
    /// All allocation happens here; [`SimBatch::run`] allocates nothing.
    pub fn new(mdfg: &Mdfg, sched: &Schedule, adg: &Adg, cfg: &SimConfig) -> SimBatch {
        // ---- classify streams, in mDFG node order ----------------------
        struct Tmp {
            engine: NodeId,
            kind: EngineKind,
            is_write: bool,
            has_port: bool,
            bytes_per_firing: u64,
            stationary: u64,
            mem_amp: u64,
            fifo_cap: u64,
            footprint: f64,
            broadcast: bool,
        }
        let mut tmp: Vec<Tmp> = Vec::new();
        let mut index_of: BTreeMap<MdfgNodeId, usize> = BTreeMap::new();
        for (sid, n) in mdfg.nodes() {
            let s = match n.as_stream() {
                Some(s) => s,
                None => continue,
            };
            let engine = match sched.stream_engines.get(&sid).copied() {
                Some(e) => e,
                None => continue, // unscheduled stream: treated as free
            };
            let kind = match adg.node(engine) {
                Some(AdgNode::Dma(_)) => EngineKind::Dma,
                Some(AdgNode::Spad(_)) => EngineKind::Spad,
                Some(AdgNode::Gen(_)) => EngineKind::Gen,
                Some(AdgNode::Rec(_)) => EngineKind::Rec,
                Some(AdgNode::Reg(_)) => EngineKind::Reg,
                _ => EngineKind::Dma,
            };
            let has_port = sched
                .assignment
                .get(&sid)
                .map(|a| {
                    matches!(
                        adg.node(*a),
                        Some(AdgNode::InPort(_)) | Some(AdgNode::OutPort(_))
                    )
                })
                .unwrap_or(false);
            let mem_amp =
                if s.pattern == overgen_mdfg::StreamPattern::Strided && kind == EngineKind::Dma {
                    4 // typical channel strides (3-4) waste ~3/4 of each line
                } else {
                    1
                };
            index_of.insert(sid, tmp.len());
            tmp.push(Tmp {
                engine,
                kind,
                is_write: s.is_write,
                has_port,
                bytes_per_firing: s.bytes_per_firing,
                stationary: s.reuse.stationary.max(1.0).round() as u64,
                mem_amp,
                fifo_cap: (s.bytes_per_firing * cfg.fifo_factor).max(8),
                footprint: s.reuse.footprint_bytes,
                broadcast: s.broadcast,
            });
        }

        // Recurrence pairs: write stream -> read stream edges (still in
        // original stream indices).
        let mut pair_of: Vec<Option<usize>> = vec![None; tmp.len()];
        for (w, r) in mdfg.edges().filter(|(s, d)| {
            mdfg.node(*s).map(MdfgNode::kind) == Some(MdfgNodeKind::OutputStream)
                && mdfg.node(*d).map(MdfgNode::kind) == Some(MdfgNodeKind::InputStream)
        }) {
            if let (Some(&wi), Some(&ri)) = (index_of.get(&w), index_of.get(&r)) {
                pair_of[wi] = Some(ri);
            }
        }

        // ---- group by engine (NodeId ascending, stable within) ---------
        let mut engine_streams: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, t) in tmp.iter().enumerate() {
            engine_streams.entry(t.engine).or_default().push(i);
        }
        // Engine bandwidth, hoisted to construction time: the tick loop
        // reads a plain `u64` per lane instead of a map lookup per cycle.
        let mut lanes = Vec::with_capacity(engine_streams.len());
        let mut order: Vec<usize> = Vec::with_capacity(tmp.len());
        for (e, list) in &engine_streams {
            let bw = match adg.node(*e).and_then(AdgNode::engine_bw) {
                Some(bw) => u64::from(bw),
                None => {
                    // A stream bound to a node without engine bandwidth
                    // (missing, or not an engine kind) is a scheduler bug:
                    // loud in debug, counted and traced in release so a
                    // silently-assumed 8 B/cycle never skews results
                    // unnoticed.
                    debug_assert!(
                        false,
                        "stream engine n{} of `{}` is not an engine node; \
                         defaulting to 8 B/cycle",
                        e.index(),
                        mdfg.name(),
                    );
                    if let Some(c) = overgen_telemetry::current() {
                        c.registry().counter("sim.engine_bw_default").inc();
                    }
                    event!(
                        "sim.engine_bw_default",
                        mdfg = mdfg.name(),
                        node = e.index() as u64,
                        assumed_bw = 8u64,
                    );
                    8
                }
            };
            let lo = order.len();
            order.extend(list.iter().copied());
            lanes.push(Lane {
                bw,
                lo,
                hi: order.len(),
            });
        }
        // Remap original stream indices to grouped positions.
        let mut new_pos = vec![0usize; tmp.len()];
        for (pos, &orig) in order.iter().enumerate() {
            new_pos[orig] = pos;
        }
        let n = tmp.len();
        let mut rec_pair: Vec<Option<usize>> = vec![None; n];
        let mut rec_read = vec![false; n];
        for (orig, pair) in pair_of.iter().enumerate() {
            if let Some(r) = pair {
                rec_pair[new_pos[orig]] = Some(new_pos[*r]);
                rec_read[new_pos[*r]] = true;
            }
        }

        // Scratchpad preload set: unique spad-resident read arrays.
        let mut spad_reads = Vec::new();
        {
            let mut seen = std::collections::BTreeSet::new();
            for (_, node) in mdfg.nodes() {
                if let Some(st) = node.as_stream() {
                    if !st.is_write
                        && sched.placement.spad_arrays.contains(&st.array)
                        && seen.insert(st.array.clone())
                    {
                        spad_reads.push((st.reuse.footprint_bytes as u64, st.broadcast));
                    }
                }
            }
        }

        let pick =
            |f: &dyn Fn(&Tmp) -> u64| -> Vec<u64> { order.iter().map(|&i| f(&tmp[i])).collect() };
        SimBatch {
            cfg: *cfg,
            sequential: mdfg.sequential(),
            fire_interval: if mdfg.sequential() {
                (mdfg.critical_path_len() as u64 / 2).max(1)
            } else {
                1
            },
            firings_total: mdfg.firings().max(1.0) as u64,
            critical_path: mdfg.critical_path_len() as u64,
            insts_per_firing: mdfg.insts_per_firing(),
            config_bytes: adg.config_bytes(),
            kind: order.iter().map(|&i| tmp[i].kind).collect(),
            is_write: order.iter().map(|&i| tmp[i].is_write).collect(),
            has_port: order.iter().map(|&i| tmp[i].has_port).collect(),
            bytes_per_firing: pick(&|t| t.bytes_per_firing),
            stationary: pick(&|t| t.stationary),
            mem_amp: pick(&|t| t.mem_amp),
            fifo_cap: pick(&|t| t.fifo_cap),
            footprint: order.iter().map(|&i| tmp[i].footprint).collect(),
            broadcast: order.iter().map(|&i| tmp[i].broadcast).collect(),
            rec_pair,
            rec_read,
            lanes,
            spad_reads,
            total_bytes: vec![0; n],
            moved: vec![0; n],
            fifo: vec![0; n],
            dram_left: vec![0; n],
            rec_avail: vec![0; n],
            active: Vec::with_capacity(n),
            cache_valid: false,
            cache_tiles: 0,
            cache_dram_channels: 0,
            cache_l2_frac: 0.0,
            cache_noc: 0,
            cache_cert: Certificate::default(),
            cache_dram_left: vec![0; n],
            cache_report: SimReport::default(),
            cache_hits: 0,
        }
    }

    /// Number of streams the template carries.
    pub fn stream_count(&self) -> usize {
        self.kind.len()
    }

    /// Tiles the region runs on under `sys` (1 for sequential regions).
    pub(crate) fn tiles(&self, sys: &SystemParams) -> u64 {
        if self.sequential {
            1
        } else {
            u64::from(sys.tiles).max(1)
        }
    }

    /// This tile's share of the firings under `sys`.
    pub(crate) fn firings_tile(&self, sys: &SystemParams) -> u64 {
        self.firings_total.div_ceil(self.tiles(sys))
    }

    /// Per-stream byte budget the engine must move under `sys` (the
    /// historical `StreamState::total_bytes`).
    pub(crate) fn stream_total_bytes(&self, i: usize, firings_tile: u64) -> u64 {
        let refreshes = firings_tile.div_ceil(self.stationary[i]);
        let mut total = refreshes * self.bytes_per_firing[i];
        // Broadcast-replicated arrays: every tile streams the whole array
        // (no partitioning win) — wasted bandwidth, the ellpack outlier.
        if self.broadcast[i] {
            total = total.max(self.footprint[i] as u64);
        }
        total
    }

    /// Exposed DRAM preload bytes for scratchpad-resident arrays.
    pub(crate) fn spad_fill_bytes(&self, tiles: u64) -> u64 {
        self.spad_reads
            .iter()
            .map(|&(fp, bcast)| if bcast { fp } else { fp / tiles })
            .sum()
    }

    /// Pipeline latency: kernel launch over RoCC (+ cache warm),
    /// per-stream parameter configuration, fabric depth, and the DRAM
    /// fill.
    pub(crate) fn pipeline_fill(&self, sys: &SystemParams) -> u64 {
        let tiles = self.tiles(sys);
        let spad_fill_cycles = (self.spad_fill_bytes(tiles) as f64
            / (sys.dram_bw_bytes() as f64 / tiles as f64)) as u64;
        500 + 30 * self.kind.len() as u64
            + self.critical_path * 2
            + self.cfg.dram_latency
            + spad_fill_cycles
    }

    /// Cold-miss byte budget for stream `i` under `sys`: the footprint
    /// must be fetched from DRAM once; re-references hit L2 only when
    /// every tile's share fits.
    pub(crate) fn stream_dram_left(&self, i: usize, sys: &SystemParams, total: u64) -> u64 {
        if self.kind[i] != EngineKind::Dma {
            return 0;
        }
        let tiles = self.tiles(sys);
        let fits_l2 = self.footprint[i] * tiles as f64 <= f64::from(sys.l2_kb) * 1024.0;
        let footprint_tile = if self.broadcast[i] {
            self.footprint[i] as u64
        } else {
            (self.footprint[i] / tiles as f64) as u64
        };
        if fits_l2 {
            footprint_tile.min(total)
        } else {
            total
        }
    }

    /// Reset the arena for one grid point.
    fn reset(&mut self, sys: &SystemParams) {
        let firings_tile = self.firings_tile(sys);
        for i in 0..self.kind.len() {
            let total = self.stream_total_bytes(i, firings_tile);
            self.total_bytes[i] = total;
            self.moved[i] = 0;
            self.rec_avail[i] = 0;
            self.dram_left[i] = self.stream_dram_left(i, sys, total);
            // Prime recurrence loops: initial values sit in the read port
            // FIFO.
            self.fifo[i] = if self.rec_read[i] {
                self.fifo_cap[i]
            } else {
                0
            };
        }
    }

    /// Whether stream `i` still needs engine issue slots. Recurrence
    /// *read* streams are filled directly by the forward of their paired
    /// write stream, so they never occupy an issue slot. Read streams go
    /// inactive once compute has issued every firing they feed: bytes they
    /// have not fetched by then will never be consumed, and fetching them
    /// anyway would burn shared L2/NoC/DRAM budget (and round-robin slots)
    /// that write drains still need — over-fetch used to inflate cycle
    /// counts here.
    #[inline]
    fn stream_active(&self, i: usize, fired: u64, firings_tile: u64) -> bool {
        if self.kind[i] == EngineKind::Rec && !self.is_write[i] {
            return false;
        }
        if self.is_write[i] {
            self.fifo[i] > 0 || self.moved[i] < self.total_bytes[i]
        } else {
            fired < firings_tile && self.moved[i] < self.total_bytes[i]
        }
    }

    /// Simulate one grid point on the warm arena. Allocation-free and
    /// telemetry-free: safe to call from tight system-DSE sweeps (the
    /// `tests/alloc.rs` gate counts allocations across this call).
    pub fn run(&mut self, sys: &SystemParams) -> SimReport {
        self.run_tracked(sys).0
    }

    /// [`SimBatch::run`] plus the run's budget-usage [`Certificate`]. The
    /// tracking is read-only side-band state: the simulated numerics are
    /// identical to an untracked run.
    fn run_tracked(&mut self, sys: &SystemParams) -> (SimReport, Certificate) {
        self.reset(sys);
        let cfg = self.cfg;
        let tiles = self.tiles(sys);
        let fire_interval = self.fire_interval;
        let firings_tile = self.firings_tile(sys);

        // Shared per-tile budgets (fractional carry so an uneven tile
        // split does not round bandwidth away).
        let l2_bw_frac = sys.l2_bw_bytes() as f64 / tiles as f64;
        let noc_bw_tile = u64::from(sys.noc_bw_bytes).max(1);
        let dram_bw_frac = sys.dram_bw_bytes() as f64 / tiles as f64;
        let mut l2_carry = 0.0f64;
        let mut dram_carry = 0.0f64;

        let spad_fill_bytes = self.spad_fill_bytes(tiles);
        let pipeline_fill = self.pipeline_fill(sys);

        // ---- main loop ----------------------------------------------------
        let mut fired: u64 = 0;
        let mut cycles: u64 = 0;
        let mut report = SimReport::default();
        let mut rr_offset = 0usize; // engine round-robin fairness
        let mut cert = Certificate::default();

        while cycles < cfg.max_cycles {
            cycles += 1;
            l2_carry += l2_bw_frac;
            dram_carry += dram_bw_frac;
            let mut l2_budget = l2_carry as u64;
            let mut noc_budget = noc_bw_tile;
            let mut dram_budget = dram_carry as u64;
            let (l2_start, dram_start) = (l2_budget, dram_budget);
            // Running L2/NoC consumption within this cycle, for the
            // certificate's per-cycle requirement watermarks.
            let (mut used_l2, mut used_noc) = (0u64, 0u64);

            // 1. Engines move data.
            for li in 0..self.lanes.len() {
                let Lane { bw, lo, hi } = self.lanes[li];
                self.active.clear();
                for i in lo..hi {
                    if self.stream_active(i, fired, firings_tile) {
                        self.active.push(i);
                    }
                }
                if self.active.is_empty() {
                    continue;
                }
                // Stream-table issue: one stream per cycle. Without the
                // one-hot bypass a lone stream issues every other cycle.
                if self.active.len() == 1 && !cfg.one_hot_bypass && cycles.is_multiple_of(2) {
                    continue;
                }
                let pick = self.active[rr_offset % self.active.len()];
                let mut quantum = bw;
                // What the engine would issue with unconstrained shared
                // budgets — the certificate compares realized transfers
                // against it to detect budget clamping.
                let mut quantum_un = bw;
                // Budget gating for DMA traffic; strided streams waste a
                // multiple of their useful bytes on partially-used lines.
                if self.kind[pick] == EngineKind::Dma {
                    quantum = quantum.min(l2_budget).min(noc_budget) / self.mem_amp[pick];
                    quantum_un /= self.mem_amp[pick];
                    if quantum == 0 {
                        if quantum_un > 0 {
                            // A shared budget (not the engine) zeroed the
                            // transfer.
                            cert.l2_limited |= l2_budget < bw;
                            cert.noc_limited |= noc_budget < bw;
                        }
                        continue;
                    }
                }
                if self.is_write[pick] {
                    // Drain the out-port FIFO toward memory / recurrence.
                    // A recurrence forward is one data movement: it lands
                    // directly in the paired read stream's port FIFO.
                    let n = quantum.min(self.fifo[pick]);
                    if self.kind[pick] == EngineKind::Dma {
                        let n_un = quantum_un.min(self.fifo[pick]);
                        if n != n_un {
                            cert.l2_limited |= l2_budget < bw;
                            cert.noc_limited |= noc_budget < bw;
                        }
                        let amp = self.mem_amp[pick];
                        cert.r_l2 = cert.r_l2.max(used_l2 + amp * n_un);
                        cert.r_noc = cert.r_noc.max(used_noc + amp * n_un);
                        used_l2 += n;
                        used_noc += n;
                    }
                    if n > 0 {
                        self.fifo[pick] -= n;
                        self.moved[pick] += n;
                        match self.kind[pick] {
                            EngineKind::Dma => {
                                l2_budget -= n;
                                noc_budget -= n;
                                report.bytes_l2 += n;
                            }
                            EngineKind::Spad => report.bytes_spad += n,
                            EngineKind::Rec => report.bytes_rec += n,
                            _ => {}
                        }
                        if let Some(ri) = self.rec_pair[pick] {
                            // Recurring values update the read port in
                            // place: cap at the FIFO size (stationary
                            // reductions keep replacing the same cells).
                            let cap = self.fifo_cap[ri];
                            self.fifo[ri] = (self.fifo[ri] + n).min(cap);
                            self.moved[ri] += n;
                        }
                    }
                } else {
                    // Supply the in-port FIFO.
                    let space = self.fifo_cap[pick].saturating_sub(self.fifo[pick]);
                    let left = self.total_bytes[pick].saturating_sub(self.moved[pick]);
                    let mut n = quantum.min(space).min(left);
                    if self.kind[pick] == EngineKind::Rec {
                        n = n.min(self.rec_avail[pick]);
                    }
                    if self.kind[pick] == EngineKind::Dma {
                        let n_un = quantum_un.min(space).min(left);
                        if n != n_un {
                            cert.l2_limited |= l2_budget < bw;
                            cert.noc_limited |= noc_budget < bw;
                        }
                        let amp = self.mem_amp[pick];
                        cert.r_l2 = cert.r_l2.max(used_l2 + amp * n_un);
                        cert.r_noc = cert.r_noc.max(used_noc + amp * n_un);
                        // Cold part of the transfer also needs DRAM
                        // bandwidth; strided streams use only 1/amp of
                        // each fetched line.
                        let cold = n.min(self.dram_left[pick]);
                        let cold = cold.min(dram_budget / amp);
                        let hot = n - n.min(self.dram_left[pick]);
                        n = cold + hot;
                        dram_budget -= (cold * amp).min(dram_budget);
                        self.dram_left[pick] -= cold;
                        report.bytes_dram += cold * amp;
                        report.bytes_l2 += hot;
                        l2_budget = l2_budget.saturating_sub(n);
                        noc_budget = noc_budget.saturating_sub(n);
                        used_l2 += n;
                        used_noc += n;
                    }
                    if self.kind[pick] == EngineKind::Spad {
                        report.bytes_spad += n;
                    }
                    if self.kind[pick] == EngineKind::Rec {
                        self.rec_avail[pick] -= n;
                    }
                    if n > 0 {
                        self.moved[pick] += n;
                        if self.has_port[pick] {
                            self.fifo[pick] += n;
                        }
                    }
                }
            }
            rr_offset += 1;

            // 2. Fabric fires when all input quanta are present and all
            //    output FIFOs have space (and the dependency interval has
            //    elapsed).
            if fired < firings_tile && cycles.is_multiple_of(fire_interval) {
                let mut can_fire = true;
                for i in 0..self.kind.len() {
                    if self.is_write[i] || !self.has_port[i] {
                        continue;
                    }
                    let needs_refresh = fired.is_multiple_of(self.stationary[i]);
                    if needs_refresh && self.fifo[i] < self.bytes_per_firing[i] {
                        can_fire = false;
                        break;
                    }
                }
                if can_fire {
                    for i in 0..self.kind.len() {
                        if !self.is_write[i] || !self.has_port[i] {
                            continue;
                        }
                        if self.fifo[i] + self.bytes_per_firing[i] > self.fifo_cap[i] {
                            can_fire = false;
                            break;
                        }
                    }
                    if !can_fire {
                        report.stall_output += 1;
                    }
                } else {
                    report.stall_input += 1;
                }
                if can_fire {
                    for i in 0..self.kind.len() {
                        if !self.has_port[i] {
                            continue;
                        }
                        if self.is_write[i] {
                            self.fifo[i] += self.bytes_per_firing[i];
                        } else if fired.is_multiple_of(self.stationary[i]) {
                            self.fifo[i] -= self.bytes_per_firing[i];
                        }
                    }
                    fired += 1;
                }
            }

            // Return unused budget to the carry (cap one extra cycle's
            // worth).
            l2_carry = (l2_carry - (l2_start - l2_budget) as f64).min(2.0 * l2_bw_frac);
            dram_carry = (dram_carry - (dram_start - dram_budget) as f64).min(2.0 * dram_bw_frac);

            // 3. Done when all firings issued and all write streams
            //    drained.
            if fired >= firings_tile
                && (0..self.kind.len()).all(|i| !self.is_write[i] || self.fifo[i] == 0)
            {
                break;
            }
        }

        report.truncated = cycles >= cfg.max_cycles;
        report.bytes_dram += spad_fill_bytes;
        report.cycles = cycles + pipeline_fill;
        report.firings = fired;
        let retired = fired as f64 * self.insts_per_firing;
        report.ipc = retired / report.cycles as f64 * tiles as f64;
        report.reconfig_cycles = self.config_bytes / 16 + 1_000;
        (report, cert)
    }

    /// [`SimBatch::run`] behind a one-entry sibling-reuse cache.
    ///
    /// The simulated dynamics depend on [`SystemParams`] only through the
    /// tile count, the DRAM channel count, the initial cold-miss budgets
    /// (where `l2_kb` enters), and the per-cycle L2/NoC budgets. When a
    /// grid point differs from the cached run *only* in L2/NoC bandwidth,
    /// and the cached run's [`Certificate`] shows those budgets never
    /// clamped a transfer — and, for a smaller budget, that the largest
    /// per-cycle requirement still fits under it — the cached report is
    /// returned verbatim: the replay is provably cycle-identical, so this
    /// is invisible to everything except wall-clock. Any other difference
    /// simulates and replaces the cache entry. Allocation- and
    /// telemetry-free like [`SimBatch::run`]; the debug-build oracle's
    /// shadow sweep differentially checks reuse alongside pruning.
    pub fn run_cached(&mut self, sys: &SystemParams) -> SimReport {
        let tiles = self.tiles(sys);
        let firings_tile = self.firings_tile(sys);
        let l2_frac = sys.l2_bw_bytes() as f64 / tiles as f64;
        let noc = u64::from(sys.noc_bw_bytes).max(1);
        // A smaller L2 budget floors to at least `l2_frac as u64` every
        // cycle once the carry settles, so the requirement watermark is
        // compared against that floor.
        let l2_ok = |cert: &Certificate, cached: f64| {
            l2_frac == cached
                || (!cert.l2_limited && (l2_frac > cached || cert.r_l2 <= l2_frac as u64))
        };
        let noc_ok = |cert: &Certificate, cached: u64| {
            noc == cached || (!cert.noc_limited && (noc > cached || cert.r_noc <= noc))
        };
        if self.cache_valid
            && tiles == self.cache_tiles
            && sys.dram_channels == self.cache_dram_channels
            && l2_ok(&self.cache_cert, self.cache_l2_frac)
            && noc_ok(&self.cache_cert, self.cache_noc)
            && (0..self.kind.len()).all(|i| {
                let total = self.stream_total_bytes(i, firings_tile);
                self.stream_dram_left(i, sys, total) == self.cache_dram_left[i]
            })
        {
            self.cache_hits += 1;
            return self.cache_report;
        }
        for i in 0..self.kind.len() {
            let total = self.stream_total_bytes(i, firings_tile);
            self.cache_dram_left[i] = self.stream_dram_left(i, sys, total);
        }
        let (report, cert) = self.run_tracked(sys);
        self.cache_valid = true;
        self.cache_tiles = tiles;
        self.cache_dram_channels = sys.dram_channels;
        self.cache_l2_frac = l2_frac;
        self.cache_noc = noc;
        self.cache_cert = cert;
        self.cache_report = report;
        report
    }

    /// Grid points served from the sibling-reuse cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

/// Simulate a scheduled mDFG on a system ADG (one-shot: builds a fresh
/// [`SimBatch`] and runs it once, emitting the historical telemetry).
pub fn simulate(
    mdfg: &Mdfg,
    sched: &Schedule,
    sys: &overgen_adg::SysAdg,
    cfg: &SimConfig,
) -> SimReport {
    let _span = span!("sim.run", mdfg = mdfg.name(), variant = mdfg.variant());
    let _timer = overgen_telemetry::profile::maybe_phase(
        overgen_telemetry::Phase::Simulate,
        overgen_telemetry::profile::NO_CLASS,
    );
    let mut batch = SimBatch::new(mdfg, sched, &sys.adg, cfg);
    let report = batch.run(&sys.sys);
    if report.truncated {
        // A truncated run is a modelling bug (the flow never converged):
        // surface it instead of silently reporting bogus IPC.
        if let Some(c) = overgen_telemetry::current() {
            c.registry().counter("sim.truncated").inc();
        }
        event!(
            "sim.truncated",
            mdfg = mdfg.name(),
            variant = mdfg.variant(),
            max_cycles = cfg.max_cycles,
            fired = report.firings,
            firings_tile = batch.firings_tile(&sys.sys),
        );
    }
    event!(
        "sim.done",
        mdfg = mdfg.name(),
        variant = mdfg.variant(),
        cycles = report.cycles,
        firings = report.firings,
        ipc = report.ipc,
        stall_input = report.stall_input,
        stall_output = report.stall_output,
        bytes_dram = report.bytes_dram,
        bytes_l2 = report.bytes_l2,
        bytes_spad = report.bytes_spad,
        bytes_rec = report.bytes_rec,
        truncated = report.truncated,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};
    use overgen_scheduler::schedule;

    fn vecadd(n: u64) -> overgen_ir::Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
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
            .unwrap()
    }

    fn sim_vecadd(n: u64, unroll: u32, sys_params: SystemParams, cfg: &SimConfig) -> SimReport {
        let mdfg = lower(
            &vecadd(n),
            0,
            &LowerChoices {
                unroll,
                ..Default::default()
            },
        )
        .unwrap();
        let sys = SysAdg::new(mesh(&MeshSpec::default()), sys_params);
        let sched = schedule(&mdfg, &sys, None).unwrap();
        simulate(&mdfg, &sched, &sys, cfg)
    }

    #[test]
    fn completes_and_counts_firings() {
        let r = sim_vecadd(4096, 2, SystemParams::default(), &SimConfig::default());
        assert!(!r.truncated);
        assert_eq!(r.firings, 2048);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn wider_vectorization_is_faster() {
        let r1 = sim_vecadd(4096, 1, SystemParams::default(), &SimConfig::default());
        let r2 = sim_vecadd(4096, 2, SystemParams::default(), &SimConfig::default());
        assert!(
            r2.cycles < r1.cycles,
            "u2 {} !< u1 {}",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn one_hot_bypass_doubles_single_stream_rate() {
        // Figure 11: without the bypass, a lone stream issues every other
        // cycle. Build an mDFG where each engine carries exactly one
        // stream: a scratchpad-resident input and a DMA-drained output.
        use overgen_mdfg::{ArrayNode, InstNode, MdfgNode, MemPref, ReuseInfo, StreamNode};
        let mut g = Mdfg::new("single", 0);
        g.set_unroll(1);
        g.set_total_iterations(4096.0);
        let hot = ReuseInfo {
            traffic_bytes: 4096.0 * 8.0 * 64.0,
            footprint_bytes: 4096.0 * 8.0,
            ..ReuseInfo::default()
        };
        let cold = ReuseInfo {
            traffic_bytes: 4096.0 * 8.0,
            footprint_bytes: 4096.0 * 8.0,
            ..ReuseInfo::default()
        };
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new(
            "a",
            4096,
            MemPref::PreferSpad,
        )));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "c",
            32768,
            MemPref::PreferDram,
        )));
        let ra = g.add_node(MdfgNode::InputStream(StreamNode::read("a", 16, hot)));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(
            overgen_ir::Op::Add,
            DataType::I64,
            1,
        )));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write("c", 16, cold)));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ra, add).unwrap();
        g.add_edge(add, wc).unwrap();
        g.add_edge(wc, ac).unwrap();

        let sys = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        let sched = schedule(&g, &sys, None).unwrap();
        let with = simulate(&g, &sched, &sys, &SimConfig::default());
        let without = simulate(
            &g,
            &sched,
            &sys,
            &SimConfig {
                one_hot_bypass: false,
                ..Default::default()
            },
        );
        assert!(
            without.cycles as f64 > with.cycles as f64 * 1.5,
            "bypass {} vs none {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn dram_bound_workload_slows_down() {
        // Same tile count and work split; fewer DRAM channels must cost
        // cycles once the L2 cannot capture the footprint.
        let mk = |channels| SystemParams {
            tiles: 8,
            l2_banks: 8,
            l2_kb: 16, // too small to capture: all traffic cold
            noc_bw_bytes: 64,
            dram_channels: channels,
        };
        let fast = sim_vecadd(8192, 2, mk(4), &SimConfig::default());
        let slow = sim_vecadd(8192, 2, mk(1), &SimConfig::default());
        assert!(
            slow.cycles > fast.cycles,
            "slow {} fast {}",
            slow.cycles,
            fast.cycles
        );
        assert!(slow.stall_input > 0);
    }

    #[test]
    fn recurrence_traffic_bypasses_memory() {
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
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // FIR at unroll 2 needs more fabric than the 2x2 test mesh offers;
        // use the general overlay (and a matching i64-capable config).
        let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
        let sched = schedule(&mdfg, &sys, None).unwrap();
        let r = simulate(&mdfg, &sched, &sys, &SimConfig::default());
        assert!(!r.truncated);
        assert!(r.bytes_rec > 0, "recurrence engine unused");
    }

    /// The drain-tail scenario of the calibrated 992-cycle regression: a
    /// broadcast read over a deep write FIFO on a single small tile.
    fn drain_tail_setup() -> (Mdfg, Schedule, SysAdg, SimConfig) {
        use overgen_mdfg::{ArrayNode, InstNode, MdfgNode, MemPref, ReuseInfo, StreamNode};
        let firings = 256u64;
        let mut g = Mdfg::new("overfetch", 0);
        g.set_unroll(1);
        g.set_total_iterations(firings as f64);
        let big = ReuseInfo {
            traffic_bytes: 1024.0 * 1024.0,
            footprint_bytes: 1024.0 * 1024.0,
            ..ReuseInfo::default()
        };
        let out = ReuseInfo {
            traffic_bytes: firings as f64 * 16.0,
            footprint_bytes: firings as f64 * 16.0,
            ..ReuseInfo::default()
        };
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new(
            "a",
            131072,
            MemPref::PreferDram,
        )));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "c",
            4096,
            MemPref::PreferDram,
        )));
        let ra = g.add_node(MdfgNode::InputStream(
            StreamNode::read("a", 8, big).with_broadcast(),
        ));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(
            overgen_ir::Op::Add,
            DataType::I64,
            1,
        )));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write("c", 16, out)));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ra, add).unwrap();
        g.add_edge(add, wc).unwrap();
        g.add_edge(wc, ac).unwrap();

        let sys = SysAdg::new(
            mesh(&MeshSpec::default()),
            SystemParams {
                tiles: 1,
                l2_banks: 4,
                l2_kb: 256,
                noc_bw_bytes: 32,
                dram_channels: 1,
            },
        );
        let sched = schedule(&g, &sys, None).unwrap();
        // A deep write FIFO leaves a long drain tail after the last
        // firing; the tail is where the stale read used to contend.
        let cfg = SimConfig {
            fifo_factor: 256,
            ..Default::default()
        };
        (g, sched, sys, cfg)
    }

    #[test]
    fn broadcast_read_stops_fetching_after_last_firing() {
        // Regression: a broadcast read stream's byte budget (the whole
        // replicated array) far exceeds what compute consumes. It used to
        // stay active after the last firing, stealing round-robin slots
        // and shared budget from the write drain — inflating cycle counts.
        let (g, sched, sys, cfg) = drain_tail_setup();
        let r = simulate(&g, &sched, &sys, &cfg);
        assert!(!r.truncated);
        assert_eq!(r.firings, 256);
        // Calibrated: 992 cycles with the firing gate, 1120 when the
        // broadcast read stays active through the drain tail.
        assert!(
            r.cycles < 1_050,
            "drain tail contended: {} cycles",
            r.cycles
        );
    }

    #[test]
    fn soa_batch_matches_simulate_on_the_drain_tail_case() {
        // Pin of the PR-4 drain-tail contention fix against the SoA
        // arena: a warm batch (run repeatedly, interleaved with other
        // grid points) must report the exact bytes/cycles/stalls that a
        // fresh one-shot `simulate` reports.
        let (g, sched, sys, cfg) = drain_tail_setup();
        let fresh = simulate(&g, &sched, &sys, &cfg);
        let mut batch = SimBatch::new(&g, &sched, &sys.adg, &cfg);
        let warm_once = batch.run(&sys.sys);
        // Dirty the arena with a different grid point, then return.
        let other = SystemParams {
            tiles: 4,
            l2_banks: 16,
            l2_kb: 2048,
            noc_bw_bytes: 64,
            dram_channels: 2,
        };
        let _ = batch.run(&other);
        let warm_again = batch.run(&sys.sys);
        assert_eq!(fresh, warm_once);
        assert_eq!(fresh, warm_again);
    }

    #[test]
    fn batch_reuse_matches_fresh_simulation_across_a_grid() {
        // Warm-state reuse across sibling grid points must be invisible:
        // every report equals the one-shot simulator's.
        let mdfg = lower(
            &vecadd(4096),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let adg = mesh(&MeshSpec::default());
        let sys0 = SysAdg::new(adg.clone(), SystemParams::default());
        let sched = schedule(&mdfg, &sys0, None).unwrap();
        let cfg = SimConfig::default();
        let mut batch = SimBatch::new(&mdfg, &sched, &adg, &cfg);
        for tiles in [1u32, 2, 4, 8] {
            for (banks, kb, noc) in [(2u32, 256u32, 32u32), (8, 512, 64), (16, 2048, 64)] {
                let sys = SystemParams {
                    tiles,
                    l2_banks: banks,
                    l2_kb: kb,
                    noc_bw_bytes: noc,
                    dram_channels: 1,
                };
                let warm = batch.run(&sys);
                let fresh = simulate(&mdfg, &sched, &SysAdg::new(adg.clone(), sys), &cfg);
                assert_eq!(warm, fresh, "tiles={tiles} banks={banks} kb={kb} noc={noc}");
            }
        }
    }

    #[test]
    fn cached_runs_match_fresh_simulation_across_a_grid() {
        // The sibling-reuse cache must be invisible: every `run_cached`
        // report equals the one-shot simulator's, across tile counts,
        // bank counts, capacities, and NoC widths — and at least some
        // sibling points must actually be served from the cache.
        let mdfg = lower(
            &vecadd(4096),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let adg = mesh(&MeshSpec::default());
        let sys0 = SysAdg::new(adg.clone(), SystemParams::default());
        let sched = schedule(&mdfg, &sys0, None).unwrap();
        let cfg = SimConfig::default();
        let mut batch = SimBatch::new(&mdfg, &sched, &adg, &cfg);
        for tiles in [1u32, 2, 4] {
            for banks in [4u32, 16] {
                for kb in [256u32, 2048] {
                    for noc in [32u32, 64] {
                        let sys = SystemParams {
                            tiles,
                            l2_banks: banks,
                            l2_kb: kb,
                            noc_bw_bytes: noc,
                            dram_channels: 1,
                        };
                        let cached = batch.run_cached(&sys);
                        let fresh = simulate(&mdfg, &sched, &SysAdg::new(adg.clone(), sys), &cfg);
                        assert_eq!(
                            cached, fresh,
                            "tiles={tiles} banks={banks} kb={kb} noc={noc}"
                        );
                    }
                }
            }
        }
        assert!(batch.cache_hits() > 0, "no sibling reuse across the grid");
    }

    #[test]
    fn cache_reuses_only_provably_identical_runs() {
        // A compute-bound region (wide DMA engine, tiny streams) never
        // saturates the shared budgets, so every same-tile sibling must
        // hit; going back to a bandwidth below the recorded requirement
        // watermark must miss and resimulate — with the same outcome a
        // fresh simulation produces.
        let mdfg = lower(
            &vecadd(16384),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let spec = MeshSpec {
            dma_bw: 64,
            ..MeshSpec::default()
        };
        let adg = mesh(&spec);
        let sys_of = |banks: u32, noc: u32| SystemParams {
            tiles: 1,
            l2_banks: banks,
            l2_kb: 2048,
            noc_bw_bytes: noc,
            dram_channels: 4,
        };
        let sys0 = SysAdg::new(adg.clone(), sys_of(16, 128));
        let sched = schedule(&mdfg, &sys0, None).unwrap();
        let cfg = SimConfig::default();
        let mut batch = SimBatch::new(&mdfg, &sched, &adg, &cfg);
        let _ = batch.run_cached(&sys_of(16, 128));
        assert_eq!(batch.cache_hits(), 0);
        let wider = batch.run_cached(&sys_of(16, 192));
        assert_eq!(batch.cache_hits(), 1, "wider unclamped NoC must reuse");
        let fresh = simulate(
            &mdfg,
            &sched,
            &SysAdg::new(adg.clone(), sys_of(16, 192)),
            &cfg,
        );
        assert_eq!(wider, fresh);
        // A 1 B/cycle NoC is far below any plausible requirement: the
        // cache must refuse and resimulate.
        let narrow = batch.run_cached(&sys_of(16, 1));
        let fresh = simulate(
            &mdfg,
            &sched,
            &SysAdg::new(adg.clone(), sys_of(16, 1)),
            &cfg,
        );
        assert_eq!(narrow, fresh);
        assert_eq!(batch.cache_hits(), 1, "clamped sibling must not reuse");
    }

    #[test]
    fn truncated_run_reports_partial_progress() {
        // SimReport edge case: a run cut off by the cycle cap is flagged,
        // reports fewer firings than the region needs, and still produces
        // finite rates.
        let cfg = SimConfig {
            max_cycles: 8,
            ..Default::default()
        };
        let r = sim_vecadd(4096, 2, SystemParams::default(), &cfg);
        assert!(r.truncated);
        assert!(r.firings < 2048);
        assert!(r.cycles >= 8, "cap + pipeline fill: {}", r.cycles);
        assert!(r.ipc.is_finite() && r.ipc >= 0.0);
        assert!(r.seconds(100.0).is_finite());
    }

    #[test]
    fn zero_byte_write_stream_completes_immediately() {
        // SimReport edge case: a write stream with a zero-byte firing
        // quantum never occupies drain bandwidth; the region completes
        // with zero traffic on that stream and no output stalls.
        use overgen_mdfg::{ArrayNode, InstNode, MdfgNode, MemPref, ReuseInfo, StreamNode};
        let mut g = Mdfg::new("zerow", 0);
        g.set_unroll(1);
        g.set_total_iterations(64.0);
        let info = ReuseInfo {
            traffic_bytes: 64.0 * 8.0,
            footprint_bytes: 64.0 * 8.0,
            ..ReuseInfo::default()
        };
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new(
            "a",
            64,
            MemPref::PreferDram,
        )));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "c",
            64,
            MemPref::PreferDram,
        )));
        let ra = g.add_node(MdfgNode::InputStream(StreamNode::read("a", 8, info)));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(
            overgen_ir::Op::Add,
            DataType::I64,
            1,
        )));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write("c", 0, info)));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ra, add).unwrap();
        g.add_edge(add, wc).unwrap();
        g.add_edge(wc, ac).unwrap();
        let sys = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        let sched = schedule(&g, &sys, None).unwrap();
        let r = simulate(&g, &sched, &sys, &SimConfig::default());
        assert!(!r.truncated);
        assert_eq!(r.firings, 64);
        assert_eq!(r.stall_output, 0);
    }

    #[test]
    fn reconfig_is_microseconds() {
        let r = sim_vecadd(1024, 1, SystemParams::default(), &SimConfig::default());
        // at ~100 MHz: thousands of cycles => microseconds
        let s = r.reconfig_seconds(100.0);
        assert!(s > 1e-7 && s < 1e-3, "reconfig {s}");
    }

    #[test]
    fn ipc_close_to_model_when_compute_bound() {
        // A wide DMA engine (64 B/cyc) keeps three 16 B/firing streams fed.
        let mdfg = lower(
            &vecadd(16384),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let spec = MeshSpec {
            dma_bw: 64,
            ..MeshSpec::default()
        };
        let sys = SysAdg::new(
            mesh(&spec),
            SystemParams {
                tiles: 1,
                l2_banks: 16,
                l2_kb: 2048,
                noc_bw_bytes: 128,
                dram_channels: 4,
            },
        );
        let sched = schedule(&mdfg, &sys, None).unwrap();
        let r = simulate(&mdfg, &sched, &sys, &SimConfig::default());
        // steady state: one firing per cycle -> ipc ~= insts_per_firing
        let ideal = mdfg.insts_per_firing();
        assert!(
            r.ipc > 0.5 * ideal && r.ipc <= ideal * 1.01,
            "ipc {}",
            r.ipc
        );
    }
}
