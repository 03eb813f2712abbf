//! The bottleneck performance model of §V-C (Equations 1 and 2).
//!
//! `Perf = (mDFG Insts) x (# of Tiles) x min over levels of
//! (R_production / R_consumption)` where the levels are the scratchpad,
//! the shared L2, and DRAM, and each stream's consumption is its bandwidth
//! divided by the reuse captured above that level.

use std::collections::BTreeSet;
use std::fmt;

use overgen_adg::SystemParams;
use overgen_mdfg::{Mdfg, MdfgNode, MemPref};

/// A memory-hierarchy level (L1 = scratchpad, L2 = shared cache, L3 = DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// On-tile scratchpads.
    Spad,
    /// Shared banked L2 over the NoC.
    L2,
    /// FPGA DRAM channel(s).
    Dram,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::Spad => "spad",
            Level::L2 => "l2",
            Level::Dram => "dram",
        };
        f.write_str(s)
    }
}

/// Which arrays are placed in scratchpads (everything else streams through
/// DMA). Produced by the spatial scheduler; [`Placement::from_prefs`] gives
/// the compiler's preference-based default for schedule-free estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Names of scratchpad-resident arrays.
    pub spad_arrays: BTreeSet<String>,
}

impl Placement {
    /// Default placement from the mDFG's array preferences.
    pub fn from_prefs(mdfg: &Mdfg) -> Self {
        let mut spad_arrays = BTreeSet::new();
        for (_, n) in mdfg.nodes() {
            if let MdfgNode::Array(a) = n {
                if a.pref == MemPref::PreferSpad {
                    spad_arrays.insert(a.name.clone());
                }
            }
        }
        Placement { spad_arrays }
    }
}

/// Result of a performance estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Whole-FPGA estimated IPC (Equation 1).
    pub ipc: f64,
    /// Per-tile IPC.
    pub per_tile_ipc: f64,
    /// Bottleneck factors `[spad, l2, dram]`, each capped at 1.
    pub factors: [f64; 3],
}

impl PerfEstimate {
    /// The binding level, or `None` when compute bound.
    pub fn bottleneck(&self) -> Option<Level> {
        let min = self.factors[0].min(self.factors[1]).min(self.factors[2]);
        if min >= 1.0 {
            return None;
        }
        if min == self.factors[0] {
            Some(Level::Spad)
        } else if min == self.factors[1] {
            Some(Level::L2)
        } else {
            Some(Level::Dram)
        }
    }
}

/// Estimate IPC of one mDFG on a system (Equations 1–2).
///
/// `spad_bw_total` is the summed read bandwidth of the tile's scratchpads
/// in bytes/cycle (zero when the tile has none).
pub fn estimate_ipc(
    mdfg: &Mdfg,
    sys: &SystemParams,
    spad_bw_total: f64,
    placement: &Placement,
) -> PerfEstimate {
    // Cross-iteration regions neither tile-parallelize nor fire every
    // cycle: the dependency chain sets the firing interval.
    let tiles = if mdfg.sequential() {
        1.0
    } else {
        f64::from(sys.tiles)
    };
    let interval = if mdfg.sequential() {
        (mdfg.critical_path_len() as f64 / 2.0).max(1.0)
    } else {
        1.0
    };
    let insts = mdfg.insts_per_firing() / interval;

    // Per-tile consumption rates at each level (Equation 2's sum of
    // stream bandwidth over reuse).
    let mut cons_spad = 0.0f64;
    let mut cons_l2 = 0.0f64;
    let mut cons_dram = 0.0f64;

    for (_, n) in mdfg.nodes() {
        let s = match n.as_stream() {
            Some(s) => s,
            None => continue,
        };
        if s.array.is_empty() {
            continue; // generate streams produce values, not memory traffic
        }
        let bw = s.bytes_per_firing as f64;
        let datapath_reuse = s.reuse.datapath_reuse();
        // Strided DRAM access wastes most of every line (stride-3/4
        // channel interleaving): ~4x bandwidth amplification.
        let amp = if s.pattern == crate::perf::strided_pattern() {
            4.0
        } else {
            1.0
        };
        let residual = bw * amp / datapath_reuse;
        if s.reuse.recurrent.is_some() {
            // Recurrence pairs stay in the fabric; negligible memory traffic.
            continue;
        }
        if placement.spad_arrays.contains(&s.array) && !s.broadcast {
            cons_spad += residual;
        } else {
            cons_l2 += residual;
            // DRAM pressure: reduced by L2 capture when the footprint
            // (shared across tiles) fits in the cache.
            let fits_l2 = s.reuse.footprint_bytes * tiles <= f64::from(sys.l2_kb) * 1024.0;
            let l2_capture = if fits_l2 {
                s.reuse.scratchpad_benefit() // general reuse not yet captured
            } else {
                1.0
            };
            cons_dram += residual / l2_capture;
        }
    }

    let factor = |prod: f64, cons: f64| -> f64 {
        if cons <= 0.0 {
            1.0
        } else {
            (prod / cons).min(1.0)
        }
    };

    // L1: replicated per tile (# shared tiles = 1).
    let f_spad = factor(spad_bw_total, cons_spad);
    // L2: shared across tiles; NoC link width also caps per-tile ingest.
    let l2_prod = sys.l2_bw_bytes() as f64;
    let f_l2 = factor(l2_prod, cons_l2 * tiles).min(factor(f64::from(sys.noc_bw_bytes), cons_l2));
    // DRAM: fixed total bandwidth shared across tiles.
    let f_dram = factor(sys.dram_bw_bytes() as f64, cons_dram * tiles);

    let bottleneck = f_spad.min(f_l2).min(f_dram);
    let per_tile_ipc = insts * bottleneck;
    PerfEstimate {
        ipc: per_tile_ipc * tiles,
        per_tile_ipc,
        factors: [f_spad, f_l2, f_dram],
    }
}

/// The strided pattern constant (helper keeping the match local).
pub(crate) fn strided_pattern() -> overgen_mdfg::StreamPattern {
    overgen_mdfg::StreamPattern::Strided
}

/// Weighted geometric mean of per-workload IPCs — the DSE objective
/// ("mean performance of the best-performing mDFG for each workload",
/// §III-A).
/// An empty slice or a non-positive weight is a caller bug — the DSE
/// objective would silently collapse to 0.0 and every proposal would look
/// equally worthless. Both are hard errors in debug builds; release builds
/// keep the 0.0 escape hatch so a malformed run degrades instead of
/// aborting mid-anneal.
pub fn weighted_geomean_ipc(ipcs: &[(f64, f64)]) -> f64 {
    debug_assert!(
        !ipcs.is_empty(),
        "weighted_geomean_ipc: empty input (objective would be 0.0)"
    );
    debug_assert!(
        ipcs.iter().all(|&(_, w)| w > 0.0),
        "weighted_geomean_ipc: non-positive weight in {ipcs:?}"
    );
    let total_w: f64 = ipcs.iter().map(|(_, w)| w).sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    let log_sum: f64 = ipcs.iter().map(|(ipc, w)| w * ipc.max(1e-12).ln()).sum();
    (log_sum / total_w).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{DataType, Op};
    use overgen_mdfg::{ArrayNode, InstNode, MdfgNode, MemPref, ReuseInfo, StreamNode};

    /// A streaming kernel: 2 input streams + 1 output, no reuse.
    fn streaming_mdfg(bytes_per_firing: u64) -> Mdfg {
        let mut g = Mdfg::new("stream", 0);
        g.set_unroll(2);
        g.set_total_iterations(4096.0);
        let info = ReuseInfo {
            traffic_bytes: 4096.0 * 8.0,
            footprint_bytes: 4096.0 * 8.0,
            ..ReuseInfo::default()
        };
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new(
            "a",
            32768,
            MemPref::PreferDram,
        )));
        let ab = g.add_node(MdfgNode::Array(ArrayNode::new(
            "b",
            32768,
            MemPref::PreferDram,
        )));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "c",
            32768,
            MemPref::PreferDram,
        )));
        let ra = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "a",
            bytes_per_firing,
            info,
        )));
        let rb = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "b",
            bytes_per_firing,
            info,
        )));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "c",
            bytes_per_firing,
            info,
        )));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ab, rb).unwrap();
        g.add_edge(ra, add).unwrap();
        g.add_edge(rb, add).unwrap();
        g.add_edge(add, wc).unwrap();
        g.add_edge(wc, ac).unwrap();
        g
    }

    fn sys(tiles: u32, banks: u32, channels: u32) -> SystemParams {
        SystemParams {
            tiles,
            l2_banks: banks,
            l2_kb: 512,
            noc_bw_bytes: 64,
            dram_channels: channels,
        }
    }

    #[test]
    fn compute_bound_when_bandwidth_ample() {
        let g = streaming_mdfg(8);
        let p = estimate_ipc(&g, &sys(1, 8, 4), 0.0, &Placement::default());
        assert_eq!(p.bottleneck(), None);
        assert!((p.per_tile_ipc - g.insts_per_firing()).abs() < 1e-9);
    }

    #[test]
    fn dram_bound_with_many_tiles() {
        // 16 tiles x 3 streams x 32B = 1536 B/cyc demand vs 64 B/cyc DRAM.
        let g = streaming_mdfg(32);
        let p = estimate_ipc(&g, &sys(16, 32, 1), 0.0, &Placement::default());
        assert_eq!(p.bottleneck(), Some(Level::Dram));
        assert!(p.factors[2] < 0.1);
    }

    #[test]
    fn more_channels_relieve_dram() {
        let g = streaming_mdfg(32);
        let p1 = estimate_ipc(&g, &sys(8, 32, 1), 0.0, &Placement::default());
        let p4 = estimate_ipc(&g, &sys(8, 32, 4), 0.0, &Placement::default());
        assert!(p4.ipc > p1.ipc);
    }

    #[test]
    fn scaling_tiles_saturates() {
        let g = streaming_mdfg(32);
        let p4 = estimate_ipc(&g, &sys(4, 4, 1), 0.0, &Placement::default());
        let p16 = estimate_ipc(&g, &sys(16, 4, 1), 0.0, &Placement::default());
        // more tiles cannot exceed DRAM-limited throughput
        assert!(p16.ipc <= p4.ipc * 1.5);
    }

    #[test]
    fn spad_placement_removes_l2_pressure() {
        let g = streaming_mdfg(32);
        let mut placement = Placement::default();
        placement.spad_arrays.insert("a".into());
        placement.spad_arrays.insert("b".into());
        placement.spad_arrays.insert("c".into());
        let without = estimate_ipc(&g, &sys(8, 2, 1), 0.0, &Placement::default());
        let with = estimate_ipc(&g, &sys(8, 2, 1), 128.0, &placement);
        assert!(with.ipc > without.ipc);
        // but an undersized scratchpad bandwidth becomes the new bottleneck
        let starved = estimate_ipc(&g, &sys(8, 2, 1), 8.0, &placement);
        assert_eq!(starved.bottleneck(), Some(Level::Spad));
    }

    #[test]
    fn stationary_reuse_divides_pressure() {
        let mut g = streaming_mdfg(32);
        // Mark stream `a` as 32x port-stationary.
        let ids: Vec<_> = g.nodes().map(|(id, _)| id).collect();
        for id in ids {
            if let Some(MdfgNode::InputStream(s)) = g.node_mut(id) {
                if s.array == "a" {
                    s.reuse.stationary = 32.0;
                }
            }
        }
        let base = streaming_mdfg(32);
        let p_plain = estimate_ipc(&base, &sys(8, 2, 1), 0.0, &Placement::default());
        let p_reuse = estimate_ipc(&g, &sys(8, 2, 1), 0.0, &Placement::default());
        assert!(p_reuse.ipc >= p_plain.ipc);
    }

    #[test]
    fn geomean() {
        let v = weighted_geomean_ipc(&[(4.0, 1.0), (16.0, 1.0)]);
        assert!((v - 8.0).abs() < 1e-9);
        // weights shift the mean
        let w = weighted_geomean_ipc(&[(4.0, 3.0), (16.0, 1.0)]);
        assert!(w < 8.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty input")]
    fn geomean_rejects_empty_input() {
        weighted_geomean_ipc(&[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-positive weight")]
    fn geomean_rejects_non_positive_weight() {
        weighted_geomean_ipc(&[(4.0, 1.0), (16.0, 0.0)]);
    }

    #[test]
    fn placement_from_prefs() {
        let mut g = Mdfg::new("x", 0);
        let a = g.add_node(MdfgNode::Array(ArrayNode::new(
            "hot",
            64,
            MemPref::PreferSpad,
        )));
        let _ = a;
        g.add_node(MdfgNode::Array(ArrayNode::new(
            "cold",
            64,
            MemPref::PreferDram,
        )));
        let p = Placement::from_prefs(&g);
        assert!(p.spad_arrays.contains("hot"));
        assert!(!p.spad_arrays.contains("cold"));
    }
}
