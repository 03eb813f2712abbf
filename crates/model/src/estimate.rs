//! Whole-design resource estimation: per-component models aggregated over
//! a system-level ADG (accelerator x tiles + cores + NoC + L2).

use overgen_adg::{Adg, AdgNode, SysAdg, SystemParams};

use crate::resources::{ResourceBreakdown, Resources};
use crate::synthesis::{features_of, mean_cost, ComponentFeatures};

/// A per-component resource estimator. The DSE queries this instead of
/// running synthesis (paper §V-D). `Send + Sync` is required so one model
/// instance can serve the DSE's scoped worker threads through a shared
/// `&dyn ResourceModel`.
pub trait ResourceModel: Send + Sync {
    /// Estimate one learned-class component.
    fn component(&self, feats: &ComponentFeatures) -> Resources;
}

/// The analytic model: the synthesis oracle's mean (zero-noise) response.
/// Exact by construction; the MLP model approximates this from noisy
/// samples the way the paper's MLP approximates Vivado.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticModel;

impl ResourceModel for AnalyticModel {
    fn component(&self, feats: &ComponentFeatures) -> Resources {
        mean_cost(feats)
    }
}

/// Resources of a stream engine or other small-parameter element. These are
/// "exhaustively synthesized" in the paper (§V-D) rather than learned, so
/// an analytic table is faithful.
pub fn engine_resources(node: &AdgNode) -> Resources {
    match node {
        AdgNode::Dma(d) => Resources {
            lut: 3_200.0 + 48.0 * f64::from(d.bw_bytes),
            ff: 4_800.0 + 64.0 * f64::from(d.bw_bytes),
            bram: 4.0, // reorder buffer
            dsp: 0.0,
        },
        AdgNode::Spad(s) => Resources {
            lut: 750.0 + 26.0 * f64::from(s.bw_bytes) + if s.indirect { 1_150.0 } else { 0.0 },
            ff: 900.0 + 30.0 * f64::from(s.bw_bytes),
            // 36Kb BRAM = 4.5 KiB; dual-port doubles for read+write.
            bram: (f64::from(s.capacity_kb) / 4.5).ceil() + if s.indirect { 2.0 } else { 0.0 },
            dsp: 0.0,
        },
        AdgNode::Gen(g) => Resources {
            lut: 520.0 + 9.0 * f64::from(g.bw_bytes),
            ff: 640.0,
            bram: 0.0,
            dsp: 0.0,
        },
        AdgNode::Rec(r) => Resources {
            lut: 680.0 + 12.0 * f64::from(r.bw_bytes),
            ff: 860.0,
            bram: 0.0,
            dsp: 0.0,
        },
        AdgNode::Reg(_) => Resources {
            lut: 310.0,
            ff: 420.0,
            bram: 0.0,
            dsp: 0.0,
        },
        _ => Resources::ZERO,
    }
}

/// Rocket-class control core with small private caches (§III-B: single
/// issue, provisioned only for managing the accelerator).
pub fn core_resources() -> Resources {
    Resources {
        lut: 21_500.0,
        ff: 13_800.0,
        bram: 12.0,
        dsp: 4.0,
    }
}

/// Stream dispatcher: scales with engine count (scoreboards + dispatch
/// queue, §VI-B).
pub fn dispatcher_resources(n_engines: usize) -> Resources {
    Resources {
        lut: 2_300.0 + 420.0 * n_engines as f64,
        ff: 3_100.0 + 510.0 * n_engines as f64,
        bram: 1.0,
        dsp: 0.0,
    }
}

/// Crossbar NoC: the paper's biggest LUT consumer ("due to its
/// crossbar-based implementation", Q4). Cost grows with the square of the
/// port count (tiles + L2 banks) times link width.
pub fn noc_resources(sys: &SystemParams) -> Resources {
    let ports = f64::from(sys.tiles) + f64::from(sys.l2_banks);
    let width = f64::from(sys.noc_bw_bytes) / 8.0;
    Resources {
        lut: 120.0 * ports * ports * width.sqrt() + 900.0 * ports,
        ff: 60.0 * ports * ports * width.sqrt() + 1_400.0 * ports,
        bram: 0.0,
        dsp: 0.0,
    }
}

/// Banked inclusive L2 (directory + MSHRs per bank + BRAM data array).
pub fn l2_resources(sys: &SystemParams) -> Resources {
    let banks = f64::from(sys.l2_banks);
    Resources {
        lut: 2_600.0 * banks + 18_000.0,
        ff: 2_100.0 * banks + 11_000.0,
        bram: (f64::from(sys.l2_kb) / 4.5).ceil() + 2.0 * banks,
        dsp: 0.0,
    }
}

/// Estimate the full breakdown of a system-level ADG (Figure 16's stacked
/// groups): [`tile_breakdown`] of the accelerator, rescaled to the system
/// by [`scale_breakdown`].
pub fn breakdown(sys_adg: &SysAdg, model: &dyn ResourceModel) -> ResourceBreakdown {
    scale_breakdown(&tile_breakdown(&sys_adg.adg, model), &sys_adg.sys)
}

/// The per-tile half of [`breakdown`]: one walk of the accelerator ADG
/// through the resource model, giving the pe / n/w / vp / spad / dma
/// (dispatcher included) sums of one tile plus its one control core, and
/// an empty `noc` group. Nothing here depends on the system parameters,
/// so the system DSE walks the ADG once and rescales per grid point.
pub fn tile_breakdown(adg: &Adg, model: &dyn ResourceModel) -> ResourceBreakdown {
    let mut b = ResourceBreakdown::default();
    let mut engines = 0usize;
    for (id, node) in adg.nodes() {
        match node {
            AdgNode::Pe(_) => {
                if let Some(f) = features_of(adg, id) {
                    b.pe += model.component(&f);
                }
            }
            AdgNode::Switch(_) => {
                if let Some(f) = features_of(adg, id) {
                    b.network += model.component(&f);
                }
            }
            AdgNode::InPort(_) | AdgNode::OutPort(_) => {
                if let Some(f) = features_of(adg, id) {
                    b.ports += model.component(&f);
                }
            }
            AdgNode::Spad(_) => {
                engines += 1;
                b.spad += engine_resources(node);
            }
            _ => {
                engines += 1;
                b.dma += engine_resources(node);
            }
        }
    }
    b.dma += dispatcher_resources(engines);
    b.core = core_resources();
    b
}

/// The per-system half of [`breakdown`]: multiply each per-tile group of
/// a [`tile_breakdown`] by the tile count and add the shared NoC + L2.
pub fn scale_breakdown(tile: &ResourceBreakdown, sys: &SystemParams) -> ResourceBreakdown {
    let tiles = f64::from(sys.tiles);
    ResourceBreakdown {
        pe: tile.pe * tiles,
        network: tile.network * tiles,
        ports: tile.ports * tiles,
        spad: tile.spad * tiles,
        dma: tile.dma * tiles,
        core: tile.core * tiles,
        noc: noc_resources(sys) + l2_resources(sys),
    }
}

/// Resources of one accelerator tile only (no core/NoC/L2): the DSE's
/// secondary objective ("estimated resources-per-accelerator", §V-A).
pub fn accelerator_resources(adg: &Adg, model: &dyn ResourceModel) -> Resources {
    let mut total = Resources::ZERO;
    let mut engines = 0usize;
    for (id, node) in adg.nodes() {
        if let Some(f) = features_of(adg, id) {
            total += model.component(&f);
        } else {
            engines += 1;
            total += engine_resources(node);
        }
    }
    let total = total + dispatcher_resources(engines);
    debug_assert!(
        total.is_valid(),
        "accelerator_resources produced a non-finite or negative vector: {total}"
    );
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::XCVU9P;
    use overgen_adg::{mesh, MeshSpec};

    #[test]
    fn general_quad_tile_nearly_fills_device() {
        // Paper Q1: the general overlay fits at most 4 tiles; Q4: overlays
        // consume 81-97% of LUTs.
        let sys_adg = SysAdg::new(
            mesh(&MeshSpec::general()),
            SystemParams {
                tiles: 4,
                l2_banks: 4,
                l2_kb: 512,
                noc_bw_bytes: 32,
                dram_channels: 1,
            },
        );
        let b = breakdown(&sys_adg, &AnalyticModel);
        let u = XCVU9P.utilization(&b.total());
        assert!(
            u.lut > 0.70 && u.lut < 1.05,
            "lut utilization {:.2} out of expected range",
            u.lut
        );
        assert_eq!(u.limiting_name(), "lut");
        // 5 tiles must NOT fit (the paper could only fit 4).
        let five = SysAdg::new(
            sys_adg.adg.clone(),
            SystemParams {
                tiles: 5,
                ..sys_adg.sys
            },
        );
        let b5 = breakdown(&five, &AnalyticModel);
        assert!(!XCVU9P.fits(&b5.total(), 0.97));
    }

    #[test]
    fn lean_tile_is_much_smaller() {
        let lean = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        let general = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
        let bl = breakdown(&lean, &AnalyticModel).total();
        let bg = breakdown(&general, &AnalyticModel).total();
        assert!(bg.lut > 3.0 * bl.lut);
    }

    #[test]
    fn noc_grows_quadratically_with_ports() {
        let small = noc_resources(&SystemParams {
            tiles: 2,
            l2_banks: 2,
            l2_kb: 512,
            noc_bw_bytes: 32,
            dram_channels: 1,
        });
        let big = noc_resources(&SystemParams {
            tiles: 8,
            l2_banks: 8,
            l2_kb: 512,
            noc_bw_bytes: 32,
            dram_channels: 1,
        });
        assert!(big.lut > 8.0 * small.lut);
    }

    #[test]
    fn spad_bram_scales_with_capacity() {
        let small = engine_resources(&AdgNode::Spad(overgen_adg::SpadNode {
            capacity_kb: 8,
            bw_bytes: 32,
            indirect: false,
        }));
        let big = engine_resources(&AdgNode::Spad(overgen_adg::SpadNode {
            capacity_kb: 64,
            bw_bytes: 32,
            indirect: false,
        }));
        assert!(big.bram > 4.0 * small.bram);
    }

    /// `breakdown(..).total()` bits (lut, ff, bram, dsp) captured before
    /// the walk was split into `tile_breakdown` + `scale_breakdown`: the
    /// split must keep every float op and its order.
    #[test]
    fn breakdown_totals_are_bit_pinned() {
        let sys = |tiles, l2_banks, l2_kb, noc_bw_bytes| SystemParams {
            tiles,
            l2_banks,
            l2_kb,
            noc_bw_bytes,
            dram_channels: 1,
        };
        let cases = [
            (
                MeshSpec::default(),
                SystemParams::default(),
                [
                    0x40f3_72f0_0000_0000u64,
                    0x40f0_8229_9999_999a,
                    0x4061_a000_0000_0000,
                    0x4028_0000_0000_0000,
                ],
            ),
            (
                MeshSpec::default(),
                sys(8, 16, 2048, 64),
                [
                    0x4122_6569_c406_8c44,
                    0x411d_668c_f739_bf78,
                    0x4084_0000_0000_0000,
                    0x4058_0000_0000_0000,
                ],
            ),
            (
                MeshSpec::general(),
                sys(4, 4, 512, 32),
                [
                    0x4132_a9a4_0000_0000,
                    0x4131_3535_9999_999b,
                    0x4070_2000_0000_0000,
                    0x40b4_5000_0000_0000,
                ],
            ),
            (
                MeshSpec::general(),
                sys(3, 2, 1024, 64),
                [
                    0x412b_ee90_9010_48c1,
                    0x4129_be19_ae6e_8ac9,
                    0x4074_e000_0000_0000,
                    0x40ae_7800_0000_0000,
                ],
            ),
        ];
        for (spec, params, want) in cases {
            let t = breakdown(&SysAdg::new(mesh(&spec), params), &AnalyticModel).total();
            let got = [t.lut, t.ff, t.bram, t.dsp].map(f64::to_bits);
            assert_eq!(got, want, "{params:?}");
        }
    }

    #[test]
    fn accelerator_resources_excludes_core_noc() {
        let adg = mesh(&MeshSpec::default());
        let acc = accelerator_resources(&adg, &AnalyticModel);
        let sys_adg = SysAdg::new(adg, SystemParams::default());
        let full = breakdown(&sys_adg, &AnalyticModel).total();
        assert!(acc.lut < full.lut);
    }
}
