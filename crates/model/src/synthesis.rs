//! Synthetic out-of-context (OOC) synthesis oracle.
//!
//! The paper trains its resource model by synthesizing ~217k component
//! variants with Vivado (Table I). Vivado does not exist here, so this
//! module plays its role: deterministic nonlinear cost functions per
//! component class — shaped after published FPGA soft-logic scaling
//! (crossbar muxes ~ O(radix_in x radix_out x width), FIFOs crossing into
//! BRAM at depth thresholds, floating point mapping to DSP slices) — plus
//! hash-seeded noise emulating synthesis variance. Every call also reports
//! a simulated synthesis wall-clock cost so dataset-generation experiments
//! (Table I) account time the way the paper does.
//!
//! The oracle is *the ground truth* the MLP resource model is trained and
//! validated against, exactly as Vivado is in the paper. Like the paper's
//! model, OOC results are pessimistic relative to the final placed-and-
//! routed design; [`synthesize_post_pnr`] applies the optimization-pass
//! shrink factor.

use overgen_adg::{Adg, AdgNode, NodeId};
use overgen_ir::OpClass;

use crate::resources::Resources;

/// Component classes with a learned model (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentKind {
    /// Processing element.
    Pe,
    /// Switch.
    Switch,
    /// Input port.
    InPort,
    /// Output port.
    OutPort,
}

impl ComponentKind {
    /// All learned component classes.
    pub const ALL: [ComponentKind; 4] = [
        ComponentKind::Pe,
        ComponentKind::Switch,
        ComponentKind::InPort,
        ComponentKind::OutPort,
    ];

    /// Paper Table I sample counts per class.
    pub fn paper_sample_count(self) -> usize {
        match self {
            ComponentKind::Pe => 100_000,
            ComponentKind::Switch => 56_700,
            ComponentKind::InPort => 34_412,
            ComponentKind::OutPort => 25_796,
        }
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ComponentKind::Pe => "Processing Elements",
            ComponentKind::Switch => "Switches",
            ComponentKind::InPort => "Input Port",
            ComponentKind::OutPort => "Output Port",
        };
        f.write_str(s)
    }
}

/// Number of features per component (uniform across kinds so one MLP
/// architecture serves all classes).
pub const NUM_FEATURES: usize = 10;

/// A featurized component: input to both the oracle and the MLP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentFeatures {
    /// Component class.
    pub kind: ComponentKind,
    /// Feature vector; layout depends on `kind` (see [`features_of`]).
    pub f: [f64; NUM_FEATURES],
}

/// Extract features of an ADG node (with its graph context, for radix).
/// Returns `None` for node kinds without a learned model (stream engines
/// are exhaustively characterised instead, §V-D).
pub fn features_of(adg: &Adg, id: NodeId) -> Option<ComponentFeatures> {
    let node = adg.node(id)?;
    let radix_in = adg.preds(id).len() as f64;
    let radix_out = adg.succs(id).len() as f64;
    match node {
        AdgNode::Pe(pe) => {
            let mut addlike = 0.0;
            let mut int_mul = 0.0;
            let mut int_div = 0.0;
            let mut flt_add = 0.0;
            let mut flt_mul = 0.0;
            let mut flt_div = 0.0;
            let mut logic = 0.0;
            for c in &pe.caps {
                let flt = c.dtype.is_float();
                match (c.op.class(), flt) {
                    (OpClass::AddLike, false) => addlike += 1.0,
                    (OpClass::AddLike, true) => flt_add += 1.0,
                    (OpClass::MulLike, false) => int_mul += 1.0,
                    (OpClass::MulLike, true) => flt_mul += 1.0,
                    (OpClass::DivLike, false) => int_div += 1.0,
                    (OpClass::DivLike, true) => flt_div += 1.0,
                    (OpClass::Logic, _) => logic += 1.0,
                }
            }
            Some(ComponentFeatures {
                kind: ComponentKind::Pe,
                f: [
                    addlike,
                    int_mul,
                    int_div,
                    flt_add,
                    flt_mul,
                    flt_div,
                    logic,
                    f64::from(pe.max_bits()) / 64.0,
                    f64::from(pe.delay_fifo_depth),
                    radix_in + radix_out,
                ],
            })
        }
        AdgNode::Switch(_) => Some(ComponentFeatures {
            kind: ComponentKind::Switch,
            f: [radix_in, radix_out, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        }),
        AdgNode::InPort(p) => Some(ComponentFeatures {
            kind: ComponentKind::InPort,
            f: [
                f64::from(p.width_bytes),
                f64::from(u8::from(p.padding)),
                f64::from(u8::from(p.stream_state)),
                radix_out,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ],
        }),
        AdgNode::OutPort(p) => Some(ComponentFeatures {
            kind: ComponentKind::OutPort,
            f: [
                f64::from(p.width_bytes),
                radix_in,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ],
        }),
        _ => None,
    }
}

/// Result of one OOC synthesis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisRun {
    /// Post-synthesis (pre-PnR, pessimistic) resources.
    pub resources: Resources,
    /// Simulated synthesis wall clock in seconds.
    pub seconds: f64,
}

/// Mean (noise-free) OOC resource cost of a component — the analytic model.
pub fn mean_cost(c: &ComponentFeatures) -> Resources {
    let f = &c.f;
    match c.kind {
        ComponentKind::Pe => {
            let width = f[7].max(0.125); // bits/64
            let (addlike, int_mul, int_div, flt_add, flt_mul, flt_div, logic) =
                (f[0], f[1], f[2], f[3], f[4], f[5], f[6]);
            let fifo = f[8];
            let radix = f[9];
            let lut = 140.0
                + 42.0 * addlike * width.sqrt()
                + 190.0 * int_mul * width
                + 340.0 * int_div * width
                + 160.0 * flt_add
                + 150.0 * flt_mul
                + 420.0 * flt_div
                + 14.0 * logic
                + 16.0 * radix * width * 8.0
                + 10.0 * fifo * radix;
            let ff = 0.9 * lut + 40.0 * fifo * radix;
            let dsp = 2.0 * int_mul * width + 2.0 * flt_add + 3.0 * flt_mul + 4.0 * flt_div;
            Resources {
                lut,
                ff,
                bram: 0.0,
                dsp,
            }
        }
        ComponentKind::Switch => {
            let (rin, rout) = (f[0].max(1.0), f[1].max(1.0));
            Resources {
                lut: 25.0 + 14.0 * rin * rout,
                ff: 35.0 + 68.0 * rout,
                bram: 0.0,
                dsp: 0.0,
            }
        }
        ComponentKind::InPort => {
            let w = f[0].max(1.0);
            let lut = 60.0 + 17.0 * w + 160.0 * f[1] + 110.0 * f[2] + 30.0 * f[3];
            // FIFO storage: flip-flops below 32 bytes, BRAM at/above.
            let (ff, bram) = if w >= 32.0 {
                (90.0 + 18.0 * w, 1.0)
            } else {
                (60.0 + 52.0 * w, 0.0)
            };
            Resources {
                lut,
                ff,
                bram,
                dsp: 0.0,
            }
        }
        ComponentKind::OutPort => {
            let w = f[0].max(1.0);
            Resources {
                lut: 42.0 + 13.0 * w + 24.0 * f[1],
                ff: 40.0 + 38.0 * w,
                bram: 0.0,
                dsp: 0.0,
            }
        }
    }
}

/// Deterministic FNV-1a hash of the feature bits, for noise seeding.
fn feature_hash(c: &ComponentFeatures, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(c.kind as u64);
    for v in &c.f {
        eat(v.to_bits());
    }
    h
}

/// Run the synthesis oracle: mean cost plus deterministic pseudo-random
/// variance (±6%, per resource), the way repeated Vivado runs scatter.
pub fn synthesize(c: &ComponentFeatures, seed: u64) -> SynthesisRun {
    let mean = mean_cost(c);
    let h = feature_hash(c, seed);
    let noise = |salt: u64| -> f64 {
        let x = (h ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11;
        let unit = (x % 100_000) as f64 / 100_000.0; // [0,1)
        1.0 + 0.12 * (unit - 0.5) // ±6 %
    };
    let resources = Resources {
        lut: (mean.lut * noise(1)).round(),
        ff: (mean.ff * noise(2)).round(),
        bram: mean.bram, // hard blocks do not jitter
        dsp: mean.dsp,
    };
    // Simulated OOC synthesis wall clock: tool startup + size-proportional.
    let seconds = 25.0 + resources.lut / 55.0;
    SynthesisRun { resources, seconds }
}

/// Resources after place & route: synthesis optimization passes shrink the
/// OOC estimate (the paper notes its model "behaves pessimistically").
pub fn synthesize_post_pnr(c: &ComponentFeatures, seed: u64) -> Resources {
    synthesize(c, seed).resources * 0.88
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, NodeKind};

    fn general_features() -> Vec<ComponentFeatures> {
        let adg = mesh(&MeshSpec::general());
        adg.nodes()
            .filter_map(|(id, _)| features_of(&adg, id))
            .collect()
    }

    #[test]
    fn features_cover_learned_kinds_only() {
        let adg = mesh(&MeshSpec::general());
        for (id, n) in adg.nodes() {
            let f = features_of(&adg, id);
            match n.kind() {
                NodeKind::Pe | NodeKind::Switch | NodeKind::InPort | NodeKind::OutPort => {
                    assert!(f.is_some())
                }
                _ => assert!(f.is_none()),
            }
        }
    }

    #[test]
    fn oracle_is_deterministic() {
        for c in general_features() {
            let a = synthesize(&c, 42);
            let b = synthesize(&c, 42);
            assert_eq!(a.resources, b.resources);
            assert!(a.resources.is_valid());
            assert!(a.seconds > 0.0);
        }
    }

    #[test]
    fn noise_is_bounded() {
        for c in general_features() {
            let mean = mean_cost(&c);
            for seed in 0..20 {
                let r = synthesize(&c, seed).resources;
                assert!((r.lut - mean.lut).abs() <= mean.lut * 0.065 + 1.0);
                assert!((r.ff - mean.ff).abs() <= mean.ff * 0.065 + 1.0);
            }
        }
    }

    #[test]
    fn full_cap_pe_costs_more_than_lean_pe() {
        let adg_full = mesh(&MeshSpec::general());
        let adg_lean = mesh(&MeshSpec::default());
        let full_pe = adg_full
            .nodes_of_kind(NodeKind::Pe)
            .into_iter()
            .next()
            .unwrap();
        let lean_pe = adg_lean
            .nodes_of_kind(NodeKind::Pe)
            .into_iter()
            .next()
            .unwrap();
        let cf = mean_cost(&features_of(&adg_full, full_pe).unwrap());
        let cl = mean_cost(&features_of(&adg_lean, lean_pe).unwrap());
        assert!(cf.lut > 3.0 * cl.lut);
        assert!(cf.dsp > cl.dsp);
    }

    #[test]
    fn full_cap_pe_in_plausible_range() {
        // The general overlay datapath should land in the thousands of LUTs
        // per PE so that 4 general tiles approach full-device LUT use.
        let adg = mesh(&MeshSpec::general());
        let pe = adg.nodes_of_kind(NodeKind::Pe)[0];
        let c = mean_cost(&features_of(&adg, pe).unwrap());
        assert!(c.lut > 3_000.0 && c.lut < 15_000.0, "pe lut {}", c.lut);
    }

    #[test]
    fn wide_port_uses_bram() {
        let adg = mesh(&MeshSpec::general()); // 32-byte ports
        let ip = adg.nodes_of_kind(NodeKind::InPort)[0];
        let c = mean_cost(&features_of(&adg, ip).unwrap());
        assert_eq!(c.bram, 1.0);
        let small = mesh(&MeshSpec::default()); // 8-byte ports
        let ips = small.nodes_of_kind(NodeKind::InPort)[0];
        let cs = mean_cost(&features_of(&small, ips).unwrap());
        assert_eq!(cs.bram, 0.0);
    }

    #[test]
    fn switch_cost_scales_with_radix() {
        let lo = ComponentFeatures {
            kind: ComponentKind::Switch,
            f: [2.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        let hi = ComponentFeatures {
            kind: ComponentKind::Switch,
            f: [6.0, 6.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert!(mean_cost(&hi).lut > 4.0 * mean_cost(&lo).lut);
    }

    #[test]
    fn post_pnr_is_smaller() {
        for c in general_features().into_iter().take(5) {
            let ooc = synthesize(&c, 7).resources;
            let pnr = synthesize_post_pnr(&c, 7);
            assert!(pnr.lut < ooc.lut);
        }
    }

    #[test]
    fn paper_sample_counts() {
        assert_eq!(ComponentKind::Pe.paper_sample_count(), 100_000);
        assert_eq!(ComponentKind::Switch.paper_sample_count(), 56_700);
        assert_eq!(ComponentKind::InPort.paper_sample_count(), 34_412);
        assert_eq!(ComponentKind::OutPort.paper_sample_count(), 25_796);
    }
}
