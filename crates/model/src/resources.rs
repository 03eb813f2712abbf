//! FPGA resource vectors and device descriptors.

use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// An FPGA resource vector: the four resources the paper's DSE balances
/// (§II-C "ASIC Focused" limitation; Figure 16).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Lookup tables.
    pub lut: f64,
    /// Flip-flops.
    pub ff: f64,
    /// 36Kb block RAMs.
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        lut: 0.0,
        ff: 0.0,
        bram: 0.0,
        dsp: 0.0,
    };

    /// Elementwise max.
    pub fn max(self, other: Resources) -> Resources {
        Resources {
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            bram: self.bram.max(other.bram),
            dsp: self.dsp.max(other.dsp),
        }
    }

    /// Whether every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [self.lut, self.ff, self.bram, self.dsp]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }

    /// As a fixed-order array `[lut, ff, bram, dsp]` (MLP target layout).
    pub fn to_array(self) -> [f64; 4] {
        [self.lut, self.ff, self.bram, self.dsp]
    }

    /// From the fixed-order array.
    pub fn from_array(a: [f64; 4]) -> Self {
        Resources {
            lut: a[0],
            ff: a[1],
            bram: a[2],
            dsp: a[3],
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, o: Resources) -> Resources {
        Resources {
            lut: self.lut + o.lut,
            ff: self.ff + o.ff,
            bram: self.bram + o.bram,
            dsp: self.dsp + o.dsp,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, o: Resources) {
        *self = *self + o;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;
    fn mul(self, k: f64) -> Resources {
        Resources {
            lut: self.lut * k,
            ff: self.ff * k,
            bram: self.bram * k,
            dsp: self.dsp * k,
        }
    }
}

impl std::iter::Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lut={:.0} ff={:.0} bram={:.0} dsp={:.0}",
            self.lut, self.ff, self.bram, self.dsp
        )
    }
}

/// Fractional utilization of each resource on a device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// LUT fraction used.
    pub lut: f64,
    /// FF fraction used.
    pub ff: f64,
    /// BRAM fraction used.
    pub bram: f64,
    /// DSP fraction used.
    pub dsp: f64,
}

impl Utilization {
    /// The binding (maximum) utilization fraction.
    pub fn limiting(&self) -> f64 {
        self.lut.max(self.ff).max(self.bram).max(self.dsp)
    }

    /// Name of the binding resource.
    pub fn limiting_name(&self) -> &'static str {
        let m = self.limiting();
        if m == self.lut {
            "lut"
        } else if m == self.ff {
            "ff"
        } else if m == self.bram {
            "bram"
        } else {
            "dsp"
        }
    }
}

/// An FPGA device descriptor: the resource budget the DSE fills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaDevice {
    /// Device name.
    pub name: &'static str,
    /// Total resources.
    pub total: Resources,
}

/// The Xilinx XCVU9P on the VCU118 evaluation board (paper §VII).
pub const XCVU9P: FpgaDevice = FpgaDevice {
    name: "xcvu9p",
    total: Resources {
        lut: 1_182_240.0,
        ff: 2_364_480.0,
        bram: 2_160.0,
        dsp: 6_840.0,
    },
};

impl FpgaDevice {
    /// Utilization of a design on this device.
    pub fn utilization(&self, used: &Resources) -> Utilization {
        Utilization {
            lut: used.lut / self.total.lut,
            ff: used.ff / self.total.ff,
            bram: used.bram / self.total.bram,
            dsp: used.dsp / self.total.dsp,
        }
    }

    /// Whether a design fits within `frac` of every resource.
    pub fn fits(&self, used: &Resources, frac: f64) -> bool {
        self.utilization(used).limiting() <= frac
    }

    /// Achievable clock in MHz as a function of utilization: congestion on
    /// a nearly-full multi-die device costs frequency (§VI-D; the paper's
    /// quad-tile design closes at 92.87 MHz). See [`fmax_curve`].
    pub fn fmax_mhz(&self, used: &Resources) -> f64 {
        fmax_curve(self.utilization(used).limiting())
    }
}

/// The clock floor of the utilization/congestion curve: no design is
/// modeled below 40 MHz — past that point it simply fails timing closure
/// rather than running slower.
pub const FMAX_FLOOR_MHZ: f64 = 40.0;

/// The shared utilization-to-clock curve behind [`FpgaDevice::fmax_mhz`]
/// and the placement model's congestion clock: `160 − 75·u` MHz up to full
/// utilization (unchanged from the original calibration, so in-budget
/// designs keep their historical clocks), then a 300 MHz-per-unit cliff —
/// routing an over-subscribed device deteriorates much faster than filling
/// one — clamped at [`FMAX_FLOOR_MHZ`].
///
/// The historical curve clamped `u` at 1.2 *before* the floor, so its
/// minimum was 70 MHz and the 40 MHz floor was unreachable: a device
/// packed 20% over capacity was modeled at a cheerful 70 MHz. The cliff
/// slope makes the floor bind from `u = 1.15` up.
pub fn fmax_curve(u: f64) -> f64 {
    let mhz = if u <= 1.0 {
        160.0 - 75.0 * u
    } else {
        85.0 - 300.0 * (u - 1.0)
    };
    mhz.max(FMAX_FLOOR_MHZ)
}

/// A hard per-accelerator resource budget for constraint-aware DSE
/// objectives (the paper's DSE is *resource-constrained*: every spatial
/// step is evaluated under a fixed VCU118 budget, and overlays are
/// reported at multiple resource points rather than a single scalar
/// winner).
///
/// Semantics:
///
/// * A design is **admitted** only when every *constrained* channel
///   (`limit > 0`; a zero limit means "unconstrained") satisfies
///   `used <= limit`. Infeasible designs are rejected before the nested
///   system DSE even runs.
/// * Admitted designs near the budget pay a **soft penalty**: for each
///   constrained channel with utilization `u = used / limit` above
///   [`DeviceBudget::soft_frac`], fitness is scaled by
///   `1 - soft_penalty * (u - soft_frac) / (1 - soft_frac)`, multiplied
///   over all four channels. This keeps the annealer from camping on the
///   budget boundary where one more mutation flips to infeasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceBudget {
    /// Budget name (stable across serialization, like [`FpgaDevice`]).
    pub name: &'static str,
    /// Per-channel hard limits; a channel at `0.0` is unconstrained.
    pub limit: Resources,
    /// Utilization fraction where the soft penalty starts.
    pub soft_frac: f64,
    /// Maximum fitness reduction per channel at 100% utilization.
    pub soft_penalty: f64,
}

impl DeviceBudget {
    /// Soft-penalty knee and strength shared by the presets: designs are
    /// free below 80% of any channel and lose up to 25% fitness per
    /// channel as they approach the limit.
    const SOFT_FRAC: f64 = 0.8;
    const SOFT_PENALTY: f64 = 0.25;

    /// The full VCU118 (XCVU9P) budget — the paper's evaluation board.
    pub const fn vcu118() -> DeviceBudget {
        DeviceBudget {
            name: "vcu118",
            limit: XCVU9P.total,
            soft_frac: Self::SOFT_FRAC,
            soft_penalty: Self::SOFT_PENALTY,
        }
    }

    /// Half of every VCU118 channel: a mid-size resource point (e.g. an
    /// overlay that shares the device with shell logic or a second
    /// accelerator).
    pub const fn vcu118_medium() -> DeviceBudget {
        DeviceBudget {
            name: "vcu118-medium",
            limit: Resources {
                lut: XCVU9P.total.lut / 2.0,
                ff: XCVU9P.total.ff / 2.0,
                bram: XCVU9P.total.bram / 2.0,
                dsp: XCVU9P.total.dsp / 2.0,
            },
            soft_frac: Self::SOFT_FRAC,
            soft_penalty: Self::SOFT_PENALTY,
        }
    }

    /// A quarter of every VCU118 channel: the small resource point (edge
    /// parts and application-specific overlay sizing).
    pub const fn vcu118_small() -> DeviceBudget {
        DeviceBudget {
            name: "vcu118-small",
            limit: Resources {
                lut: XCVU9P.total.lut / 4.0,
                ff: XCVU9P.total.ff / 4.0,
                bram: XCVU9P.total.bram / 4.0,
                dsp: XCVU9P.total.dsp / 4.0,
            },
            soft_frac: Self::SOFT_FRAC,
            soft_penalty: Self::SOFT_PENALTY,
        }
    }

    /// Name of the first constrained channel `used` exceeds, or `None`
    /// when the design is admitted. Channels are checked in the fixed
    /// `lut, ff, bram, dsp` order so the reported binding channel is
    /// deterministic.
    pub fn exceeded(&self, used: &Resources) -> Option<&'static str> {
        let channels = [
            ("lut", used.lut, self.limit.lut),
            ("ff", used.ff, self.limit.ff),
            ("bram", used.bram, self.limit.bram),
            ("dsp", used.dsp, self.limit.dsp),
        ];
        channels
            .into_iter()
            .find(|&(_, u, l)| l > 0.0 && u > l)
            .map(|(n, _, _)| n)
    }

    /// Whether every constrained channel fits within the budget.
    pub fn admits(&self, used: &Resources) -> bool {
        self.exceeded(used).is_none()
    }

    /// Soft-penalty factor in `(0, 1]` (see type docs): the product over
    /// all four channels of each channel's proximity penalty.
    pub fn soft_factor(&self, used: &Resources) -> f64 {
        let span = (1.0 - self.soft_frac).max(1e-9);
        let mut factor = 1.0;
        for (u, l) in [
            (used.lut, self.limit.lut),
            (used.ff, self.limit.ff),
            (used.bram, self.limit.bram),
            (used.dsp, self.limit.dsp),
        ] {
            if l <= 0.0 {
                continue;
            }
            let util = u / l;
            if util > self.soft_frac {
                let over = ((util - self.soft_frac) / span).min(1.0);
                factor *= 1.0 - self.soft_penalty * over;
            }
        }
        factor
    }
}

/// Resource breakdown by overlay component group — the stacked bars of
/// Figure 16 (pe / n/w / vp / spad / dma / core / noc).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceBreakdown {
    /// Processing elements.
    pub pe: Resources,
    /// Fabric network (switches).
    pub network: Resources,
    /// Vector ports (in + out).
    pub ports: Resources,
    /// Scratchpads.
    pub spad: Resources,
    /// DMA + other stream engines + dispatcher.
    pub dma: Resources,
    /// Control cores.
    pub core: Resources,
    /// System NoC + L2.
    pub noc: Resources,
}

impl ResourceBreakdown {
    /// Sum of all groups.
    pub fn total(&self) -> Resources {
        self.pe + self.network + self.ports + self.spad + self.dma + self.core + self.noc
    }

    /// Groups as `(name, resources)` pairs in Figure 16 order.
    pub fn groups(&self) -> [(&'static str, Resources); 7] {
        [
            ("pe", self.pe),
            ("n/w", self.network),
            ("vp", self.ports),
            ("spad", self.spad),
            ("dma", self.dma),
            ("core", self.core),
            ("noc", self.noc),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resources {
            lut: 10.0,
            ff: 20.0,
            bram: 1.0,
            dsp: 2.0,
        };
        let b = a * 2.0 + a;
        assert_eq!(b.lut, 30.0);
        assert_eq!(b.dsp, 6.0);
        let s: Resources = vec![a, a, a].into_iter().sum();
        assert_eq!(s.ff, 60.0);
    }

    #[test]
    fn utilization_and_fit() {
        let half = Resources {
            lut: XCVU9P.total.lut / 2.0,
            ff: 0.0,
            bram: 0.0,
            dsp: 0.0,
        };
        let u = XCVU9P.utilization(&half);
        assert!((u.lut - 0.5).abs() < 1e-12);
        assert_eq!(u.limiting_name(), "lut");
        assert!(XCVU9P.fits(&half, 0.6));
        assert!(!XCVU9P.fits(&half, 0.4));
    }

    #[test]
    fn fmax_decreases_with_utilization() {
        let small = Resources {
            lut: 50_000.0,
            ..Resources::ZERO
        };
        let big = Resources {
            lut: 1_050_000.0,
            ..Resources::ZERO
        };
        assert!(XCVU9P.fmax_mhz(&small) > XCVU9P.fmax_mhz(&big));
        // paper's quad-tile closes around 93 MHz at ~90% LUT
        let f = XCVU9P.fmax_mhz(&big);
        assert!(f > 80.0 && f < 100.0, "fmax {f}");
    }

    /// Pins the shared clock curve at the three calibration points. The
    /// over-capacity cliff is the regression target: the pre-fix curve
    /// clamped utilization at 1.2 before applying the floor, so `u = 1.2`
    /// returned 70 MHz and `.max(40.0)` was dead code.
    #[test]
    fn fmax_curve_is_pinned_and_the_floor_binds() {
        assert_eq!(fmax_curve(0.5), 122.5);
        assert_eq!(fmax_curve(1.0), 85.0);
        assert_eq!(fmax_curve(1.2), FMAX_FLOOR_MHZ);
        // The device method agrees with the shared curve.
        let over = Resources {
            lut: XCVU9P.total.lut * 1.2,
            ..Resources::ZERO
        };
        assert_eq!(XCVU9P.fmax_mhz(&over), FMAX_FLOOR_MHZ);
        // The cliff is continuous-ish at the knee and monotone past it;
        // the floor binds from the crossover near u = 1.15 onward (1.15
        // itself sits within one ulp of the floor, so pin just past it).
        assert!(fmax_curve(1.0) >= fmax_curve(1.01));
        assert!(fmax_curve(1.1) > fmax_curve(1.15));
        assert_eq!(fmax_curve(1.16), FMAX_FLOOR_MHZ);
        assert_eq!(fmax_curve(5.0), FMAX_FLOOR_MHZ);
    }

    #[test]
    fn breakdown_total() {
        let mut b = ResourceBreakdown::default();
        b.pe.lut = 10.0;
        b.noc.lut = 5.0;
        assert_eq!(b.total().lut, 15.0);
        assert_eq!(b.groups()[0].0, "pe");
    }

    #[test]
    fn budget_admits_and_rejects_per_channel() {
        let b = DeviceBudget::vcu118_small();
        assert!(b.admits(&Resources::ZERO));
        assert_eq!(b.exceeded(&Resources::ZERO), None);
        // One channel over is enough, and the binding channel is named in
        // fixed lut/ff/bram/dsp order.
        let bram_heavy = Resources {
            bram: b.limit.bram + 1.0,
            ..Resources::ZERO
        };
        assert_eq!(b.exceeded(&bram_heavy), Some("bram"));
        let both = Resources {
            lut: b.limit.lut * 2.0,
            bram: b.limit.bram * 2.0,
            ..Resources::ZERO
        };
        assert_eq!(b.exceeded(&both), Some("lut"));
    }

    #[test]
    fn budget_soft_factor_kicks_in_near_the_limit() {
        let b = DeviceBudget::vcu118();
        let low = b.limit * 0.5;
        assert_eq!(b.soft_factor(&low), 1.0);
        let near = b.limit * 0.95;
        let at = b.limit * 1.0;
        let f_near = b.soft_factor(&near);
        let f_at = b.soft_factor(&at);
        assert!(f_near < 1.0 && f_near > 0.0);
        assert!(f_at < f_near, "penalty must grow toward the limit");
        // At 100% on all four channels every channel pays its full
        // penalty: (1 - 0.25)^4.
        assert!((f_at - 0.75f64.powi(4)).abs() < 1e-9);
    }

    #[test]
    fn budget_zero_limit_channel_is_unconstrained() {
        let b = DeviceBudget {
            name: "lut-only",
            limit: Resources {
                lut: 1000.0,
                ..Resources::ZERO
            },
            soft_frac: 0.8,
            soft_penalty: 0.25,
        };
        let dsp_heavy = Resources {
            lut: 500.0,
            dsp: 1e9,
            ..Resources::ZERO
        };
        assert!(b.admits(&dsp_heavy));
        assert_eq!(b.soft_factor(&dsp_heavy), 1.0);
    }

    #[test]
    fn array_round_trip() {
        let r = Resources {
            lut: 1.0,
            ff: 2.0,
            bram: 3.0,
            dsp: 4.0,
        };
        assert_eq!(Resources::from_array(r.to_array()), r);
        assert!(r.is_valid());
        assert!(!Resources {
            lut: f64::NAN,
            ..Resources::ZERO
        }
        .is_valid());
    }
}
