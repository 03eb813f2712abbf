//! Wall-clock models: synthesis / place & route hours, HLS and overlay
//! compile times, and reconfiguration times (Figures 15 and 17).
//!
//! These are the "clock" of the reproduction: real tool runtimes cannot
//! exist here, so every experiment that reports hours uses this model,
//! calibrated to the magnitudes the paper reports (AutoDSE totals of
//! 52–93 h per suite; >1 s FPGA reconfiguration; seconds-scale overlay
//! compilation).

use crate::resources::{FpgaDevice, Resources};

/// The time model. All methods are pure functions of design size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// Hours for a full-device synthesis at 100% LUT utilization.
    pub synth_hours_full: f64,
    /// Hours for full-device place & route at 100% utilization.
    pub pnr_hours_full: f64,
    /// Hours per AutoDSE candidate evaluation (Merlin + HLS estimate).
    pub hls_candidate_hours: f64,
    /// Seconds to flash a full FPGA bitstream (paper: >1 s).
    pub fpga_reconfig_seconds: f64,
    /// Bytes/cycle at which the accelerator's config network reloads
    /// bitstreams from the D-cache (§VI-B).
    pub config_reload_bytes_per_cycle: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel {
            synth_hours_full: 4.5,
            pnr_hours_full: 5.5,
            hls_candidate_hours: 0.35,
            fpga_reconfig_seconds: 1.1,
            config_reload_bytes_per_cycle: 16.0,
        }
    }
}

impl TimeModel {
    /// Hours to synthesize a design of the given size on a device.
    pub fn synth_hours(&self, used: &Resources, device: &FpgaDevice) -> f64 {
        let u = device.utilization(used).limiting();
        0.4 + self.synth_hours_full * u
    }

    /// Hours for place & route; congestion above ~85% utilization grows
    /// the runtime sharply (multi-die SLR crossings, §VI-D).
    pub fn pnr_hours(&self, used: &Resources, device: &FpgaDevice) -> f64 {
        let u = device.utilization(used).limiting();
        let congestion = if u > 0.85 {
            1.0 + 4.0 * (u - 0.85)
        } else {
            1.0
        };
        0.5 + self.pnr_hours_full * u * congestion
    }

    /// Full HLS flow for one application design (synthesis + P&R): what a
    /// *new* application costs on the HLS path (Figure 17's compile-time
    /// numerator).
    pub fn hls_flow_hours(&self, used: &Resources, device: &FpgaDevice) -> f64 {
        self.synth_hours(used, device) + self.pnr_hours(used, device)
    }

    /// Seconds to compile one application for an existing overlay
    /// (paper: "Fast Compile ~seconds"; Figure 17 reports ~10^4 x faster
    /// than HLS). Scales mildly with DFG and fabric size.
    pub fn overlay_compile_seconds(&self, mdfg_nodes: usize, adg_nodes: usize) -> f64 {
        0.3 + 0.004 * mdfg_nodes as f64 * (adg_nodes as f64).sqrt()
    }

    /// Seconds to reconfigure a running overlay: the configuration
    /// bitstream streams from the D-cache over the config network (§VI-B).
    pub fn overlay_reconfig_seconds(&self, config_bytes: u64, fmax_mhz: f64) -> f64 {
        let cycles = config_bytes as f64 / self.config_reload_bytes_per_cycle;
        // configuration handshake overhead ~1k cycles
        (cycles + 1_000.0) / (fmax_mhz * 1e6)
    }

    /// Simulated seconds for one spatial-scheduling invocation during DSE
    /// (scheduling dominates DSE iteration cost, §V-A).
    pub fn schedule_seconds(&self, mdfg_nodes: usize, adg_nodes: usize) -> f64 {
        0.08 + 2.5e-4 * (mdfg_nodes * adg_nodes) as f64
    }

    /// Simulated seconds for a schedule *repair* (much cheaper than a full
    /// reschedule; only touched nodes are revisited).
    pub fn repair_seconds(&self, touched_nodes: usize, adg_nodes: usize) -> f64 {
        0.01 + 2.5e-5 * (touched_nodes * adg_nodes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::XCVU9P;

    fn used(frac: f64) -> Resources {
        Resources {
            lut: XCVU9P.total.lut * frac,
            ..Resources::ZERO
        }
    }

    #[test]
    fn synth_scales_with_size() {
        let t = TimeModel::default();
        assert!(t.synth_hours(&used(0.9), &XCVU9P) > t.synth_hours(&used(0.2), &XCVU9P));
    }

    #[test]
    fn congestion_penalty_above_85pct() {
        let t = TimeModel::default();
        let a = t.pnr_hours(&used(0.84), &XCVU9P);
        let b = t.pnr_hours(&used(0.95), &XCVU9P);
        assert!(b > a * 1.2);
    }

    #[test]
    fn compile_speedup_is_about_1e4() {
        // Figure 17: overlay compilation ~10^4 x faster than the HLS flow.
        let t = TimeModel::default();
        let hls_s = t.hls_flow_hours(&used(0.3), &XCVU9P) * 3600.0;
        let ovl_s = t.overlay_compile_seconds(40, 80);
        let speedup = hls_s / ovl_s;
        assert!(
            speedup > 2e3 && speedup < 6e4,
            "compile speedup {speedup:.0}"
        );
    }

    #[test]
    fn reconfig_speedup_is_tens_of_thousands() {
        // Figure 17: mean 54000x faster reconfiguration.
        let t = TimeModel::default();
        let ovl = t.overlay_reconfig_seconds(20_000, 92.87);
        let speedup = t.fpga_reconfig_seconds / ovl;
        assert!(
            speedup > 1e4 && speedup < 2e5,
            "reconfig speedup {speedup:.0}"
        );
    }

    #[test]
    fn repair_cheaper_than_reschedule() {
        let t = TimeModel::default();
        assert!(t.repair_seconds(5, 100) < t.schedule_seconds(40, 100));
    }
}
