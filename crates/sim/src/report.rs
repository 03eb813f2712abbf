/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Total cycles for the tile to complete its share of the region.
    pub cycles: u64,
    /// DFG firings executed by the simulated tile.
    pub firings: u64,
    /// Scalar operations retired per cycle by the whole overlay
    /// (all tiles).
    pub ipc: f64,
    /// Cycles the fabric stalled waiting for input data.
    pub stall_input: u64,
    /// Cycles the fabric stalled on output back-pressure.
    pub stall_output: u64,
    /// Bytes served by the L2 (per tile).
    pub bytes_l2: u64,
    /// Bytes served by DRAM (per tile).
    pub bytes_dram: u64,
    /// Bytes served by scratchpads (per tile).
    pub bytes_spad: u64,
    /// Bytes forwarded by the recurrence engine (per tile).
    pub bytes_rec: u64,
    /// Cycles to reconfigure the overlay with this kernel's bitstream.
    pub reconfig_cycles: u64,
    /// Whether the run hit the safety cycle cap (a modelling bug if true).
    pub truncated: bool,
}

impl SimReport {
    /// Wall-clock seconds at a given fabric frequency.
    pub fn seconds(&self, fmax_mhz: f64) -> f64 {
        self.cycles as f64 / (fmax_mhz * 1e6)
    }

    /// Reconfiguration seconds at a given fabric frequency.
    pub fn reconfig_seconds(&self, fmax_mhz: f64) -> f64 {
        self.reconfig_cycles as f64 / (fmax_mhz * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversion() {
        let r = SimReport {
            cycles: 1_000_000,
            ..Default::default()
        };
        assert!((r.seconds(100.0) - 0.01).abs() < 1e-12);
    }
}
