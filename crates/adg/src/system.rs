use crate::{Adg, AdgError};

/// System-level design parameters of an overlay (paper §III-B): the part of
/// the design space the nested *system DSE* explores exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemParams {
    /// Number of homogeneous tiles (control core + accelerator each).
    pub tiles: u32,
    /// Number of L2 banks (controls L2 bandwidth).
    pub l2_banks: u32,
    /// Total L2 capacity in KiB.
    pub l2_kb: u32,
    /// NoC (crossbar) bandwidth in bytes/cycle per link.
    pub noc_bw_bytes: u32,
    /// Number of DRAM channels (1 on the paper's FPGA runs; 2/4 in Q7).
    pub dram_channels: u32,
}

impl SystemParams {
    /// The paper's default single-channel system (Figure 8 shows 512 KB L2).
    pub fn single_tile() -> Self {
        SystemParams {
            tiles: 1,
            l2_banks: 4,
            l2_kb: 512,
            noc_bw_bytes: 32,
            dram_channels: 1,
        }
    }

    /// L2 bandwidth in bytes/cycle (one access per bank per cycle, 16-byte
    /// lines per bank access as in TileLink beats).
    pub fn l2_bw_bytes(&self) -> u64 {
        u64::from(self.l2_banks) * 16
    }

    /// DRAM bandwidth in bytes/cycle across channels. A single DDR4-2400
    /// channel at the overlay's ~100 MHz fabric clock supplies roughly 64
    /// bytes/fabric-cycle at peak; we use that as the per-channel figure.
    pub fn dram_bw_bytes(&self) -> u64 {
        u64::from(self.dram_channels) * 64
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams::single_tile()
    }
}

/// A system-level ADG: the complete overlay design spec (paper Figure 3's
/// "System-level ADG") — one accelerator ADG replicated over `sys.tiles`
/// homogeneous tiles, plus the shared memory system parameters.
#[derive(Debug, Clone)]
pub struct SysAdg {
    /// Per-tile accelerator graph (tiles are homogeneous).
    pub adg: Adg,
    /// System parameters.
    pub sys: SystemParams,
}

impl SysAdg {
    /// Pair an accelerator ADG with system parameters.
    pub fn new(adg: Adg, sys: SystemParams) -> Self {
        SysAdg { adg, sys }
    }

    /// Validate the accelerator graph and the system parameters.
    ///
    /// # Errors
    ///
    /// Propagates ADG validation failures; rejects zero tiles/banks.
    pub fn validate(&self) -> Result<(), AdgError> {
        if self.sys.tiles == 0 {
            return Err(AdgError::Invalid("zero tiles".into()));
        }
        if self.sys.l2_banks == 0 {
            return Err(AdgError::Invalid("zero L2 banks".into()));
        }
        if self.sys.dram_channels == 0 {
            return Err(AdgError::Invalid("zero DRAM channels".into()));
        }
        self.adg.validate()
    }

    /// Configuration bitstream bytes for reconfiguring *one* tile.
    pub fn config_bytes(&self) -> u64 {
        self.adg.config_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{mesh, MeshSpec};

    #[test]
    fn bandwidths() {
        let sys = SystemParams {
            tiles: 4,
            l2_banks: 8,
            l2_kb: 512,
            noc_bw_bytes: 64,
            dram_channels: 2,
        };
        assert_eq!(sys.l2_bw_bytes(), 128);
        assert_eq!(sys.dram_bw_bytes(), 128);
    }

    #[test]
    fn validate_rejects_zero_tiles() {
        let mut s = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        s.sys.tiles = 0;
        assert!(s.validate().is_err());
        s.sys.tiles = 2;
        s.validate().unwrap();
    }
}
