use std::fmt;

use overgen_ir::Op;

use crate::{Adg, AdgNode};

/// Aggregate specification of an accelerator ADG — the per-column content of
/// the paper's Table III ("Specification of Suite Specific Overlays").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdgSummary {
    /// Number of processing elements.
    pub pes: usize,
    /// Number of switches.
    pub switches: usize,
    /// Average radix (total degree) over switches.
    pub avg_switch_radix: f64,
    /// Integer add / mul / div capability counts over all PEs.
    pub int_add: usize,
    /// Integer multiply capabilities.
    pub int_mul: usize,
    /// Integer divide capabilities.
    pub int_div: usize,
    /// Float add capabilities.
    pub flt_add: usize,
    /// Float multiply capabilities.
    pub flt_mul: usize,
    /// Float divide capabilities.
    pub flt_div: usize,
    /// Float square-root capabilities.
    pub flt_sqrt: usize,
    /// Scratchpad capacities in KiB, one entry per scratchpad.
    pub spad_caps_kb: Vec<u32>,
    /// Scratchpad bandwidths in bytes/cycle.
    pub spad_bws: Vec<u16>,
    /// Whether each scratchpad supports indirect access.
    pub spad_indirect: Vec<bool>,
    /// Counts of generate / recurrence / register engines.
    pub gen: usize,
    /// Recurrence engine count.
    pub rec: usize,
    /// Register engine count.
    pub reg: usize,
    /// Total input-port bandwidth in bytes.
    pub in_port_bw: u64,
    /// Total output-port bandwidth in bytes.
    pub out_port_bw: u64,
    /// Number of DMA engines.
    pub dmas: usize,
}

impl AdgSummary {
    /// Compute the summary of an ADG.
    pub fn of(adg: &Adg) -> Self {
        let mut s = AdgSummary::default();
        let mut radix_sum = 0usize;
        for (id, n) in adg.nodes() {
            match n {
                AdgNode::Pe(pe) => {
                    s.pes += 1;
                    for c in &pe.caps {
                        match (c.op, c.dtype.is_float()) {
                            (Op::Add | Op::Sub, false) => s.int_add += 1,
                            (Op::Mul, false) => s.int_mul += 1,
                            (Op::Div, false) => s.int_div += 1,
                            (Op::Add | Op::Sub, true) => s.flt_add += 1,
                            (Op::Mul, true) => s.flt_mul += 1,
                            (Op::Div, true) => s.flt_div += 1,
                            (Op::Sqrt, true) => s.flt_sqrt += 1,
                            _ => {}
                        }
                    }
                }
                AdgNode::Switch(_) => {
                    s.switches += 1;
                    radix_sum += adg.undirected_radix(id);
                }
                AdgNode::InPort(p) => s.in_port_bw += u64::from(p.width_bytes),
                AdgNode::OutPort(p) => s.out_port_bw += u64::from(p.width_bytes),
                AdgNode::Dma(_) => s.dmas += 1,
                AdgNode::Spad(sp) => {
                    s.spad_caps_kb.push(sp.capacity_kb);
                    s.spad_bws.push(sp.bw_bytes);
                    s.spad_indirect.push(sp.indirect);
                }
                AdgNode::Gen(_) => s.gen += 1,
                AdgNode::Rec(_) => s.rec += 1,
                AdgNode::Reg(_) => s.reg += 1,
            }
        }
        s.avg_switch_radix = if s.switches > 0 {
            radix_sum as f64 / s.switches as f64
        } else {
            0.0
        };
        s
    }

    /// Whether the accelerator has any floating-point capability.
    pub fn has_float(&self) -> bool {
        self.flt_add + self.flt_mul + self.flt_div + self.flt_sqrt > 0
    }
}

impl fmt::Display for AdgSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PEs                 {}", self.pes)?;
        writeln!(f, "Switches            {}", self.switches)?;
        writeln!(f, "Avg. Radix          {:.2}", self.avg_switch_radix)?;
        writeln!(
            f,
            "Int +/x/÷           {}/{}/{}",
            self.int_add, self.int_mul, self.int_div
        )?;
        writeln!(
            f,
            "Flt. +/x/÷/sqrt     {}/{}/{}/{}",
            self.flt_add, self.flt_mul, self.flt_div, self.flt_sqrt
        )?;
        let caps: Vec<String> = self.spad_caps_kb.iter().map(|c| c.to_string()).collect();
        writeln!(
            f,
            "Spad. Cap. (KB)     {}",
            if caps.is_empty() {
                "-".into()
            } else {
                caps.join(", ")
            }
        )?;
        let bws: Vec<String> = self.spad_bws.iter().map(|c| c.to_string()).collect();
        writeln!(
            f,
            "Spad. B/W (B/cyc)   {}",
            if bws.is_empty() {
                "-".into()
            } else {
                bws.join(", ")
            }
        )?;
        writeln!(
            f,
            "GEN/REC/REG         {}/{}/{}",
            self.gen, self.rec, self.reg
        )?;
        writeln!(f, "In Ports B/W (B)    {}", self.in_port_bw)?;
        write!(f, "Out Ports B/W (B)   {}", self.out_port_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::*;
    use crate::topology::{mesh, MeshSpec};
    use overgen_ir::DataType;
    use overgen_ir::FuCap;

    #[test]
    fn summary_of_mesh() {
        let spec = MeshSpec::default();
        let adg = mesh(&spec);
        let s = AdgSummary::of(&adg);
        assert_eq!(s.pes, spec.rows * spec.cols);
        assert!(s.switches > 0);
        assert!(s.avg_switch_radix > 1.0);
        assert!(s.in_port_bw > 0);
        assert_eq!(s.dmas, 1);
    }

    #[test]
    fn capability_counting() {
        let mut adg = Adg::new();
        adg.add_node(AdgNode::Pe(PeNode::with_caps([
            FuCap::new(Op::Add, DataType::I64),
            FuCap::new(Op::Mul, DataType::F64),
            FuCap::new(Op::Sqrt, DataType::F64),
        ])));
        let s = AdgSummary::of(&adg);
        assert_eq!(s.int_add, 1);
        assert_eq!(s.flt_mul, 1);
        assert_eq!(s.flt_sqrt, 1);
        assert!(s.has_float());
    }

    #[test]
    fn display_contains_rows() {
        let s = AdgSummary::of(&mesh(&MeshSpec::default()));
        let txt = s.to_string();
        assert!(txt.contains("PEs"));
        assert!(txt.contains("Avg. Radix"));
    }
}
