use std::collections::BTreeSet;
use std::fmt;

use overgen_ir::{DataType, FuCap, Op};

/// A processing element: a dedicated-instruction functional unit set with
/// per-operand delay FIFOs (paper §VI, limitations §VI-E note the dedicated
/// execution model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeNode {
    /// Functional-unit capabilities this PE supports.
    pub caps: BTreeSet<FuCap>,
    /// Depth of the per-operand delay FIFOs used to balance pipeline paths
    /// (edge-delay preservation grows this, §V-B).
    pub delay_fifo_depth: u8,
}

impl PeNode {
    /// A PE with the given capabilities and the default delay-FIFO depth.
    pub fn with_caps(caps: impl IntoIterator<Item = FuCap>) -> Self {
        PeNode {
            caps: caps.into_iter().collect(),
            delay_fifo_depth: 2,
        }
    }

    /// Whether the PE can execute `op` at `dtype`.
    pub fn supports(&self, op: Op, dtype: DataType) -> bool {
        self.caps.contains(&FuCap::new(op, dtype))
    }

    /// Widest datatype among the capabilities (drives FU sizing).
    pub fn max_bits(&self) -> u32 {
        self.caps.iter().map(|c| c.dtype.bits()).max().unwrap_or(64)
    }

    /// Whether any capability is floating point (maps to DSP blocks).
    pub fn has_float(&self) -> bool {
        self.caps.iter().any(|c| c.dtype.is_float())
    }
}

/// An operand-routing switch. Its radix (total degree) is a property of the
/// graph, not the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchNode {}

/// A synchronization port feeding data *into* the compute fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InPortNode {
    /// Port width in bytes: the maximum ingest rate per cycle.
    pub width_bytes: u16,
    /// Supports automatic padding of non-vector-width streams (§III-B).
    pub padding: bool,
    /// Carries stream-state metadata (first/last of a loop dimension),
    /// needed for variable trip-count streams.
    pub stream_state: bool,
}

impl InPortNode {
    /// A port of the given width with both pattern features enabled.
    pub fn with_width(width_bytes: u16) -> Self {
        InPortNode {
            width_bytes,
            padding: true,
            stream_state: true,
        }
    }
}

/// A synchronization port draining data *out of* the compute fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutPortNode {
    /// Port width in bytes: the maximum egest rate per cycle.
    pub width_bytes: u16,
}

impl OutPortNode {
    /// A port of the given width.
    pub fn with_width(width_bytes: u16) -> Self {
        OutPortNode { width_bytes }
    }
}

/// DMA stream engine: accesses the shared L2 (and through it DRAM) over the
/// NoC (§III-B, §VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaNode {
    /// Bytes per cycle the engine can move.
    pub bw_bytes: u16,
}

/// Scratchpad stream engine: a private, banked on-tile memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpadNode {
    /// Capacity in KiB (double-buffering space included by the compiler).
    pub capacity_kb: u32,
    /// Bytes per cycle for reads (writes modelled symmetric).
    pub bw_bytes: u16,
    /// Whether parallel indirect access is supported (needs reordering
    /// hardware; §III-B).
    pub indirect: bool,
}

/// Generate engine: produces affine value sequences without memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenNode {
    /// Bytes per cycle of generated values.
    pub bw_bytes: u16,
}

/// Recurrence engine: forwards loop-carried values from output ports back
/// to input ports, avoiding memory round trips (§IV-B recurrent reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecNode {
    /// Bytes per cycle forwarded.
    pub bw_bytes: u16,
}

/// Register engine: drains scalars from an output port to the control core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegNode {
    /// Bytes per cycle drained.
    pub bw_bytes: u16,
}

/// Any node of the architecture description graph.
#[derive(Debug, Clone, PartialEq)]
pub enum AdgNode {
    /// Processing element.
    Pe(PeNode),
    /// Routing switch.
    Switch(SwitchNode),
    /// Fabric input port.
    InPort(InPortNode),
    /// Fabric output port.
    OutPort(OutPortNode),
    /// DMA stream engine (shared L2 / DRAM).
    Dma(DmaNode),
    /// Scratchpad stream engine.
    Spad(SpadNode),
    /// Affine value generate engine.
    Gen(GenNode),
    /// Recurrence stream engine.
    Rec(RecNode),
    /// Register (scalar collect) engine.
    Reg(RegNode),
}

impl AdgNode {
    /// Discriminant of the node.
    pub fn kind(&self) -> NodeKind {
        match self {
            AdgNode::Pe(_) => NodeKind::Pe,
            AdgNode::Switch(_) => NodeKind::Switch,
            AdgNode::InPort(_) => NodeKind::InPort,
            AdgNode::OutPort(_) => NodeKind::OutPort,
            AdgNode::Dma(_) => NodeKind::Dma,
            AdgNode::Spad(_) => NodeKind::Spad,
            AdgNode::Gen(_) => NodeKind::Gen,
            AdgNode::Rec(_) => NodeKind::Rec,
            AdgNode::Reg(_) => NodeKind::Reg,
        }
    }

    /// The PE payload, if this is a PE.
    pub fn as_pe(&self) -> Option<&PeNode> {
        match self {
            AdgNode::Pe(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable PE payload.
    pub fn as_pe_mut(&mut self) -> Option<&mut PeNode> {
        match self {
            AdgNode::Pe(p) => Some(p),
            _ => None,
        }
    }

    /// The scratchpad payload, if this is a scratchpad.
    pub fn as_spad(&self) -> Option<&SpadNode> {
        match self {
            AdgNode::Spad(s) => Some(s),
            _ => None,
        }
    }

    /// Stream-engine bandwidth, if this node is a stream engine.
    pub fn engine_bw(&self) -> Option<u16> {
        match self {
            AdgNode::Dma(d) => Some(d.bw_bytes),
            AdgNode::Spad(s) => Some(s.bw_bytes),
            AdgNode::Gen(g) => Some(g.bw_bytes),
            AdgNode::Rec(r) => Some(r.bw_bytes),
            AdgNode::Reg(r) => Some(r.bw_bytes),
            _ => None,
        }
    }
}

/// Discriminant of [`AdgNode`] without payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// Processing element.
    Pe,
    /// Routing switch.
    Switch,
    /// Fabric input port.
    InPort,
    /// Fabric output port.
    OutPort,
    /// DMA engine.
    Dma,
    /// Scratchpad engine.
    Spad,
    /// Generate engine.
    Gen,
    /// Recurrence engine.
    Rec,
    /// Register engine.
    Reg,
}

impl NodeKind {
    /// Whether this kind is a memory/stream engine.
    pub fn is_engine(self) -> bool {
        matches!(
            self,
            NodeKind::Dma | NodeKind::Spad | NodeKind::Gen | NodeKind::Rec | NodeKind::Reg
        )
    }

    /// Whether this kind lives inside the compute fabric.
    pub fn is_fabric(self) -> bool {
        matches!(self, NodeKind::Pe | NodeKind::Switch)
    }

    /// Whether a directed edge `self -> dst` is architecturally legal.
    ///
    /// Engines feed input ports; output ports feed engines; input ports feed
    /// the fabric (or short-circuit to output ports for pure data-movement
    /// DFGs); fabric nodes feed fabric nodes and output ports. Direct
    /// PE-to-PE edges are legal — node collapsing (§V-B) creates them.
    pub fn may_connect(self, dst: NodeKind) -> bool {
        use NodeKind::*;
        match self {
            Dma | Spad | Gen | Rec => matches!(dst, InPort),
            Reg => false, // register engine only consumes
            InPort => matches!(dst, Switch | Pe | OutPort),
            Switch => matches!(dst, Switch | Pe | OutPort),
            Pe => matches!(dst, Switch | Pe | OutPort),
            OutPort => matches!(dst, Dma | Spad | Rec | Reg),
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Pe => "pe",
            NodeKind::Switch => "switch",
            NodeKind::InPort => "in_port",
            NodeKind::OutPort => "out_port",
            NodeKind::Dma => "dma",
            NodeKind::Spad => "spad",
            NodeKind::Gen => "gen",
            NodeKind::Rec => "rec",
            NodeKind::Reg => "reg",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_supports() {
        let pe = PeNode::with_caps([
            FuCap::new(Op::Add, DataType::I64),
            FuCap::new(Op::Mul, DataType::F32),
        ]);
        assert!(pe.supports(Op::Add, DataType::I64));
        assert!(!pe.supports(Op::Add, DataType::I32));
        assert!(pe.has_float());
        assert_eq!(pe.max_bits(), 64);
    }

    #[test]
    fn edge_legality() {
        use NodeKind::*;
        assert!(Dma.may_connect(InPort));
        assert!(!Dma.may_connect(Pe));
        assert!(InPort.may_connect(Pe));
        assert!(InPort.may_connect(OutPort));
        assert!(Pe.may_connect(Pe)); // node collapsing result
        assert!(OutPort.may_connect(Rec));
        assert!(!OutPort.may_connect(Gen)); // gen only produces
        assert!(!Reg.may_connect(InPort)); // reg only consumes
        assert!(!Pe.may_connect(InPort));
    }

    #[test]
    fn kind_classification() {
        assert!(NodeKind::Spad.is_engine());
        assert!(!NodeKind::Pe.is_engine());
        assert!(NodeKind::Switch.is_fabric());
        assert!(!NodeKind::InPort.is_fabric());
    }

    #[test]
    fn engine_bw_accessor() {
        assert_eq!(AdgNode::Dma(DmaNode { bw_bytes: 32 }).engine_bw(), Some(32));
        assert_eq!(AdgNode::Switch(SwitchNode {}).engine_bw(), None);
    }
}
