use std::fmt;

use overgen_ir::{DataType, Op};

use crate::ReuseInfo;

/// Placement preference of an array node, decided by the compiler's reuse
/// analysis and honoured (best effort) by the spatial scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPref {
    /// High scratchpad benefit: prefer an on-tile scratchpad.
    PreferSpad,
    /// Stream from DRAM/L2 through a DMA engine.
    PreferDram,
    /// No strong preference.
    Either,
}

/// An array (data structure) node: the paper's §IV extension to the DFG.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayNode {
    /// Array name (matches the kernel IR declaration).
    pub name: String,
    /// Total allocated bytes. For scratchpad placement the compiler has
    /// already included double-buffering space (§IV-A).
    pub size_bytes: u64,
    /// Placement preference.
    pub pref: MemPref,
}

impl ArrayNode {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, size_bytes: u64, pref: MemPref) -> Self {
        ArrayNode {
            name: name.into(),
            size_bytes,
            pref,
        }
    }
}

/// Coarse classification of a stream's access pattern, deciding which
/// stream-engine features it needs (§VI-C: 1D/2D/3D x affine/indirect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPattern {
    /// Unit-stride (or coalescible) affine.
    Linear,
    /// Affine with innermost stride > 1.
    Strided,
    /// Indirect (gather/scatter) via an index stream.
    Indirect,
}

/// A memory/value stream node: one side of a port binding.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamNode {
    /// Array the stream reads or writes (empty for generate streams).
    pub array: String,
    /// Bytes delivered/consumed per DFG firing (vector width of the port
    /// binding this stream requires).
    pub bytes_per_firing: u64,
    /// Whether this is a write (output) stream.
    pub is_write: bool,
    /// Access pattern class.
    pub pattern: StreamPattern,
    /// Number of pattern dimensions (1-3).
    pub dims: u8,
    /// Whether the stream length is data dependent (variable trip count).
    pub variable_tc: bool,
    /// Whether every tile must load the *whole* array rather than a
    /// partition (replicated read-only data; OverGen lacks a DRAM-to-
    /// scratchpad broadcast, so this wastes bandwidth — the `ellpack`
    /// outlier of Q1).
    pub broadcast: bool,
    /// Reuse annotations.
    pub reuse: ReuseInfo,
}

impl StreamNode {
    /// A read stream of an array.
    pub fn read(array: impl Into<String>, bytes_per_firing: u64, reuse: ReuseInfo) -> Self {
        StreamNode {
            array: array.into(),
            bytes_per_firing,
            is_write: false,
            pattern: StreamPattern::Linear,
            dims: 1,
            variable_tc: false,
            broadcast: false,
            reuse,
        }
    }

    /// A write stream of an array.
    pub fn write(array: impl Into<String>, bytes_per_firing: u64, reuse: ReuseInfo) -> Self {
        StreamNode {
            is_write: true,
            ..StreamNode::read(array, bytes_per_firing, reuse)
        }
    }

    /// Set the pattern class.
    pub fn with_pattern(mut self, pattern: StreamPattern, dims: u8) -> Self {
        self.pattern = pattern;
        self.dims = dims;
        self
    }

    /// Mark the stream as variable length.
    pub fn with_variable_tc(mut self) -> Self {
        self.variable_tc = true;
        self
    }

    /// Mark the stream as a per-tile replicated (broadcast-wasting) load.
    pub fn with_broadcast(mut self) -> Self {
        self.broadcast = true;
        self
    }
}

/// One (possibly subword-SIMD) instruction of the dataflow graph.
///
/// The compiler folds `lanes` adjacent unrolled copies of an operation into
/// one instruction when the datatype is narrower than the 64-bit PE
/// datapath; an `InstNode` therefore processes `lanes` elements per firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstNode {
    /// Operation.
    pub op: Op,
    /// Element datatype.
    pub dtype: DataType,
    /// Subword SIMD lanes (1 for 64-bit datatypes).
    pub lanes: u32,
}

impl InstNode {
    /// Convenience constructor.
    pub fn new(op: Op, dtype: DataType, lanes: u32) -> Self {
        InstNode { op, dtype, lanes }
    }
}

/// Any node of the memory-enhanced dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum MdfgNode {
    /// Compute instruction.
    Inst(InstNode),
    /// Read stream (maps to an input port + a producing engine).
    InputStream(StreamNode),
    /// Write stream (maps to an output port + a consuming engine).
    OutputStream(StreamNode),
    /// Data-structure node (maps to a memory stream engine).
    Array(ArrayNode),
}

impl MdfgNode {
    /// Discriminant.
    pub fn kind(&self) -> MdfgNodeKind {
        match self {
            MdfgNode::Inst(_) => MdfgNodeKind::Inst,
            MdfgNode::InputStream(_) => MdfgNodeKind::InputStream,
            MdfgNode::OutputStream(_) => MdfgNodeKind::OutputStream,
            MdfgNode::Array(_) => MdfgNodeKind::Array,
        }
    }

    /// Stream payload for either stream kind.
    pub fn as_stream(&self) -> Option<&StreamNode> {
        match self {
            MdfgNode::InputStream(s) | MdfgNode::OutputStream(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&ArrayNode> {
        match self {
            MdfgNode::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Instruction payload.
    pub fn as_inst(&self) -> Option<&InstNode> {
        match self {
            MdfgNode::Inst(i) => Some(i),
            _ => None,
        }
    }
}

/// Discriminant of [`MdfgNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MdfgNodeKind {
    /// Compute instruction.
    Inst,
    /// Read stream.
    InputStream,
    /// Write stream.
    OutputStream,
    /// Array node.
    Array,
}

impl fmt::Display for MdfgNodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MdfgNodeKind::Inst => "inst",
            MdfgNodeKind::InputStream => "in_stream",
            MdfgNodeKind::OutputStream => "out_stream",
            MdfgNodeKind::Array => "array",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_constructors() {
        let r = StreamNode::read("a", 8, ReuseInfo::default());
        assert!(!r.is_write);
        let w = StreamNode::write("c", 8, ReuseInfo::default());
        assert!(w.is_write);
        let s = r
            .with_pattern(StreamPattern::Indirect, 2)
            .with_variable_tc();
        assert_eq!(s.pattern, StreamPattern::Indirect);
        assert!(s.variable_tc);
        assert_eq!(s.dims, 2);
    }

    #[test]
    fn node_accessors() {
        let n = MdfgNode::Array(ArrayNode::new("a", 64, MemPref::Either));
        assert_eq!(n.kind(), MdfgNodeKind::Array);
        assert!(n.as_array().is_some());
        assert!(n.as_inst().is_none());
        let i = MdfgNode::Inst(InstNode::new(Op::Add, DataType::I16, 4));
        assert_eq!(i.as_inst().unwrap().lanes, 4);
    }
}
