use std::fmt;

use overgen_ir::Op;

use crate::node::{MdfgNode, MdfgNodeKind};

/// Stable identifier of an mDFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MdfgNodeId(u32);

impl MdfgNodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Only meaningful for indices previously
    /// obtained via [`MdfgNodeId::index`] on the same graph (checkpoint
    /// round trips of id-keyed side tables).
    pub fn from_index(i: usize) -> Self {
        MdfgNodeId(i as u32)
    }
}

impl fmt::Display for MdfgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Errors raised by mDFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdfgError {
    /// Referenced node does not exist.
    NoSuchNode(MdfgNodeId),
    /// The edge connects kinds that cannot be data-dependent.
    IllegalEdge {
        /// Source kind.
        src: MdfgNodeKind,
        /// Destination kind.
        dst: MdfgNodeKind,
    },
    /// Structural validation failed.
    Invalid(String),
}

impl fmt::Display for MdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdfgError::NoSuchNode(id) => write!(f, "no such node {id}"),
            MdfgError::IllegalEdge { src, dst } => write!(f, "illegal edge {src} -> {dst}"),
            MdfgError::Invalid(m) => write!(f, "invalid mDFG: {m}"),
        }
    }
}

impl std::error::Error for MdfgError {}

fn may_connect(src: MdfgNodeKind, dst: MdfgNodeKind) -> bool {
    use MdfgNodeKind::*;
    match src {
        Array => matches!(dst, InputStream),
        // InputStream -> InputStream models an index stream feeding the
        // indirect request generator of the target stream's engine.
        InputStream => matches!(dst, Inst | OutputStream | InputStream),
        Inst => matches!(dst, Inst | OutputStream),
        // An output stream may feed an input stream: a recurrence pair.
        OutputStream => matches!(dst, Array | InputStream),
    }
}

/// A memory-enhanced dataflow graph: one compiled variant of one kernel
/// region.
#[derive(Debug, Clone)]
pub struct Mdfg {
    /// Kernel this mDFG was compiled from.
    name: String,
    /// Which transformation variant this is (0 = most aggressive).
    variant: u32,
    /// Innermost-loop unroll degree of this variant.
    unroll: u32,
    /// Total innermost iterations the region executes (expected).
    total_iterations: f64,
    /// Cross-iteration dependence: the region cannot tile-parallelize and
    /// fires at the dependency-chain interval instead of II = 1.
    sequential: bool,
    nodes: Vec<MdfgNode>,
    out_adj: Vec<Vec<MdfgNodeId>>,
    in_adj: Vec<Vec<MdfgNodeId>>,
}

impl Mdfg {
    /// An empty mDFG for a kernel variant.
    pub fn new(name: impl Into<String>, variant: u32) -> Self {
        Mdfg {
            name: name.into(),
            variant,
            unroll: 1,
            total_iterations: 0.0,
            sequential: false,
            nodes: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Variant index (0 = most aggressive transformation).
    pub fn variant(&self) -> u32 {
        self.variant
    }

    /// Innermost unroll degree of this variant.
    pub fn unroll(&self) -> u32 {
        self.unroll
    }

    /// Set the unroll degree (compiler use).
    pub fn set_unroll(&mut self, u: u32) {
        self.unroll = u;
    }

    /// Expected total innermost iterations of the region.
    pub fn total_iterations(&self) -> f64 {
        self.total_iterations
    }

    /// Set total iterations (compiler use).
    pub fn set_total_iterations(&mut self, it: f64) {
        self.total_iterations = it;
    }

    /// Whether the region has a cross-iteration dependence (cannot
    /// tile-parallelize; fires at the dependency-chain interval).
    pub fn sequential(&self) -> bool {
        self.sequential
    }

    /// Mark the region as sequential (compiler use).
    pub fn set_sequential(&mut self, s: bool) {
        self.sequential = s;
    }

    /// Number of DFG firings needed to cover the region: iterations divided
    /// by unroll.
    pub fn firings(&self) -> f64 {
        if self.unroll == 0 {
            self.total_iterations
        } else {
            self.total_iterations / f64::from(self.unroll)
        }
    }

    /// Add a node.
    pub fn add_node(&mut self, node: MdfgNode) -> MdfgNodeId {
        let id = MdfgNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add a dependence edge.
    ///
    /// # Errors
    ///
    /// Fails when an endpoint is missing or the kinds cannot connect.
    pub fn add_edge(&mut self, src: MdfgNodeId, dst: MdfgNodeId) -> Result<(), MdfgError> {
        let sk = self.node(src).ok_or(MdfgError::NoSuchNode(src))?.kind();
        let dk = self.node(dst).ok_or(MdfgError::NoSuchNode(dst))?.kind();
        if !may_connect(sk, dk) {
            return Err(MdfgError::IllegalEdge { src: sk, dst: dk });
        }
        self.out_adj[src.index()].push(dst);
        self.in_adj[dst.index()].push(src);
        Ok(())
    }

    /// Node accessor.
    pub fn node(&self, id: MdfgNodeId) -> Option<&MdfgNode> {
        self.nodes.get(id.index())
    }

    /// Mutable node accessor.
    pub fn node_mut(&mut self, id: MdfgNodeId) -> Option<&mut MdfgNode> {
        self.nodes.get_mut(id.index())
    }

    /// Successors.
    pub fn succs(&self, id: MdfgNodeId) -> &[MdfgNodeId] {
        self.out_adj
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Predecessors.
    pub fn preds(&self, id: MdfgNodeId) -> &[MdfgNodeId] {
        self.in_adj
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterator over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (MdfgNodeId, &MdfgNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (MdfgNodeId(i as u32), n))
    }

    /// Ids of nodes of a kind.
    pub fn nodes_of_kind(&self, kind: MdfgNodeKind) -> Vec<MdfgNodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind() == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Edge iterator.
    pub fn edges(&self) -> impl Iterator<Item = (MdfgNodeId, MdfgNodeId)> + '_ {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |d| (MdfgNodeId(i as u32), *d)))
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of instruction nodes.
    pub fn inst_count(&self) -> usize {
        self.nodes_of_kind(MdfgNodeKind::Inst).len()
    }

    /// Number of input (read/value) streams — the paper's `#ivp`.
    pub fn input_stream_count(&self) -> usize {
        self.nodes_of_kind(MdfgNodeKind::InputStream).len()
    }

    /// Number of output streams — the paper's `#ovp`.
    pub fn output_stream_count(&self) -> usize {
        self.nodes_of_kind(MdfgNodeKind::OutputStream).len()
    }

    /// Number of array nodes — the paper's `#arr`.
    pub fn array_count(&self) -> usize {
        self.nodes_of_kind(MdfgNodeKind::Array).len()
    }

    /// Count instruction nodes of a given op (Table II's `#m,a,d`).
    pub fn count_op(&self, op: Op) -> usize {
        self.nodes()
            .filter(|(_, n)| n.as_inst().is_some_and(|i| i.op == op))
            .count()
    }

    /// Scalar operations (compute + memory elements) the DFG completes per
    /// firing — the `mDFG Insts` factor of the paper's Equation (1).
    /// Instruction nodes contribute their lanes; stream nodes contribute
    /// the elements they move per firing (memory ops count toward IPC,
    /// §V-C).
    pub fn insts_per_firing(&self) -> f64 {
        let mut total = 0.0;
        for (_, n) in self.nodes() {
            match n {
                MdfgNode::Inst(i) => total += f64::from(i.lanes),
                MdfgNode::InputStream(s) | MdfgNode::OutputStream(s) => {
                    // one memory "op" per element moved per firing
                    total += s.bytes_per_firing as f64 / 8.0;
                }
                MdfgNode::Array(_) => {}
            }
        }
        total
    }

    /// Critical-path length in instruction nodes (pipeline depth proxy).
    pub fn critical_path_len(&self) -> usize {
        // Longest path in a DAG via memoised DFS.
        let n = self.nodes.len();
        let mut memo = vec![usize::MAX; n];
        fn dfs(g: &Mdfg, id: MdfgNodeId, memo: &mut Vec<usize>) -> usize {
            if memo[id.index()] != usize::MAX {
                return memo[id.index()];
            }
            // Guard against recurrence cycles: mark as 0 while visiting.
            memo[id.index()] = 0;
            let mut best = 0;
            for &s in g.succs(id) {
                best = best.max(1 + dfs(g, s, memo));
            }
            memo[id.index()] = best;
            best
        }
        let mut best = 0;
        for (id, _) in self.nodes() {
            best = best.max(dfs(self, id, &mut memo));
        }
        best
    }

    /// Structural validation.
    ///
    /// # Errors
    ///
    /// Fails when a stream lacks its array link, an instruction is
    /// dangling, or an array node has no streams.
    pub fn validate(&self) -> Result<(), MdfgError> {
        for (id, n) in self.nodes() {
            match n.kind() {
                MdfgNodeKind::InputStream => {
                    let has_array_or_rec = self.preds(id).iter().any(|p| {
                        matches!(
                            self.node(*p).map(MdfgNode::kind),
                            Some(MdfgNodeKind::Array) | Some(MdfgNodeKind::OutputStream)
                        )
                    });
                    // Generate streams have no array: they have an empty
                    // array name and no predecessor.
                    let is_gen = n.as_stream().is_some_and(|s| s.array.is_empty());
                    if !has_array_or_rec && !is_gen {
                        return Err(MdfgError::Invalid(format!(
                            "input stream {id} not linked to an array or recurrence"
                        )));
                    }
                    if self.succs(id).is_empty() {
                        return Err(MdfgError::Invalid(format!(
                            "input stream {id} feeds nothing"
                        )));
                    }
                }
                MdfgNodeKind::OutputStream => {
                    if self.preds(id).is_empty() {
                        return Err(MdfgError::Invalid(format!(
                            "output stream {id} has no producer"
                        )));
                    }
                }
                MdfgNodeKind::Inst => {
                    if self.preds(id).is_empty() || self.succs(id).is_empty() {
                        return Err(MdfgError::Invalid(format!("instruction {id} is dangling")));
                    }
                }
                MdfgNodeKind::Array => {
                    if self.succs(id).is_empty() && self.preds(id).is_empty() {
                        return Err(MdfgError::Invalid(format!("array {id} has no streams")));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::*;
    use crate::ReuseInfo;
    use overgen_ir::DataType;

    /// Build the Figure 2 vector-add DFG (unrolled by two) plus array nodes.
    fn vecadd() -> Mdfg {
        let mut g = Mdfg::new("vecadd", 0);
        g.set_unroll(2);
        g.set_total_iterations(1024.0);
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new("a", 8192, MemPref::Either)));
        let ab = g.add_node(MdfgNode::Array(ArrayNode::new("b", 8192, MemPref::Either)));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new("c", 8192, MemPref::Either)));
        let ra = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "a",
            16,
            ReuseInfo::default(),
        )));
        let rb = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "b",
            16,
            ReuseInfo::default(),
        )));
        let add0 = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let add1 = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "c",
            16,
            ReuseInfo::default(),
        )));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ab, rb).unwrap();
        g.add_edge(ra, add0).unwrap();
        g.add_edge(rb, add0).unwrap();
        g.add_edge(ra, add1).unwrap();
        g.add_edge(rb, add1).unwrap();
        g.add_edge(add0, wc).unwrap();
        g.add_edge(add1, wc).unwrap();
        g.add_edge(wc, ac).unwrap();
        g
    }

    #[test]
    fn vecadd_shape() {
        let g = vecadd();
        g.validate().unwrap();
        assert_eq!(g.inst_count(), 2);
        assert_eq!(g.input_stream_count(), 2);
        assert_eq!(g.output_stream_count(), 1);
        assert_eq!(g.array_count(), 3);
        assert_eq!(g.count_op(Op::Add), 2);
        assert_eq!(g.firings(), 512.0);
    }

    #[test]
    fn insts_per_firing_counts_memory() {
        let g = vecadd();
        // 2 adds + (16+16+16)/8 = 6 memory elements = 8
        assert!((g.insts_per_firing() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn illegal_edges_rejected() {
        let mut g = Mdfg::new("x", 0);
        let a = g.add_node(MdfgNode::Array(ArrayNode::new("a", 8, MemPref::Either)));
        let b = g.add_node(MdfgNode::Array(ArrayNode::new("b", 8, MemPref::Either)));
        assert!(matches!(
            g.add_edge(a, b),
            Err(MdfgError::IllegalEdge { .. })
        ));
    }

    #[test]
    fn validation_catches_dangling_inst() {
        let mut g = Mdfg::new("x", 0);
        g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        assert!(g.validate().is_err());
    }

    #[test]
    fn recurrence_pair_is_legal_and_validates() {
        let mut g = Mdfg::new("rec", 0);
        let arr = g.add_node(MdfgNode::Array(ArrayNode::new("c", 256, MemPref::Either)));
        let rd = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "c",
            8,
            ReuseInfo::default(),
        )));
        let gen = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "",
            8,
            ReuseInfo::default(),
        )));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let wr = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "c",
            8,
            ReuseInfo::default(),
        )));
        g.add_edge(arr, rd).unwrap();
        g.add_edge(rd, add).unwrap();
        g.add_edge(gen, add).unwrap();
        g.add_edge(add, wr).unwrap();
        // recurrence: write stream feeds read stream directly
        g.add_edge(wr, rd).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn critical_path() {
        let g = vecadd();
        // array -> stream -> add -> out -> array = 4 edges
        assert_eq!(g.critical_path_len(), 4);
    }

    #[test]
    fn critical_path_tolerates_recurrence_cycle() {
        let mut g = Mdfg::new("rec", 0);
        let rd = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "c",
            8,
            ReuseInfo::default(),
        )));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let wr = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "c",
            8,
            ReuseInfo::default(),
        )));
        g.add_edge(rd, add).unwrap();
        g.add_edge(add, wr).unwrap();
        g.add_edge(wr, rd).unwrap();
        // must terminate
        let _ = g.critical_path_len();
    }
}
