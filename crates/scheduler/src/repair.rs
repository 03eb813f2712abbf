//! Incremental schedule repair (paper §V-A).
//!
//! Repair runs in two phases:
//!
//! 1. **Classification** — [`dirty_set`] verifies every placement decision
//!    of the prior schedule against the mutated hardware and collects the
//!    mDFG nodes whose decision no longer holds: assignment targets that
//!    vanished or lost a capability, streams whose engine or port binding
//!    changed, scratchpads that no longer fit their arrays, and routes with
//!    missing links or link-exclusivity conflicts.
//! 2. **Repair** — an empty dirty set means the seeded placer would
//!    reproduce the prior mapping decision-for-decision (prior targets are
//!    tried first and prior routes are reused verbatim), so the *fast path*
//!    reconstructs the schedule directly from the prior mapping and
//!    re-scores it — no placement or routing search at all. A non-empty
//!    dirty set falls back to a full placement seeded with the prior, which
//!    re-places the dirty region and keeps everything else put.
//!
//! Debug builds (and [`RepairOptions::incremental`] `false`) also run a
//! silent full placement beside every fast-path hit and assert it equals
//! the fast reconstruction — an oracle that every debug test arms, proving
//! the fast path changes nothing: counters, events, and results are
//! byte-identical with and without it.

use std::collections::{BTreeMap, BTreeSet};

use overgen_adg::{AdgNode, NodeId, SysAdg};
use overgen_mdfg::{Mdfg, MdfgNode, MdfgNodeId, MdfgNodeKind};
use overgen_telemetry::{event, span};

use crate::adj::AdjBits;
use crate::footprint::ScheduleFootprint;
use crate::place::{
    array_needs_indirect, array_of_stream, engine_of_stream, is_index_stream, place_quiet,
    schedule, score_mapping,
};
use crate::types::{Schedule, ScheduleError};

/// How a repair resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The prior schedule is still fully valid (only re-scored).
    Intact,
    /// Some nodes were re-placed; the count is how many moved.
    Repaired {
        /// Number of mDFG nodes whose hardware target changed.
        moved: usize,
    },
}

/// The hardware a proposal touched, as recorded by the rewrite engine's
/// delta: every node added, removed, or attribute-modified, and every edge
/// added or removed, between the graph the prior schedule was produced on
/// and the graph being repaired against.
///
/// Passing a scope to [`repair_with`] is a *contract*, not a hint: the
/// caller asserts the two graphs differ only within the scope and that the
/// prior schedule was clean against the pre-delta graph. Under that
/// contract an **empty** scope proves the dirty set is empty, so
/// classification skips the full decision scan entirely (the
/// `scheduler.repair.scoped` counter records these exits); debug builds
/// still run the scan and assert it agrees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairScope {
    /// Nodes added, removed, or attribute-touched by the proposal.
    pub nodes: BTreeSet<NodeId>,
    /// Edges added or removed by the proposal.
    pub edges: BTreeSet<(NodeId, NodeId)>,
}

impl RepairScope {
    /// A scope containing nothing: the proposal provably changed no
    /// hardware.
    pub fn new() -> RepairScope {
        RepairScope::default()
    }

    /// True when the proposal touched no hardware at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Total touched entities (nodes + edges), for telemetry.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }
}

/// Knobs for [`repair_with`].
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Take the fast path when the dirty set is empty (the default). When
    /// `false`, eligible repairs also run the silent full placement that
    /// debug builds always run, and assert it equals the fast
    /// reconstruction.
    pub incremental: bool,
    /// Mutation footprint of the proposal being repaired, if known.
    /// Advisory: recorded in the `sched.repaired` event so traces attribute
    /// repair outcomes to mutation classes; never trusted for eligibility.
    pub footprint: Option<ScheduleFootprint>,
    /// Touched-hardware scope of the proposal, when the caller recorded
    /// one (see [`RepairScope`] for the contract it asserts). `None` keeps
    /// the historical behavior: classification always runs the full scan.
    pub scope: Option<RepairScope>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            incremental: true,
            footprint: None,
            scope: None,
        }
    }
}

/// Repair `prior` against a (possibly mutated) `sys_adg` with defaults.
///
/// # Errors
///
/// Propagates scheduling failures when the mDFG no longer fits the mutated
/// hardware at all.
pub fn repair(
    prior: &Schedule,
    mdfg: &Mdfg,
    sys_adg: &SysAdg,
) -> Result<(Schedule, RepairOutcome), ScheduleError> {
    repair_with(prior, mdfg, sys_adg, &RepairOptions::default())
}

/// Repair `prior` against a (possibly mutated) `sys_adg`.
///
/// See the module docs for the fast-path/fallback split. Counters:
/// `scheduler.repair.fast` (empty dirty set, no placement ran),
/// `scheduler.repair.fallback` (seeded full placement ran), and
/// `scheduler.repair.dirty_nodes` (total dirty mDFG nodes across
/// fallbacks).
///
/// # Errors
///
/// Propagates scheduling failures when the mDFG no longer fits the mutated
/// hardware at all.
pub fn repair_with(
    prior: &Schedule,
    mdfg: &Mdfg,
    sys_adg: &SysAdg,
    opts: &RepairOptions,
) -> Result<(Schedule, RepairOutcome), ScheduleError> {
    let _span = span!("sched.repair", mdfg = mdfg.name(), variant = mdfg.variant());
    // An empty recorded scope proves nothing the prior schedule decided on
    // has changed, so skip building the adjacency index and scanning every
    // placement decision. The exit additionally requires a Pure footprint
    // (redundant for single-rule proposals, where empty delta ⟺ Pure, but
    // merged compound deltas can cancel to empty under a non-Pure merged
    // footprint) so that whether it fires — and the scoped counter with it
    // — is a pure function of cache-key-visible data. Debug builds keep
    // running the scan and hold the caller to the scope contract.
    let scoped_exit = opts.footprint == Some(ScheduleFootprint::Pure)
        && matches!(&opts.scope, Some(scope) if scope.is_empty());
    let dirty = if scoped_exit {
        if let Some(c) = overgen_telemetry::current() {
            c.registry().counter("scheduler.repair.scoped").inc();
        }
        debug_assert!(
            dirty_set(prior, mdfg, sys_adg).is_empty(),
            "empty rewrite scope but the prior schedule for {} v{} is dirty",
            prior.mdfg_name,
            prior.variant
        );
        BTreeSet::new()
    } else {
        dirty_set(prior, mdfg, sys_adg)
    };
    let footprint = opts.footprint.map_or("unknown", ScheduleFootprint::name);

    if dirty.is_empty() {
        if let Some(c) = overgen_telemetry::current() {
            c.registry().counter("scheduler.repair.fast").inc();
        }
        let fast = score_mapping(
            mdfg,
            sys_adg,
            prior.assignment.clone(),
            prior.stream_engines.clone(),
            prior.routes.clone(),
        );
        let sched = if opts.incremental && !cfg!(debug_assertions) {
            fast
        } else {
            // Oracle: the seeded placer must land on exactly the schedule
            // the fast path reconstructed, or the fast path is wrong.
            // Placement runs silently so the check never shows in traces.
            let full = place_quiet(mdfg, sys_adg, Some(prior))?;
            assert_eq!(
                full, fast,
                "repair fast path diverged from full placement for {} v{}",
                prior.mdfg_name, prior.variant
            );
            full
        };
        event!(
            "sched.repaired",
            mdfg = mdfg.name(),
            outcome = "fast",
            dirty = 0,
            footprint = footprint,
        );
        return Ok((sched, RepairOutcome::Intact));
    }

    if let Some(c) = overgen_telemetry::current() {
        c.registry().counter("scheduler.repair.fallback").inc();
        c.registry()
            .counter("scheduler.repair.dirty_nodes")
            .add(dirty.len() as u64);
    }
    let fresh = schedule(mdfg, sys_adg, Some(prior))?;
    let moved = fresh
        .assignment
        .iter()
        .filter(|(m, a)| prior.assignment.get(m) != Some(a))
        .count();
    event!(
        "sched.repaired",
        mdfg = mdfg.name(),
        outcome = "fallback",
        dirty = dirty.len(),
        moved = moved,
        footprint = footprint,
    );
    Ok((fresh, RepairOutcome::Repaired { moved }))
}

/// mDFG nodes whose prior placement decision no longer holds against the
/// mutated hardware. Empty means the seeded placer would reproduce the
/// prior schedule exactly, so repair may skip placement entirely.
///
/// The checks mirror, decision by decision, what the seeded placer accepts
/// when it re-encounters its own prior (prior targets are tried first and
/// prior routes are reused), which is what makes the fast path sound:
///
/// - every mDFG node still has a prior assignment to *existing* hardware;
/// - arrays: scratchpad targets still hold the **sum** of their assigned
///   arrays and still support indirect access where needed (DMA always ok);
/// - streams: the engine recomputed from array assignments matches the
///   prior binding, the port still hangs off that engine, has the right
///   direction, and still offers stream-state where the stream needs it;
/// - instructions: the PE still exists and supports op/dtype;
/// - routes: endpoints match the assignment, every hop's link still exists,
///   interior hops are still switches, and no exclusive link carries two
///   different values across the whole schedule.
pub(crate) fn dirty_set(prior: &Schedule, mdfg: &Mdfg, sys_adg: &SysAdg) -> BTreeSet<MdfgNodeId> {
    let adg = &sys_adg.adg;
    let adj = AdjBits::new(adg);
    let mut dirty = BTreeSet::new();

    for (mid, _) in mdfg.nodes() {
        if !prior.assignment.contains_key(&mid) {
            dirty.insert(mid);
        }
    }

    // Arrays (per-scratchpad aggregate capacity + indirect support).
    let mut spad_load: BTreeMap<NodeId, u64> = BTreeMap::new();
    for (mid, n) in mdfg.nodes() {
        let MdfgNode::Array(a) = n else { continue };
        let Some(&target) = prior.assignment.get(&mid) else {
            continue;
        };
        match adg.node(target) {
            Some(AdgNode::Spad(sp)) => {
                if array_needs_indirect(mdfg, mid) && !sp.indirect {
                    dirty.insert(mid);
                } else {
                    *spad_load.entry(target).or_default() += a.size_bytes;
                }
            }
            Some(AdgNode::Dma(_)) => {}
            _ => {
                dirty.insert(mid);
            }
        }
    }
    for (spad, load) in spad_load {
        let cap = adg
            .node(spad)
            .and_then(AdgNode::as_spad)
            .map(|s| u64::from(s.capacity_kb) * 1024)
            .unwrap_or(0);
        if load > cap {
            for (mid, n) in mdfg.nodes() {
                if matches!(n, MdfgNode::Array(_)) && prior.assignment.get(&mid) == Some(&spad) {
                    dirty.insert(mid);
                }
            }
        }
    }

    // Streams (engine identity + port binding).
    for (sid, n) in mdfg.nodes() {
        let Some(s) = n.as_stream() else { continue };
        let Some(&target) = prior.assignment.get(&sid) else {
            continue;
        };
        let ok = match n.kind() {
            MdfgNodeKind::InputStream if is_index_stream(mdfg, sid) => {
                // Bound to its array's engine, not to a fabric port.
                let want = array_of_stream(mdfg, sid)
                    .and_then(|aid| prior.assignment.get(&aid))
                    .copied();
                want == Some(target)
                    && prior.stream_engines.get(&sid) == Some(&target)
                    && adg.contains(target)
            }
            MdfgNodeKind::InputStream => {
                match engine_of_stream(mdfg, adg, &prior.assignment, sid) {
                    Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                        match adg.node(target) {
                            Some(AdgNode::InPort(ip)) => {
                                (!s.variable_tc || ip.stream_state) && adj.has_edge(engine, target)
                            }
                            _ => false,
                        }
                    }
                    _ => false,
                }
            }
            MdfgNodeKind::OutputStream => {
                match engine_of_stream(mdfg, adg, &prior.assignment, sid) {
                    Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                        matches!(adg.node(target), Some(AdgNode::OutPort(_)))
                            && adj.has_edge(target, engine)
                    }
                    _ => false,
                }
            }
            _ => true,
        };
        if !ok {
            dirty.insert(sid);
        }
    }

    // Instructions (PE existence + capability).
    for (iid, n) in mdfg.nodes() {
        let Some(i) = n.as_inst() else { continue };
        let Some(&pe) = prior.assignment.get(&iid) else {
            continue;
        };
        if !adg
            .node(pe)
            .and_then(AdgNode::as_pe)
            .is_some_and(|p| p.supports(i.op, i.dtype))
        {
            dirty.insert(iid);
        }
    }

    // Routes (hop existence, switch interiors, link exclusivity).
    let mut link_use: BTreeMap<(NodeId, NodeId), MdfgNodeId> = BTreeMap::new();
    for ((src, dst), path) in &prior.routes {
        let mut ok = !path.is_empty()
            && prior.assignment.get(src) == path.first()
            && prior.assignment.get(dst) == path.last();
        if ok {
            let last = path.len() - 1;
            for (i, w) in path.windows(2).enumerate() {
                if !adj.has_edge(w[0], w[1]) || (i + 1 < last && !adj.is_switch(w[1])) {
                    ok = false;
                    break;
                }
                if adj.exclusive_link(w[0], w[1])
                    && *link_use.entry((w[0], w[1])).or_insert(*src) != *src
                {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            dirty.insert(*dst);
        }
    }

    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, NodeKind, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn setup() -> (Mdfg, SysAdg, Schedule) {
        let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_input("b", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let sys = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        let sched = schedule(&mdfg, &sys, None).unwrap();
        (mdfg, sys, sched)
    }

    #[test]
    fn intact_when_nothing_changed() {
        let (mdfg, sys, sched) = setup();
        assert!(dirty_set(&sched, &mdfg, &sys).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn verification_path_is_silent_and_matches_fast_path() {
        // With `incremental: false` (and in every debug build) the full
        // placer re-runs beside the fast path and asserts equality
        // internally. It must also leave results, events and counters
        // exactly as the release fast path records them.
        let (mdfg, sys, sched) = setup();
        let traced = |incremental| {
            let (collector, ring) = overgen_telemetry::Collector::ring(64);
            let _install = overgen_telemetry::install(collector.clone());
            let opts = RepairOptions {
                incremental,
                ..RepairOptions::default()
            };
            let out = repair_with(&sched, &mdfg, &sys, &opts).unwrap();
            (out, ring.lines(), collector.registry().snapshot_json())
        };
        let fast = traced(true);
        let full = traced(false);
        assert_eq!(fast, full);
        // Debug builds check even with `incremental: true`, so also pin
        // the fast path's own output: one event, one span, one counter.
        assert_eq!(fast.0 .1, RepairOutcome::Intact);
        assert_eq!(fast.1.len(), 2, "{:?}", fast.1);
        assert_eq!(fast.2, r#"{"scheduler.repair.fast":1}"#);
    }

    // One test per mutation-footprint class, checking the classification
    // the repair engine derives for a representative mutation.

    #[test]
    fn footprint_pure_unchanged_hardware_is_clean() {
        let (mdfg, sys, sched) = setup();
        assert!(dirty_set(&sched, &mdfg, &sys).is_empty());
    }

    #[test]
    fn footprint_attribute_resize_stays_clean_until_it_evicts() {
        let (mdfg, mut sys, sched) = setup();
        let spad = sys.adg.nodes_of_kind(NodeKind::Spad)[0];
        // Growing a scratchpad never dirties anything.
        if let Some(AdgNode::Spad(sp)) = sys.adg.node_mut(spad) {
            sp.capacity_kb *= 2;
        }
        assert!(dirty_set(&sched, &mdfg, &sys).is_empty());
        // Shrinking below the assigned arrays' total evicts them.
        if let Some(AdgNode::Spad(sp)) = sys.adg.node_mut(spad) {
            sp.capacity_kb = 0;
        }
        let uses_spad = sched.assignment.values().any(|a| *a == spad);
        let dirty = dirty_set(&sched, &mdfg, &sys);
        assert_eq!(!dirty.is_empty(), uses_spad);
    }

    #[test]
    fn footprint_additive_new_hardware_is_clean() {
        let (mdfg, mut sys, sched) = setup();
        // A new PE and an edge to it touch nothing the schedule uses.
        use overgen_adg::PeNode;
        use overgen_ir::{FuCap, Op};
        let sw = sys.adg.nodes_of_kind(NodeKind::Switch)[0];
        let pe = sys.adg.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        sys.adg.add_edge(sw, pe).unwrap();
        assert!(dirty_set(&sched, &mdfg, &sys).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn footprint_remove_unused_pe_is_clean() {
        let (mdfg, mut sys, sched) = setup();
        // remove a PE that is NOT used by the schedule
        let used = sched.used_adg_nodes();
        let victim = sys
            .adg
            .nodes_of_kind(NodeKind::Pe)
            .into_iter()
            .find(|id| !used.contains(id))
            .expect("tiny mesh has spare PEs");
        sys.adg.remove_node(victim);
        assert!(dirty_set(&sched, &mdfg, &sys).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn footprint_structural_used_pe_removed_falls_back() {
        let (mdfg, mut sys, sched) = setup();
        // remove the PE the add instruction sits on
        let inst = *sched
            .assignment
            .iter()
            .find(|(mid, _)| mdfg.node(**mid).unwrap().kind() == MdfgNodeKind::Inst)
            .map(|(mid, _)| mid)
            .unwrap();
        let inst_pe = sched.assignment[&inst];
        sys.adg.remove_node(inst_pe);
        let dirty = dirty_set(&sched, &mdfg, &sys);
        assert!(dirty.contains(&inst), "the evicted instruction is dirty");
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        match outcome {
            RepairOutcome::Repaired { moved } => assert!(moved >= 1),
            RepairOutcome::Intact => panic!("expected a repair"),
        }
        // new target is a different, existing PE
        assert!(again.assignment.values().all(|a| sys.adg.contains(*a)));
    }

    #[test]
    fn empty_scope_skips_scan_and_matches_unscoped_repair() {
        let (mdfg, sys, sched) = setup();
        let unscoped = repair(&sched, &mdfg, &sys).unwrap();
        let opts = RepairOptions {
            incremental: true,
            footprint: Some(ScheduleFootprint::Pure),
            scope: Some(RepairScope::new()),
        };
        let scoped = repair_with(&sched, &mdfg, &sys, &opts).unwrap();
        assert_eq!(scoped.1, RepairOutcome::Intact);
        assert_eq!(scoped.0, unscoped.0);
    }

    #[test]
    fn non_empty_scope_still_runs_the_full_scan() {
        let (mdfg, mut sys, sched) = setup();
        // Remove the instruction's PE and declare it in the scope: the
        // scope is non-empty so classification must fall back to the scan
        // and find the evicted instruction.
        let inst = *sched
            .assignment
            .iter()
            .find(|(mid, _)| mdfg.node(**mid).unwrap().kind() == MdfgNodeKind::Inst)
            .map(|(mid, _)| mid)
            .unwrap();
        let inst_pe = sched.assignment[&inst];
        sys.adg.remove_node(inst_pe);
        let mut scope = RepairScope::new();
        scope.nodes.insert(inst_pe);
        assert!(!scope.is_empty());
        assert_eq!(scope.len(), 1);
        let opts = RepairOptions {
            incremental: true,
            footprint: Some(ScheduleFootprint::Structural),
            scope: Some(scope),
        };
        let (again, outcome) = repair_with(&sched, &mdfg, &sys, &opts).unwrap();
        match outcome {
            RepairOutcome::Repaired { moved } => assert!(moved >= 1),
            RepairOutcome::Intact => panic!("expected a repair"),
        }
        assert!(again.assignment.values().all(|a| sys.adg.contains(*a)));
    }

    #[test]
    fn unrepairable_when_no_pe_left() {
        let (mdfg, mut sys, sched) = setup();
        for pe in sys.adg.nodes_of_kind(NodeKind::Pe) {
            sys.adg.remove_node(pe);
        }
        assert!(repair(&sched, &mdfg, &sys).is_err());
    }
}
