//! The declarative ADG rewrite engine.
//!
//! The legacy hand-rolled mutation dispatch is rebuilt as a registry of
//! [`Rule`]s. Applying a rule runs it against a [`RecordedAdg`], which
//! logs the net change into an epoch-stamped [`AdgDelta`]; from the delta
//! the [`ScheduleFootprint`] is *inferred* mechanically
//! ([`infer_footprint`]) instead of hand-maintained, and the delta's
//! [`AdgDelta::scope`] feeds the scheduler's repair classifier directly so
//! provably-pure proposals skip the full decision scan.
//!
//! A debug oracle in [`RuleSet::apply_index`] asserts the inferred class
//! is never weaker than the rule's legacy hand classification; the ported
//! rules are in fact *exact* (see the equality test in `rules.rs`), which
//! is what keeps default-config DSE byte-identical to the pre-rewrite
//! goldens.
//!
//! [`RuleSet::apply_compound`] chains up to K rules into one proposal with
//! a merged delta and footprint — enabled by `DseConfig::compound`,
//! default off. Follow-up rules draw from the *benign* subset (additive
//! and attribute rules only) so compound proposals keep the repair
//! fast-path share at its single-rule level.
//!
//! Counters (registry-only, never trace events): `dse.rewrite.applied`,
//! `dse.rewrite.compound`, and `dse.rewrite.inferred_{pure, attribute,
//! additive, remove_unused, structural}`.

mod delta;
mod infer;
mod rules;

use std::sync::OnceLock;

use overgen_adg::{Adg, NodeId};
use overgen_ir::FuCap;
use overgen_scheduler::{Schedule, ScheduleFootprint};
use overgen_telemetry::Rng;

pub use delta::{AdgDelta, RecordedAdg};
pub use infer::infer_footprint;

/// Context a rule may consult: the capability pool relevant to the
/// domain and (optionally) the live schedules for preserving transforms.
pub struct TransformCtx<'a> {
    /// Capabilities the domain's kernels actually use (mutation pool).
    pub cap_pool: &'a [FuCap],
    /// Live schedules (for schedule-preserving guidance); empty slice when
    /// preserving transformations are disabled.
    pub schedules: &'a mut [Schedule],
    /// Whether schedule-preserving transformations are enabled.
    pub preserving: bool,
}

/// What a mutation did (for logging / statistics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Added a PE with the given capability count.
    AddPe,
    /// Removed a PE.
    RemovePe,
    /// Added a switch splitting an edge.
    AddSwitch,
    /// Removed a switch (collapsed when preserving).
    RemoveSwitch,
    /// Added a fabric edge.
    AddEdge,
    /// Removed a fabric edge.
    RemoveEdge,
    /// Added a capability to a PE.
    AddCap,
    /// Pruned unused capabilities (preserving) or removed a random one.
    RemoveCap,
    /// Doubled / halved a port width.
    ResizePort,
    /// Doubled / halved a scratchpad capacity or bandwidth.
    ResizeSpad,
    /// Doubled / halved an engine bandwidth.
    ResizeEngineBw,
    /// Removed a stream engine.
    RemoveEngine,
    /// Changed a PE's delay-FIFO depth.
    ResizeDelayFifo,
    /// Nothing applicable (identity).
    Noop,
}

impl Mutation {
    /// Stable lowercase name for telemetry events, derived from the rule
    /// registry (see [`kind_name`]) instead of a hand-maintained table.
    pub fn kind(&self) -> &'static str {
        kind_name(self)
    }
}

/// Index into [`RuleSet::legacy`] of the rule whose name labels this
/// mutation. `None` for [`Mutation::Noop`], which no rule owns.
fn rule_index(m: &Mutation) -> Option<usize> {
    Some(match m {
        Mutation::AddPe => 0,
        Mutation::RemovePe => 1,
        Mutation::AddSwitch => 2,
        Mutation::RemoveSwitch => 3,
        Mutation::AddEdge => 4,
        Mutation::RemoveEdge => 5,
        Mutation::AddCap => 6,
        Mutation::RemoveCap => 7,
        Mutation::ResizePort => 8,
        Mutation::ResizeSpad => 9,
        Mutation::ResizeEngineBw => 10,
        Mutation::RemoveEngine => 12,
        Mutation::ResizeDelayFifo => 13,
        Mutation::Noop => return None,
    })
}

/// Event name of a mutation, read off the rule registry entry that emits
/// it — the single source of truth the legacy `Mutation::kind()` match
/// table was deduplicated into.
pub fn kind_name(m: &Mutation) -> &'static str {
    match rule_index(m) {
        Some(i) => RuleSet::legacy().rules[i].name(),
        None => "noop",
    }
}

/// What a rule application reports back: the mutation it performed and the
/// legacy hand-classified footprint (kept as the oracle baseline the
/// inferred class is checked against).
#[derive(Debug, Clone)]
pub struct RuleOutcome {
    /// The mutation performed (possibly [`Mutation::Noop`]).
    pub mutation: Mutation,
    /// The legacy hand classification of this application.
    pub hand: ScheduleFootprint,
}

/// One declarative ADG rewrite rule: match against the graph, mutate it
/// through the recording wrapper, report what happened. The delta — and
/// from it the inferred footprint and repair scope — is collected by the
/// [`RuleSet`], not by the rule.
pub trait Rule: Send + Sync {
    /// Stable lowercase rule name; doubles as the mutation event name.
    fn name(&self) -> &'static str;

    /// Apply the rule once. Rules must route every graph mutation through
    /// the [`RecordedAdg`] wrappers and declare attribute writes with
    /// [`RecordedAdg::touch_attr`] on exactly the paths that write.
    fn apply(
        &self,
        adg: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome;
}

/// One recorded, classified rule application.
#[derive(Debug, Clone)]
pub struct Application {
    /// Name of the rule that ran.
    pub rule: &'static str,
    /// The mutation it performed.
    pub mutation: Mutation,
    /// Legacy hand classification (oracle baseline).
    pub hand: ScheduleFootprint,
    /// Footprint inferred from the recorded delta.
    pub inferred: ScheduleFootprint,
    /// The recorded net change.
    pub delta: AdgDelta,
}

/// A registry of rewrite rules with uniform application, inference, and
/// compound-proposal machinery.
pub struct RuleSet {
    rules: Vec<&'static dyn Rule>,
    /// Indices of rules that never remove hardware (additive or
    /// attribute-only), used for the follow-up draws of compound
    /// proposals.
    benign: Vec<usize>,
}

impl RuleSet {
    /// The 14 legacy mutations, in the exact order of the historical
    /// `random_mutation` dispatch — [`RuleSet::apply_random`]'s draw over
    /// this set reproduces the legacy RNG stream bit-for-bit.
    pub fn legacy() -> &'static RuleSet {
        static LEGACY: OnceLock<RuleSet> = OnceLock::new();
        LEGACY.get_or_init(|| RuleSet {
            rules: vec![
                &rules::AddPeRule,
                &rules::RemovePeRule,
                &rules::AddSwitchRule,
                &rules::RemoveSwitchRule,
                &rules::AddEdgeRule,
                &rules::RemoveEdgeRule,
                &rules::AddCapRule,
                &rules::RemoveCapRule,
                &rules::ResizePortRule,
                &rules::ResizeSpadRule,
                &rules::ResizeEngineBwRule,
                &rules::AddEngineRule,
                &rules::RemoveEngineRule,
                &rules::ResizeDelayFifoRule,
            ],
            benign: vec![0, 2, 4, 6, 8, 9, 10, 11, 13],
        })
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Registered rule names, in dispatch order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.rules.iter().map(|r| r.name())
    }

    /// Apply rule `idx` once: record its delta, infer its footprint, bump
    /// the `dse.rewrite.*` counters, and (debug builds) check the
    /// inference oracle — the inferred class must never be weaker than
    /// the rule's hand classification.
    pub fn apply_index(
        &self,
        idx: usize,
        adg: &mut Adg,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
        epoch: u64,
    ) -> Application {
        let rule = self.rules[idx];
        let mut delta = AdgDelta::new(epoch);
        let outcome = {
            let mut recorded = RecordedAdg::new(adg, &mut delta);
            rule.apply(&mut recorded, ctx, rng)
        };
        let inferred = infer_footprint(&delta, ctx.schedules);
        debug_assert!(
            inferred >= outcome.hand,
            "rule {} inferred footprint {:?} is weaker than hand class {:?} (delta {:?})",
            rule.name(),
            inferred,
            outcome.hand,
            delta
        );
        if let Some(c) = overgen_telemetry::current() {
            let reg = c.registry();
            reg.counter("dse.rewrite.applied").inc();
            reg.counter(inferred_counter(inferred)).inc();
        }
        Application {
            rule: rule.name(),
            mutation: outcome.mutation,
            hand: outcome.hand,
            inferred,
            delta,
        }
    }

    /// Apply one uniformly-drawn rule (the legacy `random_mutation`
    /// dispatch: one `u32` draw over the rule count, then the rule's own
    /// draws).
    pub fn apply_random(
        &self,
        adg: &mut Adg,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
        epoch: u64,
    ) -> Application {
        let choice = rng.gen_range(0..self.rules.len() as u32);
        self.apply_index(choice as usize, adg, ctx, rng, epoch)
    }

    /// One compound proposal: 1..=`k` chained rule applications sharing an
    /// epoch. The first draw runs the full registry (so compound mode
    /// explores everything single-rule mode does); follow-up draws are
    /// restricted to the benign subset, which keeps the repair fast-path
    /// share at its single-rule level. Callers merge the per-application
    /// deltas/footprints into the proposal.
    pub fn apply_compound(
        &self,
        adg: &mut Adg,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
        epoch: u64,
        k: usize,
    ) -> Vec<Application> {
        let n = rng.gen_range(1..=k.max(1) as u32) as usize;
        let mut apps = Vec::with_capacity(n);
        apps.push(self.apply_random(adg, ctx, rng, epoch));
        for _ in 1..n {
            let idx = self.benign[rng.gen_range(0..self.benign.len())];
            apps.push(self.apply_index(idx, adg, ctx, rng, epoch));
        }
        if n > 1 {
            if let Some(c) = overgen_telemetry::current() {
                c.registry().counter("dse.rewrite.compound").inc();
            }
        }
        apps
    }
}

/// Registry counter name for an inferred footprint class.
fn inferred_counter(fp: ScheduleFootprint) -> &'static str {
    match fp {
        ScheduleFootprint::Pure => "dse.rewrite.inferred_pure",
        ScheduleFootprint::Attribute => "dse.rewrite.inferred_attribute",
        ScheduleFootprint::Additive => "dse.rewrite.inferred_additive",
        ScheduleFootprint::RemoveUnused => "dse.rewrite.inferred_remove_unused",
        ScheduleFootprint::Structural => "dse.rewrite.inferred_structural",
    }
}

/// Apply one random mutation to `adg`, preserving schedules when
/// `ctx.preserving` (routes in `ctx.schedules` are rewritten in place).
///
/// Returns what happened plus the mutation's [`ScheduleFootprint`] — the
/// worst effect this *particular application* can have on the live
/// schedules (a removal of provably-unused hardware classifies as
/// [`ScheduleFootprint::RemoveUnused`] even outside preserving mode). The
/// footprint travels with the proposal into the evaluation cache key and
/// the repair engine's trace events; repair never trusts it for
/// correctness.
///
/// Since the rewrite refactor the footprint is *inferred* from the
/// application's recorded delta rather than hand-classified; the ported
/// rules infer exactly the legacy classes.
pub fn random_mutation(
    adg: &mut Adg,
    ctx: &mut TransformCtx<'_>,
    rng: &mut Rng,
) -> (Mutation, ScheduleFootprint) {
    let app = RuleSet::legacy().apply_random(adg, ctx, rng, 0);
    (app.mutation, app.inferred)
}

/// Node collapsing (§V-B, Figure 7a): delete a routing node and add direct
/// edges for every schedule route that passed through it, rewriting those
/// routes. Edge-delay preservation (Figure 7b) bumps the delay-FIFO depth
/// of destination PEs whose operand paths shortened.
pub fn collapse_node(adg: &mut Adg, schedules: &mut [Schedule], victim: NodeId) -> Mutation {
    let mut delta = AdgDelta::new(0);
    let mut recorded = RecordedAdg::new(adg, &mut delta);
    rules::collapse_recorded(&mut recorded, schedules, victim)
}

/// Module-capability pruning (§V-B): drop a capability no mapped schedule
/// needs. Schedules only record hardware ids, so pruning is restricted to
/// PEs no schedule touches at all — and proceeds one capability at a time
/// (one cap of one unused PE per invocation), giving the annealer the
/// chance to reject harmful prunes instead of devastating the
/// spare-capacity pool in one step.
pub fn capability_pruning(adg: &mut Adg, schedules: &[Schedule]) -> Mutation {
    let mut delta = AdgDelta::new(0);
    let mut recorded = RecordedAdg::new(adg, &mut delta);
    rules::capability_pruning_recorded(&mut recorded, schedules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, NodeKind, SysAdg, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, FuCap, KernelBuilder, Op, Suite};
    use overgen_scheduler::schedule;

    #[test]
    fn legacy_registry_has_all_fourteen_rules_in_dispatch_order() {
        let names: Vec<&str> = RuleSet::legacy().names().collect();
        assert_eq!(
            names,
            [
                "add_pe",
                "remove_pe",
                "add_switch",
                "remove_switch",
                "add_edge",
                "remove_edge",
                "add_cap",
                "remove_cap",
                "resize_port",
                "resize_spad",
                "resize_engine_bw",
                "add_engine",
                "remove_engine",
                "resize_delay_fifo",
            ]
        );
        assert_eq!(RuleSet::legacy().len(), 14);
        assert!(!RuleSet::legacy().is_empty());
    }

    #[test]
    fn mutation_kinds_derive_from_registry_entries() {
        // Every mutation's event name is a registered rule's name (Noop
        // aside), read from the registry rather than a parallel table.
        let set = RuleSet::legacy();
        for (m, want) in [
            (Mutation::AddPe, "add_pe"),
            (Mutation::RemovePe, "remove_pe"),
            (Mutation::AddSwitch, "add_switch"),
            (Mutation::RemoveSwitch, "remove_switch"),
            (Mutation::AddEdge, "add_edge"),
            (Mutation::RemoveEdge, "remove_edge"),
            (Mutation::AddCap, "add_cap"),
            (Mutation::RemoveCap, "remove_cap"),
            (Mutation::ResizePort, "resize_port"),
            (Mutation::ResizeSpad, "resize_spad"),
            (Mutation::ResizeEngineBw, "resize_engine_bw"),
            (Mutation::RemoveEngine, "remove_engine"),
            (Mutation::ResizeDelayFifo, "resize_delay_fifo"),
        ] {
            assert_eq!(m.kind(), want);
            assert!(set.names().any(|n| n == m.kind()));
        }
        assert_eq!(Mutation::Noop.kind(), "noop");
    }

    #[test]
    fn benign_subset_never_removes_hardware() {
        let set = RuleSet::legacy();
        for &idx in &set.benign {
            let name = set.rules[idx].name();
            assert!(
                !name.starts_with("remove_"),
                "benign rule {name} removes hardware"
            );
        }
    }

    fn pool() -> Vec<FuCap> {
        vec![
            FuCap::new(Op::Add, DataType::I64),
            FuCap::new(Op::Mul, DataType::I64),
        ]
    }

    fn scheduled_setup() -> (overgen_mdfg::Mdfg, SysAdg, Schedule) {
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
    fn mutations_keep_graph_valid_often() {
        let caps = pool();
        let mut rng = Rng::seed_from_u64(11);
        let mut adg = mesh(&MeshSpec::default());
        let mut schedules = Vec::new();
        let mut ctx = TransformCtx {
            cap_pool: &caps,
            schedules: &mut schedules,
            preserving: false,
        };
        for _ in 0..200 {
            random_mutation(&mut adg, &mut ctx, &mut rng);
        }
        // The graph can transiently be invalid (that is what DSE rejection
        // handles) but must never panic and must keep at least one PE.
        assert!(adg.count_kind(NodeKind::Pe) >= 1);
    }

    #[test]
    fn collapse_rewrites_routes_and_preserves_validity() {
        let (mdfg, mut sys, sched) = scheduled_setup();
        // Find a switch used by some route interior.
        let mut victim = None;
        for path in sched.routes.values() {
            for n in &path[1..path.len().saturating_sub(1)] {
                if sys.adg.kind(*n) == Some(NodeKind::Switch) {
                    victim = Some(*n);
                    break;
                }
            }
        }
        let Some(victim) = victim else {
            // All routes are adjacent; nothing to collapse.
            return;
        };
        let mut schedules = vec![sched];
        collapse_node(&mut sys.adg, &mut schedules, victim);
        // victim gone, routes no longer reference it, links exist.
        assert!(!sys.adg.contains(victim));
        for path in schedules[0].routes.values() {
            assert!(!path.contains(&victim));
            for w in path.windows(2) {
                assert!(sys.adg.has_edge(w[0], w[1]), "bridge edge missing");
            }
        }
        // The schedule must still be repairable as-is (intact fast path).
        let (re, outcome) = overgen_scheduler::repair(&schedules[0], &mdfg, &sys).unwrap();
        assert_eq!(outcome, overgen_scheduler::RepairOutcome::Intact);
        let _ = re;
    }

    #[test]
    fn capability_pruning_shrinks_unused_pes_only() {
        let (_mdfg, mut sys, sched) = scheduled_setup();
        let used = sched.used_adg_nodes();
        let before: usize = sys
            .adg
            .nodes()
            .filter_map(|(_, n)| n.as_pe().map(|p| p.caps.len()))
            .sum();
        capability_pruning(&mut sys.adg, std::slice::from_ref(&sched));
        let after: usize = sys
            .adg
            .nodes()
            .filter_map(|(_, n)| n.as_pe().map(|p| p.caps.len()))
            .sum();
        assert!(after < before, "pruning had no effect");
        // used PEs untouched
        for pe in sys.adg.nodes_of_kind(NodeKind::Pe) {
            if used.contains(&pe) {
                let n = sys.adg.node(pe).unwrap().as_pe().unwrap();
                assert_eq!(n.caps.len(), 3, "used PE was pruned");
            }
        }
    }
}
