//! Property-based tests over the core pipeline, driven by the in-tree
//! deterministic PRNG (`overgen_telemetry::Rng`) so they run with zero
//! external dependencies.

use std::collections::BTreeMap;

use overgen_adg::{mesh, AdgSummary, MeshSpec, SysAdg, SystemParams};
use overgen_compiler::{compile_variants, lower, CompileOptions, LowerChoices};
use overgen_dse::{
    random_mutation, AdgDelta, Dse, DseConfig, ParetoFront, ParetoPoint, RuleSet, TransformCtx,
};
use overgen_ir::{expr, AffineExpr, DataType, Kernel, KernelBuilder, Suite};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{
    repair, repair_with, schedule, RepairOptions, RepairOutcome, Schedule, ScheduleFootprint,
};
use overgen_sim::{simulate, SimConfig};
use overgen_telemetry::Rng;

/// A random but well-formed elementwise kernel.
fn arb_kernel(rng: &mut Rng, tag: usize) -> Kernel {
    let n = rng.gen_range(4u64..=4096);
    let shape = rng.gen_range(0usize..3);
    let dtype = match rng.gen_range(0usize..3) {
        0 => DataType::I16,
        1 => DataType::I64,
        _ => DataType::F64,
    };
    let accum = rng.gen_bool(0.5);
    let value = match shape {
        0 => expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
        1 => expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i")),
        _ => {
            expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i"))
                + expr::load("a", expr::idx("i"))
        }
    };
    let name = format!("rand{tag}");
    let b = KernelBuilder::new(&name, Suite::Dsp, dtype)
        .array_input("a", n)
        .array_input("b", n)
        .array_output("c", n)
        .loop_const("i", n);
    let b = if accum {
        b.accum("c", expr::idx("i"), value)
    } else {
        b.assign("c", expr::idx("i"), value)
    };
    b.build().expect("generated kernel is well formed")
}

/// The invariants any schedule must uphold against the hardware it claims
/// to map onto: complete assignment onto live nodes, exclusive PEs, routes
/// that start/end at assigned nodes and walk real edges.
fn assert_schedule_valid(sched: &Schedule, mdfg: &Mdfg, sys: &SysAdg) {
    assert_eq!(sched.assignment.len(), mdfg.node_count());
    for hw in sched.assignment.values() {
        assert!(sys.adg.contains(*hw), "assignment onto dead node");
    }
    let mut pes = std::collections::BTreeSet::new();
    for (mid, hw) in &sched.assignment {
        if mdfg.node(*mid).unwrap().as_inst().is_some() {
            assert!(pes.insert(*hw), "PE shared by two instructions");
        }
    }
    for ((src, dst), path) in &sched.routes {
        assert_eq!(path[0], sched.assignment[src]);
        assert_eq!(*path.last().unwrap(), sched.assignment[dst]);
        for w in path.windows(2) {
            assert!(sys.adg.has_edge(w[0], w[1]), "route uses missing edge");
        }
    }
}

/// The mapping portion of a schedule (everything except the re-scorable
/// performance estimate).
fn mapping_of(s: &Schedule) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &s.mdfg_name,
        s.variant,
        &s.assignment,
        &s.stream_engines,
        &s.routes,
        &s.placement,
    )
}

#[test]
fn repair_on_unchanged_hardware_is_intact_and_identical() {
    let mut rng = Rng::seed_from_u64(0x9E37);
    let mut exercised = 0;
    for tag in 0..24 {
        let k = arb_kernel(&mut rng, tag);
        let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue; // not every random kernel fits; that is legal
        };
        let (repaired, outcome) = repair(&prior, &mdfg, &sys).expect("intact prior must repair");
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(
            repaired, prior,
            "re-scoring unchanged hardware must be a no-op"
        );
        exercised += 1;
    }
    assert!(exercised >= 12, "only {exercised} kernels scheduled");
}

#[test]
fn repair_after_mutations_yields_valid_schedules() {
    let mut rng = Rng::seed_from_u64(0xDA7A);
    let mut repaired_some = 0;
    for tag in 0..24 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };

        // Mutate the hardware the way the annealer does, keeping the
        // schedule list updated by preserving transforms.
        let mut adg = base;
        let mut schedules = vec![prior];
        for _ in 0..rng.gen_range(1usize..=4) {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            random_mutation(&mut adg, &mut ctx, &mut rng);
        }
        let prior = schedules.pop().unwrap();
        let mutated = SysAdg::new(adg, SystemParams::default());
        if mutated.validate().is_err() {
            continue;
        }

        match repair(&prior, &mdfg, &mutated) {
            Ok((s, RepairOutcome::Intact)) => {
                // Intact = every placement decision survived; routes may
                // still be re-found when a mutation opens a better path.
                assert_eq!(s.mdfg_name, prior.mdfg_name);
                assert_eq!(s.variant, prior.variant);
                assert_eq!(s.assignment, prior.assignment);
                assert_eq!(s.stream_engines, prior.stream_engines);
                assert_eq!(s.placement, prior.placement);
                assert_schedule_valid(&s, &mdfg, &mutated);
                repaired_some += 1;
            }
            Ok((s, RepairOutcome::Repaired { moved })) => {
                // `moved` counts assignment changes; a zero-move repair is
                // legal (e.g. only a route lost an edge) but must still
                // have rewritten *something* in the mapping.
                if moved == 0 {
                    assert!(
                        mapping_of(&s) != mapping_of(&prior),
                        "Repaired outcome left the mapping untouched"
                    );
                }
                assert_schedule_valid(&s, &mdfg, &mutated);
                repaired_some += 1;
            }
            Err(_) => {} // mutation broke the mapping beyond repair; legal
        }
    }
    assert!(repaired_some >= 8, "only {repaired_some} repairs exercised");
}

/// The repair engine's core contract: for any random mutation sequence,
/// the incremental fast path and a forced full re-placement produce the
/// *same* schedule — same validity, same mapping, same estimated latency
/// (bit-identical IPC), same outcome classification.
#[test]
fn incremental_repair_equals_full_replacement() {
    let mut rng = Rng::seed_from_u64(0x1C4E);
    let mut compared = 0;
    for tag in 0..32 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };

        let mut adg = base;
        let mut schedules = vec![prior];
        let mut footprint = ScheduleFootprint::Pure;
        for _ in 0..rng.gen_range(1usize..=4) {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            let (_, fp) = random_mutation(&mut adg, &mut ctx, &mut rng);
            footprint = footprint.merge(fp);
        }
        let prior = schedules.pop().unwrap();
        let mutated = SysAdg::new(adg, SystemParams::default());
        if mutated.validate().is_err() {
            continue;
        }

        let opts = |incremental| RepairOptions {
            incremental,
            footprint: Some(footprint),
            scope: None,
        };
        let fast = repair_with(&prior, &mdfg, &mutated, &opts(true));
        let full = repair_with(&prior, &mdfg, &mutated, &opts(false));
        match (fast, full) {
            (Ok((fs, fo)), Ok((gs, go))) => {
                assert_eq!(fo, go, "outcome classification diverged");
                assert_eq!(
                    fs.est.ipc.to_bits(),
                    gs.est.ipc.to_bits(),
                    "estimated latency diverged"
                );
                assert_eq!(fs, gs, "incremental repair != full re-placement");
                assert_schedule_valid(&fs, &mdfg, &mutated);
                compared += 1;
            }
            (Err(_), Err(_)) => {} // both modes agree the mapping is dead
            (a, b) => panic!(
                "repair modes disagree on schedulability: fast={:?} full={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    assert!(compared >= 10, "only {compared} repairs compared");
}

/// The rewrite engine's inference contract: for any seeded sequence of
/// random rule applications, the footprint inferred from the recorded
/// delta is never weaker than the rule's legacy hand classification —
/// i.e. a repair driven by the inferred class always scans at least as
/// much as the hand-maintained one would have.
#[test]
fn inferred_footprint_dominates_hand_classification() {
    let mut rng = Rng::seed_from_u64(0xF007);
    let set = RuleSet::legacy();
    let mut applied = 0;
    for tag in 0..16 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(&k, 0, &LowerChoices::default()).unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };
        let mut adg = base;
        let mut schedules = vec![prior];
        for step in 0..12u64 {
            let preserving = rng.gen_bool(0.5);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            let app = set.apply_random(&mut adg, &mut ctx, &mut rng, step);
            assert!(
                app.inferred >= app.hand,
                "rule {} inferred {:?} weaker than hand {:?}",
                app.rule,
                app.inferred,
                app.hand
            );
            // A pure inference must come from an empty recorded delta —
            // that pair is what licenses the scheduler's scoped exit.
            if app.inferred == ScheduleFootprint::Pure {
                assert!(app.delta.is_empty(), "pure inference from non-empty delta");
            }
            applied += 1;
        }
    }
    assert!(applied >= 100, "only {applied} rule applications checked");
}

/// Repair driven by the delta-derived scope must be observationally
/// identical to the unscoped incremental repair *and* to a full forced
/// re-placement: same outcome class, bit-identical schedule.
#[test]
fn scoped_repair_equals_unscoped_and_full_reschedule() {
    let mut rng = Rng::seed_from_u64(0x5C0B);
    let set = RuleSet::legacy();
    let mut compared = 0;
    for tag in 0..32 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };

        let mut adg = base;
        let mut schedules = vec![prior];
        let mut footprint = ScheduleFootprint::Pure;
        let mut delta = AdgDelta::new(0);
        for step in 0..rng.gen_range(1u64..=4) {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            let app = set.apply_random(&mut adg, &mut ctx, &mut rng, step);
            footprint = footprint.merge(app.inferred);
            delta.absorb(&app.delta);
        }
        let prior = schedules.pop().unwrap();
        let mutated = SysAdg::new(adg, SystemParams::default());
        if mutated.validate().is_err() {
            continue;
        }

        let opts = |incremental, scope| RepairOptions {
            incremental,
            footprint: Some(footprint),
            scope,
        };
        let scoped = repair_with(&prior, &mdfg, &mutated, &opts(true, Some(delta.scope())));
        let unscoped = repair_with(&prior, &mdfg, &mutated, &opts(true, None));
        let full = repair_with(&prior, &mdfg, &mutated, &opts(false, None));
        match (scoped, unscoped, full) {
            (Ok((ss, so)), Ok((us, uo)), Ok((fs, fo))) => {
                assert_eq!(so, uo, "scope changed the outcome classification");
                assert_eq!(ss, us, "scoped repair != unscoped repair");
                assert_eq!(so, fo, "incremental outcome != full outcome");
                assert_eq!(ss, fs, "scoped repair != full re-placement");
                assert_schedule_valid(&ss, &mdfg, &mutated);
                compared += 1;
            }
            (Err(_), Err(_), Err(_)) => {} // all three agree the mapping is dead
            (a, b, c) => panic!(
                "repair modes disagree on schedulability: scoped={:?} unscoped={:?} full={:?}",
                a.is_ok(),
                b.is_ok(),
                c.is_ok()
            ),
        }
    }
    assert!(compared >= 10, "only {compared} repairs compared");
}

#[test]
fn cached_evaluations_equal_fresh_evaluations() {
    // Identical configs except for the cache must walk identical
    // trajectories and land on bit-identical results: a cache hit is
    // observationally a fresh evaluation.
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    for tag in 0..3 {
        let k = arb_kernel(&mut rng, tag);
        let mk_cfg = |cache: bool| DseConfig {
            iterations: 8,
            seed: 0xBEEF + tag as u64,
            cache,
            compile: CompileOptions {
                max_unroll: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let on = Dse::new(vec![k.clone()], mk_cfg(true)).run().unwrap();
        let off = Dse::new(vec![k], mk_cfg(false)).run().unwrap();
        assert_eq!(on.objective.to_bits(), off.objective.to_bits());
        assert_eq!(on.history, off.history);
        assert_eq!(on.variants, off.variants);
        assert_eq!(on.schedules, off.schedules);
        assert_eq!(
            on.sys_adg.fingerprint(),
            off.sys_adg.fingerprint(),
            "cache changed the chosen hardware"
        );
        assert_eq!((off.stats.cache_hits, off.stats.cache_misses), (0, 0));
    }
}

#[test]
fn dse_stats_account_every_cache_lookup() {
    let mut rng = Rng::seed_from_u64(0x10CA);
    let k = arb_kernel(&mut rng, 99);
    let cfg = DseConfig {
        iterations: 12,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = Dse::new(vec![k], cfg).run().unwrap();
    // one lookup per annealing iteration plus the seed evaluation(s)
    assert!(r.stats.cache_hits + r.stats.cache_misses > r.stats.iterations);
    assert!(r.stats.cache_misses >= 1);
}

/// The Pareto frontier's algebraic contract over random point clouds:
/// the survivors are exactly the non-dominated subset of the input, the
/// canonical result is independent of insertion order, and merging split
/// halves equals building from the whole.
#[test]
fn pareto_front_is_the_non_dominated_subset_in_canonical_order() {
    // Externally-checked dominance, mirroring the documented semantics
    // (IPC maximized, all four resource channels minimized).
    fn dominates(p: &ParetoPoint, q: &ParetoPoint) -> bool {
        let no_worse = p.ipc >= q.ipc
            && p.resources.lut <= q.resources.lut
            && p.resources.ff <= q.resources.ff
            && p.resources.bram <= q.resources.bram
            && p.resources.dsp <= q.resources.dsp;
        no_worse && (p != q)
    }

    let mut rng = Rng::seed_from_u64(0x9A12_E701);
    for round in 0..48 {
        // Coarse grid coordinates so domination, ties, and exact
        // duplicates all actually occur in the sample.
        let n = rng.gen_range(1usize..=40);
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let mut q = |scale: f64| rng.gen_range(0u64..6) as f64 * scale;
            pts.push(ParetoPoint::new(
                q(0.5),
                overgen_model::Resources {
                    lut: q(1000.0),
                    ff: q(500.0),
                    bram: q(8.0),
                    dsp: q(4.0),
                },
            ));
        }

        let front = ParetoFront::from_points(pts.iter().copied());
        assert!(!front.is_empty(), "round {round}: nonempty input");
        for (i, p) in front.points().iter().enumerate() {
            assert!(pts.contains(p), "round {round}: frontier invented a point");
            assert!(
                !pts.iter().any(|q| dominates(q, p)),
                "round {round}: point {i} is dominated by an input point"
            );
        }
        for p in &pts {
            assert!(
                front.points().contains(p) || front.points().iter().any(|q| dominates(q, p)),
                "round {round}: input point dropped without a dominator"
            );
        }
        for w in front.points().windows(2) {
            assert!(w[0].ipc >= w[1].ipc, "round {round}: order broken");
            assert_ne!(w[0], w[1], "round {round}: duplicate survived");
        }

        // Insertion-order independence: a Fisher-Yates shuffle must land
        // on the identical canonical frontier.
        let mut shuffled = pts.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0usize..=i));
        }
        assert_eq!(
            front,
            ParetoFront::from_points(shuffled),
            "round {round}: frontier depends on insertion order"
        );

        // Merge of split halves equals the frontier of the whole.
        let mid = pts.len() / 2;
        let mut left = ParetoFront::from_points(pts[..mid].iter().copied());
        left.merge(&ParetoFront::from_points(pts[mid..].iter().copied()));
        assert_eq!(front, left, "round {round}: merge diverged");
    }
}

/// A prior schedule for workload maps survives round-tripping through the
/// DSE result: every returned schedule satisfies the validity invariants
/// on the returned hardware.
#[test]
fn dse_results_carry_valid_schedules() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    let k = arb_kernel(&mut rng, 7);
    let cfg = DseConfig {
        iterations: 6,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = Dse::new(vec![k], cfg).run().unwrap();
    let by_variant: BTreeMap<&String, u32> = r.variants.iter().map(|(k, v)| (k, *v)).collect();
    for (name, sched) in &r.schedules {
        let variant = by_variant[name];
        let mdfg = r.mdfgs[name]
            .iter()
            .find(|m| m.variant() == variant)
            .expect("chosen variant exists");
        assert_schedule_valid(sched, mdfg, &r.sys_adg);
    }
}

/// The analytic steady-state model is a true lower bound: for seeded
/// random (kernel, schedule, system-grid-point) pairs, the closed-form
/// cycle count never exceeds what the cycle-stepped simulator reports
/// (and its IPC upper bound never undercuts the simulated IPC). This is
/// the soundness property the system-DSE pruning rests on (DESIGN.md
/// §12).
#[test]
fn analytic_bound_never_exceeds_simulated_cycles() {
    use overgen_sim::analytic_cycles;

    let mut rng = Rng::seed_from_u64(0xA11A1);
    let banks = [2u32, 4, 8, 16];
    let kbs = [16u32, 256, 512, 1024, 2048];
    let nocs = [16u32, 32, 64, 128];
    let mut exercised = 0;
    for tag in 0..20 {
        let k = arb_kernel(&mut rng, tag);
        let adg = mesh(&MeshSpec::general());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let sys0 = SysAdg::new(adg.clone(), SystemParams::default());
        let Ok(sched) = schedule(&mdfg, &sys0, None) else {
            continue; // not every random kernel fits; that is legal
        };
        for _ in 0..4 {
            let sys = SystemParams {
                tiles: rng.gen_range(1u32..=16),
                l2_banks: banks[rng.gen_range(0usize..banks.len())],
                l2_kb: kbs[rng.gen_range(0usize..kbs.len())],
                noc_bw_bytes: nocs[rng.gen_range(0usize..nocs.len())],
                dram_channels: rng.gen_range(1u32..=4),
            };
            let sys_adg = SysAdg::new(adg.clone(), sys);
            let cfg = SimConfig::default();
            let lb = analytic_cycles(&mdfg, &sched, &sys_adg, &cfg);
            let r = simulate(&mdfg, &sched, &sys_adg, &cfg);
            assert!(
                lb <= r.cycles,
                "{}: analytic {lb} > simulated {} at {sys:?}",
                k.name(),
                r.cycles
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 40, "only {exercised} pairs exercised");
}

#[test]
fn compile_variants_always_validate() {
    let mut rng = Rng::seed_from_u64(0xC0DE);
    for tag in 0..48 {
        let k = arb_kernel(&mut rng, tag);
        let vs = compile_variants(&k, &CompileOptions::default()).unwrap();
        assert!(!vs.is_empty());
        for v in &vs {
            v.validate().unwrap();
            // unrolls never exceed the innermost trip count
            assert!(u64::from(v.unroll()) <= k.nest().innermost().unwrap().trip.max());
            // firing count covers the iteration space
            assert!(v.firings() * f64::from(v.unroll()) >= k.total_iterations());
        }
    }
}

#[test]
fn schedule_assignments_are_exclusive_and_complete() {
    let mut rng = Rng::seed_from_u64(0x5C4E);
    let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
    let mut exercised = 0;
    for tag in 0..48 {
        let k = arb_kernel(&mut rng, tag);
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(sched) = schedule(&mdfg, &sys, None) else {
            continue; // not every random kernel fits; that is legal
        };
        assert_schedule_valid(&sched, &mdfg, &sys);
        exercised += 1;
    }
    assert!(exercised >= 24, "only {exercised} kernels scheduled");
}

#[test]
fn simulation_terminates_and_conserves_work() {
    let mut rng = Rng::seed_from_u64(0x51F7);
    let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
    for tag in 0..48 {
        let k = arb_kernel(&mut rng, tag);
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(sched) = schedule(&mdfg, &sys, None) else {
            continue;
        };
        let r = simulate(&mdfg, &sched, &sys, &SimConfig::default());
        assert!(!r.truncated);
        // all firings delivered for this tile's share
        let tiles = u64::from(sys.sys.tiles);
        assert_eq!(r.firings, (mdfg.firings() as u64).div_ceil(tiles));
        // IPC is bounded by the theoretical peak
        assert!(r.ipc <= mdfg.insts_per_firing() * tiles as f64 + 1e-9);
    }
}

#[test]
fn affine_range_contains_samples() {
    let mut rng = Rng::seed_from_u64(0xAFF1);
    for _ in 0..256 {
        let c0 = rng.gen_range(-50i64..50);
        let c1 = rng.gen_range(-4i64..4);
        let c2 = rng.gen_range(-4i64..4);
        let n1 = rng.gen_range(1u64..40);
        let n2 = rng.gen_range(1u64..40);
        let e = (AffineExpr::var("x").scaled(c1) + AffineExpr::var("y").scaled(c2)).offset(c0);
        let extent = |v: &str| match v {
            "x" => Some(n1),
            "y" => Some(n2),
            _ => None,
        };
        let (lo, hi) = e.value_range(&extent);
        for x in [0, (n1 - 1) / 2, n1 - 1] {
            for y in [0, (n2 - 1) / 2, n2 - 1] {
                let env =
                    BTreeMap::from([("x".to_string(), x as i64), ("y".to_string(), y as i64)]);
                let v = e.eval(&env);
                assert!(v >= lo && v <= hi, "{v} outside [{lo},{hi}]");
            }
        }
    }
}

#[test]
fn mesh_specs_always_build_valid_graphs() {
    let mut rng = Rng::seed_from_u64(0x3E54);
    for _ in 0..64 {
        let (rows, cols) = (rng.gen_range(1usize..5), rng.gen_range(1usize..6));
        let in_ports = rng.gen_range(1usize..8);
        let width = [8u16, 16, 32, 64][rng.gen_range(0usize..4)];
        let spec = MeshSpec {
            rows,
            cols,
            in_ports,
            out_ports: rng.gen_range(1usize..6),
            port_width_bytes: width,
            ..MeshSpec::default()
        };
        let adg = mesh(&spec);
        adg.validate().unwrap();
        let s = AdgSummary::of(&adg);
        assert_eq!(s.pes, rows * cols);
        assert_eq!(s.switches, (rows + 1) * (cols + 1));
        assert_eq!(s.in_port_bw, in_ports as u64 * u64::from(width));
    }
}
