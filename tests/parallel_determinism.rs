//! The parallel DSE contract: worker threads change wall-clock only.
//! For a fixed seed, any `threads` value must produce bit-identical
//! results AND byte-identical deterministic-clock JSONL traces. Threads
//! run chains concurrently (each chain's trace is captured on its worker
//! and replayed in chain order); a proposal's evaluation is serial.

use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseResult};
use overgen_telemetry::Collector;
use overgen_workloads as workloads;

/// One traced DSE run over the fir workload with the given parallelism.
fn traced_dse(threads: usize, chains: usize, iterations: usize) -> (DseResult, String) {
    traced_dse_exchanging(threads, chains, iterations, 25)
}

/// [`traced_dse`] with an explicit best-state exchange interval.
fn traced_dse_exchanging(
    threads: usize,
    chains: usize,
    iterations: usize,
    exchange_interval: usize,
) -> (DseResult, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);

    let cfg = DseConfig {
        iterations,
        seed: 0xDE7E12, // deterministic: same seed for every run
        threads,
        chains,
        exchange_interval,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let domain = vec![workloads::by_name("fir").unwrap()];
    let result = Dse::new(domain, cfg).run().unwrap();
    (result, ring.to_jsonl())
}

/// Comparable view of a run: objective bits, ADG fingerprint, annealing
/// history, and chosen variants.
type Digest = (u64, u64, Vec<(u64, u64)>, Vec<(String, u32)>);

/// Everything observable about a run, in comparable form.
fn digest(r: &DseResult) -> Digest {
    (
        r.objective.to_bits(),
        r.sys_adg.fingerprint(),
        r.history
            .iter()
            .map(|(h, o)| (h.to_bits(), o.to_bits()))
            .collect(),
        r.variants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
    )
}

#[test]
fn worker_count_is_invisible_to_multi_chain_runs() {
    // chains=4 explores a different trajectory than chains=1 (that is the
    // point of the island model) — but the trajectory must not depend on
    // how many workers execute it.
    let (one_worker, trace_one) = traced_dse(1, 4, 12);
    let (four_workers, trace_four) = traced_dse(4, 4, 12);
    assert_eq!(digest(&one_worker), digest(&four_workers));
    assert_eq!(one_worker.schedules, four_workers.schedules);
    assert_eq!(one_worker.stats, four_workers.stats);
    assert_eq!(trace_one, trace_four);

    // Multi-chain accounting: every chain runs `iterations` proposals.
    assert_eq!(one_worker.stats.iterations, 4 * 12);
    // Simulated DSE hours are the max over concurrent chains (not the
    // sum): four chains must cost far less than four sequential runs.
    let (single_chain, _) = traced_dse(1, 1, 12);
    assert!(one_worker.dse_hours < single_chain.dse_hours * 3.0 + 1e-9);
}

#[test]
fn chain_count_changes_exploration_but_not_determinism() {
    // Re-running the same multi-chain config reproduces itself exactly.
    let (a, ta) = traced_dse_exchanging(2, 3, 10, 4);
    let (b, tb) = traced_dse_exchanging(2, 3, 10, 4);
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(ta, tb);
    // Chains derive distinct seeds from Rng::split, so the exchange
    // events must appear in the trace.
    assert!(
        ta.contains("dse.exchange"),
        "multi-chain run emitted no exchange events"
    );
}

#[test]
fn long_runs_hit_the_evaluation_cache() {
    // An annealer revisits designs (rejected proposals return to the
    // current state); with 150 iterations the fingerprint-keyed cache
    // must see real traffic.
    let (r, _) = traced_dse(1, 1, 150);
    assert!(
        r.stats.cache_hits > 0,
        "150 iterations produced zero cache hits"
    );
    assert_eq!(
        r.stats.cache_hits + r.stats.cache_misses,
        r.stats.iterations + 1,
        "every proposal plus the seed must be exactly one cache lookup"
    );
}
