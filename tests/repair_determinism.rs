//! The repair fast path's coverage bar. That the fast path is invisible
//! (identical results, counters and traces to a full placement) is checked
//! on every debug-build repair by the oracle in `repair_with`, whose
//! silence the scheduler's `verification_path_is_silent_and_matches_fast_path`
//! unit test pins.

use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig};
use overgen_workloads as workloads;

#[test]
fn fast_path_carries_most_accepted_proposals() {
    // The incremental fast path must handle at least half of all
    // per-workload scheduling decisions in a preserving DSE run.
    let cfg = DseConfig {
        iterations: 60,
        seed: 0x4E0A_14D5,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let domain = vec![workloads::by_name("fir").unwrap()];
    let r = Dse::new(domain, cfg).run().unwrap();
    let decisions = r.stats.repair_fast + r.stats.repair_fallback + r.stats.full_schedules;
    assert!(
        r.stats.repair_fast * 2 >= decisions,
        "fast path carried only {}/{} scheduling decisions",
        r.stats.repair_fast,
        decisions
    );
}
