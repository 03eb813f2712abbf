//! The metric tables. `BENCHMARK.json` lists the same names, units and
//! directions; `steadiness.py` checks that the two agree.

/// `(name, unit, better)` of every end-to-end metric, printed on every
/// untraced run. Each workload defines its own unit of work ("op").
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("result_ipc", "IPC", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("success_rate", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, printed on every
/// traced run. A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("adg.self_ms_per_op", "ms", "lower"),
    ("compiler.self_ms_per_op", "ms", "lower"),
    ("dse.self_ms_per_op", "ms", "lower"),
    ("model.self_ms_per_op", "ms", "lower"),
    ("scheduler.self_ms_per_op", "ms", "lower"),
    ("service.self_ms_per_op", "ms", "lower"),
    ("sim.self_ms_per_op", "ms", "lower"),
    ("adg.validate_us", "us", "lower"),
    ("adg.sysadg_new_us", "us", "lower"),
    ("adg.fingerprint_us", "us", "lower"),
    ("compiler.compile_variants_ms", "ms", "lower"),
    ("compiler.variants", "count", "lower"),
    ("compiler.mdfg_nodes", "count", "lower"),
    ("scheduler.schedule_ms_p50", "ms", "lower"),
    ("scheduler.schedule_ms_p90", "ms", "lower"),
    ("scheduler.variant_tries", "count", "lower"),
    ("scheduler.repair_us_p50", "us", "lower"),
    ("scheduler.repair_us_p90", "us", "lower"),
    ("scheduler.repair_fast_share", "ratio", "higher"),
    ("model.breakdown_us", "us", "lower"),
    ("model.breakdown_calls_per_proposal", "count", "lower"),
    ("model.estimate_ipc_us", "us", "lower"),
    ("dse.rewrite.apply_us", "us", "lower"),
    ("dse.rewrite.valid_share", "ratio", "higher"),
    ("dse.system.call_ms_p50", "ms", "lower"),
    ("dse.system.call_ms_p90", "ms", "lower"),
    ("dse.system.feasible_share", "ratio", "higher"),
    ("dse.eval.cache_hit_rate", "ratio", "higher"),
    ("dse.store.open_ms", "ms", "lower"),
    ("dse.store.hit_rate", "ratio", "higher"),
    ("dse.store.publishes", "count", "lower"),
    ("sim.simulate_ms_p50", "ms", "lower"),
    ("sim.simulate_ms_p90", "ms", "lower"),
    ("sim.ns_per_sim_cycle", "ns", "lower"),
    ("service.submit_us", "us", "lower"),
    ("service.cold_job_ms_p50", "ms", "lower"),
    ("service.warm_job_ms_p50", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
];

/// Unit of a metric in either table.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

#[cfg(test)]
mod tests {
    use overgen_telemetry::json::{parse, Value};

    /// `(name, unit, better)` of one table in `BENCHMARK.json`.
    fn listed(bench: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Arr(items)) = bench.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let bench = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", super::END_TO_END),
            ("per_layer", super::PER_LAYER),
        ] {
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed(&bench, key), ours, "{key}");
        }
    }
}
