//! OverGen end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin            # print pins.txt for the current program
//! ```
//!
//! Every run builds its inputs from `--seed`, sets the workload up many
//! times (reporting the median as `setup_s`), measures for `--seconds`,
//! checks every output against `pins.txt` or against an independent path,
//! and prints one JSON object as its last line of stdout. With
//! `--trace 0` it reports the end-to-end metrics, measured with nothing
//! installed in the library; with `--trace 1` it replays the workload
//! through the crates' public calls under the benchmark's own spans and
//! reports the per-layer metrics. Any failed check exits with code 1.
//! See `README.md` for the metric definitions.

mod metrics;
mod pins;
mod stats;
mod trace;
mod wl;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pins::Checker;
use stats::{median, percentile};
use trace::Tracer;

/// Set-ups are timed in bursts spread over the measured run: one before it
/// and one per op or pass, each of at least `BURST_REPS` set-ups and
/// `BURST_MIN_S` seconds. `setup_s` is the median of them all. The host's
/// speed drifts from second to second, so set-ups taken in one window
/// report that window's speed; spread over the run, their median is the
/// run's.
const BURST_REPS: usize = 3;
const BURST_MIN_S: f64 = 0.002;

/// Result of an untraced measurement.
pub struct Measured {
    pub check: Checker,
    /// Units of work completed per second of measured time.
    pub throughput_per_s: f64,
    /// Per-op latencies in ms, the population of `op_p50_ms`/`op_p90_ms`.
    pub op_ms: Vec<f64>,
    /// The workload's deterministic result quality, in IPC.
    pub result_ipc: f64,
    /// Workload-specific figures for the human-readable report.
    pub report: Vec<(&'static str, f64, &'static str)>,
}

/// Result of a traced measurement.
pub struct Traced {
    pub check: Checker,
    /// Ops run under the tracer.
    pub ops: u64,
    /// Wall seconds of the same ops with the tracer off and on.
    pub untraced_s: f64,
    pub traced_s: f64,
    pub tracer: Tracer,
    /// Workload-specific per-layer metrics; the rest read 0.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run-wide facts recorded with every result.
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    /// Directory for files the run writes (service roots, spans).
    pub work: PathBuf,
}

/// One benchmark workload.
pub trait Workload {
    const NAME: &'static str;
    /// DSE threads, DSE chains and service workers the workload uses.
    const PARALLELISM: (usize, usize, usize);
    type Input;
    /// Build the inputs; timed as `setup_s`.
    fn setup(info: &RunInfo) -> Self::Input;
    /// Measure for `info.seconds`, calling `setups` once per op or pass.
    fn measure(input: &mut Self::Input, info: &RunInfo, setups: &mut dyn FnMut()) -> Measured;
    fn traced(input: &mut Self::Input, info: &RunInfo) -> Traced;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Switches that silently change the work the library does. The timed
/// runs refuse them rather than report numbers nobody can compare.
fn hidden_switches() -> Vec<String> {
    let mut found = Vec::new();
    if let Ok(v) = std::env::var("OVERGEN_SIM_ORACLE") {
        if matches!(v.as_str(), "1" | "true" | "yes") {
            found.push(format!(
                "OVERGEN_SIM_ORACLE={v} (doubles every simulator sweep)"
            ));
        }
    }
    if let Ok(v) = std::env::var("OVERGEN_REPAIR") {
        if v == "0" {
            found.push("OVERGEN_REPAIR=0 (full placement beside every repair)".into());
        }
    }
    found
}

/// Peak resident set of this process (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(check: &Checker, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{n}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                metrics::unit(n)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    )
}

/// One burst of timed set-ups; each result is dropped untimed.
fn setup_burst<W: Workload>(info: &RunInfo, times: &mut Vec<f64>) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < BURST_REPS || start.elapsed().as_secs_f64() < BURST_MIN_S {
        let t = Instant::now();
        let input = W::setup(info);
        times.push(t.elapsed().as_secs_f64());
        drop(input);
        reps += 1;
    }
}

fn run<W: Workload>(args: &Args) -> i32 {
    let info = RunInfo {
        seed: args.seed,
        seconds: args.seconds,
        work: PathBuf::from(".bench_work").join(format!("{}-{}", W::NAME, std::process::id())),
    };
    let (threads, chains, workers) = W::PARALLELISM;
    println!(
        "workload {} seed {} seconds {} trace {} | dse threads {threads} chains {chains} \
         service workers {workers} | available cores {}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    let mut setup_s = Vec::new();
    let mut input = W::setup(&info);
    setup_burst::<W>(&info, &mut setup_s);

    let (check, values) = if args.trace {
        let t = W::traced(&mut input, &info);
        let spans_path =
            PathBuf::from(".bench_work").join(format!("spans-{}-seed{}.jsonl", W::NAME, args.seed));
        if let Err(e) = t.tracer.write_jsonl(&spans_path) {
            eprintln!("warning: cannot write {}: {e}", spans_path.display());
        }
        let ops = t.ops.max(1) as f64;
        let self_ns = t.tracer.self_ns_by_layer();
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _, _) in metrics::PER_LAYER {
            let v = match name.strip_suffix(".self_ms_per_op") {
                Some(layer) => self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / ops,
                None => 0.0,
            };
            values.insert(name, v);
        }
        values.insert("trace.overhead_share", t.traced_s / t.untraced_s - 1.0);
        values.insert(
            "trace.unattributed_share",
            1.0 - t.tracer.covered_ns() as f64 / 1e9 / t.traced_s,
        );
        values.insert("trace.spans_per_op", t.tracer.spans().len() as f64 / ops);
        for (k, v) in &t.layers {
            assert!(values.contains_key(k), "{k} is not a per-layer metric");
            values.insert(k, *v);
        }
        println!(
            "traced {} ops: untraced {:.3} s, traced {:.3} s, {} spans -> {}",
            t.ops,
            t.untraced_s,
            t.traced_s,
            t.tracer.spans().len(),
            spans_path.display()
        );
        let values: Vec<(&str, f64)> = metrics::PER_LAYER
            .iter()
            .map(|(n, _, _)| (*n, values[n]))
            .collect();
        (t.check, values)
    } else {
        let m = W::measure(&mut input, &info, &mut || {
            setup_burst::<W>(&info, &mut setup_s)
        });
        let success = (m.check.attempted - m.check.failed) as f64 / m.check.attempted.max(1) as f64;
        let values = vec![
            ("setup_s", median(&setup_s)),
            ("throughput_per_s", m.throughput_per_s),
            ("op_p50_ms", percentile(&m.op_ms, 0.5)),
            ("op_p90_ms", percentile(&m.op_ms, 0.9)),
            ("result_ipc", m.result_ipc),
            ("peak_rss_mb", peak_rss_mb()),
            ("success_rate", success),
        ];
        for (n, v, u) in &m.report {
            println!("  {n:<24} {v:>14.6} {u}");
        }
        println!(
            "  {:<24} {:>14.6} ratio   ({} of {} checked ops failed)",
            "error_rate",
            m.check.failed as f64 / m.check.attempted.max(1) as f64,
            m.check.failed,
            m.check.attempted
        );
        (m.check, values)
    };
    drop(input);
    let _ = std::fs::remove_dir_all(&info.work);
    for (n, v) in &values {
        println!("  {n:<34} {v:>14.6} {}", metrics::unit(n));
    }
    println!(
        "  ({} timed set-ups: q1 {:.3e} s, q3 {:.3e} s)",
        setup_s.len(),
        percentile(&setup_s, 0.25),
        percentile(&setup_s, 0.75)
    );
    println!("{}", json_line(&check, &values));
    i32::from(check.failed > 0)
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            wl::print_pins();
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --pin"
            );
            std::process::exit(2);
        }
    };
    let switches = hidden_switches();
    if !switches.is_empty() {
        eprintln!("refusing to run: {}", switches.join("; "));
        std::process::exit(2);
    }
    let code = match args.workload.as_str() {
        wl::dse::DseMachsuite::NAME => run::<wl::dse::DseMachsuite>(&args),
        wl::onboard::OnboardGeneral::NAME => run::<wl::onboard::OnboardGeneral>(&args),
        wl::service::ServiceStore::NAME => run::<wl::service::ServiceStore>(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            2
        }
    };
    std::process::exit(code);
}
