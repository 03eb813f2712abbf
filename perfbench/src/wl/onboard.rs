//! `onboard-general`: the application developer's path. Every paper kernel
//! is compiled onto the hand-designed General Overlay and simulated, pass
//! after pass in seeded orders. One op is one application (compile +
//! simulate); no system DSE runs.

use std::time::Instant;

use overgen::Overlay;
use overgen_compiler::compile_variants;
use overgen_ir::Kernel;
use overgen_scheduler::schedule;
use overgen_sim::{simulate, SimConfig, SimReport};

use super::secs;
use crate::pins::Checker;
use crate::stats::{best, geomean, median, percentile, SeedRng};
use crate::trace::Tracer;
use crate::{Measured, RunInfo, Traced, Workload};

pub struct OnboardGeneral;

pub struct Input {
    overlay: Overlay,
    kernels: Vec<Kernel>,
    rng: SeedRng,
}

/// The pinned output of one application: its simulated cycles.
pub fn fmt_report(r: &SimReport) -> String {
    format!("cycles={} truncated={}", r.cycles, r.truncated)
}

/// One application through the overlay's public compile path, each call
/// under its own span: the variants widest-first until one schedules, then
/// the simulator. Returns the report and the variants tried.
fn app(overlay: &Overlay, k: &Kernel, tr: &mut Tracer, tally: &mut Tally) -> SimReport {
    let variants = tr
        .span("compiler.compile_variants", || {
            compile_variants(k, &overlay.compile_opts)
        })
        .expect("paper kernels compile");
    tally.variants += variants.len();
    tally.nodes += variants.iter().map(|v| v.node_count()).sum::<usize>();
    for v in variants {
        tally.tries += 1;
        if let Ok(s) = tr.span("scheduler.schedule", || {
            schedule(&v, &overlay.sys_adg, None)
        }) {
            let r = tr.span("sim.simulate", || {
                simulate(&v, &s, &overlay.sys_adg, &SimConfig::default())
            });
            tally.cycles += r.cycles;
            return r;
        }
    }
    panic!(
        "{} has no variant that maps onto the general overlay",
        k.name()
    );
}

#[derive(Default)]
struct Tally {
    apps: usize,
    variants: usize,
    nodes: usize,
    tries: usize,
    cycles: u64,
}

impl Workload for OnboardGeneral {
    const NAME: &'static str = "onboard-general";
    const PARALLELISM: (usize, usize, usize) = (0, 0, 0);
    type Input = Input;

    fn setup(info: &RunInfo) -> Input {
        Input {
            overlay: Overlay::general(),
            kernels: overgen_workloads::all(),
            rng: SeedRng::new(info.seed),
        }
    }

    fn measure(input: &mut Input, info: &RunInfo, setups: &mut dyn FnMut()) -> Measured {
        let mut check = Checker::default();
        let n = input.kernels.len();
        let (mut apps, mut busy_ms) = (0, 0.0);
        let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut ipc = vec![0.0; n];
        let mut sim_ms = 0.0;
        let start = Instant::now();
        // The first pass always completes, so every kernel is checked.
        'passes: for pass in 0.. {
            setups();
            for i in input.rng.permutation(n) {
                if pass > 0 && secs(start) >= info.seconds {
                    break 'passes;
                }
                let k = &input.kernels[i];
                let t = Instant::now();
                let compiled = input
                    .overlay
                    .compile(k)
                    .expect("general overlay compiles every kernel");
                let c = secs(t);
                let r = input.overlay.execute(&compiled);
                let total = secs(t);
                sim_ms += (total - c) * 1e3;
                apps += 1;
                busy_ms += total * 1e3;
                per_kernel[i].push(total * 1e3);
                check.pinned(&format!("onboard {}", k.name()), &fmt_report(&r));
                ipc[i] = r.ipc;
            }
        }
        // Each kernel counts once, at its best time (see `stats::best`).
        let op_ms: Vec<f64> = per_kernel.iter().map(|t| best(t)).collect();
        let apps_per_s = n as f64 / (op_ms.iter().sum::<f64>() / 1e3);
        Measured {
            check,
            throughput_per_s: apps_per_s,
            result_ipc: geomean(&ipc),
            report: vec![
                ("apps_per_s", apps_per_s, "1/s"),
                ("app_p50_ms", median(&op_ms), "ms"),
                ("app_p90_ms", percentile(&op_ms, 0.9), "ms"),
                ("sim_ipc_geomean", geomean(&ipc), "IPC"),
                ("apps", apps as f64, "count"),
                ("sim_share", sim_ms / busy_ms, "ratio"),
            ],
            op_ms,
        }
    }

    fn traced(input: &mut Input, info: &RunInfo) -> Traced {
        let mut check = Checker::default();
        let mut tracer = Tracer::new(true);
        let mut tally = Tally::default();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let start = Instant::now();
        // Pairs of identical passes, tracer off then on, until time is up.
        while traced_s == 0.0 || secs(start) < info.seconds {
            let order = input.rng.permutation(input.kernels.len());
            let mut off = Tracer::new(false);
            let t = Instant::now();
            for &i in &order {
                app(
                    &input.overlay,
                    &input.kernels[i],
                    &mut off,
                    &mut Tally::default(),
                );
            }
            untraced_s += secs(t);
            let t = Instant::now();
            for &i in &order {
                let k = &input.kernels[i];
                let r = app(&input.overlay, k, &mut tracer, &mut tally);
                tally.apps += 1;
                check.pinned(&format!("onboard {}", k.name()), &fmt_report(&r));
            }
            traced_s += secs(t);
        }
        let apps = tally.apps.max(1) as f64;
        let sim_us = tracer.durations_us("sim.simulate");
        let sched_us = tracer.durations_us("scheduler.schedule");
        let layers = [
            (
                "compiler.compile_variants_ms",
                median(&tracer.durations_us("compiler.compile_variants")) / 1e3,
            ),
            ("compiler.variants", tally.variants as f64 / apps),
            (
                "compiler.mdfg_nodes",
                tally.nodes as f64 / tally.variants.max(1) as f64,
            ),
            ("scheduler.schedule_ms_p50", median(&sched_us) / 1e3),
            (
                "scheduler.schedule_ms_p90",
                percentile(&sched_us, 0.9) / 1e3,
            ),
            ("scheduler.variant_tries", tally.tries as f64 / apps),
            ("sim.simulate_ms_p50", median(&sim_us) / 1e3),
            ("sim.simulate_ms_p90", percentile(&sim_us, 0.9) / 1e3),
            (
                "sim.ns_per_sim_cycle",
                sim_us.iter().sum::<f64>() * 1e3 / tally.cycles.max(1) as f64,
            ),
        ];
        Traced {
            check,
            ops: tally.apps as u64,
            untraced_s,
            traced_s,
            tracer,
            layers: layers.into_iter().collect(),
        }
    }
}
