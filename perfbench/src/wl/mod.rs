//! The workloads and what they share.

pub mod dse;
pub mod onboard;
pub mod service;

use std::sync::Arc;
use std::time::Instant;

use overgen::Overlay;
use overgen_adg::{Adg, SysAdg, SystemParams};
use overgen_compiler::{lower, LowerChoices};
use overgen_dse::{Dse, DseConfig, DseResult};
use overgen_ir::{FuCap, Kernel, Suite};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{schedule, Schedule};
use overgen_telemetry::{install, ClockMode, Collector, InstallGuard, NullSink};

/// Proposals per `Dse::run`, as the figure binaries run it by default.
pub const DSE_ITERS: usize = 60;

/// DSE seeds of the DSE workload; every one has its result pinned in
/// `pins.txt`. Results vary widely from seed to seed, so each run covers
/// the whole pool (in a seeded order) and quality is taken over all of it.
pub const POOL: usize = 8;

pub fn pool_seed(i: usize) -> u64 {
    0x0D5E_5EED_0000 + i as u64
}

/// The DSE configuration of pool entry `i`: one thread, one chain.
pub fn dse_config(i: usize) -> DseConfig {
    DseConfig {
        iterations: DSE_ITERS,
        seed: pool_seed(i),
        threads: 1,
        chains: 1,
        ..Default::default()
    }
}

/// The 5-kernel MachSuite domain.
pub fn machsuite() -> Vec<Kernel> {
    overgen_workloads::suite(Suite::MachSuite)
}

pub fn fmt_sys(s: &SystemParams) -> String {
    format!(
        "tiles={} l2_banks={} l2_kb={} noc={} dram={}",
        s.tiles, s.l2_banks, s.l2_kb, s.noc_bw_bytes, s.dram_channels
    )
}

/// The checked summary of a DSE result: the winner's system parameters,
/// the exact objective and DSE-hours bits, and every `DseStats` field.
pub fn fmt_dse(r: &DseResult) -> String {
    let s = &r.stats;
    format!(
        "{} objective={:016x} hours={:016x} stats={},{},{},{},{},{},{},{},{},{},{}",
        fmt_sys(&r.sys_adg.sys),
        r.objective.to_bits(),
        r.dse_hours.to_bits(),
        s.iterations,
        s.accepted,
        s.invalid,
        s.full_schedules,
        s.repairs,
        s.intact,
        s.cache_hits,
        s.cache_misses,
        s.repair_fast,
        s.repair_fallback,
        s.infeasible
    )
}

/// A DSE domain prepared the way the annealer starts: the unroll-1
/// lowering of each kernel scheduled on the seed accelerator. The traced
/// `dse-machsuite` replay starts from it.
pub struct Domain {
    pub mdfgs: Vec<Mdfg>,
    pub caps: Vec<FuCap>,
    pub seed_adg: Adg,
    pub schedules: Vec<Schedule>,
}

impl Domain {
    pub fn prepare(kernels: &[Kernel]) -> Domain {
        let choices = LowerChoices {
            unroll: 1,
            ..Default::default()
        };
        let mdfgs: Vec<Mdfg> = kernels
            .iter()
            .map(|k| lower(k, 0, &choices).expect("unroll-1 lowering succeeds"))
            .collect();
        let caps = Dse::cap_pool(kernels);
        let seed_adg = Dse::seed_adg(kernels);
        let sys = SysAdg::new(seed_adg.clone(), SystemParams::default());
        let schedules = mdfgs
            .iter()
            .map(|m| schedule(m, &sys, None).expect("seed accelerator schedules the domain"))
            .collect();
        Domain {
            mdfgs,
            caps,
            seed_adg,
            schedules,
        }
    }
}

/// A telemetry collector that keeps counters and drops events, installed
/// on this thread for the guard's lifetime: traced runs read the library's
/// own registry counters through it.
pub fn counting_collector() -> (Arc<Collector>, InstallGuard) {
    let c = Collector::new(Arc::new(NullSink), ClockMode::Deterministic);
    let g = install(c.clone());
    (c, g)
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Print `pins.txt` for the current program (`--pin`).
pub fn print_pins() {
    println!("# Outputs pinned for the benchmark's checks; regenerate with `--pin`.");
    let overlay = Overlay::general();
    for k in overgen_workloads::all() {
        let app = overlay
            .compile(&k)
            .expect("general overlay compiles every kernel");
        let r = overlay.execute(&app);
        println!("onboard {} = {}", k.name(), onboard::fmt_report(&r));
    }
    for i in 0..POOL {
        let r = Dse::new(machsuite(), dse_config(i))
            .run()
            .expect("MachSuite schedules on the seed accelerator");
        println!("dse {i} = {}", fmt_dse(&r));
    }
}
