//! `step_bench`: single-run stepping microbenchmark.
//!
//! **Clock-advance comparison** (`results/BENCH_step_mode.json`) —
//! measures two drivers of the same network on sparse workloads (bursty and
//! steady trickle): `cycle` calls `Network::step` every cycle, and `event`
//! follows each step with `Network::fast_forward`, which skips the
//! quiescent spans between bursts. `docs/EVENTS.md` explains how to read
//! it.
//!
//! Every point is measured as **warmup + median-of-3**: one untimed run
//! primes caches, then three timed runs report their median rate. Traffic
//! is pre-generated from a fixed seed, and the per-run **digest**
//! (injected, ejected, final cycle, total link traversals) is asserted
//! identical across both drivers and every repeat before anything is
//! written — a divergence aborts the bench with a non-zero exit. The
//! timing numbers vary with the machine, the simulation results never do.
//! Every emitted record names its driver in `step_mode`.
//!
//! Pass `--quick` to shorten the bursty workload and drop the Ruche row.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruche_bench::out::{banner, write_artifact};
use ruche_bench::sweep::MODEL_VERSION;
use ruche_bench::Opts;
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use ruche_stats::fmt_f;
use std::fmt::Write as _;
use std::time::Instant;

/// Traffic seed (fixed: the digest must be reproducible).
const SEED: u64 = 17;
/// Compared drivers as (name, fast-forward after each step); the first is
/// the speedup baseline.
const DRIVERS: [(&str, bool); 2] = [("cycle", false), ("event", true)];

/// Simulation results that must not depend on the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    injected: u64,
    ejected: u64,
    final_cycle: u64,
    traversals: u64,
}

impl Digest {
    fn of(net: &Network) -> Self {
        let snap = net.snapshot();
        Digest {
            injected: snap.injected,
            ejected: snap.ejected,
            final_cycle: snap.cycle,
            traversals: net.link_loads().iter().map(|(_, _, n)| n).sum(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"injected\": {}, \"ejected\": {}, \"final_cycle\": {}, \"traversals\": {}}}",
            self.injected, self.ejected, self.final_cycle, self.traversals
        )
    }
}

/// Warmup + median-of-3 around one timed point. The first (discarded) run
/// primes caches and page tables; the next three
/// are timed and the median rate is reported. All four digests must agree
/// — a digest that varies between identical runs is nondeterminism, not
/// noise, and aborts the bench.
fn warm_median3(mut run: impl FnMut() -> (Digest, f64)) -> (Digest, f64) {
    let (digest, _) = run();
    let mut rates = [0.0f64; 3];
    for r in &mut rates {
        let (d, cps) = run();
        assert_eq!(digest, d, "digest varied between identical repeat runs");
        *r = cps;
    }
    rates.sort_by(f64::total_cmp);
    (digest, rates[1])
}

/// One timed driver run: steps `cfg` through the sparse `schedule` of
/// (cycle, source, flit) injections until at least `horizon` cycles have
/// elapsed and the network drained. With `fast_forward` set, every step is
/// followed by a jump to the next injection whenever the network quiesces.
fn timed_mode_run(
    cfg: &NetworkConfig,
    schedule: &[(u64, Coord, Flit)],
    horizon: u64,
    fast_forward: bool,
) -> (Digest, f64) {
    let mut net = Network::new(cfg.clone()).expect("valid bench config");
    let start = Instant::now();
    let mut next = 0usize;
    let mut iters = 0u64;
    while net.cycle() < horizon || !net.is_quiescent() {
        while schedule.get(next).is_some_and(|&(c, ..)| c == net.cycle()) {
            let (_, src, f) = schedule[next];
            net.enqueue(net.tile_endpoint(src), f);
            next += 1;
        }
        assert!(
            schedule.get(next).is_none_or(|&(c, ..)| c > net.cycle()),
            "fast-forward skipped past a scheduled injection"
        );
        net.step();
        if fast_forward {
            let wake = schedule.get(next).map_or(horizon, |&(c, ..)| c);
            net.fast_forward(wake.min(horizon));
        }
        iters += 1;
        assert!(iters < 2 * horizon + 200_000, "bench traffic deadlocked");
    }
    let secs = start.elapsed().as_secs_f64();
    let cycle = net.cycle();
    (Digest::of(&net), cycle as f64 / secs.max(1e-9))
}

/// Pre-generates a bursty sparse schedule: `bursts` bursts of `size`
/// uniform-random single-flit packets, one burst every `period` cycles.
/// Returns the schedule and the run horizon (`bursts * period`).
fn gen_bursty(dims: Dims, bursts: u64, period: u64, size: usize) -> (Vec<(u64, Coord, Flit)>, u64) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut schedule = Vec::new();
    let mut id = 0u64;
    for b in 0..bursts {
        let cycle = b * period;
        for _ in 0..size {
            let s = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            schedule.push((cycle, s, Flit::single(s, Dest::tile(d), id, cycle)));
            id += 1;
        }
    }
    (schedule, bursts * period)
}

/// Pre-generates steady uniform-random single-flit traffic at per-tile
/// `rate` as a sparse schedule. Load stops at 60% of the horizon so the
/// tail measures drain behaviour; the drain runs past the horizon
/// identically under both drivers.
fn gen_steady(dims: Dims, cycles: u64, rate: f64) -> (Vec<(u64, Coord, Flit)>, u64) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut schedule = Vec::new();
    let mut id = 0u64;
    for cycle in 0..cycles * 3 / 5 {
        for c in dims.iter() {
            if rng.gen_bool(rate) {
                let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
                schedule.push((cycle, c, Flit::single(c, Dest::tile(d), id, cycle)));
                id += 1;
            }
        }
    }
    (schedule, cycles)
}

/// One workload row of the clock-advance comparison.
struct ModeRow {
    cfg: NetworkConfig,
    dims: Dims,
    workload: &'static str,
    schedule: Vec<(u64, Coord, Flit)>,
    horizon: u64,
}

/// The clock-advance comparison workloads: bursty sparse traffic
/// (quiescent between bursts — the regime fast-forwarding exists for) and
/// a steady trickle (never quiescent — the regime where it must merely not
/// lose).
fn mode_rows(quick: bool) -> Vec<ModeRow> {
    let big = Dims::new(64, 64);
    let small = Dims::new(16, 16);
    let bursts = if quick { 16 } else { 32 };
    let mut rows = Vec::new();
    let (schedule, horizon) = gen_bursty(big, bursts, 65_536, 16);
    rows.push(ModeRow {
        cfg: NetworkConfig::mesh(big),
        dims: big,
        workload: "bursty",
        schedule,
        horizon,
    });
    let (schedule, horizon) = gen_steady(small, 600, 0.02);
    rows.push(ModeRow {
        cfg: NetworkConfig::mesh(small),
        dims: small,
        workload: "steady",
        schedule,
        horizon,
    });
    if !quick {
        let (schedule, horizon) = gen_bursty(big, bursts, 65_536, 16);
        rows.push(ModeRow {
            cfg: NetworkConfig::full_ruche(big, 2, CrossbarScheme::Depopulated),
            dims: big,
            workload: "bursty",
            schedule,
            horizon,
        });
    }
    rows
}

/// Runs the clock-advance comparison and writes `BENCH_step_mode.json`.
fn bench_modes(opts: &Opts) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"version\": \"{MODEL_VERSION}\",");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"runs\": [");
    let mut first = true;
    for row in mode_rows(opts.quick) {
        // Aggregate packets per cycle over the whole horizon — the honest
        // load figure for a workload with quiescent gaps.
        let rate = row.schedule.len() as f64 / row.horizon as f64;
        println!(
            "-- {} {} {} ({} packets over {} cycles, rate {})",
            row.dims,
            row.cfg.label(),
            row.workload,
            row.schedule.len(),
            row.horizon,
            fmt_f(rate, 5),
        );
        let mut baseline: Option<(Digest, f64)> = None;
        let mut results = Vec::new();
        for (name, fast_forward) in DRIVERS {
            let (digest, cps) =
                warm_median3(|| timed_mode_run(&row.cfg, &row.schedule, row.horizon, fast_forward));
            match &baseline {
                None => baseline = Some((digest, cps)),
                Some((d0, _)) => assert_eq!(
                    *d0,
                    digest,
                    "{} {} {}: digest diverged under the {name} driver",
                    row.dims,
                    row.cfg.label(),
                    row.workload,
                ),
            }
            let speedup = cps / baseline.expect("set above").1;
            println!(
                "   mode={name}: {} cycles/sec, speedup {}",
                fmt_f(cps, 0),
                fmt_f(speedup, 2),
            );
            results.push((name, cps, speedup));
        }
        let (digest, _) = baseline.expect("at least one driver");
        if !first {
            let _ = writeln!(json, ",");
        }
        first = false;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"dims\": \"{}\",", row.dims);
        let _ = writeln!(json, "      \"topology\": \"{}\",", row.cfg.label());
        let _ = writeln!(json, "      \"workload\": \"{}\",", row.workload);
        let _ = writeln!(json, "      \"packets\": {},", row.schedule.len());
        let _ = writeln!(json, "      \"horizon\": {},", row.horizon);
        let _ = writeln!(json, "      \"injection_rate\": {},", fmt_f(rate, 5));
        let _ = writeln!(json, "      \"digest\": {},", digest.json());
        let _ = writeln!(json, "      \"modes\": [");
        for (i, (name, cps, speedup)) in results.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"step_mode\": \"{name}\", \"cycles_per_sec\": {}, \"speedup\": {}}}{}",
                fmt_f(*cps, 1),
                fmt_f(*speedup, 3),
                if i + 1 < results.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = write!(json, "    }}");
    }
    let _ = writeln!(json, "\n  ]");
    let _ = writeln!(json, "}}");
    write_artifact("BENCH_step_mode.json", &json);
}

fn main() {
    let opts = Opts::from_env();
    banner("step_bench", "Network::step clock-advance comparison");
    bench_modes(&opts);
}
