//! `step_bench`: single-run stepping microbenchmark.
//!
//! **Clock-advance comparison** (`results/BENCH_step_mode.json`) —
//! measures two drivers of the same network on sparse workloads (bursty and
//! steady trickle on wormhole networks) and on a busy 16×16 torus, whose
//! rate is the VC routers' cycles/s: `cycle` calls `Network::step` every
//! cycle, and `event` follows each step with `Network::fast_forward`, which
//! skips the quiescent spans between bursts. `docs/EVENTS.md` explains how
//! to read it.
//!
//! Every point is measured as **warmup + 5 repeats**: one untimed run
//! primes caches, then five timed runs report their min, median and max
//! rate (`cycles_per_sec` is the median). Traffic is pre-generated from a
//! fixed seed, and the per-run **digest** (injected, ejected, final cycle,
//! total link traversals) is asserted identical across both drivers and
//! every repeat before anything is written — a divergence aborts the bench
//! with a non-zero exit. The timing numbers vary with the machine, the
//! simulation results never do. Every emitted record names its driver in
//! `step_mode`; the file records the host's `available_parallelism` and
//! the git revision it was built from (`null` outside a git checkout).
//!
//! **Kernel costs** (printed only) — ns per operation of the step kernel's
//! building blocks in the forms `Network::step` calls them: route
//! computation on a 16×16 Ruche3 depopulated array, the 5-port wavefront
//! switch allocator's closed-form grant (one request per input) and a
//! 9-input round-robin arbiter. Each is timed as warmup + 5 repeats and
//! reported as min and median.
//!
//! Pass `--quick` to shorten the bursty workload and drop the Ruche row;
//! a quick run writes `results/quick/BENCH_step_mode.json`. Any other
//! argument (`--threads`, `--no-cache` included) exits with status 2.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruche_bench::opts::usage_error;
use ruche_bench::out::{banner, write_artifact};
use ruche_bench::sweep::MODEL_VERSION;
use ruche_noc::arbiter::{RoundRobin, Wavefront};
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use ruche_stats::fmt_f;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Traffic seed (fixed: the digest must be reproducible).
const SEED: u64 = 17;
/// Compared drivers as (name, fast-forward after each step); the first is
/// the speedup baseline.
const DRIVERS: [(&str, bool); 2] = [("cycle", false), ("event", true)];
/// Timed runs per point, after one untimed warmup run.
const REPEATS: usize = 5;
/// Per-tile injection rate of the busy torus row: every router stays
/// loaded, so the row times the VC plan rather than fast-forwarding.
const BUSY_RATE: f64 = 0.1;
/// Operations per timed kernel-cost run.
const KERNEL_OPS: u32 = 200_000;

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

/// Rates of one timed point, in cycles per second.
#[derive(Debug, Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

/// Warmup + [`REPEATS`] timed runs around one point. The first (discarded)
/// run primes caches and page tables; the rest are timed. All digests must
/// agree — a digest that varies between identical runs is nondeterminism,
/// not noise, and aborts the bench.
fn warm_repeats(mut run: impl FnMut() -> (Digest, f64)) -> (Digest, Spread) {
    let (digest, _) = run();
    let mut rates = [0.0f64; REPEATS];
    for r in &mut rates {
        let (d, cps) = run();
        assert_eq!(digest, d, "digest varied between identical repeat runs");
        *r = cps;
    }
    rates.sort_by(f64::total_cmp);
    let spread = Spread {
        min: rates[0],
        median: rates[REPEATS / 2],
        max: rates[REPEATS - 1],
    };
    (digest, spread)
}

/// The checked-out git revision, when `git rev-parse` succeeds, with a
/// `-dirty` suffix when the tree has uncommitted changes (see
/// [`rev_with_state`]).
fn git_rev() -> Option<String> {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        let text = String::from_utf8(out.stdout).ok()?;
        out.status.success().then_some(text)
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let rev = rev.trim();
    if rev.is_empty() {
        return None;
    }
    // A failed status leaves the state unknown: no suffix is claimed.
    let porcelain = git(&["status", "--porcelain"]).unwrap_or_default();
    Some(rev_with_state(rev, &porcelain))
}

/// `rev` as provenance: suffixed `-dirty` when `git status --porcelain`
/// printed anything, since the binary then was not built from `rev` alone.
fn rev_with_state(rev: &str, porcelain: &str) -> String {
    if porcelain.trim().is_empty() {
        rev.to_string()
    } else {
        format!("{rev}-dirty")
    }
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
/// (quiescent between bursts — the regime fast-forwarding exists for), a
/// steady trickle (never quiescent — the regime where it must merely not
/// lose), and a busy torus, whose cycles/s is the VC routers' step rate.
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
    let (schedule, horizon) = gen_steady(small, 600, BUSY_RATE);
    rows.push(ModeRow {
        cfg: NetworkConfig::torus(small),
        dims: small,
        workload: "busy",
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
fn bench_modes(quick: bool) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"version\": \"{MODEL_VERSION}\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"available_parallelism\": {threads},");
    let rev = git_rev().map_or("null".into(), |r| format!("\"{r}\""));
    let _ = writeln!(json, "  \"git_rev\": {rev},");
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    let _ = writeln!(json, "  \"runs\": [");
    let mut first = true;
    for row in mode_rows(quick) {
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
            let (digest, spread) =
                warm_repeats(|| timed_mode_run(&row.cfg, &row.schedule, row.horizon, fast_forward));
            let cps = spread.median;
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
                "   mode={name}: {} cycles/sec (min {}, max {}), speedup {}",
                fmt_f(cps, 0),
                fmt_f(spread.min, 0),
                fmt_f(spread.max, 0),
                fmt_f(speedup, 2),
            );
            results.push((name, spread, speedup));
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
        for (i, (name, spread, speedup)) in results.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"step_mode\": \"{name}\", \"cycles_per_sec\": {}, \
                 \"cycles_per_sec_min\": {}, \"cycles_per_sec_max\": {}, \"speedup\": {}}}{}",
                fmt_f(spread.median, 1),
                fmt_f(spread.min, 1),
                fmt_f(spread.max, 1),
                fmt_f(*speedup, 3),
                if i + 1 < results.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = write!(json, "    }}");
    }
    let _ = writeln!(json, "\n  ]");
    let _ = writeln!(json, "}}");
    write_artifact(quick, "BENCH_step_mode.json", &json);
}

/// Warmup + [`REPEATS`] timed runs of [`KERNEL_OPS`] calls to `op`
/// (passed the call index); returns (min, median) ns per operation.
fn ns_per_op(mut op: impl FnMut(u32)) -> (f64, f64) {
    let mut run = || {
        let start = Instant::now();
        for i in 0..KERNEL_OPS {
            op(i);
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(KERNEL_OPS)
    };
    run();
    let mut ns = [0.0f64; REPEATS];
    for n in &mut ns {
        *n = run();
    }
    ns.sort_by(f64::total_cmp);
    (ns[0], ns[REPEATS / 2])
}

/// Prints the per-operation cost of route computation and the two allocators.
fn bench_kernels() {
    println!("-- kernel costs");
    let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, CrossbarScheme::Depopulated);
    let route = ns_per_op(|i| {
        let i = (i * 7 % 256) as u16;
        let here = Coord::new(i % 16, i / 16);
        let dest = Dest::tile(Coord::new((i * 3) % 16, (i * 5) % 16));
        black_box(compute_route(&cfg, black_box(here), Dir::P, 0, dest));
    });
    // One request per input on a 5-port VC router, as `Network::step`
    // raises them: inputs 0 and 1 contend for output 0, 3 and 4 for
    // output 3, input 2 alone requests output 1 (per-output masks, bit =
    // input). Each operation grants every requested output and rotates
    // the priority.
    let mut wavefront = Wavefront::new(5);
    let per_out: [u32; 5] = [0b0_0011, 0b0_0100, 0, 0b1_1000, 0];
    let switch = ns_per_op(|_| {
        for (out, &reqs) in black_box(&per_out).iter().enumerate() {
            if reqs != 0 {
                black_box(wavefront.grant(out, reqs));
            }
        }
        wavefront.advance();
    });
    let mut rr = RoundRobin::new(9);
    let arbiter = ns_per_op(|_| {
        black_box(rr.pick_and_grant_mask(black_box(0b1_1010_1101)));
    });
    for (name, (min, median)) in [
        ("route_compute_ruche3_depop", route),
        ("wavefront_5x5_grant", switch),
        ("round_robin_9", arbiter),
    ] {
        println!(
            "   {name}: {} ns/op (min {})",
            fmt_f(median, 1),
            fmt_f(min, 1)
        );
    }
}

fn main() {
    // The networks are built and stepped directly, with no sweep pool or
    // store, so `--quick` is the only option.
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ => usage_error(&format!(
                "unexpected argument {arg:?} (step_bench takes only --quick)"
            )),
        }
    }
    banner("step_bench", "Network::step clock-advance comparison");
    bench_modes(quick);
    bench_kernels();
}

#[cfg(test)]
mod tests {
    use super::rev_with_state;

    #[test]
    fn a_clean_tree_names_the_bare_revision() {
        assert_eq!(rev_with_state("4927d97", ""), "4927d97");
        assert_eq!(rev_with_state("4927d97", "\n"), "4927d97");
    }

    #[test]
    fn uncommitted_changes_mark_the_revision_dirty() {
        assert_eq!(
            rev_with_state("4927d97", " M crates/noc/src/sim.rs\n"),
            "4927d97-dirty"
        );
        assert_eq!(rev_with_state("4927d97", "?? new.rs\n"), "4927d97-dirty");
    }
}
