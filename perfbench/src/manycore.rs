//! `manycore`: cold execution-driven machine runs in the style of
//! Figs. 10–13.
//!
//! The 7 Table 5 kernels (first dataset each) on every Half-Ruche network
//! of the 16×8 array, plus the 7 kernels on mesh and half-ruche2-depop on
//! 32×16: 56 `machine::run` calls on a pool of `workers` threads, longest
//! first so the pool's tail stays short. Workloads are built in set-up.
//! The kernels' datasets are fixed by Table 5, so the seed does not reach
//! this workload's inputs.

use crate::host::Digest;
use crate::trace::{span, Tracer};
use crate::{Ctx, Pass, Setup};
use ruche_bench::suite::{half_ruche_configs, workload_list};
use ruche_bench::Opts;
use ruche_manycore::prelude::*;
use ruche_noc::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Kernels that keep both networks busy; the rest are latency-bound.
const STREAMING: [Benchmark; 4] = [
    Benchmark::Jacobi,
    Benchmark::Sgemm,
    Benchmark::Fft,
    Benchmark::PageRank,
];

/// Table 6's 16×8 geomean speedups over mesh for the networks the
/// model-error line reports.
const PAPER_TABLE6: [(&str, f64); 3] = [
    ("half-ruche2-depop", 1.12),
    ("half-ruche3-pop", 1.18),
    ("half-torus", 1.09),
];

struct Job {
    bench: Benchmark,
    workload: usize,
    cfg: NetworkConfig,
}

struct Inputs {
    workloads: Vec<Workload>,
    /// In run order (longest first).
    jobs: Vec<Job>,
    /// Host milliseconds spent in `Workload::build`.
    build_ms: f64,
}

/// Builds the 14 workloads and the 56 jobs, ordered by an input-derived
/// cost estimate (tiles × operations) so long jobs start first.
fn inputs() -> Inputs {
    let mut workloads = Vec::new();
    let mut jobs = Vec::new();
    let mut build_ms = 0.0;
    let small = Dims::new(16, 8);
    let big = Dims::new(32, 16);
    let big_cfgs = [
        NetworkConfig::mesh(big),
        NetworkConfig::half_ruche(big, 2, CrossbarScheme::Depopulated),
    ];
    for (dims, cfgs) in [(small, half_ruche_configs(small)), (big, big_cfgs.to_vec())] {
        for (bench, ds) in workload_list(Opts::quick()) {
            let t = Instant::now();
            workloads.push(Workload::build(bench, ds, dims));
            build_ms += t.elapsed().as_secs_f64() * 1e3;
            for cfg in &cfgs {
                jobs.push(Job {
                    bench,
                    workload: workloads.len() - 1,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    let cost = |j: &Job| {
        let w = &workloads[j.workload];
        w.programs.len() * w.total_ops()
    };
    jobs.sort_by_key(|j| std::cmp::Reverse(cost(j)));
    Inputs {
        workloads,
        jobs,
        build_ms,
    }
}

/// Runs every job on `workers` threads pulling from a shared cursor;
/// returns each job's result and its (start, end) instants.
fn run_pool(
    inputs: &Inputs,
    workers: usize,
) -> Vec<(Result<RunResult, MachineError>, Instant, Instant)> {
    let slots: Vec<Mutex<Option<_>>> = inputs.jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(inputs.jobs.len()) {
            s.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = inputs.jobs.get(k) else { break };
                let start = Instant::now();
                let res = ruche_manycore::machine::run(
                    &SystemConfig::new(job.cfg.clone()),
                    &inputs.workloads[job.workload],
                );
                *slots[k].lock().expect("slot lock") = Some((res, start, Instant::now()));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

pub fn run(ctx: &Ctx) -> Pass {
    let tr = ctx.tr();
    let mut setup = Setup::new(|_| inputs());
    let inputs = setup.half();
    let mut pass = Pass {
        attempted: inputs.jobs.len() as u64,
        ..Pass::default()
    };
    let done = ctx.timed(&mut pass, || run_pool(&inputs, ctx.workers));
    setup.half();
    pass.setup_s = setup.times;
    pass.job_s = done
        .iter()
        .map(|(_, a, b)| b.duration_since(*a).as_secs_f64())
        .collect();

    // Gates: every run completes, and a kernel executes the same
    // instruction count on every network of an array (the program does
    // not depend on the network).
    let mut results: Vec<Option<&RunResult>> = Vec::new();
    for (job, (res, _, _)) in inputs.jobs.iter().zip(&done) {
        match res {
            Ok(r) => results.push(Some(r)),
            Err(e) => {
                pass.notes.push(format!(
                    "{} on {}: {e}",
                    inputs.workloads[job.workload].name,
                    job.cfg.label()
                ));
                results.push(None);
            }
        }
    }
    let mut failed = results.iter().filter(|r| r.is_none()).count() as u64;
    for (k, job) in inputs.jobs.iter().enumerate() {
        let Some(r) = results[k] else { continue };
        let first = inputs
            .jobs
            .iter()
            .position(|j| j.workload == job.workload)
            .and_then(|p| results[p]);
        if first.is_some_and(|f| f.instructions != r.instructions) {
            pass.notes.push(format!(
                "{} on {}: instruction count differs across networks",
                inputs.workloads[job.workload].name,
                job.cfg.label()
            ));
            failed += 1;
        }
    }
    pass.failed = failed.min(pass.attempted);

    // Digest in a canonical (build) order, independent of run order.
    let mut order: Vec<usize> = (0..inputs.jobs.len()).collect();
    order.sort_by_key(|&k| {
        let j = &inputs.jobs[k];
        (j.workload, j.cfg.label())
    });
    let mut d = Digest::new();
    for &k in &order {
        let j = &inputs.jobs[k];
        let name = &inputs.workloads[j.workload].name;
        let dims = j.cfg.dims;
        d.record(&format!("{dims}|{name}|{:?}", results[k]));
    }
    pass.digest = d.hex();
    pass.notes.push(model_error_line(&inputs, &results));

    if let Some(tr) = tr {
        let l = &mut pass.layers;
        l.set("manycore.build_ms", inputs.build_ms, "ms");
        for (k, (_, a, b)) in done.iter().enumerate() {
            let j = &inputs.jobs[k];
            let name = format!(
                "{} {} {}",
                j.cfg.dims,
                inputs.workloads[j.workload].name,
                j.cfg.label()
            );
            tr.close(
                tr.open(),
                None,
                Some(k as u64),
                "manycore",
                name,
                tr.at(*a),
                tr.at(*b),
            );
        }
        let ok: Vec<(&Job, &RunResult, f64)> = inputs
            .jobs
            .iter()
            .zip(&results)
            .zip(&pass.job_s)
            .filter_map(|((j, r), &s)| r.map(|r| (j, r, s)))
            .collect();
        machine_layer(l, &ok);
        // Quiet cycles need per-cycle injection series: re-run the 16×8
        // mesh jobs probed, outside the timed phase.
        let mesh: Vec<&Job> = inputs
            .jobs
            .iter()
            .filter(|j| j.cfg.dims == Dims::new(16, 8) && j.cfg.label() == "mesh")
            .collect();
        let share = quiet_share(
            tr,
            mesh.iter().map(|j| (&j.cfg, &inputs.workloads[j.workload])),
        );
        l.set("manycore.quiet_cycle_share", share, "frac");
        // No store on this workload: time the operations on a temp store.
        crate::probe::store_ops(ctx, &ctx.work.join("store"), l);
    }
    pass
}

/// `manycore.*` (all but the quiet share) from finished runs and their
/// host seconds.
fn machine_layer(l: &mut crate::Layers, ok: &[(&Job, &RunResult, f64)]) {
    let group = |streaming: bool| -> f64 {
        ok.iter()
            .filter(|(j, _, _)| STREAMING.contains(&j.bench) == streaming)
            .map(|(_, _, s)| s)
            .sum()
    };
    l.set("manycore.run_s_streaming", group(true), "s");
    l.set("manycore.run_s_latency_bound", group(false), "s");
    let cycles: u64 = ok.iter().map(|(_, r, _)| r.cycles).sum();
    let tile_cycles: f64 = ok
        .iter()
        .map(|(j, r, _)| r.cycles as f64 * j.cfg.dims.count() as f64)
        .sum();
    let stall: u64 = ok.iter().map(|(_, r, _)| r.stall_cycles).sum();
    let host: f64 = ok.iter().map(|(_, _, s)| s).sum();
    l.set("manycore.sim_cycles", cycles as f64, "count");
    l.set(
        "manycore.instructions",
        ok.iter().map(|(_, r, _)| r.instructions).sum::<u64>() as f64,
        "count",
    );
    l.set("manycore.ns_per_tile_cycle", host * 1e9 / tile_cycles, "ns");
    l.set("manycore.stall_share", stall as f64 / tile_cycles, "frac");
}

/// Share of cycles in which neither network injected a flit, over the
/// given runs.
fn quiet_share<'a>(
    tr: &Tracer,
    runs: impl Iterator<Item = (&'a NetworkConfig, &'a Workload)>,
) -> f64 {
    let (mut quiet, mut total) = (0u64, 0u64);
    for (cfg, w) in runs {
        let name = format!("run_probed {} {}", w.name, cfg.label());
        let ((res, tel), _) = span(Some(tr), "manycore", &name, None, None, |_| {
            run_probed(&SystemConfig::new(cfg.clone()), w, 1)
                .expect("a run that completed unprobed completes probed")
        });
        let (req, resp) = (tel.req.injected().bins(), tel.resp.injected().bins());
        let busy =
            |c: usize| req.get(c).copied().unwrap_or(0) + resp.get(c).copied().unwrap_or(0) > 0;
        quiet += (0..res.cycles as usize).filter(|&c| !busy(c)).count() as u64;
        total += res.cycles;
    }
    quiet as f64 / total.max(1) as f64
}

/// The 16×8 quick-set geomean speedups over mesh beside Table 6.
fn model_error_line(inputs: &Inputs, results: &[Option<&RunResult>]) -> String {
    let cycles = |label: &str, w: usize| {
        inputs
            .jobs
            .iter()
            .zip(results)
            .find(|(j, _)| {
                j.workload == w && j.cfg.dims == Dims::new(16, 8) && j.cfg.label() == label
            })
            .and_then(|(_, r)| r.map(|r| r.cycles as f64))
    };
    let small: Vec<usize> = (0..inputs.workloads.len())
        .filter(|&w| {
            inputs
                .jobs
                .iter()
                .any(|j| j.workload == w && j.cfg.dims == Dims::new(16, 8))
        })
        .collect();
    let mut parts = Vec::new();
    for (label, paper) in PAPER_TABLE6 {
        let logs: Option<Vec<f64>> = small
            .iter()
            .map(|&w| Some((cycles("mesh", w)? / cycles(label, w)?).ln()))
            .collect();
        let ours = logs.map_or(f64::NAN, |v| (v.iter().sum::<f64>() / v.len() as f64).exp());
        parts.push(format!(
            "{label} {ours:.2}x (paper {paper:.2}x, {:+.0}%)",
            (ours / paper - 1.0) * 100.0
        ));
    }
    format!(
        "model error, 16x8 geomean speedup over mesh on a 7-kernel scaled-dataset subset \
         (one dataset per kernel; see EXPERIMENTS.md, Figure 10, 'Known scale deviation'): {}",
        parts.join("; ")
    )
}
