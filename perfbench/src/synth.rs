//! `synth-sweep`: a cold load–latency sweep in the style of Figs. 6, 8, 9.
//!
//! The timed phase is what a sweep client pays on an empty store: the
//! 60-job batch submitted to `Engine::eval_batch`, which screens every job
//! (validation and the `ruche-verify` proof, once per distinct config),
//! simulates them on its run-level pool and writes the store. `eval_batch`
//! answers in job order and exposes no per-job completion time, so the
//! per-job service times come from `SAMPLE_ROUNDS` more runs of the same
//! jobs after the timed phase, on `SweepRunner::run_all_with` (the pool
//! `Engine` drives): its sink runs on the worker that finished the job.

use crate::host::Digest;
use crate::trace::{span, Tracer};
use crate::{Ctx, Layers, Pass, Setup};
use ruche_bench::store::ResultStore;
use ruche_bench::sweep::{SweepJob, SweepRunner};
use ruche_noc::prelude::*;
use ruche_service::{parse_request, Batch, Engine, Outcome, Request};
use ruche_telemetry::json::Json;
use ruche_traffic::{Pattern, TbResult, Testbench};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// The 60 jobs: 16×16 full networks under uniform-random and transpose
/// traffic from zero load to past saturation, and 32×16 half networks
/// under tile-to-memory traffic, all with the paper's default windows.
fn jobs(seed: u64) -> Vec<SweepJob> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let job = |cfg: &NetworkConfig, pattern, rate| {
        let tb = Testbench::builder(pattern, rate)
            .seed(seed)
            .build()
            .expect("sweep testbench is valid");
        SweepJob::new(cfg.clone(), tb)
    };
    let mut jobs = Vec::new();
    let sq = Dims::new(16, 16);
    for cfg in [
        NetworkConfig::mesh(sq),
        NetworkConfig::torus(sq),
        NetworkConfig::full_ruche(sq, 2, Depopulated),
        NetworkConfig::full_ruche(sq, 3, FullyPopulated),
    ] {
        for pattern in [Pattern::UniformRandom, Pattern::Transpose] {
            for rate in [0.005, 0.05, 0.15, 0.25, 0.35, 0.50] {
                jobs.push(job(&cfg, pattern, rate));
            }
        }
    }
    let wide = Dims::new(32, 16);
    for mut cfg in [
        NetworkConfig::mesh(wide),
        NetworkConfig::half_ruche(wide, 2, Depopulated),
        NetworkConfig::half_torus(wide),
    ] {
        cfg.edge_memory_ports = true;
        for rate in [0.02, 0.06, 0.10, 0.14] {
            jobs.push(job(&cfg, Pattern::TileToMemory, rate));
        }
    }
    jobs
}

fn scrub(res: &TbResult) -> TbResult {
    TbResult {
        per_tile_latency: Vec::new(),
        ..res.clone()
    }
}

struct Inputs {
    jobs: Vec<SweepJob>,
    batch: Batch,
    store: Arc<ResultStore>,
}

pub fn run(ctx: &Ctx) -> Pass {
    let tr = ctx.tr();
    // Set-up is what a client and the service pay before the first job:
    // the batch request encoded to its wire line and decoded by the
    // service's parser, and a fresh store opened.
    let mut setup = Setup::new(|rep| {
        let line = Json::Obj(vec![(
            "jobs".into(),
            Json::Arr(
                jobs(ctx.seed)
                    .iter()
                    .map(|j| j.request().to_wire())
                    .collect(),
            ),
        )])
        .render();
        let Ok(Request::Batch(batch)) = parse_request(&line) else {
            panic!("the sweep batch does not decode")
        };
        let jobs = batch
            .jobs
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("every sweep job decodes");
                SweepJob::new(r.cfg.clone(), r.tb.clone())
            })
            .collect();
        let dir = ctx.work.join(format!("synth-store-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        Inputs {
            jobs,
            batch,
            store: Arc::new(ResultStore::open(dir)),
        }
    });
    let Inputs { jobs, batch, store } = setup.half();
    let mut pass = Pass {
        attempted: jobs.len() as u64,
        ..Pass::default()
    };
    let workers = ctx.workers;

    let engine = Engine::new(workers).with_store(store.clone());
    let outcomes = ctx.timed(&mut pass, || {
        span(tr, "service", "eval_batch", None, None, |_| {
            let mut outcomes: Vec<Outcome> = Vec::with_capacity(batch.jobs.len());
            engine.eval_batch(&batch, &mut |_, o| outcomes.push(o.clone()));
            outcomes
        })
        .0
    });
    setup.half();
    pass.setup_s = setup.times;

    // Per-job service times: every job on the pool `Engine` drives, up to
    // `SAMPLE_ROUNDS` times; a round that would end past the run's budget
    // is left out, but the first always runs.
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < SAMPLE_ROUNDS {
        let t = Instant::now();
        rounds.push(sample_round(&jobs, workers, tr));
        if Instant::now() + t.elapsed() > ctx.deadline {
            break;
        }
    }
    pass.job_s = rounds
        .iter()
        .flat_map(|r| r.job_s.iter().copied())
        .collect();
    let results = &rounds[0].results;

    // Output gates: every job is answered, the engine's answers match the
    // pool's results exactly, every round gives the same results, and the
    // results obey the testbench's own invariants.
    let mut failed = 0u64;
    for (i, (out, res)) in outcomes.iter().zip(results).enumerate() {
        let bad = match out {
            Ok(got) if *got == scrub(res) => None,
            Ok(_) => Some("engine answer differs from the pool's result".to_string()),
            Err(e) => Some(format!("engine error: {e}")),
        }
        .or_else(|| {
            let lost_ok = res.lost == 0 || res.saturated;
            (res.delivered == 0 || !res.avg_latency.is_finite() || !lost_ok)
                .then(|| "result breaks a testbench invariant".to_string())
        });
        let bad = bad.or_else(|| {
            rounds
                .iter()
                .any(|r| r.results[i] != *res)
                .then(|| "pool rounds give different results".to_string())
        });
        if let Some(why) = bad {
            pass.notes.push(format!("job {i}: {why}"));
            failed += 1;
        }
    }
    if outcomes.len() != jobs.len() {
        pass.notes.push(format!(
            "the engine answered {} of {} jobs",
            outcomes.len(),
            jobs.len()
        ));
        failed = pass.attempted;
    }
    // Re-simulate the first job of each array (mesh at its lowest rate,
    // the shortest jobs) serially, off the pool.
    let wide = jobs.iter().position(|j| j.cfg.dims != jobs[0].cfg.dims);
    for i in [Some(0), wide].into_iter().flatten() {
        let direct = ruche_traffic::run(&jobs[i].cfg, &jobs[i].tb);
        if direct.as_ref().ok() != Some(&results[i]) {
            pass.notes
                .push(format!("job {i}: serial re-run differs from the pool"));
            failed += 1;
        }
    }
    pass.failed = failed.min(pass.attempted);
    let mut d = Digest::new();
    for (job, res) in jobs.iter().zip(results) {
        d.record(&format!("{}|{res:?}", job.cache_key()));
    }
    pass.digest = d.hex();

    if let Some(tr) = tr {
        let l = &mut pass.layers;
        let m = engine.metrics();
        l.set("service.jobs", m.jobs() as f64, "count");
        l.set("service.simulated", m.simulated() as f64, "count");
        l.set("service.store_hits", m.store_hits() as f64, "count");
        l.set("service.rejected", m.rejected() as f64, "count");
        // Per round, averaged over the rounds.
        let n = rounds.len() as f64;
        let busy = pass.job_s.iter().sum::<f64>() / n;
        let pool_s = rounds.iter().map(|r| r.pool_s).sum::<f64>() / n;
        l.set("sweep.busy_s", busy, "s");
        l.set("sweep.idle_s", workers as f64 * pool_s - busy, "s");
        traffic_layer(l, &rounds);
        // The proofs `eval_batch` ran once per distinct config, uncached.
        let mut seen = BTreeSet::new();
        let mut config_ms = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if seen.insert(format!("{:?}", job.cfg)) {
                let name = format!("{} {}", job.cfg.dims, job.cfg.label());
                let (_, s) = span(Some(tr), "verify", &name, None, Some(i as u64), |_| {
                    ruche_verify::verify(&job.cfg)
                });
                config_ms.push(s * 1e3);
            }
        }
        verify_layer(l, &config_ms);
        crate::probe::store_ops(ctx, store.dir(), l);
    }
    pass
}

/// Most rounds of the pool run that give the per-job service times. Each
/// runs all 60 jobs; the job percentiles pool them, so their samples cover
/// more host time than one round.
const SAMPLE_ROUNDS: usize = 2;

/// One run of every job on the pool, after the timed phase.
struct Round {
    results: Vec<TbResult>,
    /// Wall seconds of the pool run.
    pool_s: f64,
    /// Service seconds of each job, in job order.
    job_s: Vec<f64>,
}

/// Runs every job on `SweepRunner::run_all_with` without a store. Its sink
/// runs on the worker that finished the job, and a job's service time is
/// the gap since the same worker's previous completion (or the pool's
/// start). Traced, each job is a `traffic` span under the pool's span.
fn sample_round(jobs: &[SweepJob], workers: usize, tr: Option<&Tracer>) -> Round {
    let sink_log: Mutex<Vec<(usize, ThreadId, Instant)>> = Mutex::new(Vec::new());
    let pool_start = Instant::now();
    let ((results, pool_id), pool_s) = span(tr, "sweep", "run_all_with", None, None, |id| {
        let results = SweepRunner::uncached(workers).run_all_with(jobs, |i, _| {
            sink_log.lock().expect("sink log lock").push((
                i,
                std::thread::current().id(),
                Instant::now(),
            ))
        });
        (results, id)
    });
    let mut log = sink_log.into_inner().expect("sink log lock");
    log.sort_by_key(|&(_, _, t)| t);
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    let mut job_span = vec![(pool_start, pool_start); results.len()];
    for &(i, thread, t) in &log {
        let prev = match last.iter_mut().find(|(th, _)| *th == thread) {
            Some(slot) => std::mem::replace(&mut slot.1, t),
            None => {
                last.push((thread, t));
                pool_start
            }
        };
        job_span[i] = (prev, t);
    }
    if let Some(tr) = tr {
        for (i, &(a, b)) in job_span.iter().enumerate() {
            let name = format!("{} {}", jobs[i].cfg.label(), jobs[i].tb.injection_rate);
            let id = tr.open();
            tr.close(
                id,
                pool_id,
                Some(i as u64),
                "traffic",
                name,
                tr.at(a),
                tr.at(b),
            );
        }
    }
    Round {
        results,
        pool_s,
        job_s: job_span
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .collect(),
    }
}

/// `verify.*` from the milliseconds each distinct config's proof took.
pub fn verify_layer(l: &mut Layers, config_ms: &[f64]) {
    l.set("verify.configs", config_ms.len() as f64, "count");
    l.set("verify.busy_s", config_ms.iter().sum::<f64>() / 1e3, "s");
    l.set(
        "verify.config_ms_max",
        config_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// `traffic.*` from the rounds' results and service seconds: median job
/// time of unsaturated and saturated jobs over every round, and packets
/// delivered in one round.
fn traffic_layer(l: &mut Layers, rounds: &[Round]) {
    let split = |sat: bool| {
        let mut v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.results.iter().zip(&r.job_s))
            .filter(|(res, _)| res.saturated == sat)
            .map(|(_, &s)| s * 1e3)
            .collect();
        median(&mut v)
    };
    l.set("traffic.job_ms_unsat", split(false), "ms");
    l.set("traffic.job_ms_sat", split(true), "ms");
    let packets: u64 = rounds[0].results.iter().map(|r| r.delivered).sum();
    l.set("traffic.packets", packets as f64, "count");
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
