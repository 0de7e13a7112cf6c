//! One pass of one benchmark workload, in a fresh process.
//!
//! `run.py` drives it: it builds this binary, clears the engine's
//! environment knobs, starts one process per pass and turns the pass
//! records into the benchmark's metrics. A pass sets its inputs up
//! (`SETUP_REPS` times, so set-up time is a median), runs the timed phase
//! on `min(2, available_parallelism)` workers, checks its outputs, and
//! writes one JSON record to `--out`. Sampling after the timed phase stops
//! early once `--budget-s` seconds since the pass started are used up. With
//! `--trace 1` it also records
//! spans around every call into a layer, and after the timed phase it runs
//! the attribution calls the per-layer metrics need (see `probe.rs`).
//!
//! ```text
//! ruche-perfbench --workload synth-sweep|manycore|repro-warm --seed N
//!     --trace 0|1 --budget-s S --work-dir DIR --out FILE
//! ```

mod host;
mod manycore;
mod probe;
mod repro;
mod synth;
mod trace;

use ruche_noc::prelude::*;
use ruche_telemetry::json::Json;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per pass; `setup_s` is their median.
pub const SETUP_REPS: usize = 20;

/// The per-layer metrics and their units, by layer. A traced pass reports
/// each layer either in full or, when the workload bypasses it, as zeros.
const LAYER_METRICS: [(&str, &[(&str, &str)]); 8] = [
    (
        "verify",
        &[
            ("verify.configs", "count"),
            ("verify.busy_s", "s"),
            ("verify.config_ms_max", "ms"),
        ],
    ),
    (
        "service",
        &[
            ("service.jobs", "count"),
            ("service.simulated", "count"),
            ("service.store_hits", "count"),
            ("service.rejected", "count"),
        ],
    ),
    ("sweep", &[("sweep.busy_s", "s"), ("sweep.idle_s", "s")]),
    (
        "store",
        &[
            ("store.open_ms", "ms"),
            ("store.get_miss_us", "us"),
            ("store.get_hit_us", "us"),
            ("store.put_us", "us"),
            ("store.flush_ms", "ms"),
        ],
    ),
    (
        "traffic",
        &[
            ("traffic.job_ms_unsat", "ms"),
            ("traffic.job_ms_sat", "ms"),
            ("traffic.packets", "count"),
        ],
    ),
    (
        "noc",
        &[
            ("noc.new_ms", "ms"),
            ("noc.step_ns_wormhole", "ns"),
            ("noc.step_ns_vc", "ns"),
            ("noc.step_ns_wormhole_low", "ns"),
            ("noc.step_ns_wormhole_high", "ns"),
            ("noc.step_ns_vc_low", "ns"),
            ("noc.step_ns_vc_high", "ns"),
            ("noc.cycles", "count"),
            ("noc.flit_hops", "count"),
            ("noc.ns_per_flit_hop", "ns"),
        ],
    ),
    (
        "manycore",
        &[
            ("manycore.build_ms", "ms"),
            ("manycore.run_s_streaming", "s"),
            ("manycore.run_s_latency_bound", "s"),
            ("manycore.sim_cycles", "count"),
            ("manycore.instructions", "count"),
            ("manycore.ns_per_tile_cycle", "ns"),
            ("manycore.stall_share", "frac"),
            ("manycore.quiet_cycle_share", "frac"),
        ],
    ),
    (
        "figures",
        &[
            ("preflight.verify_s", "s"),
            ("figures.synthetic_s", "s"),
            ("figures.manycore_s", "s"),
            ("figures.phys_s", "s"),
            ("figures.ablations_s", "s"),
        ],
    ),
];

/// What a pass is run with.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Worker threads: `min(2, available_parallelism)`.
    pub workers: usize,
    /// Scratch directory of this pass (temp stores, results copies).
    pub work: PathBuf,
    /// When the run's measuring budget ends.
    pub deadline: Instant,
    pub tracer: Option<Tracer>,
}

impl Ctx {
    pub fn tr(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Runs the timed phase and measures it into `pass`. Spans that start
    /// after it are attribution spans.
    pub fn timed<T>(&self, pass: &mut Pass, f: impl FnOnce() -> T) -> T {
        let cpu = host::cpu_seconds();
        let t = Instant::now();
        let out = f();
        pass.wall_s = t.elapsed().as_secs_f64();
        pass.cpu_s = host::cpu_seconds() - cpu;
        pass.peak_rss_mb = host::peak_rss_mb();
        if let Some(tr) = self.tr() {
            tr.end_timed_phase();
        }
        out
    }
}

/// Per-layer metrics of a traced pass: name, value, unit.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(String, f64, &'static str)>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _, _)| n == name)
    }

    /// Sets every metric of each layer the pass left unmeasured to 0 and
    /// returns those layers' names.
    fn fill_bypassed(&mut self) -> Vec<&'static str> {
        let mut bypassed = Vec::new();
        for (layer, metrics) in LAYER_METRICS {
            let seen = metrics.iter().filter(|(n, _)| self.has(n)).count();
            if seen == 0 {
                for &(n, unit) in metrics {
                    self.set(n, 0.0, unit);
                }
                bypassed.push(layer);
            } else {
                assert_eq!(seen, metrics.len(), "layer {layer} is partly measured");
            }
        }
        bypassed
    }
}

/// The record of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) spent in the timed phase.
    pub cpu_s: f64,
    /// Peak resident set at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Host service seconds of each job of the timed phase.
    pub job_s: Vec<f64>,
    pub attempted: u64,
    /// Jobs rejected, errored, or whose outputs failed a check.
    pub failed: u64,
    /// Digest of the simulated outputs, compared against the goldens.
    pub digest: String,
    /// Human-readable lines for the log (failures, the model-error line).
    pub notes: Vec<String>,
    pub layers: Layers,
}

/// The set-up of a pass: `SETUP_REPS` timed calls of `make`, half before
/// the timed phase and half after it. The host's speed shifts within
/// seconds, and repetitions run back to back would all sample one moment
/// of it: across runs, `synth-sweep`'s set-up medians then fell into two
/// modes 1.6× apart.
pub struct Setup<F> {
    make: F,
    /// Host seconds of each repetition so far.
    pub times: Vec<f64>,
}

impl<F> Setup<F> {
    pub fn new(make: F) -> Self {
        Setup {
            make,
            times: Vec::new(),
        }
    }

    /// Runs half of the repetitions and returns the last one's result.
    /// `make` gets the repetition index.
    pub fn half<T>(&mut self) -> T
    where
        F: FnMut(usize) -> T,
    {
        let mut last = None;
        for _ in 0..SETUP_REPS / 2 {
            let t = Instant::now();
            last = Some((self.make)(self.times.len()));
            self.times.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one repetition")
    }
}

/// The step mode and step threads a default-configured network resolves
/// to in this process (environment overrides included).
fn resolved_engine() -> (String, usize) {
    let net = Network::new(NetworkConfig::mesh(Dims::new(4, 4))).expect("4x4 mesh is valid");
    (net.step_mode().name().to_string(), net.step_threads())
}

struct Args {
    workload: String,
    ctx: Ctx,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{name} needs a value"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let budget: f64 = get("--budget-s")?
        .parse()
        .map_err(|e| format!("--budget-s: {e}"))?;
    if !(budget >= 0.0 && budget.is_finite()) {
        return Err(format!(
            "--budget-s must be a finite number >= 0, not {budget}"
        ));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        ctx: Ctx {
            seed: num("--seed")?,
            workers: host::available_parallelism().min(2),
            work: PathBuf::from(get("--work-dir")?),
            deadline: Instant::now() + std::time::Duration::from_secs_f64(budget),
            tracer: trace.then(Tracer::new),
        },
        out: PathBuf::from(get("--out")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ruche-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.work).expect("create the pass work dir");
    let (step_mode, step_threads) = resolved_engine();
    let mut pass = match args.workload.as_str() {
        "synth-sweep" => synth::run(ctx),
        "manycore" => manycore::run(ctx),
        "repro-warm" => repro::run(ctx),
        w => {
            eprintln!("ruche-perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    let mut spans = Json::Arr(Vec::new());
    let mut self_s = Json::Obj(Vec::new());
    let mut bypassed = Vec::new();
    if let Some(tr) = ctx.tr() {
        probe::noc_probe(ctx, &mut pass.layers);
        bypassed = pass.layers.fill_bypassed();
        // Self times of the timed phase and of the attribution calls after
        // it, kept apart.
        let all = tr.spans();
        let timed_end = tr.timed_end();
        let phase = |timed: bool| {
            let own: Vec<_> = all
                .iter()
                .filter(|s| (s.start_ns < timed_end) == timed)
                .cloned()
                .collect();
            Json::Obj(
                trace::self_times(&own)
                    .into_iter()
                    .map(|(l, s)| (l.to_string(), Json::F64(s)))
                    .collect(),
            )
        };
        self_s = Json::Obj(vec![
            ("timed".into(), phase(true)),
            ("attribution".into(), phase(false)),
        ]);
        spans = trace::to_json(&all, timed_end);
    }
    let f64s = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::F64(x)).collect());
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::U64(ctx.seed)),
        ("workers".into(), Json::U64(ctx.workers as u64)),
        (
            "available_parallelism".into(),
            Json::U64(host::available_parallelism() as u64),
        ),
        ("step_mode".into(), Json::Str(step_mode)),
        ("step_threads".into(), Json::U64(step_threads as u64)),
        ("traced".into(), Json::Bool(ctx.tracer.is_some())),
        ("setup_s".into(), f64s(&pass.setup_s)),
        ("wall_s".into(), Json::F64(pass.wall_s)),
        ("cpu_s".into(), Json::F64(pass.cpu_s)),
        ("job_s".into(), f64s(&pass.job_s)),
        ("peak_rss_mb".into(), Json::F64(pass.peak_rss_mb)),
        ("attempted".into(), Json::U64(pass.attempted)),
        ("failed".into(), Json::U64(pass.failed)),
        ("digest".into(), Json::Str(pass.digest.clone())),
        (
            "notes".into(),
            Json::Arr(pass.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "layers".into(),
            Json::Obj(
                pass.layers
                    .0
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::F64(*v)),
                                ("unit".into(), Json::Str(u.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "bypassed".into(),
            Json::Arr(bypassed.iter().map(|l| Json::Str(l.to_string())).collect()),
        ),
        ("self_s".into(), self_s),
        ("spans".into(), spans),
    ]);
    std::fs::write(&args.out, record.render()).expect("write the pass record");
}
