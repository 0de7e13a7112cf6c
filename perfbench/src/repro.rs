//! `repro-warm`: the quick figure set regenerated against warm caches.
//!
//! Set-up copies the committed `results/` (result store and manycore suite
//! cache) into the pass's work dir, drops the copied CSVs (they are this
//! workload's outputs), opens the copied store to check it is warm, and
//! points `RUCHE_RESULTS_DIR` at the copy, so the repository's `results/`
//! is only ever read. The timed phase is `repro --quick` minus process
//! start: `preflight::verify_paper_grid`, then every figure function in
//! `repro` order.
//!
//! A job is one figure function call or one paper-grid proof. After the
//! timed phase the figure functions run `FIGURE_ROUNDS` more times, in
//! `repro` order, and each function's job time is its median over those
//! rounds: most take under a millisecond, and a single call follows the
//! host's speed at that moment. `verify_paper_grid` is a single call, so
//! each of its 54 proofs is timed in a loop of `ruche_verify::verify` calls
//! after the figure rounds. The proofs are the bulk of a `repro` run, and
//! with them both job percentiles fall inside a cluster of proofs rather
//! than on a gap between the clusters of figure and proof times.

use crate::host::Digest;
use crate::synth::{median, verify_layer};
use crate::trace::{span, Tracer};
use crate::{Ctx, Layers, Pass, Setup};
use ruche_bench::figures as f;
use ruche_bench::store::ResultStore;
use ruche_bench::Opts;
use std::path::{Path, PathBuf};

/// A figure function: its name, its `figures.*` group, and the function.
type Figure = (&'static str, &'static str, fn(Opts));

/// `repro`'s figure order, each with the `figures.*` group it counts to:
/// analytic models (`phys`), synthetic-traffic sweeps, manycore suite
/// consumers, and the mixed ablations.
const FIGURES: [Figure; 14] = [
    ("table1", "phys", f::table1::run),
    ("fig6", "synthetic", f::fig6::run),
    ("fig7", "phys", f::fig7::run),
    ("table2", "phys", f::table2::run),
    ("table3", "phys", f::table3::run),
    ("fig8", "synthetic", f::fig8::run),
    ("fig9", "synthetic", f::fig9::run),
    ("table4", "phys", f::table4::run),
    ("fig10", "manycore", f::fig10::run),
    ("fig11", "manycore", f::fig11::run),
    ("fig12", "manycore", f::fig12::run),
    ("fig13", "manycore", f::fig13::run),
    ("table6", "manycore", f::table6::run),
    ("ablations", "ablations", f::ablations::run),
];

const GROUPS: [&str; 4] = ["synthetic", "manycore", "phys", "ablations"];

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Copies the committed `results/` to `dir` without its CSVs, checks that
/// the copy holds a warm result store, and points the harness there.
fn warm_results(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(Path::new("results"), dir).expect("copy results/ (run from the repository root)");
    for entry in std::fs::read_dir(dir)
        .expect("read the results copy")
        .flatten()
    {
        if entry.path().extension().is_some_and(|e| e == "csv") {
            std::fs::remove_file(entry.path()).expect("drop a copied CSV");
        }
    }
    // Without stored results this workload would simulate every sweep
    // point and stop measuring a warm `repro`.
    assert!(
        !ResultStore::open(dir.join("sweep_store")).is_empty(),
        "results/sweep_store is empty: repro-warm needs a warm store"
    );
    std::env::set_var("RUCHE_RESULTS_DIR", dir);
    dir.to_path_buf()
}

pub fn run(ctx: &Ctx) -> Pass {
    let tr = ctx.tr();
    let mut setup = Setup::new(|rep| warm_results(&ctx.work.join(format!("repro-results-{rep}"))));
    let dir = setup.half();
    let opts = Opts::quick().with_threads(ctx.workers);
    let grid = ruche_verify::grid::paper_grid();
    let mut pass = Pass {
        attempted: (FIGURES.len() * (1 + FIGURE_ROUNDS) + grid.len()) as u64,
        ..Pass::default()
    };

    let (verified, preflight_s, figure_s) = ctx.timed(&mut pass, || {
        let (verified, preflight_s) =
            span(tr, "preflight", "verify_paper_grid", None, None, |_| {
                ruche_bench::preflight::verify_paper_grid()
            });
        (verified, preflight_s, figure_round(tr, opts))
    });
    let (digest, written) = csv_digest(&dir);
    pass.notes.push(format!("{written} CSV files written"));
    if !verified {
        pass.notes
            .push("preflight: the paper grid failed verification".into());
        pass.failed = pass.attempted;
    }

    // Figure jobs: each figure function's median over `FIGURE_ROUNDS` more
    // rounds, each of which must rewrite the same CSV bytes.
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); FIGURES.len()];
    for round in 1..=FIGURE_ROUNDS {
        for (i, s) in figure_round(tr, opts).into_iter().enumerate() {
            rounds[i].push(s);
        }
        if csv_digest(&dir).0 != digest {
            pass.notes
                .push(format!("figure round {round} wrote other CSV bytes"));
            pass.failed = pass.attempted;
        }
    }
    pass.job_s = rounds.iter_mut().map(|v| median(v)).collect();
    pass.digest = digest;
    // The second half of the set-up repoints `RUCHE_RESULTS_DIR` at new
    // copies; nothing reads it after the figure functions.
    setup.half();
    pass.setup_s = setup.times;

    // Proof jobs: the proofs `verify_paper_grid` ran, one each; every one
    // must be free of errors, as in the preflight. The grid lists the
    // configs of one array size together. Taken in a stride order, the
    // proofs of one size are timed at moments spread over the whole loop,
    // not within the same second of the host's speed.
    let stride = (PROOF_STRIDE..)
        .find(|&k| gcd(k, grid.len()) == 1)
        .expect("a stride coprime to the grid size");
    let mut config_s = vec![0.0; grid.len()];
    for i in (0..grid.len()).map(|n| n * stride % grid.len()) {
        let cfg = &grid[i];
        let name = format!("{} {}", cfg.dims, cfg.label());
        let (report, s) = span(tr, "verify", &name, None, Some(i as u64), |_| {
            ruche_verify::verify(cfg)
        });
        if report.has_errors() {
            pass.notes.push(format!("proof of {name} has errors"));
            pass.failed = (pass.failed + 1).min(pass.attempted);
        }
        config_s[i] = s;
    }
    pass.job_s.extend(&config_s);

    if tr.is_some() {
        let l = &mut pass.layers;
        let config_ms: Vec<f64> = config_s.iter().map(|s| s * 1e3).collect();
        verify_layer(l, &config_ms);
        l.set("preflight.verify_s", preflight_s, "s");
        figures_layer(l, &figure_s, |i| FIGURES[i].1);
        crate::probe::store_ops(ctx, &dir.join("sweep_store"), l);
    }
    pass
}

/// Rounds of the figure functions after the timed phase. A figure
/// function's job time is its median over them.
const FIGURE_ROUNDS: usize = 3;

/// The smallest stride the proof loop may take through the paper grid.
const PROOF_STRIDE: usize = 7;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Calls every figure function once, in `repro` order; returns the seconds
/// of each.
fn figure_round(tr: Option<&Tracer>, opts: Opts) -> Vec<f64> {
    FIGURES
        .iter()
        .enumerate()
        .map(|(i, (name, _, run))| span(tr, "figures", name, None, Some(i as u64), |_| run(opts)).1)
        .collect()
}

/// Digest of the names and bytes of every CSV in `dir`, and their count.
fn csv_digest(dir: &Path) -> (String, usize) {
    let mut csvs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read the results copy")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    csvs.sort();
    let mut d = Digest::new();
    for p in &csvs {
        d.record(&p.file_name().expect("file name").to_string_lossy());
        d.bytes(&std::fs::read(p).expect("read a written CSV"));
    }
    (d.hex(), csvs.len())
}

/// `figures.<group>_s` from per-figure seconds.
fn figures_layer(l: &mut Layers, figure_s: &[f64], group_of: impl Fn(usize) -> &'static str) {
    for g in GROUPS {
        let s: f64 = (0..figure_s.len())
            .filter(|&i| group_of(i) == g)
            .map(|i| figure_s[i])
            .sum();
        l.set(&format!("figures.{g}_s"), s, "s");
    }
}
