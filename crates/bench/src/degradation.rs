//! `repro degradation`: the graceful-degradation sweep.
//!
//! Sweeps link-fault probability over the three topology families the
//! paper's bandwidth argument contrasts — mesh, Half Ruche, and Full
//! Ruche — measuring saturation throughput and zero-load latency as the
//! network degrades, plus how much surviving traffic the up\*/down\* fault
//! routing displaces onto detour channels (and what share of those
//! detours ride the Ruche channels). Results land in
//! `results/BENCH_degradation.json`, rendered deterministically: the same
//! fault seeds yield byte-identical JSON.
//!
//! Every faulted sample is statically verified by
//! [`ruche_verify::verify_faulted_cached`] before a single cycle is
//! simulated; a rejected sample (cycle witness or invalid model) is
//! recorded as `"verified": false` and skipped. See `docs/RESILIENCE.md`
//! for how to read the curves.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::sweep::{SweepJob, SweepRunner, MODEL_VERSION};
use ruche_noc::fault::FaultModel;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, Table};
use ruche_traffic::{run_probed, Pattern, Testbench, TestbenchBuilder};
use std::fmt::Write as _;

/// Injection/ejection time-series bin width for the attribution runs.
const WINDOW: u64 = 64;
/// Offered load of the detour-attribution runs: low enough that the
/// faulted network is unsaturated at every swept fault rate, so per-link
/// traversal deltas measure routing displacement, not congestion collapse.
const ATTRIBUTION_RATE: f64 = 0.05;
/// Traffic seed shared by the faulted attribution runs and their unfaulted
/// baselines, so the per-link delta reflects the fault model alone.
const ATTRIBUTION_SEED: u64 = 7;

/// The degradation sweep's topology families.
fn topologies(dims: Dims) -> Vec<NetworkConfig> {
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
        NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
    ]
}

/// Swept link-fault probabilities.
fn fault_rates(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.05, 0.15]
    } else {
        (0..=10).map(|i| 0.02 * f64::from(i)).collect()
    }
}

/// Fault seeds (one fault realization each, averaged in the summary).
fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1]
    } else {
        vec![1, 2, 3]
    }
}

/// One simulated `(topology, fault rate, seed)` sample.
struct Sample {
    seed: u64,
    dead_links: usize,
    dead_routers: usize,
    /// Fraction of ordered source/destination pairs still connected.
    connected_pairs: f64,
    /// Whether the faulted configuration passed static verification
    /// (unverified samples carry zeroed metrics).
    verified: bool,
    saturation: f64,
    zero_load: f64,
    /// Flits that appeared on links beyond the unfaulted baseline run —
    /// surviving traffic displaced onto detour channels.
    displaced_flits: u64,
    /// Share of the displaced flits that rode Ruche channels.
    detour_ruche_fraction: f64,
}

/// Per-link traversal totals of a probed run.
fn traversal_profile(cfg: &NetworkConfig, tb: &Testbench) -> (Vec<u64>, Vec<Dir>) {
    let (_, tel) = run_probed(cfg, tb, WINDOW).expect("attribution run is valid");
    let ports = tel.ports().to_vec();
    let mut flat = Vec::with_capacity(tel.n_nodes() * ports.len());
    for n in 0..tel.n_nodes() {
        for p in 0..ports.len() {
            flat.push(tel.traversed(n, p));
        }
    }
    (flat, ports)
}

/// Displaced-traffic attribution: per-link traversal delta of the faulted
/// run over the unfaulted baseline at the same (low) load. Positive
/// deltas are detour traffic; the Ruche share tells how much of the
/// rerouting the long-range channels absorbed.
fn attribute_detours(
    cfg: &NetworkConfig,
    baseline: &[u64],
    ports: &[Dir],
    faults: &FaultModel,
) -> (u64, f64) {
    let tb = attribution_tb()
        .faults(faults.clone())
        .build()
        .expect("attribution testbench is valid");
    let (faulted, _) = traversal_profile(cfg, &tb);
    let np = ports.len();
    let mut displaced = 0u64;
    let mut on_ruche = 0u64;
    for (i, (&f, &b)) in faulted.iter().zip(baseline).enumerate() {
        let d = f.saturating_sub(b);
        displaced += d;
        if ports[i % np].is_ruche() {
            on_ruche += d;
        }
    }
    let fraction = if displaced == 0 {
        0.0
    } else {
        on_ruche as f64 / displaced as f64
    };
    (displaced, fraction)
}

fn attribution_tb() -> TestbenchBuilder {
    // Quick windows regardless of mode: attribution is a low-load routing
    // diagnostic, not a throughput measurement.
    Testbench::builder(Pattern::UniformRandom, ATTRIBUTION_RATE)
        .quick()
        .seed(ATTRIBUTION_SEED)
}

fn metric_tb(rate: f64, seed: u64, faults: &FaultModel, quick: bool) -> Testbench {
    let b = Testbench::builder(Pattern::UniformRandom, rate).seed(seed);
    let b = if quick { b.quick() } else { b };
    b.faults(faults.clone())
        .build()
        .expect("degradation testbench is valid")
}

/// Renders the full degradation sweep as deterministic JSON. Split from
/// [`run`] so the determinism test can compare two renders byte for byte.
pub fn render(opts: Opts) -> String {
    let dims = if opts.quick {
        Dims::new(8, 8)
    } else {
        Dims::new(16, 8)
    };
    let rates = fault_rates(opts.quick);
    let seeds = seeds(opts.quick);

    // Phase 1: enumerate every sample, verify it, and queue the metric
    // simulations as sweep jobs (fanned out across the worker pool; the
    // keyed cache makes warm reruns cheap).
    struct Pending {
        topo: usize,
        rate: usize,
        seed: u64,
        faults: FaultModel,
        verified: bool,
        sat_job: Option<usize>,
        zl_job: Option<usize>,
    }
    let topos = topologies(dims);
    let mut pending = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for (ti, cfg) in topos.iter().enumerate() {
        for (ri, &p) in rates.iter().enumerate() {
            for &seed in &seeds {
                let faults = FaultModel::random_links(cfg, p, seed);
                let verified = match ruche_verify::verify_faulted_cached(cfg, &faults) {
                    Ok(()) => true,
                    Err(report) => {
                        eprintln!(
                            "degradation: {} at fault rate {p} (seed {seed}) REJECTED:\n{report}",
                            cfg.label()
                        );
                        false
                    }
                };
                let (sat_job, zl_job) = if verified {
                    let sat = jobs.len();
                    jobs.push(SweepJob::new(
                        cfg.clone(),
                        metric_tb(1.0, 3, &faults, opts.quick),
                    ));
                    let zl = jobs.len();
                    jobs.push(SweepJob::new(
                        cfg.clone(),
                        metric_tb(0.005, 3, &faults, opts.quick),
                    ));
                    (Some(sat), Some(zl))
                } else {
                    (None, None)
                };
                pending.push(Pending {
                    topo: ti,
                    rate: ri,
                    seed,
                    faults,
                    verified,
                    sat_job,
                    zl_job,
                });
            }
        }
    }
    let mut runner = SweepRunner::new(opts);
    let results = runner.run_all(&jobs);

    // Phase 2: attribution runs (sequential: each needs its own probed
    // network) against one unfaulted baseline profile per topology.
    let baselines: Vec<(Vec<u64>, Vec<Dir>)> = topos
        .iter()
        .map(|cfg| {
            let tb = attribution_tb()
                .build()
                .expect("baseline testbench is valid");
            traversal_profile(cfg, &tb)
        })
        .collect();

    let mut samples: Vec<Vec<Vec<Sample>>> = (0..topos.len())
        .map(|_| (0..rates.len()).map(|_| Vec::new()).collect())
        .collect();
    for p in &pending {
        let cfg = &topos[p.topo];
        let table = ruche_noc::fault::RouteTable::build(cfg, &p.faults);
        let connected = table.as_ref().map_or(0.0, |t| t.connected_pair_fraction());
        let (displaced, ruche_frac) = if p.verified {
            let (base, ports) = &baselines[p.topo];
            attribute_detours(cfg, base, ports, &p.faults)
        } else {
            (0, 0.0)
        };
        samples[p.topo][p.rate].push(Sample {
            seed: p.seed,
            dead_links: p.faults.dead_links().len(),
            dead_routers: p.faults.dead_routers().len(),
            connected_pairs: connected,
            verified: p.verified,
            saturation: p.sat_job.map_or(0.0, |i| results[i].accepted),
            zero_load: p.zl_job.map_or(0.0, |i| results[i].avg_latency),
            displaced_flits: displaced,
            detour_ruche_fraction: ruche_frac,
        });
    }

    // Phase 3: deterministic JSON.
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"degradation\",");
    let _ = writeln!(out, "  \"model_version\": \"{MODEL_VERSION}\",");
    let _ = writeln!(out, "  \"quick\": {},", opts.quick);
    let _ = writeln!(out, "  \"dims\": \"{}x{}\",", dims.cols, dims.rows);
    let _ = writeln!(out, "  \"pattern\": \"uniform-random\",");
    let _ = writeln!(
        out,
        "  \"fault_rates\": [{}],",
        rates
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  \"seeds\": [{}],",
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"topologies\": [");
    for (ti, cfg) in topos.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"label\": \"{}\",", cfg.label());
        let _ = writeln!(out, "      \"points\": [");
        for (ri, &p) in rates.iter().enumerate() {
            let group = &samples[ti][ri];
            let mean = |f: &dyn Fn(&Sample) -> f64| {
                let live: Vec<f64> = group.iter().filter(|s| s.verified).map(f).collect();
                if live.is_empty() {
                    0.0
                } else {
                    live.iter().sum::<f64>() / live.len() as f64
                }
            };
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"fault_rate\": {p:.2},");
            let _ = writeln!(
                out,
                "          \"mean_saturation_throughput\": {:.6},",
                mean(&|s| s.saturation)
            );
            let _ = writeln!(
                out,
                "          \"mean_zero_load_latency\": {:.6},",
                mean(&|s| s.zero_load)
            );
            let _ = writeln!(
                out,
                "          \"mean_connected_pairs\": {:.6},",
                mean(&|s| s.connected_pairs)
            );
            let _ = writeln!(out, "          \"samples\": [");
            for (si, s) in group.iter().enumerate() {
                let _ = writeln!(out, "            {{");
                let _ = writeln!(out, "              \"seed\": {},", s.seed);
                let _ = writeln!(out, "              \"verified\": {},", s.verified);
                let _ = writeln!(out, "              \"dead_links\": {},", s.dead_links);
                let _ = writeln!(out, "              \"dead_routers\": {},", s.dead_routers);
                let _ = writeln!(
                    out,
                    "              \"connected_pairs\": {:.6},",
                    s.connected_pairs
                );
                let _ = writeln!(
                    out,
                    "              \"saturation_throughput\": {:.6},",
                    s.saturation
                );
                let _ = writeln!(
                    out,
                    "              \"zero_load_latency\": {:.6},",
                    s.zero_load
                );
                let _ = writeln!(
                    out,
                    "              \"displaced_flits\": {},",
                    s.displaced_flits
                );
                let _ = writeln!(
                    out,
                    "              \"detour_ruche_fraction\": {:.6}",
                    s.detour_ruche_fraction
                );
                let _ = write!(out, "            }}");
                let _ = writeln!(out, "{}", if si + 1 < group.len() { "," } else { "" });
            }
            let _ = writeln!(out, "          ]");
            let _ = write!(out, "        }}");
            let _ = writeln!(out, "{}", if ri + 1 < rates.len() { "," } else { "" });
        }
        let _ = writeln!(out, "      ]");
        let _ = write!(out, "    }}");
        let _ = writeln!(out, "{}", if ti + 1 < topos.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Runs the degradation sweep: prints the summary table and writes
/// `results/BENCH_degradation.json`.
pub fn run(opts: Opts) {
    banner(
        "Degradation",
        "graceful degradation under link/router faults: mesh vs Half Ruche vs Full Ruche",
    );
    let json = render(opts);
    // Re-derive the printed summary from the same data the JSON carries.
    let mut t = Table::new(vec![
        "config",
        "fault rate",
        "connected",
        "sat thpt",
        "zero-load lat",
        "ruche detour",
    ]);
    for topo in parse_summary(&json) {
        for p in topo.1 {
            t.row(vec![
                topo.0.clone(),
                fmt_f(p.0, 2),
                fmt_f(p.3, 3),
                fmt_f(p.1, 3),
                fmt_f(p.2, 1),
                fmt_f(p.4, 2),
            ]);
        }
    }
    println!("{}", t.render());
    println!("reading: saturation decays gracefully with fault rate; Ruche topologies");
    println!("hold more headroom (channel diversity absorbs detours) and their");
    println!("detour-attribution column shows the Ruche channels carrying them.");
    write_artifact(opts.quick, "BENCH_degradation.json", &json);
}

/// Minimal extraction of the per-point summary rows back out of the
/// rendered JSON (label, then per point: rate, sat, zero-load, connected,
/// ruche detour fraction averaged over samples).
#[allow(clippy::type_complexity)]
fn parse_summary(json: &str) -> Vec<(String, Vec<(f64, f64, f64, f64, f64)>)> {
    let mut topos = Vec::new();
    let mut cur: Option<(String, Vec<(f64, f64, f64, f64, f64)>)> = None;
    let mut point: Option<(f64, f64, f64, f64)> = None;
    let mut fracs: Vec<f64> = Vec::new();
    let grab = |line: &str| -> f64 {
        line.split(':')
            .nth(1)
            .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
            .unwrap_or(0.0)
    };
    for line in json.lines() {
        let l = line.trim();
        if let Some(label) = l.strip_prefix("\"label\": \"") {
            if let Some(t) = cur.take() {
                topos.push(t);
            }
            cur = Some((label.trim_end_matches("\",").to_string(), Vec::new()));
        } else if l.starts_with("\"fault_rate\":") {
            point = Some((grab(l), 0.0, 0.0, 0.0));
            fracs.clear();
        } else if l.starts_with("\"mean_saturation_throughput\":") {
            if let Some(p) = point.as_mut() {
                p.1 = grab(l);
            }
        } else if l.starts_with("\"mean_zero_load_latency\":") {
            if let Some(p) = point.as_mut() {
                p.2 = grab(l);
            }
        } else if l.starts_with("\"mean_connected_pairs\":") {
            if let Some(p) = point.as_mut() {
                p.3 = grab(l);
            }
        } else if l.starts_with("\"detour_ruche_fraction\":") {
            fracs.push(grab(l));
        } else if l == "]" || l == "]," {
            // end of a samples array: fold the finished point into the
            // current topology (harmlessly refolds on other closers).
            if let (Some(p), Some(t)) = (point.take(), cur.as_mut()) {
                let frac = if fracs.is_empty() {
                    0.0
                } else {
                    fracs.iter().sum::<f64>() / fracs.len() as f64
                };
                t.1.push((p.0, p.1, p.2, p.3, frac));
            }
        }
    }
    if let Some(t) = cur.take() {
        topos.push(t);
    }
    topos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_set_covers_the_three_families() {
        let labels: Vec<String> = topologies(Dims::new(8, 8))
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels, ["mesh", "half-ruche2-depop", "ruche2-depop"]);
        for cfg in topologies(Dims::new(16, 8)) {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn fault_rate_grid_spans_zero_to_twenty_percent() {
        let quick = fault_rates(true);
        assert_eq!(quick.first(), Some(&0.0));
        assert!(quick.iter().all(|&p| (0.0..=0.20).contains(&p)));
        let full = fault_rates(false);
        assert_eq!(full.len(), 11);
        assert_eq!(full.first(), Some(&0.0));
        assert!((full.last().unwrap() - 0.20).abs() < 1e-12);
        assert_eq!(seeds(true).len(), 1);
        assert_eq!(seeds(false).len(), 3);
    }

    #[test]
    fn summary_parser_reads_back_the_render() {
        // A tiny hand-rolled blob in the render's exact shape.
        let json = "\
{
  \"topologies\": [
    {
      \"label\": \"mesh\",
      \"points\": [
        {
          \"fault_rate\": 0.05,
          \"mean_saturation_throughput\": 0.250000,
          \"mean_zero_load_latency\": 8.500000,
          \"mean_connected_pairs\": 0.990000,
          \"samples\": [
            {
              \"detour_ruche_fraction\": 0.400000
            }
          ]
        }
      ]
    }
  ]
}
";
        let topos = parse_summary(json);
        assert_eq!(topos.len(), 1);
        assert_eq!(topos[0].0, "mesh");
        let (rate, sat, zl, conn, frac) = topos[0].1[0];
        assert_eq!(rate, 0.05);
        assert_eq!(sat, 0.25);
        assert_eq!(zl, 8.5);
        assert_eq!(conn, 0.99);
        assert_eq!(frac, 0.4);
    }
}
