//! `repro telemetry`: per-link telemetry capture for one representative
//! configuration from each synthetic-traffic figure (6, 8, 9).
//!
//! For each capture the probed testbench reruns the figure's traffic with
//! a [`NetTelemetry`] instrument attached, writes the deterministic JSON
//! blob (`results/telemetry_<fig>_<label>.json`) with stall-cause
//! attribution, and prints the per-router X-channel utilization heatmap —
//! the mesh's bright mid-column bisection band versus the Ruche networks'
//! flattened profile. `docs/OBSERVABILITY.md` explains how to read both.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use ruche_noc::geometry::Axis;
use ruche_noc::prelude::*;
use ruche_stats::Heatmap;
use ruche_telemetry::JsonProbe;
use ruche_traffic::{run_probed, Pattern, Testbench};

/// Injection/ejection time-series bin width, cycles.
const WINDOW: u64 = 64;

/// One figure-representative capture.
struct Capture {
    fig: &'static str,
    cfg: NetworkConfig,
    pattern: Pattern,
    rate: f64,
}

/// The captured set: one config per synthetic-traffic figure, chosen to
/// exercise each router family — fig6's wormhole mesh near saturation,
/// fig8's credit/VC torus at low load, fig9's Half Ruche edge traffic.
fn captures() -> Vec<Capture> {
    vec![
        Capture {
            fig: "fig6",
            cfg: NetworkConfig::mesh(Dims::new(8, 8)),
            pattern: Pattern::UniformRandom,
            rate: 0.30,
        },
        Capture {
            fig: "fig8",
            cfg: NetworkConfig::torus(Dims::new(16, 16)),
            pattern: Pattern::UniformRandom,
            rate: 0.02,
        },
        Capture {
            fig: "fig9",
            cfg: NetworkConfig::half_ruche(Dims::new(16, 8), 2, CrossbarScheme::Depopulated),
            pattern: Pattern::TileToMemory,
            rate: 0.10,
        },
    ]
}

/// Per-router flits/cycle forwarded on X-axis channels (local and Ruche),
/// the quantity the figures' bisection arguments are about.
fn x_utilization_grid(tel: &NetTelemetry, dims: Dims) -> Vec<f64> {
    let mut grid = vec![0.0f64; dims.count()];
    let cycles = tel.cycles().max(1) as f64;
    for (node, cell) in grid.iter_mut().enumerate().take(tel.n_nodes()) {
        for (p, dir) in tel.ports().iter().enumerate() {
            if dir.axis() == Some(Axis::X) {
                *cell += tel.traversed(node, p) as f64 / cycles;
            }
        }
    }
    grid
}

/// Runs every capture: JSON artifact plus printed heatmap.
pub fn run(opts: Opts) {
    banner(
        "Telemetry",
        "per-link counters and stall attribution for one representative config per figure",
    );
    for c in captures() {
        let dims = c.cfg.dims;
        let label = c.cfg.label();
        let b = Testbench::builder(c.pattern, c.rate);
        let tb = if opts.quick { b.quick() } else { b }
            .build()
            .expect("capture testbench is valid");
        let (res, tel) = run_probed(&c.cfg, &tb, WINDOW).expect("pattern fits the array");

        let mut probe = JsonProbe::new();
        probe.annotate("config", &label);
        probe.annotate("figure", c.fig);
        probe.annotate("pattern", &format!("{:?}", c.pattern));
        probe.annotate("rate", &format!("{:.3}", c.rate));
        tel.export(&mut probe);
        write_artifact(
            opts.quick,
            &format!("telemetry_{}_{label}.json", c.fig),
            &probe.into_json(),
        );

        let title = format!(
            "{} {label} {:?} @ {:.2}: X-channel utilization per router, flits/cycle \
             (accepted {:.3}{})",
            c.fig,
            c.pattern,
            c.rate,
            res.accepted,
            if res.saturated { ", saturated" } else { "" },
        );
        let map = Heatmap::new(
            &title,
            dims.cols as usize,
            dims.rows as usize,
            x_utilization_grid(&tel, dims),
        )
        .expect("grid matches dims");
        print!("{}", map.render());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_cover_all_three_figures_and_validate() {
        let caps = captures();
        let figs: Vec<&str> = caps.iter().map(|c| c.fig).collect();
        assert_eq!(figs, ["fig6", "fig8", "fig9"]);
        for c in &caps {
            assert!(c.cfg.validate().is_ok(), "{}", c.cfg.label());
            assert!((0.0..=1.0).contains(&c.rate));
        }
    }

    #[test]
    fn x_grid_sums_x_ports_only() {
        let dims = Dims::new(4, 4);
        let mut net = Network::new(NetworkConfig::mesh(dims)).unwrap();
        net.attach_telemetry(WINDOW);
        // One flit straight east across the top row.
        let (src, dst) = (Coord::new(0, 0), Coord::new(3, 0));
        net.enqueue(
            net.tile_endpoint(src),
            ruche_noc::packet::Flit::single(src, Dest::tile(dst), 0, 0),
        );
        while !net.snapshot().is_idle() {
            net.step();
        }
        let tel = net.telemetry().unwrap();
        let grid = x_utilization_grid(tel, dims);
        // Three eastward link traversals, at nodes 0, 1, 2 of row 0; the
        // final P-port ejection is not an X-channel.
        assert!(grid[0] > 0.0 && grid[1] > 0.0 && grid[2] > 0.0, "{grid:?}");
        assert_eq!(grid[3], 0.0, "{grid:?}");
        assert!(grid[4..].iter().all(|&v| v == 0.0), "{grid:?}");
    }
}
