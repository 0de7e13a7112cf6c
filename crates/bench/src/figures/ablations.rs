//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's own sweeps:
//!
//! 1. **Input FIFO depth** — the paper argues two-element minimal buffering
//!    suffices for Ruche routers (§3.2); sweep 1..8 and watch saturation.
//! 2. **Ruche Factor beyond 3** — extend Figure 6's RF sweep to RF 4–5 on
//!    16×16 to expose the diminishing-returns knee.
//! 3. **Core memory-level parallelism** — the manycore's outstanding-
//!    request limit, which moves workloads between latency-bound and
//!    bandwidth-bound regimes.
//! 4. **Channel width** — router area/energy scaling at 32..256 bits
//!    (the paper's argument against widening channels for bandwidth).

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::sweep::{self, SweepRunner};
use ruche_manycore::prelude::*;
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_phys::{min_cycle_time_fo4, router_area, EnergyModel, RouterParams, Tech};
use ruche_stats::{fmt_f, Csv, Table};
use ruche_traffic::Pattern;

fn fifo_depth_ablation(opts: Opts, runner: &mut SweepRunner, csv: &mut Csv) {
    let dims = if opts.quick {
        Dims::new(8, 8)
    } else {
        Dims::new(16, 16)
    };
    println!("-- ablation 1: input FIFO depth ({dims} uniform random saturation) --");
    let bases = |dims| {
        [
            NetworkConfig::mesh(dims),
            NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
            NetworkConfig::torus(dims),
        ]
    };
    let jobs: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&depth| {
            bases(dims).map(|b| {
                sweep::saturation_job(&b.with_fifo_depth(depth), Pattern::UniformRandom, 5)
            })
        })
        .collect();
    let results = runner.run_all(&jobs);
    let mut next = results.iter();

    let mut t = Table::new(vec!["depth", "mesh", "ruche2-depop", "torus"]);
    for depth in [1usize, 2, 4, 8] {
        let mut row = vec![depth.to_string()];
        for base in bases(dims) {
            let cfg = base.with_fifo_depth(depth);
            let sat = next.next().expect("saturation result").accepted;
            csv.row([
                "fifo_depth".to_string(),
                cfg.label(),
                depth.to_string(),
                fmt_f(sat, 4),
            ]);
            row.push(fmt_f(sat, 3));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("expected: depth 2 captures nearly all of the throughput (credit round");
    println!("trip = 2 cycles); depth 1 halves link utilization; deeper buffers only");
    println!("help the VC router, at area cost the paper charges against it.\n");
}

fn ruche_factor_ablation(opts: Opts, runner: &mut SweepRunner, csv: &mut Csv) {
    let dims = if opts.quick {
        Dims::new(8, 8)
    } else {
        Dims::new(16, 16)
    };
    println!("-- ablation 2: Ruche Factor sweep ({dims} uniform random) --");
    let tech = Tech::n12();
    let mut t = Table::new(vec!["config", "sat thpt", "zero-load hops", "router area"]);
    let mut cfgs = vec![NetworkConfig::mesh(dims)];
    let max_rf = if opts.quick { 3 } else { 5 };
    for rf in 1..=max_rf {
        cfgs.push(if rf == 1 {
            NetworkConfig::ruche_one(dims)
        } else {
            NetworkConfig::full_ruche(dims, rf, CrossbarScheme::Depopulated)
        });
    }
    let jobs: Vec<_> = cfgs
        .iter()
        .map(|c| sweep::saturation_job(c, Pattern::UniformRandom, 5))
        .collect();
    let results = runner.run_all(&jobs);
    for (cfg, res) in cfgs.into_iter().zip(&results) {
        let sat = res.accepted;
        let hops = mean_route_hops(&cfg);
        let area = router_area(&RouterParams::of(&cfg), &tech).total();
        csv.row([
            "ruche_factor".to_string(),
            cfg.label(),
            fmt_f(sat, 4),
            fmt_f(hops, 3),
        ]);
        t.row(vec![
            cfg.label(),
            fmt_f(sat, 3),
            fmt_f(hops, 2),
            fmt_f(area, 0),
        ]);
    }
    println!("{}", t.render());
    println!("expected: throughput and hop count improve with RF while router area is");
    println!("flat — the paper's 'use longer wires for cost-effective gains' guideline —");
    println!("with a knee once RF approaches the array radius.\n");
}

fn mlp_ablation(opts: Opts, csv: &mut Csv) {
    println!("-- ablation 3: core outstanding-request limit (manycore, 16x8) --");
    let dims = Dims::new(16, 8);
    let (bench, ds) = (Benchmark::Fft, DatasetId::Fft16K);
    let w = Workload::build(bench, ds, dims);
    let limits: &[u32] = if opts.quick {
        &[4, 16]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let mut t = Table::new(vec![
        "outstanding",
        "mesh cycles",
        "mesh congestion",
        "ruche2 speedup",
    ]);
    for &out in limits {
        let mut sys = SystemConfig::new(NetworkConfig::mesh(dims));
        sys.max_outstanding = out;
        let mesh = ruche_manycore::machine::run(&sys, &w).expect("run completes");
        let mut sys2 = SystemConfig::new(NetworkConfig::half_ruche(
            dims,
            2,
            CrossbarScheme::Depopulated,
        ));
        sys2.max_outstanding = out;
        let ruche = ruche_manycore::machine::run(&sys2, &w).expect("run completes");
        let speedup = mesh.cycles as f64 / ruche.cycles as f64;
        csv.row([
            "mlp".to_string(),
            out.to_string(),
            mesh.cycles.to_string(),
            fmt_f(speedup, 3),
        ]);
        t.row(vec![
            out.to_string(),
            mesh.cycles.to_string(),
            fmt_f(mesh.load_latency.congestion.mean(), 1),
            fmt_f(speedup, 2),
        ]);
    }
    println!("{}", t.render());
    println!("expected: more MLP shifts the workload from latency-bound to bandwidth-");
    println!("bound; congestion (and the ruche advantage) grows with the limit until");
    println!("the bisection, not the cores, sets the pace.\n");
}

fn channel_width_ablation(_opts: Opts, csv: &mut Csv) {
    println!("-- ablation 4: channel width scaling (phys models) --");
    let dims = Dims::new(8, 8);
    let tech = Tech::n12();
    let mut t = Table::new(vec![
        "width",
        "mesh area",
        "ruche2-depop area",
        "min FO4 (mesh)",
        "pJ/hop (mesh E)",
    ]);
    for bits in [32u32, 64, 128, 256] {
        let mut mesh = NetworkConfig::mesh(dims);
        mesh.channel_width_bits = bits;
        let mut ruche = NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated);
        ruche.channel_width_bits = bits;
        let am = router_area(&RouterParams::of(&mesh), &tech).total();
        let ar = router_area(&RouterParams::of(&ruche), &tech).total();
        let fo4 = min_cycle_time_fo4(&RouterParams::of(&mesh), &tech);
        let pj = EnergyModel::new(&mesh, tech).hop_energy_pj(Dir::E);
        csv.row([
            "channel_width".to_string(),
            bits.to_string(),
            fmt_f(am, 0),
            fmt_f(ar, 0),
        ]);
        t.row(vec![
            bits.to_string(),
            fmt_f(am, 0),
            fmt_f(ar, 0),
            fmt_f(fo4, 1),
            fmt_f(pj, 2),
        ]);
    }
    println!("{}", t.render());
    println!("expected: area and energy scale linearly with width (the paper's §1");
    println!("argument that widening channels is not a scalable bandwidth lever),");
    println!("while a ruche2 router at 128b costs less than a mesh router at 256b.");
}

fn pipelined_torus_ablation(opts: Opts, runner: &mut SweepRunner, csv: &mut Csv) {
    println!("-- ablation 5: pipelining the torus router (§3.2 quantified) --");
    // Figure 7 shows the torus cannot reach the Ruche cycle time without
    // pipelining. Here we grant it that pipeline stage and measure what it
    // costs at the network level: hop latency up, and the lengthened
    // credit loop starves two-element FIFOs unless buffers deepen (which
    // Table 2 then charges as area).
    let dims = if opts.quick {
        Dims::new(8, 8)
    } else {
        Dims::new(16, 16)
    };
    let mut t = Table::new(vec!["config", "zero-load lat", "sat thpt"]);
    let cases = vec![
        NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
        NetworkConfig::torus(dims),
        NetworkConfig::torus(dims).with_pipeline_stages(1),
        NetworkConfig::torus(dims)
            .with_pipeline_stages(1)
            .with_fifo_depth(4),
    ];
    let labels = [
        "ruche2-depop (1 cyc/hop)",
        "torus (1 cyc/hop, optimistic)",
        "torus pipelined (2 cyc/hop)",
        "torus pipelined, 4-deep FIFOs",
    ];
    let jobs: Vec<_> = cases
        .iter()
        .flat_map(|c| {
            [
                sweep::zero_load_job(c, Pattern::UniformRandom, 5),
                sweep::saturation_job(c, Pattern::UniformRandom, 5),
            ]
        })
        .collect();
    let results = runner.run_all(&jobs);
    let mut next = results.iter();
    for (_cfg, label) in cases.into_iter().zip(labels) {
        let zl = next.next().expect("zero-load result").avg_latency;
        let sat = next.next().expect("saturation result").accepted;
        csv.row([
            "pipelined_torus".to_string(),
            label.to_string(),
            fmt_f(zl, 2),
            fmt_f(sat, 4),
        ]);
        t.row(vec![label.to_string(), fmt_f(zl, 1), fmt_f(sat, 3)]);
    }
    println!("{}", t.render());
    println!("expected: Figure 6's torus curves are *optimistic* (they grant it the");
    println!("Ruche cycle time); once pipelined to meet timing, the torus loses zero-");
    println!("load latency and, with minimal buffering, throughput too — recovering");
    println!("only by doubling its FIFO depth (more of the area Table 2 charges).\n");
}

fn dor_order_ablation(_opts: Opts, csv: &mut Csv) {
    println!("-- ablation 6: response-network DOR order (Abts et al. via §4) --");
    // The paper routes requests X-Y and responses Y-X, citing Abts et al.
    // that this placement is best for all-to-edge traffic. Measure what
    // X-Y responses would cost instead.
    let dims = Dims::new(16, 8);
    let mut t = Table::new(vec!["resp DOR", "mesh cycles", "ruche2 cycles"]);
    for (name, dor) in [("Y-X (paper)", DorOrder::YX), ("X-Y", DorOrder::XY)] {
        let w = Workload::build(Benchmark::Fft, DatasetId::Fft16K, dims);
        let mut row = vec![name.to_string()];
        for net in [
            NetworkConfig::mesh(dims),
            NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
        ] {
            let mut sys = SystemConfig::new(net);
            sys.resp_dor = dor;
            let r = ruche_manycore::machine::run(&sys, &w).expect("run completes");
            row.push(r.cycles.to_string());
        }
        csv.row([
            "resp_dor".to_string(),
            name.to_string(),
            row[1].clone(),
            row[2].clone(),
        ]);
        t.row(row);
    }
    println!("{}", t.render());
    println!("expected: X-Y responses funnel all memory return traffic through the");
    println!("edge rows before spreading, congesting row 0 / row N-1 — Y-X responses");
    println!("(the paper's choice) run faster on both networks.\n");
}

fn design_point_32x8_ablation(opts: Opts, csv: &mut Csv) {
    println!("-- ablation 7: the paper's unevaluated 32x8 + ruche3 design point --");
    // §4.5: "32×8 with Ruche3 appears to be an interesting design point,
    // since it can match the bisection and memory-tile bandwidth 1:1."
    // The paper never simulates it; we do.
    let mut suite = crate::suite::Suite::load();
    let workloads: Vec<(Benchmark, DatasetId)> = if opts.quick {
        vec![(Benchmark::Fft, DatasetId::Fft16K)]
    } else {
        vec![
            (Benchmark::Sgemm, DatasetId::Default),
            (Benchmark::Fft, DatasetId::Fft16K),
            (
                Benchmark::PageRank,
                DatasetId::Graph(ruche_manycore::prelude::GraphId::Pk),
            ),
        ]
    };
    let mut t = Table::new(vec!["workload", "array", "cycles", "cycles x tiles (norm)"]);
    for &(bench, ds) in &workloads {
        let mut base_work = None;
        for dims in [Dims::new(32, 8), Dims::new(32, 16), Dims::new(64, 8)] {
            let cfg = NetworkConfig::half_ruche(dims, 3, CrossbarScheme::FullyPopulated);
            let e = suite.get_or_run(dims, &cfg, bench, ds);
            // cycles × tiles ∝ core-seconds: lower = better per-core use.
            let work = e.cycles as f64 * dims.count() as f64;
            let norm = work / *base_work.get_or_insert(work);
            csv.row([
                "design_32x8".to_string(),
                format!("{dims}"),
                e.cycles.to_string(),
                fmt_f(norm, 3),
            ]);
            t.row(vec![
                ruche_manycore::prelude::Workload::build_name(bench, ds),
                format!("{dims} ruche3-pop"),
                e.cycles.to_string(),
                fmt_f(norm, 2),
            ]);
        }
    }
    println!("{}", t.render());
    println!("expected: 32x8+ruche3 (bisection = memory BW, 1:1) gets the best");
    println!("per-core utilization — the bigger arrays finish sooner but burn more");
    println!("than proportionally many core-cycles on the same fixed problem.\n");
}

/// Runs all seven ablations and writes `ablations.csv`.
pub fn run(opts: Opts) {
    banner("Ablations", "design-choice sweeps beyond the paper");
    let mut csv = Csv::new();
    csv.row(["ablation", "x", "y1", "y2"]);
    // The synthetic-traffic ablations share one sweep runner (and thus one
    // cache handle); the manycore ablations stay serial — their workload
    // runs go through the `suite` cache instead.
    let mut runner = SweepRunner::new(opts);
    fifo_depth_ablation(opts, &mut runner, &mut csv);
    ruche_factor_ablation(opts, &mut runner, &mut csv);
    mlp_ablation(opts, &mut csv);
    channel_width_ablation(opts, &mut csv);
    pipelined_torus_ablation(opts, &mut runner, &mut csv);
    dor_order_ablation(opts, &mut csv);
    design_point_32x8_ablation(opts, &mut csv);
    write_artifact(opts.quick, "ablations.csv", csv.as_str());
}
