//! Golden pins for the step kernel: FNV-1a digests of what the engine
//! simulates, on small arrays, for every engine path — wormhole (mesh,
//! multi-mesh, Full/Half Ruche in both crossbar schemes, Ruche-One), the
//! VC router (torus), pipelined hops, and fault-aware routing — plus the
//! manycore machine on both of its networks.
//!
//! The lockstep suites compare the engine with itself, so a kernel change
//! that alters simulated results passes them. These digests were captured
//! from a known-good engine; any change to a digest is a change to the
//! simulation and must be justified, not re-pinned. On a mismatch the test
//! prints every recomputed digest.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use ruche::manycore::machine::{self, SystemConfig};
use ruche::manycore::prelude::{Benchmark, DatasetId, GraphId, Workload};
use ruche::noc::packet::Flit;
use ruche::noc::prelude::*;
use ruche::telemetry::JsonProbe;
use ruche::traffic::{self, Pattern, Testbench};

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn feed_str(&mut self, s: &str) {
        self.feed(s.as_bytes());
        self.feed(&[0xff]);
    }
}

fn export_json(tel: &NetTelemetry) -> String {
    let mut p = JsonProbe::new();
    tel.export(&mut p);
    p.into_json()
}

/// Drives `net` directly: bursts of mixed-length packets (1–3 flits) from
/// every live endpoint, separated by idle gaps that `run` fast-forwards,
/// then drains. Hashes every ejection with its cycle, and at the end the
/// snapshot, the link loads and the telemetry export.
fn drive(mut net: Network, seed: u64) -> u64 {
    net.attach_telemetry(32);
    let dims = net.cfg().dims;
    let table = net.route_table().cloned();
    let n_eps = net.endpoint_count();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    let mut id = 0u64;
    for burst in 0..3u64 {
        for _ in 0..40 {
            for e in 0..n_eps {
                let ep = EndpointId(e);
                if !net.endpoint_alive(ep) || !rng.gen_ratio(30, 100) {
                    continue;
                }
                let at = match net.endpoint_kind(ep) {
                    EndpointKind::Tile(c) => (c, Dir::P),
                    // Edge endpoints inject into the boundary router.
                    EndpointKind::NorthEdge(col) => (Coord::new(col, 0), Dir::N),
                    EndpointKind::SouthEdge(col) => (Coord::new(col, dims.rows - 1), Dir::S),
                };
                let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
                if matches!(net.endpoint_kind(ep), EndpointKind::Tile(c) if c == d) {
                    continue;
                }
                let dest = Dest::tile(d);
                if table
                    .as_ref()
                    .is_some_and(|t| !t.reachable(at.0, at.1, dest))
                {
                    continue;
                }
                let len = 1 + (id % 3) as usize;
                for f in Flit::multi(at.0, dest, id, net.cycle(), len) {
                    net.enqueue(ep, f);
                }
                id += 1;
            }
            let cycle = net.cycle();
            for (ep, f) in net.step() {
                h.feed_str(&format!("{cycle} {ep:?} {f:?}"));
            }
        }
        // Let the burst drain step by step, then leave an idle gap for the
        // fast-forward path.
        let mut guard = 0;
        while !net.is_quiescent() {
            let cycle = net.cycle();
            for (ep, f) in net.step() {
                h.feed_str(&format!("{cycle} {ep:?} {f:?}"));
            }
            guard += 1;
            assert!(guard < 20_000, "drain stalled");
        }
        net.run(25 + 10 * burst);
    }
    h.feed_str(&format!("{:?}", net.snapshot()));
    h.feed_str(&format!("{:?}", net.link_loads().raw()));
    h.feed_str(&export_json(net.telemetry().expect("attached")));
    h.0
}

/// Digest of one network case: the synthetic testbench's result at
/// single-flit and 3-flit packets (with the telemetry export of the
/// latter), and the direct drive, with edge endpoints where the topology
/// has edges.
fn network_digest(cfg: &NetworkConfig, faults: &FaultModel) -> u64 {
    let mut h = Fnv::new();
    let base = Testbench::builder(Pattern::UniformRandom, 0.2)
        .warmup(100)
        .measure(300)
        .drain(1_000)
        .faults(faults.clone());
    let tb = base.clone().build().expect("valid testbench");
    let res = traffic::run(cfg, &tb).expect("testbench runs");
    h.feed_str(&format!("{res:?}"));
    let tb3 = base
        .packet_len(3)
        .seed(11)
        .build()
        .expect("valid testbench");
    let (res3, tel) = traffic::run_probed(cfg, &tb3, 50).expect("testbench runs");
    h.feed_str(&format!("{res3:?}"));
    h.feed_str(&export_json(&tel));
    // Edge endpoints inject toward tiles, which needs the from-edge turns
    // whatever the DOR order. Tori have no edges to attach them to.
    let mut edge_cfg = cfg.clone().with_edge_memory_ports();
    edge_cfg.edge_bidirectional = true;
    let drive_cfg = if edge_cfg.validate().is_ok() {
        edge_cfg
    } else {
        cfg.clone()
    };
    let net = Network::with_faults(drive_cfg, faults).expect("valid network");
    h.feed(&drive(net, 5).to_le_bytes());
    h.0
}

fn network_cases() -> Vec<(String, NetworkConfig, FaultModel)> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let d6 = Dims::new(6, 6);
    let d8 = Dims::new(8, 6);
    let none = FaultModel::default;
    let mut cases: Vec<(String, NetworkConfig, FaultModel)> = [
        NetworkConfig::mesh(d6),
        NetworkConfig::multi_mesh(d6),
        NetworkConfig::full_ruche(d8, 2, FullyPopulated),
        NetworkConfig::full_ruche(d8, 3, Depopulated),
        NetworkConfig::half_ruche(d8, 2, FullyPopulated),
        NetworkConfig::half_ruche(d8, 2, Depopulated),
        NetworkConfig::ruche_one(d6),
        NetworkConfig::torus(d6),
        NetworkConfig::half_torus(d6),
        NetworkConfig::mesh(d6).with_pipeline_stages(1),
        NetworkConfig::torus(d6).with_pipeline_stages(2),
    ]
    .into_iter()
    .map(|cfg| {
        let label = match cfg.pipeline_stages {
            0 => cfg.label(),
            n => format!("{}+pipe{n}", cfg.label()),
        };
        (label, cfg, none())
    })
    .collect();
    for cfg in [
        NetworkConfig::mesh(d6),
        NetworkConfig::full_ruche(d8, 2, Depopulated),
    ] {
        let faults = FaultModel::random_links(&cfg, 0.08, 3);
        assert!(!faults.is_empty(), "the faulted case must inject faults");
        cases.push((format!("{}+faults", cfg.label()), cfg, faults));
    }
    cases
}

/// Recomputes every digest, printing each, and asserts they match `want`.
fn check(kind: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    for (label, d) in got {
        println!("        (\"{label}\", 0x{d:016x}),");
    }
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = want.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, want_labels, "{kind}: case list changed");
    let diverged: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((l, _), _)| l.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "{kind}: simulated results changed for {diverged:?} (recomputed digests printed above)"
    );
}

#[test]
fn network_engine_paths_match_the_golden_digests() {
    let got: Vec<(String, u64)> = network_cases()
        .iter()
        .map(|(label, cfg, faults)| (label.clone(), network_digest(cfg, faults)))
        .collect();
    check("network", &got, NETWORK_GOLDEN);
}

#[test]
fn manycore_runs_match_the_golden_digests() {
    let dims = Dims::new(8, 4);
    let nets = [
        NetworkConfig::mesh(dims),
        NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
        NetworkConfig::half_torus(dims),
    ];
    let mut got = Vec::new();
    for (bench, ds) in [
        (Benchmark::Jacobi, DatasetId::Default),
        (Benchmark::SpGemm, DatasetId::Graph(GraphId::Os)),
        (Benchmark::BarnesHut, DatasetId::Bh16K),
    ] {
        let w = Workload::build(bench, ds, dims);
        for net in &nets {
            let res = machine::run(&SystemConfig::new(net.clone()), &w).expect("run completes");
            let mut h = Fnv::new();
            h.feed_str(&format!("{res:?}"));
            got.push((format!("{}/{}", w.name, net.label()), h.0));
        }
    }
    check("manycore", &got, MANYCORE_GOLDEN);
}

const NETWORK_GOLDEN: &[(&str, u64)] = &[
    ("mesh", 0x1238c5ac284d66da),
    ("multi-mesh", 0x8925180749024a7c),
    ("ruche2-pop", 0x9d86f08127d37a53),
    ("ruche3-depop", 0xab29547f03c280e8),
    ("half-ruche2-pop", 0x48611fac7a2d4c00),
    ("half-ruche2-depop", 0x14cc8c4ff455b299),
    ("ruche1-pop", 0x3353415f0c819770),
    ("torus", 0x1a1fe325859591ba),
    ("half-torus", 0xa4c3b8da35f71739),
    ("mesh+pipe1", 0x7b22984241665423),
    ("torus+pipe2", 0x6e5d1a9d7dc0c336),
    ("mesh+faults", 0x75f8764cec6dbb52),
    ("ruche2-depop+faults", 0xb076c2d25215f82f),
];

const MANYCORE_GOLDEN: &[(&str, u64)] = &[
    ("jacobi/mesh", 0x9b0704219a075cb3),
    ("jacobi/half-ruche2-depop", 0xa0168d4eb0e26c65),
    ("jacobi/half-torus", 0xf6fdc69010e58e15),
    ("spgemm(OS)/mesh", 0x99082d020ede4e66),
    ("spgemm(OS)/half-ruche2-depop", 0x10772713af053d7e),
    ("spgemm(OS)/half-torus", 0xb7deb9a4decef67f),
    ("bh(16K)/mesh", 0x2108deddec610837),
    ("bh(16K)/half-ruche2-depop", 0xcc6757bda477b412),
    ("bh(16K)/half-torus", 0x60b90ea4c5ce7535),
];
