//! Layer measurements a traced pass makes outside its timed phase.
//!
//! The `noc` layer is always measured here, by driving
//! `Network::enqueue`/`step` directly, and the `store` operations are timed
//! here by explicit calls, on the workload's own store when it has one.

use crate::synth::median;
use crate::trace::span;
use crate::{Ctx, Layers};
use ruche_bench::store::ResultStore;
use ruche_noc::prelude::*;
use ruche_traffic::TbResult;
use std::path::Path;

/// Times store open (median of 3), then per-operation medians of 64
/// puts, hits and misses, and one flush, on the store at `dir`.
pub fn store_ops(ctx: &Ctx, dir: &Path, l: &mut Layers) {
    const N: usize = 64;
    let tr = ctx.tr();
    let mut open_ms = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let (s, secs) = span(tr, "store", "open", None, None, |_| ResultStore::open(dir));
        open_ms.push(secs * 1e3);
        store = Some(s);
    }
    let store = store.expect("opened");
    let value = TbResult {
        offered: 0.1,
        accepted: 0.1,
        avg_latency: 12.5,
        p99_latency: 30.0,
        delivered: 1000,
        lost: 0,
        per_tile_latency: Vec::new(),
        saturated: false,
    };
    let each = |name: &str, op: &dyn Fn(usize)| {
        let mut us: Vec<f64> = (0..N)
            .map(|i| span(tr, "store", name, None, None, |_| op(i)).1 * 1e6)
            .collect();
        median(&mut us)
    };
    let put = each("put", &|i| {
        store.put(&format!("perfbench-probe|{i}"), &value)
    });
    let hit = each("get", &|i| {
        assert!(store.get(&format!("perfbench-probe|{i}")).is_some());
    });
    let miss = each("get", &|i| {
        assert!(store.get(&format!("perfbench-absent|{i}")).is_none());
    });
    let (_, flush_s) = span(tr, "store", "flush", None, None, |_| store.flush());
    l.set("store.open_ms", median(&mut open_ms), "ms");
    l.set("store.get_miss_us", miss, "us");
    l.set("store.get_hit_us", hit, "us");
    l.set("store.put_us", put, "us");
    l.set("store.flush_ms", flush_s * 1e3, "ms");
}

/// Drives 16×16 networks directly: single-flit uniform-random traffic at
/// a low and a past-saturation rate, on a wormhole (mesh) and a VC
/// (torus) router.
pub fn noc_probe(ctx: &Ctx, l: &mut Layers) {
    const WARMUP: u64 = 300;
    const MEASURE: u64 = 1500;
    let dims = Dims::new(16, 16);
    let tiles: Vec<Coord> = dims.iter().collect();
    let mut new_ms = Vec::new();
    let (mut all_ns, mut all_cycles, mut all_hops) = (0.0, 0u64, 0u64);
    for (kind, cfg) in [
        ("wormhole", NetworkConfig::mesh(dims)),
        ("vc", NetworkConfig::torus(dims)),
    ] {
        let (mut kind_ns, mut kind_cycles) = (0.0, 0u64);
        for (load, rate) in [("low", 0.02), ("high", 0.30)] {
            let (net, s) = span(ctx.tr(), "noc", "Network::new", None, None, |_| {
                Network::new(cfg.clone()).expect("probe network is valid")
            });
            new_ms.push(s * 1e3);
            let mut net = net;
            // xorshift64*: cheap, fixed-seed traffic.
            let mut x: u64 = (0x9E37_79B9_7F4A_7C15 ^ ctx.seed) | 1;
            let mut rand = move || {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let threshold = (rate * u32::MAX as f64) as u64;
            let mut id = 0u64;
            let mut cycle_fn = |net: &mut Network| {
                let now = net.cycle();
                for &src in &tiles {
                    let r = rand();
                    if (r >> 32) < threshold {
                        let dst = tiles[(r as u32 as usize) % tiles.len()];
                        if dst != src {
                            let ep = net.tile_endpoint(src);
                            net.enqueue(ep, Flit::single(src, Dest::tile(dst), id, now));
                            id += 1;
                        }
                    }
                }
                net.step();
            };
            for _ in 0..WARMUP {
                cycle_fn(&mut net);
            }
            let hops0: u64 = net.link_loads().raw().iter().sum();
            let (_, s) = span(
                ctx.tr(),
                "noc",
                &format!("step {kind} {load}"),
                None,
                None,
                |_| {
                    for _ in 0..MEASURE {
                        cycle_fn(&mut net);
                    }
                },
            );
            let hops: u64 = net.link_loads().raw().iter().sum::<u64>() - hops0;
            l.set(
                &format!("noc.step_ns_{kind}_{load}"),
                s * 1e9 / MEASURE as f64,
                "ns",
            );
            kind_ns += s * 1e9;
            kind_cycles += MEASURE;
            all_hops += hops;
        }
        l.set(
            &format!("noc.step_ns_{kind}"),
            kind_ns / kind_cycles as f64,
            "ns",
        );
        all_ns += kind_ns;
        all_cycles += kind_cycles;
    }
    l.set("noc.new_ms", median(&mut new_ms), "ms");
    l.set("noc.cycles", all_cycles as f64, "count");
    l.set("noc.flit_hops", all_hops as f64, "count");
    l.set("noc.ns_per_flit_hop", all_ns / all_hops.max(1) as f64, "ns");
}
