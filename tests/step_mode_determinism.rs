//! Clock-advance determinism: a network driven through
//! `Network::fast_forward` (skipping quiescent spans) must be
//! **byte-identical** to the oracle, the same network with `step()` called
//! every cycle — same per-cycle ejection sequence, same snapshots, same
//! link loads, same telemetry counters — for every topology, dimension,
//! and fault model. The synthetic-traffic testbench, which fast-forwards
//! between injections, must likewise match a per-cycle injection loop
//! that never skips. See `docs/EVENTS.md` for why this holds by
//! construction: the only spans skipped are provably empty.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ruche::noc::packet::Flit;
use ruche::noc::prelude::*;
use ruche::stats::{Accum, Samples};
use ruche::traffic::{Pattern, TbResult, Testbench};

/// Strategy over network families, including degenerate 1×N / N×1 lines.
fn arb_config() -> impl Strategy<Value = NetworkConfig> {
    (1u16..=9, 1u16..=9, 0u8..=6, 1u16..=3, any::<bool>()).prop_map(
        |(cols, rows, kind, rf, pop)| {
            let dims = Dims::new(cols, rows);
            let rf = rf
                .min(cols.saturating_sub(1))
                .min(rows.saturating_sub(1))
                .max(1);
            let scheme = if pop || rf == 1 {
                CrossbarScheme::FullyPopulated
            } else {
                CrossbarScheme::Depopulated
            };
            match kind {
                0 => NetworkConfig::mesh(dims),
                1 => NetworkConfig::multi_mesh(dims),
                2 => NetworkConfig::torus(dims),
                3 => NetworkConfig::half_torus(dims),
                4 => NetworkConfig::full_ruche(dims, rf, scheme),
                5 => NetworkConfig::half_ruche(dims, rf, scheme),
                _ => NetworkConfig::ruche_one(dims),
            }
        },
    )
}

/// Precomputes a bursty injection schedule: uniform-random traffic at
/// `rate`% per tile, but only on cycles that are multiples of `gap` — so
/// large gaps leave quiescent spans for the event wheel to skip, and
/// `gap == 1` degenerates to dense traffic.
fn gen_schedule(
    net: &Network,
    seed: u64,
    rate: u32,
    gap: u64,
    cycles: u64,
) -> Vec<(u64, Coord, Flit)> {
    let dims = net.cfg().dims;
    let table = net.route_table().cloned();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut id = 0u64;
    let mut schedule = Vec::new();
    for cycle in (0..cycles).filter(|c| c.is_multiple_of(gap)) {
        for c in dims.iter() {
            if !rng.gen_ratio(rate, 100) {
                continue;
            }
            let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            if let Some(t) = &table {
                if !t.reachable(c, Dir::P, Dest::tile(d)) {
                    continue;
                }
            }
            schedule.push((cycle, c, Flit::single(c, Dest::tile(d), id, cycle)));
            id += 1;
        }
    }
    schedule
}

/// Drives `cycle_net` strictly cycle by cycle (the oracle) and `event_net`
/// through the fast-forward driver, and asserts they agree in lockstep:
/// whenever the event driver skips a span, the oracle replays it step by
/// step and must eject nothing; at every shared cycle the ejections (order
/// included) and snapshots must match; after drain the traversal counters
/// and per-link telemetry must match.
fn assert_mode_lockstep(
    mut cycle_net: Network,
    mut event_net: Network,
    seed: u64,
    rate: u32,
    gap: u64,
    cycles: u64,
) {
    cycle_net.attach_telemetry(64);
    event_net.attach_telemetry(64);
    let schedule = gen_schedule(&cycle_net, seed, rate, gap, cycles);
    let mut next = 0usize;
    let mut guard = 0u32;
    while event_net.cycle() < cycles || !event_net.is_quiescent() {
        // Replay any span the event driver skipped: it claimed the span
        // was empty, so the oracle must eject nothing in it.
        while cycle_net.cycle() < event_net.cycle() {
            let ej = cycle_net.step().to_vec();
            assert!(
                ej.is_empty(),
                "oracle ejected at cycle {} inside a skipped span",
                cycle_net.cycle()
            );
        }
        assert_eq!(cycle_net.cycle(), event_net.cycle(), "clocks diverged");
        while schedule
            .get(next)
            .is_some_and(|&(c, ..)| c == event_net.cycle())
        {
            let (_, src, f) = schedule[next];
            cycle_net.enqueue(cycle_net.tile_endpoint(src), f);
            event_net.enqueue(event_net.tile_endpoint(src), f);
            next += 1;
        }
        assert!(
            schedule
                .get(next)
                .is_none_or(|&(c, ..)| c > event_net.cycle()),
            "fast-forward skipped past a scheduled injection"
        );
        let a = cycle_net.step().to_vec();
        let b = event_net.step().to_vec();
        assert_eq!(a, b, "ejections diverge at cycle {}", event_net.cycle());
        assert_eq!(cycle_net.snapshot(), event_net.snapshot());
        let wake = schedule.get(next).map_or(cycles, |&(c, ..)| c);
        event_net.fast_forward(wake.min(cycles));
        guard += 1;
        assert!(guard < 100_000, "drain stalled");
    }
    while cycle_net.cycle() < event_net.cycle() {
        assert!(
            cycle_net.step().is_empty(),
            "oracle ejected inside the final skipped span"
        );
    }
    assert_eq!(cycle_net.snapshot(), event_net.snapshot());
    assert!(cycle_net.is_quiescent() && event_net.is_quiescent());
    let (la, lb) = (cycle_net.link_loads(), event_net.link_loads());
    assert!(
        la.iter().eq(lb.iter()),
        "per-link traversal counters diverge"
    );
    let (ta, tb) = (
        cycle_net.telemetry().expect("attached"),
        event_net.telemetry().expect("attached"),
    );
    let np = ta.ports().len();
    for node in 0..ta.n_nodes() {
        for port in 0..np {
            for vc in 0..ta.max_vcs() {
                assert_eq!(
                    ta.link(node, port, vc),
                    tb.link(node, port, vc),
                    "telemetry diverges at node {} port {} vc {}",
                    node,
                    port,
                    vc
                );
            }
        }
    }
}

/// The testbench loop without fast-forwarding, kept as the oracle for
/// `ruche::traffic::run`: per-cycle Bernoulli and destination draws in
/// `(cycle, tile)` order, interleaved with `step()` every cycle. `None`
/// wherever `run` returns an error.
fn interleaved_testbench(cfg: &NetworkConfig, tb: &Testbench) -> Option<TbResult> {
    tb.validate().ok()?;
    tb.pattern.validate(cfg.dims).ok()?;
    let mut cfg = cfg.clone();
    if tb.pattern.needs_edge_ports() {
        cfg.edge_memory_ports = true;
    }
    let dims = cfg.dims;
    let n_tiles = dims.count() as u64;
    let mut net = if tb.faults.is_empty() {
        Network::new(cfg).ok()?
    } else {
        Network::with_faults(cfg, &tb.faults).ok()?
    };
    let table = net.route_table().cloned();
    let mut rng = SmallRng::seed_from_u64(tb.seed);
    let inject_until = tb.warmup + tb.measure;
    let m_start = tb.warmup;
    let (mut next_id, mut expected, mut delivered, mut measured_flits) = (0u64, 0u64, 0u64, 0u64);
    let mut lat = Samples::new();
    let mut per_tile = vec![Accum::new(); n_tiles as usize];
    let deadline = inject_until + tb.drain;
    let mut cycle = 0u64;
    while cycle < deadline {
        if cycle < inject_until {
            for src in dims.iter() {
                if table.is_some() && !net.endpoint_alive(net.tile_endpoint(src)) {
                    continue;
                }
                if !rng.gen_bool(tb.injection_rate) {
                    continue;
                }
                let Some(dest) = tb.pattern.dest(src, dims, &mut rng) else {
                    continue;
                };
                if table
                    .as_ref()
                    .is_some_and(|t| !t.reachable(src, Dir::P, dest))
                {
                    continue;
                }
                if cycle >= m_start {
                    expected += 1;
                }
                let ep = net.tile_endpoint(src);
                for f in Flit::multi(src, dest, next_id, cycle, tb.packet_len) {
                    net.enqueue(ep, f);
                }
                next_id += 1;
            }
        }
        let in_measure = (m_start..inject_until).contains(&cycle);
        for &(_, f) in net.step() {
            if in_measure {
                measured_flits += 1;
            }
            if f.kind.is_tail() && f.birth >= m_start && f.birth < inject_until {
                let latency = (cycle - f.birth) as f64;
                lat.add(latency);
                per_tile[dims.index(f.src)].add(latency);
                delivered += 1;
            }
        }
        cycle += 1;
        if cycle >= inject_until && delivered == expected {
            break;
        }
    }
    let accepted = measured_flits as f64 / (n_tiles * tb.measure) as f64;
    let offered = tb.injection_rate * tb.packet_len as f64;
    let lost = expected - delivered;
    Some(TbResult {
        offered,
        accepted,
        avg_latency: lat.mean(),
        p99_latency: lat.quantile(0.99).unwrap_or(0.0),
        delivered,
        lost,
        per_tile_latency: per_tile,
        saturated: lost > 0 || accepted < 0.95 * offered - 0.005,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast-forwarding and stepping every cycle agree exactly on random
    /// topologies and bursty traffic.
    #[test]
    fn event_step_matches_cycle_accurate(
        cfg in arb_config(),
        seed in any::<u64>(),
        rate in 1u32..=50,
        gap in 1u64..=32,
    ) {
        prop_assume!(cfg.validate().is_ok());
        let cycle_net = Network::new(cfg.clone()).unwrap();
        let event_net = Network::new(cfg).unwrap();
        assert_mode_lockstep(cycle_net, event_net, seed, rate, gap, 120);
    }

    /// Same, under random link faults (detours change which spans are
    /// busy, not whether skipping is exact).
    #[test]
    fn event_step_matches_cycle_accurate_under_faults(
        seed in any::<u64>(),
        fseed in any::<u64>(),
        rate in 1u32..=40,
        gap in 1u64..=32,
    ) {
        let dims = Dims::new(8, 8);
        let cfg = NetworkConfig::mesh(dims);
        let faults = FaultModel::random_links(&cfg, 0.08, fseed);
        // A fault set the builder rejects has nothing to compare.
        if let Ok(cycle_net) = Network::with_faults(cfg.clone(), &faults) {
            let event_net = Network::with_faults(cfg, &faults).unwrap();
            assert_mode_lockstep(cycle_net, event_net, seed, rate, gap, 100);
        }
    }

    /// `Network::run` (which fast-forwards) reaches the same state as
    /// `step()` called every cycle: same final snapshot, same link loads.
    #[test]
    fn run_is_mode_independent(
        seed in any::<u64>(),
        burst in 1usize..=12,
    ) {
        let dims = Dims::new(6, 6);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut flits = Vec::new();
        for id in 0..burst as u64 {
            let s = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            flits.push((s, Flit::single(s, Dest::tile(d), id, 0)));
        }
        let mut snaps = Vec::new();
        for run in [false, true] {
            let mut net = Network::new(NetworkConfig::mesh(dims)).unwrap();
            for &(s, f) in &flits {
                net.enqueue(net.tile_endpoint(s), f);
            }
            if run {
                net.run(400);
            } else {
                for _ in 0..400 {
                    net.step();
                }
            }
            prop_assert_eq!(net.cycle(), 400);
            prop_assert!(net.is_quiescent());
            snaps.push((net.snapshot(), net.link_loads().iter().collect::<Vec<_>>()));
        }
        prop_assert_eq!(&snaps[0], &snaps[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The testbench, which fast-forwards between injections, matches the
    /// per-cycle injection loop exactly on random small topologies,
    /// patterns, rates from 0.001 to 0.5 and short windows, with and
    /// without random link faults and a dead router.
    #[test]
    fn testbench_matches_the_per_cycle_injection_loop(
        cfg in arb_config(),
        pattern in (0u8..=6, 0u16..9, 0u16..9),
        rate_milli in 1u32..=500,
        windows in (0u64..=60, 1u64..=120, 1u64..=200, 1usize..=3),
        seed in any::<u64>(),
        faults in (0u8..=2, 0u32..=15, any::<u64>()),
    ) {
        prop_assume!(cfg.validate().is_ok());
        let (kind, x, y) = pattern;
        let spot = Coord::new(x % cfg.dims.cols, y % cfg.dims.rows);
        let pattern = match kind {
            0 => Pattern::UniformRandom,
            1 => Pattern::BitComplement,
            2 => Pattern::Transpose,
            3 => Pattern::Tornado,
            4 => Pattern::Hotspot(spot),
            5 => Pattern::TileToMemory,
            _ => Pattern::Neighbor,
        };
        let (warmup, measure, drain, packet_len) = windows;
        // 0: no faults; 1: random links; 2: random links and a dead router.
        let (fault_kind, percent, fseed) = faults;
        let mut fault_model = FaultModel::default();
        if fault_kind > 0 {
            fault_model = FaultModel::random_links(&cfg, f64::from(percent) / 100.0, fseed);
        }
        if fault_kind > 1 {
            fault_model = fault_model.kill_router(spot);
        }
        let tb = Testbench {
            pattern,
            injection_rate: f64::from(rate_milli) / 1000.0,
            warmup,
            measure,
            drain,
            packet_len,
            seed,
            faults: fault_model,
        };
        prop_assert_eq!(ruche::traffic::run(&cfg, &tb).ok(), interleaved_testbench(&cfg, &tb));
    }
}

#[test]
fn quiescence_introspection_tracks_in_flight_traffic() {
    let dims = Dims::new(4, 4);
    let mut net = Network::new(NetworkConfig::mesh(dims)).unwrap();
    // A fresh network is quiescent with no next event.
    assert!(net.is_quiescent());
    assert_eq!(net.next_event_cycle(), None);
    // An enqueued flit wakes its source: the next event is *now*.
    let (src, dst) = (Coord::new(0, 0), Coord::new(3, 3));
    net.enqueue(
        net.tile_endpoint(src),
        Flit::single(src, Dest::tile(dst), 0, 0),
    );
    assert!(!net.is_quiescent());
    assert_eq!(net.next_event_cycle(), Some(net.cycle()));
    // While the packet is in flight the network stays busy...
    while net.snapshot().ejected == 0 {
        assert!(!net.is_quiescent());
        assert!(net.next_event_cycle().is_some());
        net.step();
    }
    // ...and once it ejects, quiescence returns.
    assert!(net.is_quiescent());
    assert_eq!(net.next_event_cycle(), None);
}

#[test]
fn fast_forward_skips_quiescent_spans_in_event_mode() {
    let mut net = Network::new(NetworkConfig::mesh(Dims::new(4, 4))).unwrap();
    assert_eq!(net.fast_forward(1_000), 1_000);
    assert_eq!(net.cycle(), 1_000);
    // A busy network refuses to skip: the next event is the current cycle.
    let (src, dst) = (Coord::new(0, 0), Coord::new(3, 3));
    net.enqueue(
        net.tile_endpoint(src),
        Flit::single(src, Dest::tile(dst), 0, net.cycle()),
    );
    assert_eq!(net.fast_forward(2_000), 1_000);
    assert_eq!(net.cycle(), 1_000);
}
