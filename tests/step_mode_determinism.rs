//! Step-mode determinism: a network stepped by the event wheel
//! (`StepMode::EventDriven`, fast-forwarding quiescent spans) must be
//! **byte-identical** to the cycle-accurate engine — same per-cycle
//! ejection sequence, same snapshots, same link loads, same telemetry
//! counters — for every topology, dimension, and fault model. See
//! `docs/EVENTS.md` for why this holds by construction: the only spans
//! skipped are provably empty.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ruche::noc::packet::Flit;
use ruche::noc::prelude::*;

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

/// Drives `cycle_net` strictly cycle by cycle and `event_net` through the
/// fast-forward driver, and asserts they agree in lockstep: whenever the
/// event engine skips a span, the cycle-accurate engine replays it step by
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
    assert_eq!(
        cycle_net.step_mode(),
        StepMode::CycleAccurate,
        "control must run cycle-accurate"
    );
    cycle_net.attach_telemetry(64);
    event_net.attach_telemetry(64);
    let schedule = gen_schedule(&cycle_net, seed, rate, gap, cycles);
    let mut next = 0usize;
    let mut guard = 0u32;
    while event_net.cycle() < cycles || !event_net.is_quiescent() {
        // Replay any span the event engine skipped: it claimed the span
        // was empty, so the cycle-accurate engine must eject nothing in it.
        while cycle_net.cycle() < event_net.cycle() {
            let ej = cycle_net.step().to_vec();
            assert!(
                ej.is_empty(),
                "cycle-accurate engine ejected at cycle {} inside a skipped span",
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
            "cycle-accurate engine ejected inside the final skipped span"
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Event-driven and cycle-accurate execution agree exactly on random
    /// topologies and bursty traffic.
    #[test]
    fn event_step_matches_cycle_accurate(
        cfg in arb_config(),
        seed in any::<u64>(),
        rate in 1u32..=50,
        gap in 1u64..=32,
    ) {
        prop_assume!(cfg.validate().is_ok());
        let cycle_net = Network::new(cfg.clone().with_step_mode(StepMode::CycleAccurate)).unwrap();
        let event_net = Network::new(cfg.with_step_mode(StepMode::EventDriven)).unwrap();
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
        let cycle_net = Network::with_faults(
            cfg.clone().with_step_mode(StepMode::CycleAccurate), &faults,
        );
        let event_net = Network::with_faults(
            cfg.with_step_mode(StepMode::EventDriven), &faults,
        );
        match (cycle_net, event_net) {
            (Ok(c), Ok(e)) => assert_mode_lockstep(c, e, seed, rate, gap, 100),
            // A fault set the builder rejects must be rejected in any mode.
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "engines disagree on {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// `Network::run` reaches the same state in both modes: same final
    /// snapshot, same link loads.
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
        for mode in [StepMode::CycleAccurate, StepMode::EventDriven] {
            let cfg = NetworkConfig::mesh(dims).with_step_mode(mode);
            let mut net = Network::new(cfg).unwrap();
            for &(s, f) in &flits {
                net.enqueue(net.tile_endpoint(s), f);
            }
            net.run(400);
            prop_assert_eq!(net.cycle(), 400);
            prop_assert!(net.is_quiescent());
            snaps.push((net.snapshot(), net.link_loads().iter().collect::<Vec<_>>()));
        }
        prop_assert_eq!(&snaps[0], &snaps[1]);
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
fn fast_forward_is_a_no_op_in_cycle_accurate_mode() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4)).with_step_mode(StepMode::CycleAccurate);
    let mut net = Network::new(cfg).unwrap();
    assert!(net.is_quiescent());
    assert_eq!(net.fast_forward(1_000), 0, "cycle mode must never skip");
    assert_eq!(net.cycle(), 0);
}

#[test]
fn fast_forward_skips_quiescent_spans_in_event_mode() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4)).with_step_mode(StepMode::EventDriven);
    let mut net = Network::new(cfg).unwrap();
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

#[test]
fn step_mode_resolution_prefers_the_config_knob() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4));
    // With no config knob the mode comes from `RUCHE_STEP_MODE`, falling
    // back to cycle-accurate (the whole test suite runs under either).
    let fallback = std::env::var("RUCHE_STEP_MODE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(StepMode::CycleAccurate);
    let net = Network::new(cfg.clone()).unwrap();
    assert_eq!(net.step_mode(), fallback);
    // The config knob always wins over the environment.
    let other = match fallback {
        StepMode::CycleAccurate => StepMode::EventDriven,
        StepMode::EventDriven => StepMode::CycleAccurate,
    };
    let net = Network::new(cfg.with_step_mode(other)).unwrap();
    assert_eq!(net.step_mode(), other);
}
