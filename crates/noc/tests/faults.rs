//! End-to-end behaviour of fault-injected networks: detoured delivery
//! through the cycle-accurate engine, partition surfacing, and the
//! property that faulted routing terminates for every pair — reaching the
//! destination within the hop bound or reporting `Unreachable`, never
//! livelocking.

// Whole-network property sweeps are minutes-per-case at interpreter speed.
#![cfg(not(miri))]

use proptest::prelude::*;
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use ruche_noc::routing::{trace, RouteId};

/// Drives `net` until idle, panicking if progress stalls (which would mean
/// a routing livelock or deadlock).
fn drain(net: &mut Network) -> Vec<(EndpointId, Flit)> {
    let mut out = Vec::new();
    while !net.snapshot().is_idle() {
        out.extend(net.step().iter().copied());
        assert!(
            net.snapshot().cycles_since_progress < 10_000,
            "network stalled at cycle {}",
            net.cycle()
        );
    }
    out
}

#[test]
fn faulted_mesh_delivers_every_reachable_pair() {
    let dims = Dims::new(6, 6);
    let cfg = NetworkConfig::mesh(dims);
    let faults = FaultModel::random_links(&cfg, 0.12, 11).kill_router(Coord::new(4, 2));
    let mut net = Network::with_faults(cfg, &faults).unwrap();
    let table = net
        .route_table()
        .expect("faulted network carries a table")
        .clone();

    let mut sent = 0u64;
    let mut id = 0;
    for s in dims.iter() {
        for d in dims.iter() {
            if s == d || !table.reachable(s, Dir::P, Dest::tile(d)) {
                continue;
            }
            net.enqueue(net.tile_endpoint(s), Flit::single(s, Dest::tile(d), id, 0));
            id += 1;
            sent += 1;
        }
    }
    assert!(sent > 0, "fault set disconnected the whole array");
    let delivered = drain(&mut net);
    assert_eq!(delivered.len() as u64, sent);
    let snap = net.snapshot();
    assert_eq!(snap.ejected, sent);
    assert_eq!(snap.injected, sent);
}

#[test]
fn detour_traffic_avoids_dead_channels() {
    let dims = Dims::new(4, 2);
    let cfg = NetworkConfig::mesh(dims);
    let (at, out) = (Coord::new(1, 0), Dir::E);
    let faults = FaultModel::default().kill_link(at, out);
    let mut net = Network::with_faults(cfg, &faults).unwrap();

    let (s, d) = (Coord::new(0, 0), Coord::new(3, 0));
    net.enqueue(net.tile_endpoint(s), Flit::single(s, Dest::tile(d), 0, 0));
    let delivered = drain(&mut net);
    assert_eq!(delivered.len(), 1);
    assert_eq!(net.endpoint_kind(delivered[0].0), EndpointKind::Tile(d));

    // Nothing crossed the dead channel, in either direction.
    let loads = net.link_loads();
    let e = loads.ports().iter().position(|&p| p == Dir::E).unwrap();
    let w = loads.ports().iter().position(|&p| p == Dir::W).unwrap();
    assert_eq!(loads.count(dims.index(at), e), 0);
    assert_eq!(loads.count(dims.index(Coord::new(2, 0)), w), 0);
}

#[test]
fn dead_router_endpoints_are_flagged_and_guarded() {
    let dims = Dims::new(4, 4);
    let cfg = NetworkConfig::mesh(dims);
    let dead = Coord::new(2, 2);
    let net = Network::with_faults(cfg, &FaultModel::default().kill_router(dead)).unwrap();
    for c in dims.iter() {
        assert_eq!(net.endpoint_alive(net.tile_endpoint(c)), c != dead);
    }
    let table = net.route_table().unwrap();
    let err = table
        .route(Coord::new(0, 0), Dir::P, Dest::tile(dead))
        .unwrap_err();
    assert!(matches!(err, RouteError::Unreachable { .. }));
}

#[test]
#[should_panic(expected = "dead endpoint")]
fn enqueue_at_dead_endpoint_panics() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4));
    let dead = Coord::new(1, 1);
    let mut net = Network::with_faults(cfg, &FaultModel::default().kill_router(dead)).unwrap();
    net.enqueue(
        net.tile_endpoint(dead),
        Flit::single(dead, Dest::tile(Coord::new(0, 0)), 0, 0),
    );
}

#[test]
fn empty_fault_model_builds_a_plain_network() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4));
    let net = Network::with_faults(cfg, &FaultModel::default()).unwrap();
    assert!(net.faults().is_none());
    assert!(net.route_table().is_none());
}

#[test]
fn faulted_ruche_survives_heavy_damage_end_to_end() {
    let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::FullyPopulated);
    let faults = FaultModel::random_links(&cfg, 0.2, 3);
    assert!(!faults.is_empty());
    let mut net = Network::with_faults(cfg, &faults).unwrap();
    let table = net.route_table().unwrap().clone();
    let dims = net.cfg().dims;
    let mut sent = 0u64;
    for (id, s) in dims.iter().enumerate() {
        let d = Coord::new(dims.cols - 1 - s.x, dims.rows - 1 - s.y);
        if d == s || !table.reachable(s, Dir::P, Dest::tile(d)) {
            continue;
        }
        net.enqueue(
            net.tile_endpoint(s),
            Flit::single(s, Dest::tile(d), id as u64, 0),
        );
        sent += 1;
    }
    let delivered = drain(&mut net);
    assert_eq!(delivered.len() as u64, sent);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The never-livelock property the fault subsystem is built around:
    /// for every topology family, fault rate, and seed, every ordered pair
    /// either routes to its destination within `max_route_hops` or
    /// reports `Unreachable` — a table walk can do nothing else.
    #[test]
    fn faulted_routing_terminates_for_every_pair(
        cols in 2u16..=8,
        rows in 2u16..=8,
        p_mil in 0u32..300,
        seed in any::<u64>(),
        topo in 0usize..3,
    ) {
        let p = f64::from(p_mil) / 1000.0;
        let dims = Dims::new(cols, rows);
        let cfg = match topo {
            0 => NetworkConfig::mesh(dims),
            1 if cols > 4 => {
                NetworkConfig::half_ruche(dims, 2, CrossbarScheme::FullyPopulated)
            }
            _ => NetworkConfig::multi_mesh(dims),
        };
        let faults = FaultModel::random_links(&cfg, p, seed);
        let table = RouteTable::build(&cfg, &faults).unwrap();
        let limit = cfg.max_route_hops();
        for s in dims.iter() {
            for d in dims.iter() {
                let route = RouteId { src: s, entry: Dir::P, dest: Dest::tile(d) };
                match trace(&cfg, route, |here, in_dir, _, dest| table.route(here, in_dir, dest)) {
                    Ok(path) => {
                        prop_assert!(path.len() <= limit, "{s}->{d}: {} hops", path.len());
                        let last = path[path.len() - 1];
                        prop_assert_eq!(last.here, d);
                        prop_assert_eq!(last.out, Dir::P);
                    }
                    Err((RouteError::Unreachable { .. }, _)) => {}
                    Err((e, _)) => prop_assert!(false, "{s}->{d}: {e}"),
                }
            }
        }
    }
}
