//! End-to-end tests of the static verifier: the paper's configurations
//! prove clean, and deliberately broken routing is provably caught with
//! concrete witnesses.

use ruche_noc::prelude::*;
use ruche_noc::routing::compute_route;
use ruche_verify::{
    grid, install_debug_hook, verify, verify_with, Lint, RouteId, Severity, Witness,
};

/// A debug-build-friendly sample of the paper grid: one of each topology
/// family, both crossbar schemes, both edge-traffic directions. The full
/// grid runs in release via the `verify_net` binary (CI `verify` job).
fn sample_configs() -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let dims = Dims::new(8, 8);
    let half = Dims::new(16, 8);
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::multi_mesh(dims),
        NetworkConfig::torus(dims),
        NetworkConfig::ruche_one(dims),
        NetworkConfig::full_ruche(dims, 2, Depopulated),
        NetworkConfig::full_ruche(dims, 3, FullyPopulated),
        NetworkConfig::half_torus(half).with_edge_memory_ports(),
        NetworkConfig::half_ruche(half, 3, Depopulated).with_edge_memory_ports(),
        NetworkConfig::half_ruche(half, 3, Depopulated)
            .with_edge_memory_ports()
            .with_dor(DorOrder::YX),
        NetworkConfig::mesh(half)
            .with_edge_memory_ports()
            .with_dor(DorOrder::YX),
    ]
}

#[test]
fn paper_sample_is_clean() {
    for cfg in sample_configs() {
        let report = verify(&cfg);
        assert!(
            report.is_clean(),
            "{} {} not clean:\n{report}",
            cfg.label(),
            cfg.dims
        );
        assert_eq!(report.stats.largest_scc, 1, "{}", cfg.label());
        assert!(report.stats.channels > 0, "{}", cfg.label());
    }
}

#[test]
fn paper_grid_enumerates_and_validates() {
    // The full grid is release-speed work; in the debug test suite just
    // prove it enumerates, validates, and contains the figure sets.
    let grid = grid::paper_grid();
    assert!(grid.len() >= 40);
    for cfg in &grid {
        cfg.validate().expect("grid config validates");
    }
}

/// The canonical broken configuration: a torus whose routes never switch
/// to VC 1 at the dateline. The ring's channel dependencies then chain
/// all the way around and the Dally–Seitz condition fails — the verifier
/// must prove it with a concrete cycle.
#[test]
fn dateline_disabled_torus_has_deadlock_cycle() {
    let cfg = NetworkConfig::torus(Dims::new(8, 8));
    let no_dateline = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let mut dec = compute_route(cfg, here, in_dir, in_vc, dest);
        dec.out_vc = 0; // dateline VC partitioning disabled
        dec
    };
    let report = verify_with(&cfg, &no_dateline);
    assert!(report.has_errors(), "{report}");
    assert!(report.stats.largest_scc > 1, "{report}");

    let cycle = report
        .of_lint(Lint::ChannelDeadlock)
        .find(|f| f.witness.is_some())
        .expect("a deadlock finding with a witness");
    assert_eq!(cycle.severity, Severity::Error);
    let Some(Witness::Cycle { channels, routes }) = &cycle.witness else {
        panic!("deadlock witness must be a cycle");
    };
    // A torus ring has at least 3 nodes, so any channel cycle spans at
    // least 3 channels; each dependency edge names its inducing route.
    assert!(channels.len() >= 3, "cycle too short: {channels:?}");
    assert_eq!(channels.len(), routes.len());
    // All channels on one dependency cycle sit on VC 0 of a single ring.
    assert!(channels.iter().all(|c| c.vc == 0));

    // The genuine dateline routing on the same config is clean.
    assert!(verify(&cfg).is_clean());
}

/// Routing Y-X on hardware whose crossbar only implements X-Y turns must
/// trip the crossbar-connectivity lint.
#[test]
fn wrong_dor_routing_violates_crossbar() {
    let cfg = NetworkConfig::mesh(Dims::new(6, 6));
    let yx = cfg.clone().with_dor(DorOrder::YX);
    let yx_route = move |_: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        compute_route(&yx, here, in_dir, in_vc, dest)
    };
    let report = verify_with(&cfg, &yx_route);
    assert!(report.has_errors(), "{report}");
    assert!(
        report.of_lint(Lint::CrossbarConnectivity).count() > 0,
        "{report}"
    );
}

/// A routing function that refuses to eject bounces forever; the
/// totality lint reports the hop-limit overrun (and minimal-progress
/// flags the non-decreasing hops).
#[test]
fn non_terminating_route_is_caught() {
    let cfg = NetworkConfig::mesh(Dims::new(6, 6));
    let bouncing = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let dec = compute_route(cfg, here, in_dir, in_vc, dest);
        if dec.out == Dir::P {
            let out = if here.x == 0 { Dir::E } else { Dir::W };
            RouteDecision { out, out_vc: 0 }
        } else {
            dec
        }
    };
    let report = verify_with(&cfg, &bouncing);
    assert!(report.of_lint(Lint::RouteTotality).count() > 0, "{report}");
    assert!(
        report.of_lint(Lint::MinimalProgress).count() > 0,
        "{report}"
    );
}

/// A route that walks off the array edge is reported with the partial
/// path as witness.
#[test]
fn route_leaving_the_array_is_caught() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4));
    let northbound = |_: &NetworkConfig, _: Coord, _: Dir, _: u8, _: Dest| RouteDecision {
        out: Dir::N,
        out_vc: 0,
    };
    let report = verify_with(&cfg, &northbound);
    let finding = report
        .of_lint(Lint::RouteTotality)
        .next()
        .expect("totality finding");
    assert_eq!(finding.severity, Severity::Error);
    assert!(matches!(finding.witness, Some(Witness::Route { .. })));
}

/// Dropping back to VC 0 mid-ring is legal hardware-wise but voids the
/// dateline ordering argument: warned, and (here) also a deadlock.
#[test]
fn vc_drop_on_ring_is_warned() {
    let cfg = NetworkConfig::torus(Dims::new(8, 8));
    let dropping = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let mut dec = compute_route(cfg, here, in_dir, in_vc, dest);
        // Invert the dateline discipline: start rides VC 1, crossing
        // drops to VC 0.
        if dec.out != dest.exit_dir() || dest.edge.is_some() {
            dec.out_vc = 1 - dec.out_vc;
        }
        dec
    };
    let report = verify_with(&cfg, &dropping);
    assert!(report.of_lint(Lint::VcMonotonicity).count() > 0, "{report}");
}

/// VC indices beyond the port's VC count are flagged on wormhole routers
/// (every port has exactly one VC).
#[test]
fn vc_out_of_range_is_flagged() {
    let cfg = NetworkConfig::mesh(Dims::new(4, 4));
    let vc9 = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let mut dec = compute_route(cfg, here, in_dir, in_vc, dest);
        dec.out_vc = 9;
        dec
    };
    let report = verify_with(&cfg, &vc9);
    assert!(report.of_lint(Lint::VcRange).count() > 0, "{report}");
}

/// The debug hook wires `verify_cached` into `Network::new`: after
/// installation, constructing any (clean) network still succeeds, and
/// the hook slot reports as taken.
#[test]
fn debug_hook_installs_and_passes_clean_configs() {
    let first = install_debug_hook();
    // Whether or not another test in this process got there first, the
    // second installation must report the slot as taken.
    assert!(!install_debug_hook() || first);
    let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated);
    let net = Network::new(cfg).expect("clean config constructs");
    assert_eq!(net.cycle(), 0);
}

/// Degenerate *line* arrays are fully supported and verify clean; the
/// single-tile array is rejected through the config lint.
#[test]
fn degenerate_lines_verify_clean_but_single_tile_fails() {
    for cfg in [
        NetworkConfig::mesh(Dims::new(8, 1)).with_edge_memory_ports(),
        NetworkConfig::mesh(Dims::new(1, 8)),
        NetworkConfig::multi_mesh(Dims::new(8, 1)),
        NetworkConfig::half_torus(Dims::new(8, 1)),
        NetworkConfig::half_ruche(Dims::new(8, 1), 3, CrossbarScheme::Depopulated),
    ] {
        let report = verify(&cfg);
        assert!(report.is_clean(), "{} {}: {report}", cfg.label(), cfg.dims);
    }
    let report = verify(&NetworkConfig::mesh(Dims::new(1, 1)));
    assert!(report.has_errors());
    assert_eq!(report.of_lint(Lint::Config).count(), 1, "{report}");
}

/// Reports render their witnesses in a human-readable form.
#[test]
fn reports_render_readably() {
    let cfg = NetworkConfig::torus(Dims::new(8, 8));
    let no_dateline = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let mut dec = compute_route(cfg, here, in_dir, in_vc, dest);
        dec.out_vc = 0;
        dec
    };
    let text = verify_with(&cfg, &no_dateline).render();
    assert!(text.contains("channel-deadlock"), "{text}");
    assert!(text.contains("dependency cycle"), "{text}");
    assert!(text.contains("held by route"), "{text}");

    let clean = verify(&NetworkConfig::mesh(Dims::new(4, 4))).render();
    assert!(clean.contains("clean"), "{clean}");
}

/// Every route to one destination funnels into a two-router loop, so all
/// but the first of them join a loop another route already walked. The
/// walk still ends, every one of those routes fails route totality, and
/// the first looping route in enumeration order is the witness, of the
/// totality finding and of both edges of the dependency cycle.
#[test]
fn routes_funnelling_into_one_loop_all_fail_totality() {
    let cfg = NetworkConfig::mesh(Dims::new(6, 6));
    let trap = Dest::tile(Coord::new(5, 5));
    let funnel = move |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        if dest != trap {
            return compute_route(cfg, here, in_dir, in_vc, dest);
        }
        match (here.x, here.y) {
            (2, 2) => RouteDecision {
                out: Dir::E,
                out_vc: 0,
            },
            (3, 2) => RouteDecision {
                out: Dir::W,
                out_vc: 0,
            },
            _ => compute_route(cfg, here, in_dir, in_vc, Dest::tile(Coord::new(2, 2))),
        }
    };
    let report = verify_with(&cfg, &funnel);
    let first = RouteId {
        src: Coord::new(0, 0),
        entry: Dir::P,
        dest: trap,
    };

    let totality: Vec<_> = report.of_lint(Lint::RouteTotality).collect();
    assert_eq!(totality.len(), 4, "{report}");
    assert_eq!(
        totality[3].message,
        "...and 33 more route-totality finding(s) suppressed"
    );
    assert!(
        totality[0].message.contains("did not terminate"),
        "{report}"
    );
    let Some(Witness::Route { route, steps }) = &totality[0].witness else {
        panic!("totality witness must be a route: {report}");
    };
    assert_eq!(*route, first);
    assert_eq!(steps.len(), cfg.max_route_hops() + 1);
    assert_eq!(
        steps[..3],
        [
            (Coord::new(0, 0), Dir::E),
            (Coord::new(1, 0), Dir::E),
            (Coord::new(2, 0), Dir::S)
        ]
    );

    let cycle = report
        .of_lint(Lint::ChannelDeadlock)
        .find_map(|f| match &f.witness {
            Some(Witness::Cycle { channels, routes }) => Some((channels, routes)),
            _ => None,
        })
        .expect("the loop is a dependency cycle");
    assert_eq!(cycle.0.len(), 2, "{report}");
    assert!(cycle.1.iter().all(|r| *r == first), "{report}");
}

/// Routes to the east column first run west to column 0 and then back
/// east, so the later sources of a row join the walk of an earlier one and
/// take their length from its stored remaining-hop count. The symmetry
/// lint compares those lengths with the plain X-Y routes of the mirror
/// image, so a wrong stored count would show in its message.
#[test]
fn routes_sharing_a_suffix_get_their_full_length() {
    let cfg = NetworkConfig::mesh(Dims::new(6, 6));
    let detour = |cfg: &NetworkConfig, here: Coord, in_dir: Dir, in_vc: u8, dest: Dest| {
        let westbound = in_dir == Dir::P || in_dir == Dir::E;
        if dest.coord.x == 5 && westbound && here.x > 0 {
            RouteDecision {
                out: Dir::W,
                out_vc: 0,
            }
        } else {
            compute_route(cfg, here, in_dir, in_vc, dest)
        }
    };
    let report = verify_with(&cfg, &detour);
    assert_eq!(report.of_lint(Lint::RouteTotality).count(), 0, "{report}");
    // (5,0)->(5,0) runs 5 hops west and 5 back, then ejects: 11 hops. Its
    // walk joins the one of (4,0)->(5,0) after two hops.
    let symmetry = report
        .of_lint(Lint::Symmetry)
        .next()
        .expect("the detour breaks X symmetry");
    assert_eq!(
        symmetry.message,
        "route (0,0)->(0,0) takes 1 hop(s) but its X mirror (5,0)->(5,0) takes 11"
    );
}
