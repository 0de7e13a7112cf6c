//! Golden pins for every crossbar the route walk derives: the FNV-1a
//! digest of `Connectivity::of`'s port list and `allowed` matrix, with its
//! connection count and largest mux, for each paper-grid configuration
//! and for the other topology classes the simulator builds.
//!
//! The `crossbar-connectivity` lint only checks that routes fit the
//! matrix, so a matrix that gains a connection would still pass it; the
//! simulator's debug assert and the `phys` area and energy models read
//! these matrices directly. On a mismatch the test prints the recomputed
//! table.

use ruche_noc::prelude::*;
use ruche_verify::grid;

/// `<digest> <connections> <max mux>  <config>`, paper grid first, then
/// the extra classes, each in its list order.
const GOLDEN: &str = "\
5992695fefc1a7d5 17 5  mesh 8x8 XY\n\
da910005f9224d76 33 9  multi-mesh 8x8 XY\n\
5992695fefc1a7d5 17 5  torus 8x8 XY\n\
dff13898cacaff20 33 9  ruche1-pop 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche2-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche2-depop 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche3-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche3-depop 8x8 XY\n\
5992695fefc1a7d5 17 5  mesh 16x16 XY\n\
da910005f9224d76 33 9  multi-mesh 16x16 XY\n\
5992695fefc1a7d5 17 5  torus 16x16 XY\n\
dff13898cacaff20 33 9  ruche1-pop 16x16 XY\n\
1f64dcec12c7bf94 45 9  ruche2-pop 16x16 XY\n\
10e09a5925e6b6a2 29 7  ruche2-depop 16x16 XY\n\
1f64dcec12c7bf94 45 9  ruche3-pop 16x16 XY\n\
10e09a5925e6b6a2 29 7  ruche3-depop 16x16 XY\n\
5992695fefc1a7d5 17 5  mesh 16x8 XY edge\n\
5992695fefc1a7d5 17 5  half-torus 16x8 XY edge\n\
84895da706082b35 23 5  half-ruche2-depop 16x8 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche2-pop 16x8 XY edge\n\
84895da706082b35 23 5  half-ruche3-depop 16x8 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche3-pop 16x8 XY edge\n\
5992695fefc1a7d5 17 5  mesh 32x16 XY edge\n\
5992695fefc1a7d5 17 5  half-torus 32x16 XY edge\n\
84895da706082b35 23 5  half-ruche2-depop 32x16 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche2-pop 32x16 XY edge\n\
84895da706082b35 23 5  half-ruche3-depop 32x16 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche3-pop 32x16 XY edge\n\
5992695fefc1a7d5 17 5  mesh 64x8 XY edge\n\
5992695fefc1a7d5 17 5  half-torus 64x8 XY edge\n\
84895da706082b35 23 5  half-ruche2-depop 64x8 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche2-pop 64x8 XY edge\n\
84895da706082b35 23 5  half-ruche3-depop 64x8 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche3-pop 64x8 XY edge\n\
84895da706082b35 23 5  half-ruche4-depop 64x8 XY edge\n\
d2bd73c9afcd0603 29 7  half-ruche4-pop 64x8 XY edge\n\
b24abc517abc48cd 17 5  mesh 16x8 YX edge\n\
b24abc517abc48cd 17 5  half-torus 16x8 YX edge\n\
6709172d2c6e7cef 23 7  half-ruche2-depop 16x8 YX edge\n\
6a09ac927f4eb547 29 7  half-ruche2-pop 16x8 YX edge\n\
6709172d2c6e7cef 23 7  half-ruche3-depop 16x8 YX edge\n\
6a09ac927f4eb547 29 7  half-ruche3-pop 16x8 YX edge\n\
b24abc517abc48cd 17 5  mesh 32x16 YX edge\n\
b24abc517abc48cd 17 5  half-torus 32x16 YX edge\n\
6709172d2c6e7cef 23 7  half-ruche2-depop 32x16 YX edge\n\
6a09ac927f4eb547 29 7  half-ruche2-pop 32x16 YX edge\n\
6709172d2c6e7cef 23 7  half-ruche3-depop 32x16 YX edge\n\
6a09ac927f4eb547 29 7  half-ruche3-pop 32x16 YX edge\n\
41076a499672bfe1 21 5  mesh 16x8 XY edge-both\n\
41076a499672bfe1 21 5  half-torus 16x8 XY edge-both\n\
b76aac69a44b2929 31 5  half-ruche2-depop 16x8 XY edge-both\n\
4cbdb6be1ec1cb37 37 7  half-ruche2-pop 16x8 XY edge-both\n\
b76aac69a44b2929 31 5  half-ruche3-depop 16x8 XY edge-both\n\
4cbdb6be1ec1cb37 37 7  half-ruche3-pop 16x8 XY edge-both\n\
dff13898cacaff20 33 9  ruche1-pop 8x8 XY\n\
da910005f9224d76 33 9  multi-mesh 8x8 XY\n\
5992695fefc1a7d5 17 5  half-torus 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche2-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche2-depop 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche3-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche3-depop 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche4-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche4-depop 8x8 XY\n\
1f64dcec12c7bf94 45 9  ruche5-pop 8x8 XY\n\
10e09a5925e6b6a2 29 7  ruche5-depop 8x8 XY\n";

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The configurations beyond the paper grid: Ruche-One, multi-mesh, Full
/// Ruche at RF 2–5 in both crossbar schemes, and half-torus.
fn extra_configs() -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let dims = Dims::new(8, 8);
    let mut v = vec![
        NetworkConfig::ruche_one(dims),
        NetworkConfig::multi_mesh(dims),
        NetworkConfig::half_torus(dims),
    ];
    for rf in 2..=5 {
        for scheme in [FullyPopulated, Depopulated] {
            v.push(NetworkConfig::full_ruche(dims, rf, scheme));
        }
    }
    v
}

fn line(cfg: &NetworkConfig) -> String {
    let conn = Connectivity::of(cfg);
    let mut text = String::new();
    for &port in conn.ports() {
        text += &format!("{port} ");
    }
    for &out in conn.ports() {
        text.push('|');
        for &input in conn.ports() {
            text.push(if conn.allows(input, out) { '1' } else { '0' });
        }
    }
    let edge = match (cfg.edge_memory_ports, cfg.edge_bidirectional) {
        (_, true) => " edge-both",
        (true, _) => " edge",
        (false, _) => "",
    };
    format!(
        "{:016x} {} {}  {} {} {:?}{edge}\n",
        fnv1a64(text.as_bytes()),
        conn.connection_count(),
        conn.max_mux_inputs(),
        cfg.label(),
        cfg.dims,
        cfg.dor,
    )
}

#[test]
fn derived_crossbars_match_the_golden_digests() {
    let actual: String = grid::paper_grid()
        .iter()
        .chain(&extra_configs())
        .map(line)
        .collect();
    assert_eq!(
        actual, GOLDEN,
        "derived crossbars drifted from the golden digests; this run gives:\n{actual}"
    );
}
