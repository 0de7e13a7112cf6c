//! Golden pins for the verifier's reports: the FNV-1a digest of
//! `Report::render()` and the channel-dependency-graph statistics of every
//! paper-grid configuration and every faulted-sample case.
//!
//! The reports of clean configurations hold only order-independent
//! numbers, so any change to how routes are walked or how the graph is
//! stored must leave every line here untouched. On a mismatch the test
//! prints the recomputed table.

use ruche_noc::prelude::*;
use ruche_verify::{grid, verify, verify_faulted, Report};

/// `<render digest> <channels> <deps> <routes> <largest scc>  <config>`,
/// paper grid first, then the faulted sample, each in its list order.
const GOLDEN: &str = "\
912c6430c94101c5 224 388 4096 1  mesh 8x8 XY\n\
0b885975844e7b79 448 772 4096 1  multi-mesh 8x8 XY\n\
fc275557123fff8b 320 608 4096 1  torus 8x8 XY\n\
063fd79b2edf807a 448 772 4096 1  ruche1-pop 8x8 XY\n\
f685100de6b86ecf 416 964 4096 1  ruche2-pop 8x8 XY\n\
7f0329c248d1ad86 384 644 4096 1  ruche2-depop 8x8 XY\n\
3c6107a9c50170bc 384 960 4096 1  ruche3-pop 8x8 XY\n\
1d1b22e23ae35529 352 548 4096 1  ruche3-depop 8x8 XY\n\
7b8ceac204fc83b7 960 1796 65536 1  mesh 16x16 XY\n\
67d26d66ed62904f 1920 3588 65536 1  multi-mesh 16x16 XY\n\
9ef3e8201ff06de7 1408 2752 65536 1  torus 16x16 XY\n\
a9e123b6089b79dc 1920 3588 65536 1  ruche1-pop 16x16 XY\n\
b043a76e9c1bec7f 1856 4964 65536 1  ruche2-pop 16x16 XY\n\
0afb7b938975267c 1792 3332 65536 1  ruche2-depop 16x16 XY\n\
e797a869ab0ff342 1792 5440 65536 1  ruche3-pop 16x16 XY\n\
0ef5a8f9383c1d9b 1728 3140 65536 1  ruche3-depop 16x16 XY\n\
ea146394b4acfc32 464 836 20480 1  mesh 16x8 XY edge\n\
3af4faeef295d08e 576 1144 20480 1  half-torus 16x8 XY edge\n\
3612a3c0a203f981 672 1220 20480 1  half-ruche2-depop 16x8 XY edge\n\
44dbeadb572ac656 688 1404 20480 1  half-ruche2-pop 16x8 XY edge\n\
8b6e813c1801909c 656 1172 20480 1  half-ruche3-depop 16x8 XY edge\n\
6c7759be414e64db 672 1552 20480 1  half-ruche3-pop 16x8 XY edge\n\
9c0c00fcf53bc6dd 1952 3716 294912 1  mesh 32x16 XY edge\n\
ba2444757399fc3d 2432 5096 294912 1  half-torus 32x16 XY edge\n\
bf41aa1e47fac688 2880 5508 294912 1  half-ruche2-depop 32x16 XY edge\n\
5bd2be8be2437c5d 2912 6380 294912 1  half-ruche2-pop 32x16 XY edge\n\
862dadd72d257993 2848 5412 294912 1  half-ruche3-depop 32x16 XY edge\n\
1aa6c871d1a5d96a 2880 7184 294912 1  half-ruche3-pop 32x16 XY edge\n\
2ccd7dff80c3f317 1904 3524 327680 1  mesh 64x8 XY edge\n\
f99737cdf228d747 2400 4888 327680 1  half-torus 64x8 XY edge\n\
2488e47623f6c758 2880 5444 327680 1  half-ruche2-depop 64x8 XY edge\n\
bc91deebb19d4547 2896 6204 327680 1  half-ruche2-pop 64x8 XY edge\n\
af8b646628238eed 2864 5396 327680 1  half-ruche3-depop 64x8 XY edge\n\
5623115d4369741e 2880 7120 327680 1  half-ruche3-pop 64x8 XY edge\n\
561643dfc94dfd9a 2848 5348 327680 1  half-ruche4-depop 64x8 XY edge\n\
14beebbab736b111 2864 7044 327680 1  half-ruche4-pop 64x8 XY edge\n\
ea146394b4acfc32 464 836 20480 1  mesh 16x8 YX edge\n\
e789cfc577c69270 576 976 20480 1  half-torus 16x8 YX edge\n\
3612a3c0a203f981 672 1220 20480 1  half-ruche2-depop 16x8 YX edge\n\
44dbeadb572ac656 688 1404 20480 1  half-ruche2-pop 16x8 YX edge\n\
8b6e813c1801909c 656 1172 20480 1  half-ruche3-depop 16x8 YX edge\n\
6c7759be414e64db 672 1552 20480 1  half-ruche3-pop 16x8 YX edge\n\
9c0c00fcf53bc6dd 1952 3716 294912 1  mesh 32x16 YX edge\n\
81e7f7dcf61ad619 2432 4256 294912 1  half-torus 32x16 YX edge\n\
bf41aa1e47fac688 2880 5508 294912 1  half-ruche2-depop 32x16 YX edge\n\
5bd2be8be2437c5d 2912 6380 294912 1  half-ruche2-pop 32x16 YX edge\n\
862dadd72d257993 2848 5412 294912 1  half-ruche3-depop 32x16 YX edge\n\
1aa6c871d1a5d96a 2880 7184 294912 1  half-ruche3-pop 32x16 YX edge\n\
f4b758a29a14c09a 464 836 24576 1  mesh 16x8 XY edge-both\n\
fb26c2105b979dee 576 1144 24576 1  half-torus 16x8 XY edge-both\n\
a6ec085489e611ed 672 1220 24576 1  half-ruche2-depop 16x8 XY edge-both\n\
5fe91af191654d3a 688 1404 24576 1  half-ruche2-pop 16x8 XY edge-both\n\
071a27080d9c0ccc 656 1172 24576 1  half-ruche3-depop 16x8 XY edge-both\n\
ce7dcdbe272b4dd3 672 1552 24576 1  half-ruche3-pop 16x8 XY edge-both\n\
8e7db84512b754e4 212 360 4096 1  mesh+faults 8x8 XY 6L/0R\n\
ae9de859a2bf0460 190 302 4096 1  mesh+faults 8x8 XY 17L/0R\n\
3f1aa443aaa3d7a9 216 366 4096 1  mesh+faults 8x8 XY 0L/1R\n\
a42b6566ee8476f6 658 1345 16384 1  half-ruche2-depop+faults 16x8 XY 15L/0R\n\
b49241ca3ec7c97a 584 1193 16384 1  half-ruche2-depop+faults 16x8 XY 52L/0R\n\
0dee1f1ed779f9df 676 1368 16384 1  half-ruche2-depop+faults 16x8 XY 0L/1R\n\
08411e2a19a3bc99 398 932 4096 1  ruche2-depop+faults 8x8 XY 9L/0R\n\
2bd1fe9a375a1c95 364 867 4096 1  ruche2-depop+faults 8x8 XY 26L/0R\n\
153978ac7627b2b2 400 908 4096 1  ruche2-depop+faults 8x8 XY 0L/1R\n";

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(report: &Report, cfg: &NetworkConfig, extra: &str) -> String {
    let s = report.stats;
    format!(
        "{:016x} {} {} {} {}  {} {} {:?}{extra}\n",
        fnv1a64(report.render().as_bytes()),
        s.channels,
        s.dependencies,
        s.routes,
        s.largest_scc,
        report.label,
        report.dims,
        cfg.dor,
    )
}

#[test]
fn reports_match_the_golden_digests() {
    let mut actual = String::new();
    for cfg in grid::paper_grid() {
        let edge = match (cfg.edge_memory_ports, cfg.edge_bidirectional) {
            (_, true) => " edge-both",
            (true, _) => " edge",
            (false, _) => "",
        };
        actual += &line(&verify(&cfg), &cfg, edge);
    }
    for (cfg, faults) in grid::faulted_sample() {
        let extra = format!(
            " {}L/{}R",
            faults.dead_links().len(),
            faults.dead_routers().len()
        );
        actual += &line(&verify_faulted(&cfg, &faults), &cfg, &extra);
    }
    assert_eq!(
        actual, GOLDEN,
        "verifier reports drifted from the golden digests; this run gives:\n{actual}"
    );
}
