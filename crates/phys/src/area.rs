//! Router area model (Table 2).
//!
//! Area at relaxed timing is dominated by structural quantities the model
//! counts exactly: crossbar mux inputs × channel width, FIFO bit-slots,
//! per-VC read muxes, route-compute units, arbiter request counts, and
//! wavefront allocator cells. Unit costs come from [`crate::tech::Tech`].

use crate::tech::Tech;
use ruche_noc::crossbar::Connectivity;
use ruche_noc::geometry::Dir;
use ruche_noc::topology::NetworkConfig;

/// Structural parameters of one router, extracted from a network
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterParams {
    /// Report label (e.g. `ruche2-depop`).
    pub label: String,
    /// Number of ports (inputs = outputs).
    pub ports: usize,
    /// Channel width in bits.
    pub channel_bits: u32,
    /// Total crossbar connections (Σ mux inputs over outputs).
    pub conns: usize,
    /// Mux inputs per output, indexed by port order.
    pub mux_inputs: Vec<usize>,
    /// Largest output mux.
    pub max_mux: usize,
    /// Total FIFO slots (ports × VCs × depth).
    pub fifo_slots: usize,
    /// Σ over ports of (VCs − 1): the number of extra VC read muxes.
    pub extra_vcs: usize,
    /// Route-compute units (one per input VC).
    pub route_computes: usize,
    /// Whether this is a VC router (wavefront allocator, VC decode).
    pub is_vc: bool,
}

impl RouterParams {
    /// Extracts router parameters from a network configuration.
    pub fn of(cfg: &NetworkConfig) -> Self {
        let conn = Connectivity::of(cfg);
        let ports: Vec<Dir> = cfg.ports();
        let mux_inputs: Vec<usize> = ports.iter().map(|&p| conn.mux_inputs(p)).collect();
        let fifo_slots: usize = ports.iter().map(|&p| cfg.vcs(p) * cfg.fifo_depth).sum();
        let extra_vcs: usize = ports.iter().map(|&p| cfg.vcs(p) - 1).sum();
        let route_computes: usize = ports.iter().map(|&p| cfg.vcs(p)).sum();
        RouterParams {
            label: cfg.label(),
            ports: ports.len(),
            channel_bits: cfg.channel_width_bits,
            conns: conn.connection_count(),
            max_mux: conn.max_mux_inputs(),
            mux_inputs,
            fifo_slots,
            extra_vcs,
            route_computes,
            is_vc: cfg.is_vc_router(),
        }
    }
}

/// Router cell-area breakdown in µm², mirroring the paper's Table 2 rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Crossbar muxes.
    pub crossbar: f64,
    /// Route compute.
    pub decode: f64,
    /// Input FIFO storage (plus VC read muxes for VC routers — the paper's
    /// "VC" row).
    pub fifo: f64,
    /// Output arbiters (wormhole) or the wavefront allocator (VC).
    pub allocator: f64,
}

impl AreaBreakdown {
    /// Total router cell area, µm².
    pub fn total(&self) -> f64 {
        self.crossbar + self.decode + self.fifo + self.allocator
    }
}

/// Router area at fully relaxed timing (the paper's ~98 FO4 column).
pub fn router_area(p: &RouterParams, tech: &Tech) -> AreaBreakdown {
    let w = p.channel_bits as f64;
    let mux2_count: usize = p.mux_inputs.iter().map(|&k| k.saturating_sub(1)).sum();
    let crossbar = tech.xbar_um2_per_bit_conn * w * mux2_count as f64;
    let decode = p.route_computes as f64
        * if p.is_vc {
            tech.decode_vc_um2
        } else {
            tech.decode_simple_um2
        };
    let fifo = p.fifo_slots as f64 * w * tech.fifo_um2_per_bit
        + p.extra_vcs as f64 * w * tech.vc_mux_um2_per_bit;
    let allocator = if p.is_vc {
        (p.ports * p.ports) as f64 * tech.wavefront_um2_per_cell
    } else {
        p.conns as f64 * tech.arb_um2_per_conn
    };
    AreaBreakdown {
        crossbar,
        decode,
        fifo,
        allocator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::geometry::Dims;
    use ruche_noc::topology::CrossbarScheme::{Depopulated, FullyPopulated};

    fn within(actual: f64, expected: f64, tol: f64) -> bool {
        (actual - expected).abs() / expected <= tol
    }

    fn area(cfg: &NetworkConfig) -> AreaBreakdown {
        router_area(&RouterParams::of(cfg), &Tech::n12())
    }

    fn dims() -> Dims {
        Dims::new(8, 8)
    }

    #[test]
    fn table2_multimesh_breakdown() {
        let a = area(&NetworkConfig::multi_mesh(dims()));
        assert!(within(a.crossbar, 791.0, 0.12), "xbar {}", a.crossbar);
        assert!(within(a.decode, 96.0, 0.12), "decode {}", a.decode);
        assert!(within(a.fifo, 2250.0, 0.05), "fifo {}", a.fifo);
        assert!(within(a.allocator, 53.0, 0.12), "arb {}", a.allocator);
        assert!(within(a.total(), 3190.0, 0.08), "total {}", a.total());
    }

    #[test]
    fn table2_full_ruche_depop_breakdown() {
        let a = area(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        assert!(within(a.crossbar, 599.0, 0.12), "xbar {}", a.crossbar);
        assert!(within(a.decode, 99.0, 0.12), "decode {}", a.decode);
        assert!(within(a.fifo, 2250.0, 0.05), "fifo {}", a.fifo);
        assert!(within(a.allocator, 42.0, 0.12), "arb {}", a.allocator);
        assert!(within(a.total(), 2991.0, 0.08), "total {}", a.total());
    }

    #[test]
    fn table2_full_ruche_pop_breakdown() {
        let a = area(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        assert!(within(a.crossbar, 986.0, 0.15), "xbar {}", a.crossbar);
        assert!(within(a.total(), 3411.0, 0.08), "total {}", a.total());
    }

    #[test]
    fn table2_torus_breakdown() {
        let a = area(&NetworkConfig::torus(dims()));
        assert!(within(a.crossbar, 410.0, 0.12), "xbar {}", a.crossbar);
        assert!(within(a.decode, 349.0, 0.12), "decode {}", a.decode);
        assert!(within(a.fifo, 2435.0, 0.05), "vc {}", a.fifo);
        assert!(within(a.allocator, 194.0, 0.12), "alloc {}", a.allocator);
        assert!(within(a.total(), 3388.0, 0.08), "total {}", a.total());
    }

    #[test]
    fn paper_headline_area_orderings() {
        // §4.2: depop saves ~40% crossbar vs the doubled mesh crossbars of
        // multi-mesh... (Table 2: 599 vs 986 pop); depop total is ~12%
        // below torus; pop is the largest.
        let mm = area(&NetworkConfig::multi_mesh(dims()));
        let depop = area(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        let pop = area(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        let torus = area(&NetworkConfig::torus(dims()));
        assert!(depop.crossbar < 0.65 * pop.crossbar);
        assert!(depop.total() < mm.total());
        assert!(depop.total() < torus.total());
        assert!(pop.total() > torus.total());
        let mesh = area(&NetworkConfig::mesh(dims()));
        assert!(mesh.total() < depop.total());
    }

    #[test]
    fn area_scales_with_channel_width() {
        let mut cfg = NetworkConfig::mesh(dims());
        let a128 = area(&cfg);
        cfg.channel_width_bits = 64;
        let a64 = area(&cfg);
        assert!(within(a64.crossbar * 2.0, a128.crossbar, 1e-9));
        assert!(a64.total() < a128.total());
        // Decode does not scale with width.
        assert_eq!(a64.decode, a128.decode);
    }

    #[test]
    fn params_capture_structure() {
        let p = RouterParams::of(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        assert_eq!(p.ports, 9);
        assert_eq!(p.conns, 45);
        assert_eq!(p.max_mux, 9);
        assert_eq!(p.fifo_slots, 18);
        assert_eq!(p.extra_vcs, 0);
        assert!(!p.is_vc);
        let t = RouterParams::of(&NetworkConfig::torus(dims()));
        assert_eq!(t.fifo_slots, 18);
        assert_eq!(t.extra_vcs, 4);
        assert_eq!(t.route_computes, 9);
        assert!(t.is_vc);
    }
}
