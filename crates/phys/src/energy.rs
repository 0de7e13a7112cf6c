//! Per-packet energy models (Table 3) and the first-order repeatered-wire
//! model for long-range links (§4.9).

use crate::area::RouterParams;
use crate::tech::Tech;
use ruche_noc::crossbar::Connectivity;
use ruche_noc::geometry::Dir;
use ruche_noc::topology::{link_span_tiles, NetworkConfig};

/// Per-packet router + link energy model for one network configuration.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    tech: Tech,
    params: RouterParams,
    mux_inputs: Vec<(Dir, usize)>,
    spans: Vec<(Dir, f64)>,
}

impl EnergyModel {
    /// Builds the model for `cfg` with the given technology.
    pub fn new(cfg: &NetworkConfig, tech: Tech) -> Self {
        let conn = Connectivity::of(cfg);
        let params = RouterParams::of(cfg);
        let mux_inputs = cfg
            .ports()
            .iter()
            .map(|&d| (d, conn.mux_inputs(d)))
            .collect();
        let spans = cfg
            .ports()
            .iter()
            .map(|&d| (d, link_span_tiles(cfg, d)))
            .collect();
        EnergyModel {
            tech,
            params,
            mux_inputs,
            spans,
        }
    }

    /// Energy to move one packet through the router and out of `out`,
    /// in pJ — the paper's Table 3 quantity (excludes the long-range wire
    /// beyond the tile, see [`EnergyModel::link_energy_pj`]).
    pub fn router_energy_pj(&self, out: Dir) -> f64 {
        let t = &self.tech;
        let k = self
            .mux_inputs
            .iter()
            .find(|&&(d, _)| d == out)
            .map(|&(_, k)| k)
            .unwrap_or(0);
        let width_scale = self.params.channel_bits as f64 / 128.0;
        let vc = if self.params.is_vc {
            t.energy_vc_overhead_pj
        } else {
            0.0
        };
        t.energy_base_pj * width_scale
            + t.energy_per_mux_input_pj * k.saturating_sub(1) as f64 * width_scale
            + t.energy_per_conn_pj * self.params.conns as f64 * width_scale
            + vc * width_scale
    }

    /// Energy of the long-range wire segment of a hop through `out`, pJ:
    /// zero for local links, and the repeatered-wire energy over the
    /// link's span *beyond the sending tile* for Ruche and folded-torus
    /// links — the first tile-crossing is already inside
    /// [`EnergyModel::router_energy_pj`] (Table 3 measures the placed and
    /// routed tile), so charging the full span would double-count it.
    pub fn link_energy_pj(&self, out: Dir) -> f64 {
        let span = self
            .spans
            .iter()
            .find(|&&(d, _)| d == out)
            .map(|&(_, s)| s)
            .unwrap_or(0.0);
        if span <= 1.0 {
            return 0.0;
        }
        let t = &self.tech;
        let mm = (span - 1.0) * t.tile_pitch_mm;
        let cap_pf = t.wire_cap_pf_per_mm * mm * t.repeater_overhead;
        // E = activity × C × V² per bit, times the channel width.
        t.activity * cap_pf * t.vdd * t.vdd * self.params.channel_bits as f64
    }

    /// Total energy of one hop through `out` (router + long wire), pJ.
    pub fn hop_energy_pj(&self, out: Dir) -> f64 {
        self.router_energy_pj(out) + self.link_energy_pj(out)
    }

    /// The technology constants in use.
    pub fn tech(&self) -> &Tech {
        &self.tech
    }
}

/// Energy to deliver a packet along a full route, split into router and
/// wire components, pJ.
pub fn route_energy_pj(
    cfg: &NetworkConfig,
    model: &EnergyModel,
    src: ruche_noc::geometry::Coord,
    dst: ruche_noc::geometry::Coord,
) -> (f64, f64) {
    let path = ruche_noc::routing::walk_route(cfg, src, ruche_noc::routing::Dest::tile(dst));
    let mut router = 0.0;
    let mut wire = 0.0;
    for (_, out) in path {
        router += model.router_energy_pj(out);
        wire += model.link_energy_pj(out);
    }
    (router, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::geometry::{Coord, Dims};
    use ruche_noc::topology::CrossbarScheme::{Depopulated, FullyPopulated};

    fn within(actual: f64, expected: f64, tol: f64) -> bool {
        (actual - expected).abs() / expected <= tol
    }

    fn model(cfg: &NetworkConfig) -> EnergyModel {
        EnergyModel::new(cfg, Tech::n12())
    }

    fn dims() -> Dims {
        Dims::new(8, 8)
    }

    #[test]
    fn table3_depop_energies() {
        let m = model(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        assert!(within(m.router_energy_pj(Dir::E), 1.66, 0.10));
        assert!(within(m.router_energy_pj(Dir::S), 1.82, 0.10));
        assert!(within(m.router_energy_pj(Dir::RE), 1.40, 0.12));
        assert!(within(m.router_energy_pj(Dir::RS), 1.49, 0.12));
    }

    #[test]
    fn table3_pop_energies() {
        let m = model(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        assert!(within(m.router_energy_pj(Dir::E), 1.95, 0.12));
        assert!(within(m.router_energy_pj(Dir::S), 2.01, 0.15));
        assert!(within(m.router_energy_pj(Dir::RE), 1.81, 0.12));
        assert!(within(m.router_energy_pj(Dir::RS), 2.00, 0.15));
    }

    #[test]
    fn table3_torus_energies() {
        let m = model(&NetworkConfig::torus(dims()));
        assert!(within(m.router_energy_pj(Dir::E), 2.41, 0.20));
        assert!(within(m.router_energy_pj(Dir::S), 3.35, 0.20));
    }

    #[test]
    fn paper_energy_orderings() {
        // Depop cheaper than pop; both cheaper than torus; Ruche
        // directions cheaper than local directions on depop (§4.3).
        let depop = model(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        let pop = model(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        let torus = model(&NetworkConfig::torus(dims()));
        for d in [Dir::E, Dir::S] {
            assert!(depop.router_energy_pj(d) < pop.router_energy_pj(d));
            assert!(pop.router_energy_pj(d) < torus.router_energy_pj(d));
        }
        assert!(depop.router_energy_pj(Dir::RE) < depop.router_energy_pj(Dir::E));
        assert!(depop.router_energy_pj(Dir::RS) < depop.router_energy_pj(Dir::S));
    }

    #[test]
    fn long_wire_energy_scales_with_span() {
        let r3 = model(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        let r2 = model(&NetworkConfig::full_ruche(dims(), 2, Depopulated));
        assert_eq!(r3.link_energy_pj(Dir::E), 0.0, "local links are internal");
        // The first tile-crossing lives in the router energy, so the wire
        // charges span − 1 tiles: RF 3 pays twice the wire of RF 2.
        let w3 = r3.link_energy_pj(Dir::RE);
        let w2 = r2.link_energy_pj(Dir::RE);
        assert!(within(w3 / w2, 2.0, 1e-9), "span 3 vs 2: {w3} / {w2}");
        // Folded torus links span two tiles.
        let torus = model(&NetworkConfig::torus(dims()));
        assert!(torus.link_energy_pj(Dir::E) > 0.0);
    }

    #[test]
    fn ruche_links_are_more_efficient_per_tile_travelled() {
        // §4.9/§6: sending a packet over a Ruche channel costs less than
        // hopping through routers tile by tile.
        let m = model(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        let ruche_hop = m.hop_energy_pj(Dir::RE); // 3 tiles in one hop
        let three_local = 3.0 * m.hop_energy_pj(Dir::E);
        assert!(
            ruche_hop < three_local,
            "ruche {ruche_hop} vs 3 locals {three_local}"
        );
    }

    #[test]
    fn route_energy_favors_ruche_for_long_distances() {
        let mesh_cfg = NetworkConfig::mesh(Dims::new(16, 16));
        let ruche_cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, Depopulated);
        let mesh = model(&mesh_cfg);
        let ruche = model(&ruche_cfg);
        let (mr, mw) = route_energy_pj(&mesh_cfg, &mesh, Coord::new(0, 0), Coord::new(15, 15));
        let (rr, rw) = route_energy_pj(&ruche_cfg, &ruche, Coord::new(0, 0), Coord::new(15, 15));
        assert!(rr + rw < mr + mw, "ruche {} vs mesh {}", rr + rw, mr + mw);
        assert_eq!(mw, 0.0);
        assert!(rw > 0.0);
    }

    #[test]
    fn energy_scales_with_channel_width() {
        let mut cfg = NetworkConfig::mesh(dims());
        let e128 = model(&cfg).router_energy_pj(Dir::E);
        cfg.channel_width_bits = 64;
        let e64 = model(&cfg).router_energy_pj(Dir::E);
        assert!(within(e64 * 2.0, e128, 1e-9));
    }
}
