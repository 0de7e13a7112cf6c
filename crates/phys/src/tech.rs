//! Technology constants for the 12 nm-class analytical models.
//!
//! These constants substitute for the paper's Synopsys Design Compiler /
//! IC Compiler 2 / PrimeTime flow with a 12 nm regular-Vt standard-cell
//! library. They were calibrated once against the paper's published
//! numbers (Table 2 router-area breakdown at ~98 FO4, Table 3 per-packet
//! energies) and are *not* refit per experiment; every area/energy result
//! in this repository flows from this one table. See DESIGN.md §1 for the
//! substitution rationale.

/// Calibrated technology and microarchitectural unit costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech {
    /// Crossbar area per bit per mux-tree input beyond the first, µm²
    /// (a k-input, W-bit one-hot mux costs `(k-1)·W` of these).
    pub xbar_um2_per_bit_conn: f64,
    /// Input-FIFO storage area per bit-slot, µm² (two-element FIFOs).
    pub fifo_um2_per_bit: f64,
    /// Extra VC read-mux area per bit for each VC beyond the first on an
    /// input port, µm².
    pub vc_mux_um2_per_bit: f64,
    /// Route-compute (decode) area per route-compute unit for simple DOR /
    /// Ruche decode, µm².
    pub decode_simple_um2: f64,
    /// Route-compute area per unit for torus VC decode (ring arithmetic +
    /// dateline logic), µm².
    pub decode_vc_um2: f64,
    /// Round-robin arbiter area per crossbar connection, µm².
    pub arb_um2_per_conn: f64,
    /// Wavefront allocator area per cell (an `n×n` allocator has `n²`), µm².
    pub wavefront_um2_per_cell: f64,
    /// Clock + setup overhead on every path, FO4.
    pub clk_overhead_fo4: f64,
    /// Simple route-compute delay, FO4.
    pub decode_delay_fo4: f64,
    /// Torus VC route-compute delay, FO4.
    pub decode_vc_delay_fo4: f64,
    /// Arbiter delay per log2(requests), FO4.
    pub arb_delay_per_level_fo4: f64,
    /// Crossbar mux-tree delay per log2(inputs), FO4.
    pub mux_delay_per_level_fo4: f64,
    /// Wavefront allocator delay per cell on the critical diagonal, FO4.
    pub wavefront_delay_per_cell_fo4: f64,
    /// VC selection mux delay (VC routers), FO4.
    pub vc_sel_delay_fo4: f64,
    /// Intra-tile wire delay, FO4.
    pub wire_delay_fo4: f64,
    /// Baseline per-packet router energy (clocking, FIFO write+read), pJ.
    pub energy_base_pj: f64,
    /// Per-packet energy per mux input beyond the first on the traversed
    /// output, pJ.
    pub energy_per_mux_input_pj: f64,
    /// Per-packet energy per crossbar connection in the router (parasitic
    /// loading of the whole switch), pJ.
    pub energy_per_conn_pj: f64,
    /// Per-packet VC-router overhead (VC muxes, allocator, credit logic), pJ.
    pub energy_vc_overhead_pj: f64,
    /// Process-independent wire capacitance, pF/mm (Ho/Mai/Horowitz).
    pub wire_cap_pf_per_mm: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Payload activity factor (the paper's 0.25: half the bits switch
    /// every cycle).
    pub activity: f64,
    /// Repeater diffusion/gate capacitance overhead on long wires
    /// (multiplier on the wire capacitance).
    pub repeater_overhead: f64,
    /// Tile pitch, mm (the paper's 187 µm tile).
    pub tile_pitch_mm: f64,
    /// Tile area, µm² (187 µm × 187 µm).
    pub tile_area_um2: f64,
    /// Long-range wiring + repeater area per bit-wire per tile crossed, µm²
    /// (the tile-area overhead of Ruche/torus channels passing over).
    pub repeater_um2_per_bit_tile: f64,
    /// Fixed per-tile overhead of having a long-range channel axis at all
    /// (repeater rows, swizzle regions, keep-outs), µm².
    pub longrange_fixed_um2_per_axis: f64,
}

impl Tech {
    /// The calibrated 12 nm-class defaults.
    pub fn n12() -> Self {
        Tech {
            xbar_um2_per_bit_conn: 0.243,
            fifo_um2_per_bit: 0.977,
            vc_mux_um2_per_bit: 0.36,
            decode_simple_um2: 11.0,
            decode_vc_um2: 38.8,
            arb_um2_per_conn: 1.57,
            wavefront_um2_per_cell: 7.76,
            clk_overhead_fo4: 3.0,
            decode_delay_fo4: 4.0,
            decode_vc_delay_fo4: 6.0,
            arb_delay_per_level_fo4: 2.0,
            mux_delay_per_level_fo4: 1.4,
            wavefront_delay_per_cell_fo4: 1.5,
            vc_sel_delay_fo4: 2.0,
            wire_delay_fo4: 2.0,
            energy_base_pj: 1.10,
            energy_per_mux_input_pj: 0.10,
            energy_per_conn_pj: 0.0109,
            energy_vc_overhead_pj: 1.39,
            wire_cap_pf_per_mm: 0.2,
            vdd: 0.8,
            activity: 0.25,
            repeater_overhead: 1.15,
            tile_pitch_mm: 0.187,
            tile_area_um2: 187.0 * 187.0,
            repeater_um2_per_bit_tile: 0.68,
            longrange_fixed_um2_per_axis: 1030.0,
        }
    }
}

impl Default for Tech {
    fn default() -> Self {
        Tech::n12()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_n12() {
        assert_eq!(Tech::default(), Tech::n12());
    }

    #[test]
    fn sanity_of_constants() {
        let t = Tech::n12();
        assert!(t.fifo_um2_per_bit > t.xbar_um2_per_bit_conn);
        assert!(t.decode_vc_um2 > t.decode_simple_um2);
        assert!(t.activity > 0.0 && t.activity <= 1.0);
        assert!(t.tile_area_um2 > 30_000.0);
    }
}
