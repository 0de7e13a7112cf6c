//! Optional per-link, per-VC instrumentation for [`Network`].
//!
//! A [`NetTelemetry`] is attached to a network with
//! [`Network::attach_telemetry`] and, once attached, accumulates:
//!
//! * per-(node, output port, VC) **traversal** counts and **blocked-cycle**
//!   counts attributed to a [`BlockCause`] (no downstream credit vs. lost
//!   arbitration),
//! * per-(node, input port, VC) **FIFO occupancy** histograms, sampled at
//!   the end of every cycle,
//! * network-wide **injection / ejection time series** over a fixed cycle
//!   window.
//!
//! With no telemetry attached the simulator's hot loop does no extra work
//! beyond one `Option` check per cycle and performs no heap allocation
//! (enforced by `tests/zero_alloc.rs`).
//!
//! ## Engine independence
//!
//! Every counter in here is part of the byte-identity contract: the
//! numbers must not depend on how the clock advances. `Network::run` and
//! `Network::fast_forward` skip only provably empty cycles, so no counter
//! or occupancy sample is lost: fast-forwarded spans contribute the same
//! zeros they would have contributed cycle by cycle. `tests/
//! step_mode_determinism.rs` asserts the full telemetry export is
//! identical to stepping every cycle.
//!
//! Counter semantics are specified in `docs/OBSERVABILITY.md`; the short
//! version: *traversed* is at most 1 per (link, VC) per cycle, while
//! *blocked* counts one per **requesting flit head** per cycle per cause,
//! so a contested output can accumulate several blocked counts in one
//! cycle. Idle time is derived: `cycles - traversed - (blocked > 0 cycles)`
//! is not tracked separately; use [`LinkVcStats::idle`] for the
//! conservative `cycles - traversed` form.
//!
//! [`Network`]: crate::sim::Network
//! [`Network::attach_telemetry`]: crate::sim::Network::attach_telemetry

use crate::geometry::Dir;
use ruche_telemetry::{Histogram, Probe, TimeSeries};

/// Why a requesting flit head failed to traverse its output this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCause {
    /// The downstream buffer had no space (wormhole ready-valid-and) or the
    /// output VC held no credit (VC router ready-then-valid).
    NoCredit,
    /// The output (or output VC) was available but another input won the
    /// arbitration, or an in-progress packet held the port lock / VC.
    LostArbitration,
}

/// Traversal and stall counters for one (node, output port, VC) link slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkVcStats {
    /// Flits forwarded through this output VC.
    pub traversed: u64,
    /// Requesting-head cycles lost to missing downstream credit/space.
    pub blocked_no_credit: u64,
    /// Requesting-head cycles lost to arbitration (including port locks and
    /// VC ownership by another packet).
    pub blocked_lost_arb: u64,
}

impl LinkVcStats {
    /// Total blocked counts, either cause.
    pub fn blocked(&self) -> u64 {
        self.blocked_no_credit + self.blocked_lost_arb
    }

    /// Cycles this link VC moved nothing, out of `cycles` observed.
    ///
    /// A link forwards at most one flit per cycle, so this is exactly the
    /// observed cycle count minus the traversal count.
    pub fn idle(&self, cycles: u64) -> u64 {
        cycles.saturating_sub(self.traversed)
    }
}

/// Per-link / per-FIFO counters accumulated while attached to a
/// [`Network`](crate::sim::Network).
///
/// Indexing convention throughout: link and FIFO slots are flattened as
/// `(node * ports + port) * max_vcs + vc`, matching the simulator's
/// internal layout.
#[derive(Debug, Clone)]
pub struct NetTelemetry {
    ports: Vec<Dir>,
    n_nodes: usize,
    max_vcs: usize,
    /// Cycles observed since attach.
    cycles: u64,
    /// Per-(node, out port, vc) counters.
    links: Vec<LinkVcStats>,
    /// Per-(node, in port, vc) input-FIFO occupancy, sampled each cycle.
    occupancy: Vec<Histogram>,
    injected: TimeSeries,
    ejected: TimeSeries,
}

impl NetTelemetry {
    /// Creates empty telemetry for a network with the given shape.
    ///
    /// `fifo_depth` bounds the occupancy histograms (unit buckets
    /// `0..=depth`); `window` is the injection/ejection series bin width in
    /// cycles.
    pub fn new(
        ports: &[Dir],
        n_nodes: usize,
        max_vcs: usize,
        fifo_depth: usize,
        window: u64,
    ) -> Self {
        let slots = n_nodes * ports.len() * max_vcs;
        NetTelemetry {
            ports: ports.to_vec(),
            n_nodes,
            max_vcs,
            cycles: 0,
            links: vec![LinkVcStats::default(); slots],
            occupancy: vec![Histogram::zero_to(fifo_depth as u64); slots],
            injected: TimeSeries::new(window),
            ejected: TimeSeries::new(window),
        }
    }

    #[inline]
    fn slot(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * self.ports.len() + port) * self.max_vcs + vc
    }

    /// Counts one flit forwarded through (node, out port, vc).
    #[inline]
    pub fn record_traversal(&mut self, node: usize, port: usize, vc: usize) {
        let s = self.slot(node, port, vc);
        self.links[s].traversed += 1;
    }

    /// Counts one requesting head blocked at (node, out port, vc).
    #[inline]
    pub fn record_blocked(&mut self, node: usize, port: usize, vc: usize, cause: BlockCause) {
        let s = self.slot(node, port, vc);
        match cause {
            BlockCause::NoCredit => self.links[s].blocked_no_credit += 1,
            BlockCause::LostArbitration => self.links[s].blocked_lost_arb += 1,
        }
    }

    /// Samples the length of the (node, in port, vc) input FIFO.
    #[inline]
    pub fn record_occupancy(&mut self, node: usize, port: usize, vc: usize, len: u64) {
        let s = self.slot(node, port, vc);
        self.occupancy[s].record(len);
    }

    /// Closes one observed cycle: network-wide injection/ejection counts
    /// for it, then advance the cycle index.
    #[inline]
    pub fn record_cycle(&mut self, injected: u64, ejected: u64) {
        self.injected.record(self.cycles, injected);
        self.ejected.record(self.cycles, ejected);
        self.cycles += 1;
    }

    /// Samples the (node, in port, vc) input FIFO at length `len` for `n`
    /// consecutive cycles in one call — the bulk form of `n` repeated
    /// [`record_occupancy`](NetTelemetry::record_occupancy) calls, used by
    /// event-driven fast-forward to account for skipped idle spans.
    #[inline]
    pub fn record_occupancy_n(&mut self, node: usize, port: usize, vc: usize, len: u64, n: u64) {
        let s = self.slot(node, port, vc);
        self.occupancy[s].record_n(len, n);
    }

    /// Closes `n` consecutive cycles that injected and ejected nothing —
    /// the bulk form of `n` `record_cycle(0, 0)` calls. The
    /// injection/ejection series gain the same (possibly zero-filled) bins
    /// repeated per-cycle recording would have produced, so exports stay
    /// byte-identical whether an idle span was stepped or skipped.
    #[inline]
    pub fn record_idle_cycles(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.injected.record(self.cycles + n - 1, 0);
        self.ejected.record(self.cycles + n - 1, 0);
        self.cycles += n;
    }

    /// Router port directions, in port-index order.
    pub fn ports(&self) -> &[Dir] {
        &self.ports
    }

    /// Nodes observed.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// VC stride of the link/FIFO slot layout.
    pub fn max_vcs(&self) -> usize {
        self.max_vcs
    }

    /// Cycles observed since attach.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Counters for one (node, out port, vc) link slot.
    pub fn link(&self, node: usize, port: usize, vc: usize) -> LinkVcStats {
        self.links[self.slot(node, port, vc)]
    }

    /// Flits forwarded through (node, out port), summed over VCs.
    pub fn traversed(&self, node: usize, port: usize) -> u64 {
        (0..self.max_vcs)
            .map(|v| self.link(node, port, v).traversed)
            .sum()
    }

    /// Blocked counts at (node, out port), summed over VCs and causes.
    pub fn blocked(&self, node: usize, port: usize) -> u64 {
        (0..self.max_vcs)
            .map(|v| self.link(node, port, v).blocked())
            .sum()
    }

    /// Occupancy histogram of the (node, in port, vc) input FIFO.
    pub fn occupancy(&self, node: usize, port: usize, vc: usize) -> &Histogram {
        &self.occupancy[self.slot(node, port, vc)]
    }

    /// Network-wide injection series.
    pub fn injected(&self) -> &TimeSeries {
        &self.injected
    }

    /// Network-wide ejection series.
    pub fn ejected(&self) -> &TimeSeries {
        &self.ejected
    }

    /// Pushes every counter into `probe`.
    ///
    /// Per-link counters are exported as per-node arrays named
    /// `link.<DIR>.vc<v>.<counter>` (index = node, row-major), occupancy
    /// histograms merged across nodes as `occupancy.<DIR>.vc<v>`, plus the
    /// `inject.flits` / `eject.flits` series and the `cycles` scalar. All
    /// names and orderings are deterministic.
    pub fn export(&self, probe: &mut dyn Probe) {
        probe.scalar("cycles", self.cycles);
        probe.scalar("nodes", self.n_nodes as u64);
        let mut scratch = vec![0u64; self.n_nodes];
        for (pi, dir) in self.ports.iter().enumerate() {
            for v in 0..self.max_vcs {
                let mut any_occ = false;
                let mut merged: Option<Histogram> = None;
                for node in 0..self.n_nodes {
                    let h = self.occupancy(node, pi, v);
                    any_occ |= !h.is_empty();
                    match merged.as_mut() {
                        Some(m) => m.merge(h),
                        None => merged = Some(h.clone()),
                    }
                }
                if any_occ {
                    let name = format!("occupancy.{dir}.vc{v}");
                    probe.histogram(&name, merged.as_ref().expect("nodes > 0"));
                }
                for (counter, get) in [
                    (
                        "traversed",
                        (|s: &LinkVcStats| s.traversed) as fn(&LinkVcStats) -> u64,
                    ),
                    ("blocked_no_credit", |s: &LinkVcStats| s.blocked_no_credit),
                    ("blocked_lost_arb", |s: &LinkVcStats| s.blocked_lost_arb),
                ] {
                    let mut any = false;
                    for (node, slot) in scratch.iter_mut().enumerate() {
                        let c = get(&self.link(node, pi, v));
                        *slot = c;
                        any |= c != 0;
                    }
                    if any {
                        let name = format!("link.{dir}.vc{v}.{counter}");
                        probe.scalars(&name, &scratch);
                    }
                }
            }
        }
        probe.series("inject.flits", &self.injected);
        probe.series("eject.flits", &self.ejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_telemetry::JsonProbe;

    fn sample() -> NetTelemetry {
        let mut t = NetTelemetry::new(&[Dir::P, Dir::E], 2, 1, 2, 4);
        t.record_traversal(1, 1, 0);
        t.record_blocked(0, 1, 0, BlockCause::NoCredit);
        t.record_blocked(0, 1, 0, BlockCause::LostArbitration);
        t.record_occupancy(0, 0, 0, 2);
        t.record_cycle(1, 0);
        t.record_cycle(0, 1);
        t
    }

    #[test]
    fn counters_accumulate_per_slot() {
        let t = sample();
        assert_eq!(t.link(1, 1, 0).traversed, 1);
        assert_eq!(t.link(0, 1, 0).blocked_no_credit, 1);
        assert_eq!(t.link(0, 1, 0).blocked(), 2);
        assert_eq!(t.traversed(1, 1), 1);
        assert_eq!(t.blocked(0, 1), 2);
        assert_eq!(t.cycles(), 2);
        assert_eq!(t.link(1, 1, 0).idle(t.cycles()), 1);
        assert_eq!(t.occupancy(0, 0, 0).count(), 1);
        assert_eq!(t.injected().total(), 1);
        assert_eq!(t.ejected().total(), 1);
    }

    #[test]
    fn bulk_idle_recording_matches_per_cycle_recording() {
        // The event-driven fast path accounts for a skipped idle span with
        // one bulk call; the result must be indistinguishable — counter for
        // counter and byte for byte — from stepping the span.
        let mut stepped = NetTelemetry::new(&[Dir::P, Dir::E], 2, 1, 2, 4);
        let mut skipped = stepped.clone();
        let n = 11;
        for _ in 0..n {
            for node in 0..2 {
                for port in 0..2 {
                    stepped.record_occupancy(node, port, 0, 0);
                }
            }
            stepped.record_cycle(0, 0);
        }
        for node in 0..2 {
            for port in 0..2 {
                skipped.record_occupancy_n(node, port, 0, 0, n);
            }
        }
        skipped.record_idle_cycles(n);
        assert_eq!(stepped.cycles(), skipped.cycles());
        for node in 0..2 {
            for port in 0..2 {
                assert_eq!(
                    stepped.occupancy(node, port, 0),
                    skipped.occupancy(node, port, 0)
                );
            }
        }
        let blob = |t: &NetTelemetry| {
            let mut p = JsonProbe::new();
            t.export(&mut p);
            p.into_json()
        };
        assert_eq!(blob(&stepped), blob(&skipped), "exports must match");
        // Zero cycles is a no-op.
        skipped.record_idle_cycles(0);
        assert_eq!(stepped.cycles(), skipped.cycles());
    }

    #[test]
    fn export_is_deterministic_and_elides_empty_slots() {
        let blob = |t: &NetTelemetry| {
            let mut p = JsonProbe::new();
            t.export(&mut p);
            p.into_json()
        };
        let t = sample();
        let a = blob(&t);
        assert_eq!(a, blob(&t), "same counters, same bytes");
        assert!(a.contains("\"link.E.vc0.traversed\""), "{a}");
        assert!(a.contains("\"link.E.vc0.blocked_no_credit\""), "{a}");
        assert!(!a.contains("link.P.vc0.traversed"), "all-zero slots elided");
        assert!(a.contains("\"occupancy.P.vc0\""), "{a}");
        assert!(a.contains("\"cycles\": 2"), "{a}");
    }
}
