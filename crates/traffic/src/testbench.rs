//! The open-loop synthetic-traffic testbench.
//!
//! Mirrors the paper's methodology (§4.1): every tile injects packets by a
//! Bernoulli process at a fixed rate; latency is measured from packet
//! generation (entering the source queue) to ejection, so it diverges as the
//! network saturates; throughput is the accepted flit rate during the
//! measurement window while injection continues.

use crate::error::TrafficError;
use crate::pattern::Pattern;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruche_noc::fault::FaultModel;
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use ruche_stats::Accum;
use std::fmt;

/// Testbench phase lengths and injection parameters.
///
/// Build one with [`Testbench::builder`], which validates eagerly — the
/// same discipline as `NetworkConfig::builder`. The fields stay public for
/// struct-update tweaking in sweeps; [`Testbench::validate`] re-checks a
/// hand-edited value, and [`run`] validates again before simulating.
#[derive(Clone, PartialEq)]
pub struct Testbench {
    /// Destination pattern.
    pub pattern: Pattern,
    /// Packets per tile per cycle (Bernoulli probability), in `(0, 1]`.
    pub injection_rate: f64,
    /// Cycles of injection before measurement starts.
    pub warmup: u64,
    /// Cycles of the measurement window (injection continues).
    pub measure: u64,
    /// Maximum extra cycles to wait for measured packets to drain.
    pub drain: u64,
    /// Flits per packet (the paper uses 1 throughout).
    pub packet_len: usize,
    /// RNG seed — runs are fully deterministic.
    pub seed: u64,
    /// Faults injected into the network before the run. Empty (the
    /// default) keeps the simulation on the unfaulted fast path,
    /// bit-for-bit identical to a network built without fault support.
    pub faults: FaultModel,
}

/// The `Debug` rendering doubles as the sweep-engine cache key, so an
/// empty fault model renders exactly as the pre-fault `Testbench` did:
/// unfaulted cache entries stay valid, and only genuinely faulted
/// testbenches get new keys.
impl fmt::Debug for Testbench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Testbench");
        d.field("pattern", &self.pattern)
            .field("injection_rate", &self.injection_rate)
            .field("warmup", &self.warmup)
            .field("measure", &self.measure)
            .field("drain", &self.drain)
            .field("packet_len", &self.packet_len)
            .field("seed", &self.seed);
        if !self.faults.is_empty() {
            d.field("faults", &self.faults);
        }
        d.finish()
    }
}

impl Testbench {
    /// Default warmup/measure/drain cycles (the paper's methodology).
    pub const DEFAULT_WINDOWS: (u64, u64, u64) = (1_000, 2_000, 3_000);
    /// Shortened warmup/measure/drain cycles for smoke tests.
    pub const QUICK_WINDOWS: (u64, u64, u64) = (300, 700, 1_000);
    /// Default RNG seed.
    pub const DEFAULT_SEED: u64 = 0xC0FFEE;

    /// Starts a [`TestbenchBuilder`] with the paper's defaults at the
    /// given rate. [`TestbenchBuilder::build`] validates everything at
    /// once, so a bad parameter fails where it is written.
    pub fn builder(pattern: Pattern, injection_rate: f64) -> TestbenchBuilder {
        TestbenchBuilder {
            tb: Testbench {
                pattern,
                injection_rate,
                warmup: Self::DEFAULT_WINDOWS.0,
                measure: Self::DEFAULT_WINDOWS.1,
                drain: Self::DEFAULT_WINDOWS.2,
                packet_len: 1,
                seed: Self::DEFAULT_SEED,
                faults: FaultModel::default(),
            },
        }
    }

    /// Checks every invariant [`TestbenchBuilder::build`] enforces:
    /// `injection_rate` finite and in `(0, 1]`, non-degenerate measure and
    /// drain windows, and at least one flit per packet. [`run`] calls this
    /// before simulating, so a hand-edited testbench cannot slip past the
    /// builder's validation.
    ///
    /// # Errors
    ///
    /// The [`TrafficError`] for the first violated invariant.
    pub fn validate(&self) -> Result<(), TrafficError> {
        if !self.injection_rate.is_finite()
            || self.injection_rate <= 0.0
            || self.injection_rate > 1.0
        {
            return Err(TrafficError::InvalidInjectionRate(self.injection_rate));
        }
        if self.measure == 0 {
            return Err(TrafficError::EmptyMeasureWindow);
        }
        if self.drain == 0 {
            return Err(TrafficError::EmptyDrainWindow);
        }
        if self.packet_len == 0 {
            return Err(TrafficError::EmptyPacket);
        }
        Ok(())
    }
}

/// Validating builder for [`Testbench`] — the one entry point for every
/// parameter, faults included.
///
/// # Examples
///
/// ```
/// use ruche_traffic::{Pattern, Testbench};
///
/// let tb = Testbench::builder(Pattern::UniformRandom, 0.05)
///     .quick()
///     .seed(7)
///     .build()?;
/// assert_eq!(tb.seed, 7);
///
/// // A bad rate fails at build time, not mid-sweep.
/// assert!(Testbench::builder(Pattern::UniformRandom, 1.5).build().is_err());
/// # Ok::<(), ruche_traffic::TrafficError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TestbenchBuilder {
    tb: Testbench,
}

impl TestbenchBuilder {
    /// Sets the warmup window in cycles.
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.tb.warmup = cycles;
        self
    }

    /// Sets the measurement window in cycles.
    pub fn measure(mut self, cycles: u64) -> Self {
        self.tb.measure = cycles;
        self
    }

    /// Sets the drain budget in cycles.
    pub fn drain(mut self, cycles: u64) -> Self {
        self.tb.drain = cycles;
        self
    }

    /// Switches to the shortened smoke-test windows
    /// ([`Testbench::QUICK_WINDOWS`]).
    pub fn quick(mut self) -> Self {
        (self.tb.warmup, self.tb.measure, self.tb.drain) = Testbench::QUICK_WINDOWS;
        self
    }

    /// Sets the packet length in flits.
    pub fn packet_len(mut self, flits: usize) -> Self {
        self.tb.packet_len = flits;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.tb.seed = seed;
        self
    }

    /// Injects a fault model: the run's network is built with
    /// `Network::with_faults`, dead tiles fall silent, and packets are
    /// only offered to destinations the surviving network can reach.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.tb.faults = faults;
        self
    }

    /// Validates and returns the testbench.
    ///
    /// # Errors
    ///
    /// The [`TrafficError`] for the first violated invariant, as
    /// [`Testbench::validate`] reports it. (Fault-model fit is checked
    /// against the network configuration at [`run`] time — the builder
    /// does not know the array yet.)
    pub fn build(self) -> Result<Testbench, TrafficError> {
        self.tb.validate()?;
        Ok(self.tb)
    }
}

impl From<Testbench> for TestbenchBuilder {
    /// Reopens an existing testbench for further tweaking.
    fn from(tb: Testbench) -> Self {
        TestbenchBuilder { tb }
    }
}

/// Results of one testbench run.
///
/// `TbResult` is also the service's versioned per-job response payload:
/// see [`TbResult::VERSION`](crate::wire) and the exact JSON round-trip
/// codec in [`crate::wire`].
#[derive(Debug, Clone, PartialEq)]
pub struct TbResult {
    /// Offered load (packets/tile/cycle).
    pub offered: f64,
    /// Accepted throughput: flits ejected during the measurement window per
    /// tile per cycle.
    pub accepted: f64,
    /// Mean packet latency (generation to ejection) over packets born in
    /// the measurement window and delivered before the drain limit.
    pub avg_latency: f64,
    /// 99th-percentile latency over the same population.
    pub p99_latency: f64,
    /// Measured-window packets delivered.
    pub delivered: u64,
    /// Measured-window packets still undelivered at the drain limit
    /// (non-zero means the network is past saturation).
    pub lost: u64,
    /// Per-source-tile latency accumulators (for the fairness study).
    pub per_tile_latency: Vec<Accum>,
    /// Whether the run shows saturation (accepted < 95% of offered, or
    /// undrained packets remain).
    pub saturated: bool,
}

/// Runs the testbench on a network configuration.
///
/// With a non-empty [`Testbench::faults`], the network is built with
/// `Network::with_faults`: dead tiles inject nothing, and packets are only
/// offered to destinations the surviving network can reach (partitioned
/// pairs fall silent instead of wedging the run). An empty fault model
/// takes the exact unfaulted code path — same RNG stream, same results,
/// bit for bit.
///
/// # Errors
///
/// Returns a [`TrafficError`] if the testbench parameters are invalid
/// ([`Testbench::validate`]), the pattern cannot run on the array, the
/// network configuration is rejected, or the fault model does not fit it.
pub fn run(cfg: &NetworkConfig, tb: &Testbench) -> Result<TbResult, TrafficError> {
    run_inner(cfg, tb, None).map(|(res, _)| res)
}

/// Like [`run`], with [`NetTelemetry`] attached to the network for the
/// whole run (warmup included). `window` is the injection/ejection
/// time-series bin width in cycles. The simulation is identical to
/// [`run`]'s — telemetry observes, it does not perturb.
///
/// # Errors
///
/// Returns a [`TrafficError`] exactly as [`run`] does.
pub fn run_probed(
    cfg: &NetworkConfig,
    tb: &Testbench,
    window: u64,
) -> Result<(TbResult, Box<NetTelemetry>), TrafficError> {
    run_inner(cfg, tb, Some(window)).map(|(res, tel)| (res, tel.expect("telemetry was attached")))
}

/// The open-loop injection process, drawn lazily: each [`refill`]
/// consumes the testbench RNG one cycle at a time, in `(cycle, tile)`
/// order, up to the next cycle that injects anything, and keeps only that
/// cycle's packets. No Bernoulli or destination draw depends on simulation
/// state, so the stream is exactly what drawing inside the cycle loop would
/// produce — same packet ids, birth cycles and destinations — while the
/// driver learns how far it may fast-forward.
///
/// [`refill`]: Injections::refill
struct Injections {
    rng: SmallRng,
    /// First cycle without injection (the end of the measurement window).
    until: u64,
    /// The cycle [`Injections::batch`] injects at; `u64::MAX` once the
    /// injection window is exhausted.
    cycle: u64,
    /// That cycle's `(source, destination)` pairs in tile order: at most
    /// one per tile, in one reused buffer.
    batch: Vec<(Coord, Dest)>,
}

impl Injections {
    /// Draws cycles from `from` on until one injects anything, leaving it
    /// in `cycle` and `batch`.
    fn refill(&mut self, net: &Network, tb: &Testbench, from: u64) {
        let dims = net.cfg().dims;
        let table = net.route_table();
        self.batch.clear();
        for cycle in from..self.until {
            for src in dims.iter() {
                // Dead tiles fall silent without consuming an RNG draw, so
                // a fault model perturbs only the traffic it disables.
                if table.is_some() && !net.endpoint_alive(net.tile_endpoint(src)) {
                    continue;
                }
                if self.rng.gen_bool(tb.injection_rate) {
                    if let Some(dest) = tb.pattern.dest(src, dims, &mut self.rng) {
                        // Partitioned pairs are offered nothing.
                        if table.is_none_or(|t| t.reachable(src, Dir::P, dest)) {
                            self.batch.push((src, dest));
                        }
                    }
                }
            }
            if !self.batch.is_empty() {
                self.cycle = cycle;
                return;
            }
        }
        self.cycle = u64::MAX;
    }
}

fn run_inner(
    cfg: &NetworkConfig,
    tb: &Testbench,
    telemetry_window: Option<u64>,
) -> Result<(TbResult, Option<Box<NetTelemetry>>), TrafficError> {
    tb.validate()?;
    tb.pattern.validate(cfg.dims)?;
    let mut cfg = cfg.clone();
    if tb.pattern.needs_edge_ports() {
        cfg.edge_memory_ports = true;
    }
    let dims = cfg.dims;
    let n_tiles = dims.count() as u64;
    let mut net = if tb.faults.is_empty() {
        Network::new(cfg)?
    } else {
        Network::with_faults(cfg, &tb.faults).map_err(|e| match e {
            ruche_noc::Error::Config(e) => TrafficError::Config(e),
            ruche_noc::Error::Fault(e) => TrafficError::Fault(e),
            other => panic!("unexpected faulted-network construction error: {other}"),
        })?
    };
    if let Some(window) = telemetry_window {
        net.attach_telemetry(window);
    }

    let inject_until = tb.warmup + tb.measure;
    let m_start = tb.warmup;
    let mut injections = Injections {
        rng: SmallRng::seed_from_u64(tb.seed),
        until: inject_until,
        cycle: 0,
        batch: Vec::with_capacity(n_tiles as usize),
    };
    injections.refill(&net, tb, 0);
    let mut next_id = 0u64;
    let mut expected = 0u64; // packets born in the measurement window
    let mut delivered = 0u64;
    let mut measured_flits_ejected = 0u64;
    let mut lat = ruche_stats::Samples::new();
    let mut per_tile: Vec<Accum> = vec![Accum::new(); n_tiles as usize];

    let mut cycle = 0u64;
    let deadline = inject_until + tb.drain;
    while cycle < deadline {
        if injections.cycle == cycle {
            for &(src, dest) in &injections.batch {
                if cycle >= m_start {
                    expected += 1;
                }
                let ep = net.tile_endpoint(src);
                for f in Flit::multi(src, dest, next_id, cycle, tb.packet_len) {
                    net.enqueue(ep, f);
                }
                next_id += 1;
            }
            injections.refill(&net, tb, cycle + 1);
        }
        let in_measure = (m_start..inject_until).contains(&cycle);
        for &(_, f) in net.step() {
            if in_measure {
                measured_flits_ejected += 1;
            }
            if f.kind.is_tail() && f.birth >= m_start && f.birth < inject_until {
                let latency = (cycle - f.birth) as f64;
                lat.add(latency);
                per_tile[dims.index(f.src)].add(latency);
                delivered += 1;
            }
        }
        cycle += 1;
        // Early exit once everything measured has drained.
        if cycle >= inject_until && delivered == expected {
            break;
        }
        // Fast-forward across the span in which neither the network (no
        // flit buffered or in transit) nor the injection process (next
        // injection still ahead) can do anything. Skipped cycles eject
        // nothing — the span is provably empty — so the accounting above
        // misses nothing, and telemetry records the span in bulk,
        // byte-identical to stepping it.
        cycle = net.fast_forward(injections.cycle.min(deadline));
    }

    let accepted = measured_flits_ejected as f64 / (n_tiles * tb.measure) as f64;
    let offered = tb.injection_rate * tb.packet_len as f64;
    let lost = expected - delivered;
    let mut samples = lat;
    Ok((
        TbResult {
            offered,
            accepted,
            avg_latency: samples.mean(),
            p99_latency: samples.quantile(0.99).unwrap_or(0.0),
            delivered,
            lost,
            per_tile_latency: per_tile,
            // The absolute slack keeps Bernoulli sampling noise at very low
            // rates from reading as saturation.
            saturated: lost > 0 || accepted < 0.95 * offered - 0.005,
        },
        net.detach_telemetry(),
    ))
}

/// Mean latency at (near-)zero load: a low-rate run whose latency is the
/// network's intrinsic latency under this pattern.
pub fn zero_load_latency(cfg: &NetworkConfig, pattern: Pattern, seed: u64) -> f64 {
    let tb = Testbench::builder(pattern, 0.005)
        .seed(seed)
        .build()
        .expect("zero-load testbench is valid");
    run(cfg, &tb).expect("pattern valid").avg_latency
}

/// Saturation throughput: the accepted flit rate when every tile offers a
/// packet every cycle.
pub fn saturation_throughput(cfg: &NetworkConfig, pattern: Pattern, seed: u64) -> f64 {
    let tb = Testbench::builder(pattern, 1.0)
        .seed(seed)
        .build()
        .expect("saturation testbench is valid");
    run(cfg, &tb).expect("pattern valid").accepted
}

/// One point of a latency-vs-offered-load curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered load (flits/tile/cycle).
    pub offered: f64,
    /// Accepted throughput.
    pub accepted: f64,
    /// Mean latency (diverges past saturation).
    pub avg_latency: f64,
    /// Whether this point is past saturation.
    pub saturated: bool,
}

/// Sweeps injection rates, producing the latency/throughput curve of the
/// paper's Figures 6 and 9.
pub fn latency_curve(cfg: &NetworkConfig, tb_proto: &Testbench, rates: &[f64]) -> Vec<CurvePoint> {
    rates
        .iter()
        .map(|&r| {
            let tb = Testbench {
                injection_rate: r,
                ..tb_proto.clone()
            };
            let res = run(cfg, &tb).expect("pattern valid");
            CurvePoint {
                offered: res.offered,
                accepted: res.accepted,
                avg_latency: res.avg_latency,
                saturated: res.saturated,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::topology::CrossbarScheme::FullyPopulated;

    fn quick(pattern: Pattern, rate: f64) -> Testbench {
        Testbench::builder(pattern, rate)
            .quick()
            .build()
            .expect("test parameters are valid")
    }

    #[test]
    fn low_load_latency_matches_route_hops() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let tb = quick(Pattern::UniformRandom, 0.01);
        let res = run(&cfg, &tb).unwrap();
        assert!(!res.saturated);
        assert_eq!(res.lost, 0);
        // Latency ≈ mean route hops, within queueing noise at 1% load: a
        // flit born at cycle t traverses its first link during cycle t's
        // step, so the source queue adds no cycle at zero load.
        let expect = mean_route_hops(&cfg);
        assert!(
            (res.avg_latency - expect).abs() < 1.0,
            "avg {} vs hops {}",
            res.avg_latency,
            expect
        );
    }

    #[test]
    fn drain_exits_early_once_measured_packets_land() {
        // The drain budget is an upper bound, not a schedule: once every
        // measured packet has ejected, the run stops. An absurd budget must
        // therefore cost nothing and change nothing. (If the early exit
        // regressed, this test would grind through 50M idle cycles.)
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let tb = Testbench::builder(Pattern::UniformRandom, 0.05)
            .warmup(100)
            .measure(200)
            .drain(1_000)
            .build()
            .unwrap();
        let huge = Testbench {
            drain: 50_000_000,
            ..tb.clone()
        };
        let start = std::time::Instant::now();
        let a = run(&cfg, &tb).unwrap();
        let b = run(&cfg, &huge).unwrap();
        assert!(start.elapsed().as_secs() < 20, "drain did not exit early");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.lost, 0);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn mesh_8x8_saturates_near_paper_value() {
        // §4.1: 2-D mesh saturation throughput around 28% under uniform
        // random on 8×8. Allow a generous band.
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let sat = saturation_throughput(&cfg, Pattern::UniformRandom, 3);
        assert!((0.22..0.36).contains(&sat), "saturation {sat}");
    }

    #[test]
    fn ruche_one_beats_torus_in_uniform_random() {
        // §4.1 headline: ruche1-pop outperforms torus in throughput despite
        // equal bisection bandwidth, because VC routers halve the peak
        // crossbar bandwidth.
        let dims = Dims::new(8, 8);
        let torus = saturation_throughput(&NetworkConfig::torus(dims), Pattern::UniformRandom, 3);
        let r1 = saturation_throughput(&NetworkConfig::ruche_one(dims), Pattern::UniformRandom, 3);
        assert!(r1 > torus, "ruche1 {r1} vs torus {torus}");
    }

    #[test]
    fn torus_beats_mesh_in_uniform_random() {
        let dims = Dims::new(8, 8);
        let mesh = saturation_throughput(&NetworkConfig::mesh(dims), Pattern::UniformRandom, 3);
        let torus = saturation_throughput(&NetworkConfig::torus(dims), Pattern::UniformRandom, 3);
        assert!(torus > mesh, "torus {torus} vs mesh {mesh}");
    }

    #[test]
    fn saturated_run_reports_saturation() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let res = run(&cfg, &quick(Pattern::UniformRandom, 0.9)).unwrap();
        assert!(res.saturated);
        assert!(res.accepted < 0.5);
    }

    #[test]
    fn latency_curve_is_monotone_in_accepted_load() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        // The proto's own rate is never run — each curve point replaces it.
        let tb = quick(Pattern::UniformRandom, 1.0);
        let curve = latency_curve(&cfg, &tb, &[0.02, 0.10, 0.25]);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].avg_latency < curve[2].avg_latency);
        assert!(curve[0].accepted < curve[1].accepted);
    }

    #[test]
    fn tile_to_memory_runs_on_edge_network() {
        let cfg =
            NetworkConfig::half_ruche(Dims::new(16, 8), 2, FullyPopulated).with_edge_memory_ports();
        let res = run(&cfg, &quick(Pattern::TileToMemory, 0.05)).unwrap();
        assert!(res.delivered > 0);
        assert!(!res.saturated);
    }

    #[test]
    fn per_tile_latencies_cover_all_tiles() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let res = run(&cfg, &quick(Pattern::UniformRandom, 0.1)).unwrap();
        assert_eq!(res.per_tile_latency.len(), 16);
        assert!(res.per_tile_latency.iter().all(|a| a.count() > 0));
    }

    #[test]
    fn transpose_on_rectangular_array_errors() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 4));
        assert!(run(&cfg, &quick(Pattern::Transpose, 0.1)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let a = run(&cfg, &quick(Pattern::UniformRandom, 0.2)).unwrap();
        let b = run(&cfg, &quick(Pattern::UniformRandom, 0.2)).unwrap();
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn probed_run_matches_plain_run() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let tb = quick(Pattern::UniformRandom, 0.2);
        let plain = run(&cfg, &tb).unwrap();
        let (probed, tel) = run_probed(&cfg, &tb, 64).unwrap();
        assert_eq!(plain.avg_latency, probed.avg_latency);
        assert_eq!(plain.accepted, probed.accepted);
        assert_eq!(plain.delivered, probed.delivered);
        // The telemetry observed the whole run, including the drain tail.
        assert!(tel.cycles() >= tb.warmup + tb.measure);
        assert!(tel.ejected().total() >= probed.delivered);
        assert!(tel.injected().total() >= tel.ejected().total());
    }

    #[test]
    fn two_identical_seeded_runs_export_identical_telemetry() {
        let blob = |seed: u64| {
            let cfg = NetworkConfig::mesh(Dims::new(8, 8));
            let tb = Testbench::builder(Pattern::UniformRandom, 0.2)
                .quick()
                .seed(seed)
                .build()
                .unwrap();
            let (_, tel) = run_probed(&cfg, &tb, 64).unwrap();
            let mut p = ruche_telemetry::JsonProbe::new();
            tel.export(&mut p);
            p.into_json()
        };
        let a = blob(11);
        assert_eq!(a, blob(11), "same seed, same bytes");
        assert!(a.contains("\"link.E.vc0.traversed\""), "{a}");
        assert_ne!(a, blob(12), "different seed, different telemetry");
    }

    #[test]
    fn faulted_run_skips_partitioned_pairs_and_delivers_the_rest() {
        let cfg = NetworkConfig::mesh(Dims::new(6, 6));
        let faults = FaultModel::random_links(&cfg, 0.1, 4).kill_router(Coord::new(3, 3));
        let tb = Testbench::builder(Pattern::UniformRandom, 0.1)
            .quick()
            .faults(faults)
            .build()
            .unwrap();
        let res = run(&cfg, &tb).unwrap();
        assert!(res.delivered > 0);
        assert_eq!(res.lost, 0, "unreachable pairs are never offered");
        // The dead tile sourced nothing.
        assert_eq!(
            res.per_tile_latency[Dims::new(6, 6).index(Coord::new(3, 3))].count(),
            0
        );
    }

    #[test]
    fn misfit_fault_model_errors_instead_of_panicking() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let tb = Testbench::builder(Pattern::UniformRandom, 0.1)
            .quick()
            .faults(FaultModel::default().kill_router(Coord::new(9, 9)))
            .build()
            .unwrap();
        assert!(matches!(run(&cfg, &tb), Err(crate::TrafficError::Fault(_))));
    }

    #[test]
    fn debug_rendering_is_stable_for_unfaulted_testbenches() {
        // The sweep cache keys on `{:?}`: an empty fault model must render
        // exactly as the pre-fault Testbench did, and only real faults may
        // change the key.
        let tb = quick(Pattern::UniformRandom, 0.1);
        assert_eq!(
            format!("{tb:?}"),
            "Testbench { pattern: UniformRandom, injection_rate: 0.1, warmup: 300, \
             measure: 700, drain: 1000, packet_len: 1, seed: 12648430 }"
        );
        let faulted = TestbenchBuilder::from(tb.clone())
            .faults(FaultModel::default().kill_router(Coord::new(1, 1)))
            .build()
            .unwrap();
        assert_ne!(format!("{tb:?}"), format!("{faulted:?}"));
        assert!(format!("{faulted:?}").contains("faults"), "{faulted:?}");
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        for rate in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(
                matches!(
                    Testbench::builder(Pattern::UniformRandom, rate).build(),
                    Err(TrafficError::InvalidInjectionRate(_))
                ),
                "rate {rate} must be rejected"
            );
        }
        let base = || Testbench::builder(Pattern::UniformRandom, 0.1);
        assert!(matches!(
            base().measure(0).build(),
            Err(TrafficError::EmptyMeasureWindow)
        ));
        assert!(matches!(
            base().drain(0).build(),
            Err(TrafficError::EmptyDrainWindow)
        ));
        assert!(matches!(
            base().packet_len(0).build(),
            Err(TrafficError::EmptyPacket)
        ));
        // `run` re-validates, so a hand-edited testbench cannot slip through.
        let mut tb = quick(Pattern::UniformRandom, 0.1);
        tb.injection_rate = 0.0;
        assert!(matches!(
            run(&NetworkConfig::mesh(Dims::new(4, 4)), &tb),
            Err(TrafficError::InvalidInjectionRate(_))
        ));
    }

    #[test]
    fn builder_reopens_an_existing_testbench() {
        let base = quick(Pattern::UniformRandom, 0.1);
        let tweaked = TestbenchBuilder::from(base.clone())
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(tweaked.warmup, base.warmup);
        assert_eq!(tweaked.seed, 99);
    }

    #[test]
    fn multi_flit_packets_account_latency_at_tail() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let mut tb = quick(Pattern::UniformRandom, 0.02);
        tb.packet_len = 3;
        let res = run(&cfg, &tb).unwrap();
        let single = run(&cfg, &quick(Pattern::UniformRandom, 0.02)).unwrap();
        assert!(
            res.avg_latency > single.avg_latency,
            "serialization latency"
        );
    }
}
