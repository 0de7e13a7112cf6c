//! The versioned request/result wire API for sweeps.
//!
//! [`SweepRequest`] is the canonical identity of one sweep point — a
//! network configuration plus a testbench — with an explicit
//! [`SweepRequest::KEY_VERSION`] and a byte-stable JSON rendering that the
//! sweep service, the result store, and `repro` all share. It replaces the
//! old `format!("{:?}", cfg)` cache key: a `Debug` rendering no external
//! client can construct, and whose stability was an accident of `derive`.
//!
//! [`TbResult`] gets the same treatment on the response side:
//! [`TbResult::VERSION`], plus an exact JSON round-trip ([`TbResult::to_wire`]
//! / [`TbResult::from_wire`]) in the discipline of `NetSnapshot::VERSION` —
//! every float in shortest-roundtrip form, per-tile Welford accumulators
//! serialized by raw parts, so decode(encode(r)) is bit-identical to `r`
//! and the daemon can stream stored results verbatim.

use crate::pattern::Pattern;
use crate::testbench::{TbResult, Testbench};
use ruche_noc::fault::FaultModel;
use ruche_noc::geometry::Coord;
use ruche_noc::topology::NetworkConfig;
use ruche_noc::wire::{get_bool, get_f64, get_u64, opt_str, opt_u64, WireError};
use ruche_stats::Accum;
use ruche_telemetry::json::Json;

impl Pattern {
    /// The wire form, e.g. `{"kind":"tornado"}`; hotspot carries its
    /// target as `{"kind":"hotspot","x":X,"y":Y}`.
    pub fn to_wire(self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.name().into()))];
        if let Pattern::Hotspot(c) = self {
            fields.push(("x".into(), Json::U64(c.x as u64)));
            fields.push(("y".into(), Json::U64(c.y as u64)));
        }
        Json::Obj(fields)
    }

    /// Decodes the wire form of [`Pattern::to_wire`]. Spellings are the
    /// [`Pattern::name`] strings.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        let kind = opt_str(v, "kind")?.ok_or_else(|| WireError::new("pattern.kind", "missing"))?;
        match kind {
            "uniform-random" => Ok(Pattern::UniformRandom),
            "bit-complement" => Ok(Pattern::BitComplement),
            "transpose" => Ok(Pattern::Transpose),
            "tornado" => Ok(Pattern::Tornado),
            "tile-to-memory" => Ok(Pattern::TileToMemory),
            "neighbor" => Ok(Pattern::Neighbor),
            "hotspot" => {
                let c = Coord::from_wire(v)
                    .map_err(|e| WireError::new(format!("pattern.{}", e.field), e.reason))?;
                Ok(Pattern::Hotspot(c))
            }
            other => Err(WireError::new(
                "pattern.kind",
                format!("unknown pattern {other:?}"),
            )),
        }
    }
}

impl Testbench {
    /// The canonical wire form. An empty fault model is omitted entirely —
    /// the same discipline as the `Debug` rendering, so unfaulted
    /// testbenches keep one stable identity whether or not the client's
    /// schema knows about faults.
    pub fn to_wire(&self) -> Json {
        let mut fields = vec![
            ("pattern".to_string(), self.pattern.to_wire()),
            ("injection_rate".into(), Json::F64(self.injection_rate)),
            ("warmup".into(), Json::U64(self.warmup)),
            ("measure".into(), Json::U64(self.measure)),
            ("drain".into(), Json::U64(self.drain)),
            ("packet_len".into(), Json::U64(self.packet_len as u64)),
            ("seed".into(), Json::U64(self.seed)),
        ];
        if !self.faults.is_empty() {
            fields.push(("faults".into(), self.faults.to_wire()));
        }
        Json::Obj(fields)
    }

    /// Decodes the wire form of [`Testbench::to_wire`].
    ///
    /// Required: `pattern` and `injection_rate`. Window lengths default to
    /// [`Testbench::DEFAULT_WINDOWS`], the seed to
    /// [`Testbench::DEFAULT_SEED`], `packet_len` to 1, and `faults` to
    /// empty. The result is **unvalidated** — callers run
    /// [`Testbench::validate`] (the service front door does), so a
    /// decodable testbench with, say, a NaN injection rate still fails
    /// with a structured error before any simulation starts.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(WireError::new("testbench", "expected an object"));
        }
        let pattern = Pattern::from_wire(
            v.get("pattern")
                .ok_or_else(|| WireError::new("pattern", "missing"))?,
        )?;
        let injection_rate = get_f64(v, "injection_rate")?;
        let faults = match v.get("faults") {
            None => FaultModel::default(),
            Some(f) => FaultModel::from_wire(f)
                .map_err(|e| WireError::new(format!("faults.{}", e.field), e.reason))?,
        };
        let packet_len = opt_u64(v, "packet_len")?.unwrap_or(1);
        Ok(Testbench {
            pattern,
            injection_rate,
            warmup: opt_u64(v, "warmup")?.unwrap_or(Self::DEFAULT_WINDOWS.0),
            measure: opt_u64(v, "measure")?.unwrap_or(Self::DEFAULT_WINDOWS.1),
            drain: opt_u64(v, "drain")?.unwrap_or(Self::DEFAULT_WINDOWS.2),
            packet_len: usize::try_from(packet_len)
                .map_err(|_| WireError::new("packet_len", "does not fit usize"))?,
            seed: opt_u64(v, "seed")?.unwrap_or(Self::DEFAULT_SEED),
            faults,
        })
    }
}

/// One sweep point — a network configuration plus a testbench — in its
/// canonical, versioned wire identity.
///
/// Two requests are the same job exactly when their [`cache_key`]
/// (SweepRequest::cache_key) strings are equal. By construction the key
/// excludes `step_mode` (the config wire codec never emits it), so results
/// computed in either step mode are interchangeable — the same contract
/// the old `Debug`-based key upheld.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The network under test.
    pub cfg: NetworkConfig,
    /// The traffic applied to it.
    pub tb: Testbench,
}

impl SweepRequest {
    /// Version of the request schema **and** of every cache key derived
    /// from it. Bumping this invalidates all stored results at once —
    /// exactly the semantics the old `MODEL_VERSION` prefix had, now
    /// explicit on the wire.
    pub const KEY_VERSION: u64 = 1;

    /// Builds a request.
    pub fn new(cfg: NetworkConfig, tb: Testbench) -> Self {
        SweepRequest { cfg, tb }
    }

    /// The canonical wire form: `key_version` first, then the config and
    /// testbench in their own canonical forms.
    pub fn to_wire(&self) -> Json {
        Json::Obj(vec![
            ("key_version".into(), Json::U64(Self::KEY_VERSION)),
            ("config".into(), self.cfg.to_wire()),
            ("testbench".into(), self.tb.to_wire()),
        ])
    }

    /// Decodes the wire form of [`SweepRequest::to_wire`]. An omitted
    /// `key_version` is read as current; an unknown one is rejected.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(WireError::new("request", "expected an object"));
        }
        let version = opt_u64(v, "key_version")?.unwrap_or(Self::KEY_VERSION);
        if version != Self::KEY_VERSION {
            return Err(WireError::new(
                "key_version",
                format!(
                    "unsupported version {version}; this build speaks {}",
                    Self::KEY_VERSION
                ),
            ));
        }
        let cfg = NetworkConfig::from_wire(
            v.get("config")
                .ok_or_else(|| WireError::new("config", "missing"))?,
        )?;
        let tb = Testbench::from_wire(
            v.get("testbench")
                .ok_or_else(|| WireError::new("testbench", "missing"))?,
        )?;
        Ok(SweepRequest { cfg, tb })
    }

    /// The canonical cache key: the rendered wire form. Byte-stable across
    /// processes, versions explicitly, and constructible by any client
    /// that can write JSON.
    pub fn cache_key(&self) -> String {
        self.to_wire().render()
    }
}

impl TbResult {
    /// Version of the result wire schema. Stored results carry it; a
    /// decoder seeing a different version rejects the entry (the store
    /// then treats it as a miss) instead of misreading fields.
    pub const VERSION: u64 = 1;

    /// The exact wire form: floats in shortest-roundtrip rendering,
    /// per-tile accumulators as raw `[count, mean, m2, min, max]` Welford
    /// parts. [`TbResult::from_wire`] reconstructs a bit-identical value,
    /// non-finite statistics included.
    pub fn to_wire(&self) -> Json {
        Json::Obj(vec![
            ("result_version".into(), Json::U64(Self::VERSION)),
            ("offered".into(), Json::F64(self.offered)),
            ("accepted".into(), Json::F64(self.accepted)),
            ("avg_latency".into(), Json::F64(self.avg_latency)),
            ("p99_latency".into(), Json::F64(self.p99_latency)),
            ("delivered".into(), Json::U64(self.delivered)),
            ("lost".into(), Json::U64(self.lost)),
            (
                "per_tile_latency".into(),
                Json::Arr(
                    self.per_tile_latency
                        .iter()
                        .map(|a| {
                            let (count, mean, m2, min, max) = a.to_parts();
                            Json::Arr(vec![
                                Json::U64(count),
                                Json::F64(mean),
                                Json::F64(m2),
                                Json::F64(min),
                                Json::F64(max),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("saturated".into(), Json::Bool(self.saturated)),
        ])
    }

    /// Decodes the wire form of [`TbResult::to_wire`]. Every field is
    /// required; the version must match [`TbResult::VERSION`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field, or an
    /// unsupported `result_version`.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(WireError::new("result", "expected an object"));
        }
        let version = get_u64(v, "result_version")?;
        if version != Self::VERSION {
            return Err(WireError::new(
                "result_version",
                format!(
                    "unsupported version {version}; this build speaks {}",
                    Self::VERSION
                ),
            ));
        }
        let tiles = v
            .get("per_tile_latency")
            .ok_or_else(|| WireError::new("per_tile_latency", "missing"))?
            .as_arr()
            .ok_or_else(|| WireError::new("per_tile_latency", "expected an array"))?;
        let mut per_tile_latency = Vec::with_capacity(tiles.len());
        for (i, t) in tiles.iter().enumerate() {
            let parts = t.as_arr().filter(|p| p.len() == 5).ok_or_else(|| {
                WireError::new(
                    format!("per_tile_latency[{i}]"),
                    "expected [count, mean, m2, min, max]",
                )
            })?;
            let field = |j: usize| format!("per_tile_latency[{i}][{j}]");
            let count = parts[0]
                .as_u64()
                .ok_or_else(|| WireError::new(field(0), "expected an unsigned integer"))?;
            let mut nums = [0.0f64; 4];
            for (j, n) in nums.iter_mut().enumerate() {
                *n = parts[j + 1]
                    .as_f64()
                    .ok_or_else(|| WireError::new(field(j + 1), "expected a number"))?;
            }
            per_tile_latency.push(Accum::from_parts(count, nums[0], nums[1], nums[2], nums[3]));
        }
        Ok(TbResult {
            offered: get_f64(v, "offered")?,
            accepted: get_f64(v, "accepted")?,
            avg_latency: get_f64(v, "avg_latency")?,
            p99_latency: get_f64(v, "p99_latency")?,
            delivered: get_u64(v, "delivered")?,
            lost: get_u64(v, "lost")?,
            per_tile_latency,
            saturated: get_bool(v, "saturated")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use ruche_noc::geometry::{Dims, Dir};
    use ruche_noc::topology::{CrossbarScheme, StepMode};
    use ruche_telemetry::json::parse;

    fn quick(rate: f64) -> Testbench {
        Testbench::builder(Pattern::UniformRandom, rate)
            .quick()
            .build()
            .expect("valid")
    }

    #[test]
    fn every_pattern_roundtrips() {
        for p in [
            Pattern::UniformRandom,
            Pattern::BitComplement,
            Pattern::Transpose,
            Pattern::Tornado,
            Pattern::Hotspot(Coord::new(3, 5)),
            Pattern::TileToMemory,
            Pattern::Neighbor,
        ] {
            let wire = p.to_wire().render();
            let back = Pattern::from_wire(&parse(&wire).expect("parses")).expect("decodes");
            assert_eq!(back, p, "{wire}");
            assert_eq!(back.to_wire().render(), wire);
        }
        assert_eq!(
            Pattern::from_wire(&parse(r#"{"kind":"zigzag"}"#).unwrap())
                .unwrap_err()
                .field,
            "pattern.kind"
        );
    }

    #[test]
    fn testbench_roundtrips_with_and_without_faults() {
        let plain = quick(0.15);
        let faulted = crate::testbench::TestbenchBuilder::from(plain.clone())
            .faults(
                FaultModel::default()
                    .kill_link(Coord::new(1, 1), Dir::E)
                    .kill_router(Coord::new(2, 0)),
            )
            .build()
            .unwrap();
        for tb in [&plain, &faulted] {
            let wire = tb.to_wire().render();
            let back = Testbench::from_wire(&parse(&wire).unwrap()).unwrap();
            assert_eq!(&back, tb, "{wire}");
            assert_eq!(back.to_wire().render(), wire);
        }
        assert!(!plain.to_wire().render().contains("faults"));
        assert!(faulted.to_wire().render().contains("faults"));
    }

    #[test]
    fn minimal_testbench_gets_paper_defaults() {
        let v = parse(r#"{"pattern":{"kind":"tornado"},"injection_rate":0.25}"#).unwrap();
        let tb = Testbench::from_wire(&v).unwrap();
        assert_eq!(tb.pattern, Pattern::Tornado);
        assert_eq!(tb.injection_rate, 0.25);
        assert_eq!(
            (tb.warmup, tb.measure, tb.drain),
            Testbench::DEFAULT_WINDOWS
        );
        assert_eq!(tb.packet_len, 1);
        assert_eq!(tb.seed, Testbench::DEFAULT_SEED);
        assert!(tb.faults.is_empty());
    }

    #[test]
    fn request_key_is_step_mode_independent() {
        let dims = Dims::new(8, 8);
        let base = SweepRequest::new(NetworkConfig::mesh(dims), quick(0.1));
        let tuned = SweepRequest::new(
            NetworkConfig::mesh(dims).with_step_mode(StepMode::EventDriven),
            quick(0.1),
        );
        assert_eq!(base.cache_key(), tuned.cache_key());
        // But every semantic knob splits the key.
        let other_cfg = SweepRequest::new(
            NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
            quick(0.1),
        );
        let other_rate = SweepRequest::new(NetworkConfig::mesh(dims), quick(0.2));
        assert_ne!(base.cache_key(), other_cfg.cache_key());
        assert_ne!(base.cache_key(), other_rate.cache_key());
        // The version is explicit in the key bytes.
        assert!(base.cache_key().contains("\"key_version\":1"));
    }

    #[test]
    fn request_roundtrips_canonically() {
        let req = SweepRequest::new(
            NetworkConfig::half_ruche(Dims::new(16, 8), 3, CrossbarScheme::FullyPopulated),
            quick(0.07),
        );
        let wire = req.cache_key();
        let back = SweepRequest::from_wire(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.cache_key(), wire);
        // Unknown key versions are rejected, not guessed at.
        let stale = wire.replace("\"key_version\":1", "\"key_version\":9");
        assert_eq!(
            SweepRequest::from_wire(&parse(&stale).unwrap())
                .unwrap_err()
                .field,
            "key_version"
        );
    }

    #[test]
    fn real_results_roundtrip_bit_exactly() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let res = run(&cfg, &quick(0.1)).unwrap();
        let wire = res.to_wire().render();
        let back = TbResult::from_wire(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back.offered.to_bits(), res.offered.to_bits());
        assert_eq!(back.accepted.to_bits(), res.accepted.to_bits());
        assert_eq!(back.avg_latency.to_bits(), res.avg_latency.to_bits());
        assert_eq!(back.p99_latency.to_bits(), res.p99_latency.to_bits());
        assert_eq!(back.delivered, res.delivered);
        assert_eq!(back.lost, res.lost);
        assert_eq!(back.saturated, res.saturated);
        assert_eq!(back.per_tile_latency.len(), res.per_tile_latency.len());
        for (a, b) in back.per_tile_latency.iter().zip(&res.per_tile_latency) {
            assert_eq!(a, b);
        }
        // Canonical: encode(decode(x)) is byte-identical.
        assert_eq!(back.to_wire().render(), wire);
        assert!(wire.contains("\"result_version\":1"));
    }

    #[test]
    fn empty_accumulators_with_infinite_bounds_survive_the_wire() {
        // A silent tile's accumulator holds min=+inf, max=-inf — the wire
        // must carry non-finite floats losslessly.
        let res = TbResult {
            offered: 0.1,
            accepted: 0.099,
            avg_latency: 12.5,
            p99_latency: 30.0,
            delivered: 10,
            lost: 0,
            per_tile_latency: vec![Accum::new(), [4.0, 5.0].into_iter().collect()],
            saturated: false,
        };
        let wire = res.to_wire().render();
        assert!(wire.contains("Infinity"), "{wire}");
        let back = TbResult::from_wire(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back.per_tile_latency[0], Accum::new());
        assert_eq!(back.per_tile_latency[1].mean(), 4.5);
        assert_eq!(back.to_wire().render(), wire);
    }

    #[test]
    fn malformed_results_name_the_field() {
        let cases = [
            (r#"{"offered":0.1}"#, "result_version"),
            (r#"{"result_version":2,"offered":0.1}"#, "result_version"),
            (
                r#"{"result_version":1,"offered":"x","accepted":1.0,"avg_latency":1.0,
                    "p99_latency":1.0,"delivered":1,"lost":0,"per_tile_latency":[],
                    "saturated":false}"#,
                "offered",
            ),
            (
                r#"{"result_version":1,"offered":0.1,"accepted":1.0,"avg_latency":1.0,
                    "p99_latency":1.0,"delivered":1,"lost":0,"per_tile_latency":[[1,2]],
                    "saturated":false}"#,
                "per_tile_latency[0]",
            ),
        ];
        for (body, field) in cases {
            let v = parse(body).unwrap();
            assert_eq!(TbResult::from_wire(&v).unwrap_err().field, field, "{body}");
        }
    }
}
