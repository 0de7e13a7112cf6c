//! The serializable configuration surface: JSON codecs for
//! [`NetworkConfig`] and [`FaultModel`].
//!
//! External clients of the sweep service cannot construct a Rust `Debug`
//! rendering, so every configuration a request can carry has an explicit,
//! versioned wire form built on the deterministic JSON model in
//! `ruche_telemetry::json`. Two properties are load-bearing:
//!
//! * **Canonical rendering.** [`NetworkConfig::to_wire`] always emits every
//!   field, in a fixed order, with floats in shortest-roundtrip form — so
//!   equal configurations render byte-identically and the rendering can
//!   serve as a cache key (`ruche_traffic::wire::SweepRequest` builds on
//!   it).
//! * **Performance knobs are not identity.** `step_mode` never appears on
//!   the wire: results are byte-identical in either step mode, so two
//!   requests differing only in that knob must be the same request (the
//!   same contract the `Debug`-based cache key upheld, now enforced
//!   structurally).
//!
//! Decoding is lenient where it is safe: optional fields fall back to the
//! paper's defaults, so a client can POST `{"dims":{"cols":8,"rows":8},
//! "topology":{"kind":"mesh"}}` and get the canonical 8×8 mesh. Decoding
//! never panics — every malformed shape comes back as a [`WireError`]
//! naming the offending field.

use crate::fault::FaultModel;
use crate::geometry::{Axes, Coord, Dims, Dir};
use crate::topology::{CrossbarScheme, DorOrder, NetworkConfig, TopologyKind};
use ruche_telemetry::json::Json;
use std::fmt;

/// Version of the configuration wire schema. Bump when a field is added,
/// removed, or re-interpreted; decoders reject unknown versions rather
/// than guessing.
pub const CONFIG_WIRE_VERSION: u64 = 1;

/// A structured decoding error: which field broke, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path of the offending field (e.g. `topology.rf`).
    pub field: String,
    /// What was wrong with it.
    pub reason: String,
}

impl WireError {
    /// Builds an error for `field`.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        WireError {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for WireError {}

/// Reads a `u64` field of an object, erroring with the field path.
pub fn get_u64(v: &Json, field: &str) -> Result<u64, WireError> {
    v.get(field)
        .ok_or_else(|| WireError::new(field, "missing"))?
        .as_u64()
        .ok_or_else(|| WireError::new(field, "expected an unsigned integer"))
}

/// Reads a number field of an object as `f64`, erroring with the field
/// path.
pub fn get_f64(v: &Json, field: &str) -> Result<f64, WireError> {
    v.get(field)
        .ok_or_else(|| WireError::new(field, "missing"))?
        .as_f64()
        .ok_or_else(|| WireError::new(field, "expected a number"))
}

/// Reads a boolean field of an object, erroring with the field path.
pub fn get_bool(v: &Json, field: &str) -> Result<bool, WireError> {
    v.get(field)
        .ok_or_else(|| WireError::new(field, "missing"))?
        .as_bool()
        .ok_or_else(|| WireError::new(field, "expected a boolean"))
}

/// Reads a string field of an object, erroring with the field path.
pub fn get_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, WireError> {
    v.get(field)
        .ok_or_else(|| WireError::new(field, "missing"))?
        .as_str()
        .ok_or_else(|| WireError::new(field, "expected a string"))
}

/// Reads an optional `u64` field (missing ⇒ `None`, wrong type ⇒ error).
pub fn opt_u64(v: &Json, field: &str) -> Result<Option<u64>, WireError> {
    match v.get(field) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected an unsigned integer")),
    }
}

/// Reads an optional number field as `f64` (missing ⇒ `None`, wrong type
/// ⇒ error).
pub fn opt_f64(v: &Json, field: &str) -> Result<Option<f64>, WireError> {
    match v.get(field) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected a number")),
    }
}

/// Reads an optional boolean field (missing ⇒ `None`, wrong type ⇒ error).
pub fn opt_bool(v: &Json, field: &str) -> Result<Option<bool>, WireError> {
    match v.get(field) {
        None => Ok(None),
        Some(x) => x
            .as_bool()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected a boolean")),
    }
}

/// Reads an optional string field (missing ⇒ `None`, wrong type ⇒ error).
pub fn opt_str<'a>(v: &'a Json, field: &str) -> Result<Option<&'a str>, WireError> {
    match v.get(field) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| WireError::new(field, "expected a string")),
    }
}

/// Converts a `u64` into `u16`, erroring with the field path on overflow.
fn to_u16(n: u64, field: &str) -> Result<u16, WireError> {
    u16::try_from(n).map_err(|_| WireError::new(field, format!("{n} does not fit u16")))
}

/// Converts a `u64` into `u32`, erroring with the field path on overflow.
fn to_u32(n: u64, field: &str) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::new(field, format!("{n} does not fit u32")))
}

impl Dims {
    /// The wire form: `{"cols":C,"rows":R}`.
    pub fn to_wire(self) -> Json {
        Json::Obj(vec![
            ("cols".into(), Json::U64(self.cols as u64)),
            ("rows".into(), Json::U64(self.rows as u64)),
        ])
    }

    /// Decodes the wire form of [`Dims::to_wire`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        Ok(Dims::new(
            to_u16(get_u64(v, "cols")?, "cols")?,
            to_u16(get_u64(v, "rows")?, "rows")?,
        ))
    }
}

impl Coord {
    /// The wire form: `{"x":X,"y":Y}`.
    pub fn to_wire(self) -> Json {
        Json::Obj(vec![
            ("x".into(), Json::U64(self.x as u64)),
            ("y".into(), Json::U64(self.y as u64)),
        ])
    }

    /// Decodes the wire form of [`Coord::to_wire`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        Ok(Coord::new(
            to_u16(get_u64(v, "x")?, "x")?,
            to_u16(get_u64(v, "y")?, "y")?,
        ))
    }
}

/// The wire spelling of an [`Axes`] value.
fn axes_name(a: Axes) -> &'static str {
    match a {
        Axes::X => "x",
        Axes::Y => "y",
        Axes::Both => "both",
    }
}

/// Parses an [`Axes`] wire spelling.
fn axes_from(s: &str, field: &str) -> Result<Axes, WireError> {
    match s {
        "x" => Ok(Axes::X),
        "y" => Ok(Axes::Y),
        "both" => Ok(Axes::Both),
        other => Err(WireError::new(
            field,
            format!("unknown axes {other:?}; expected x, y, or both"),
        )),
    }
}

impl TopologyKind {
    /// The wire form, e.g. `{"kind":"ruche","rf":2,"axes":"both"}`.
    pub fn to_wire(self) -> Json {
        match self {
            TopologyKind::Mesh => Json::Obj(vec![("kind".into(), Json::Str("mesh".into()))]),
            TopologyKind::MultiMesh => {
                Json::Obj(vec![("kind".into(), Json::Str("multi-mesh".into()))])
            }
            TopologyKind::Torus { axes } => Json::Obj(vec![
                ("kind".into(), Json::Str("torus".into())),
                ("axes".into(), Json::Str(axes_name(axes).into())),
            ]),
            TopologyKind::Ruche { rf, axes } => Json::Obj(vec![
                ("kind".into(), Json::Str("ruche".into())),
                ("rf".into(), Json::U64(rf as u64)),
                ("axes".into(), Json::Str(axes_name(axes).into())),
            ]),
        }
    }

    /// Decodes the wire form of [`TopologyKind::to_wire`]. `axes` defaults
    /// to `"both"` and `rf` to 1 when omitted.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        let kind = opt_str(v, "kind")?.ok_or_else(|| WireError::new("topology.kind", "missing"))?;
        let axes = match opt_str(v, "axes")? {
            Some(s) => axes_from(s, "topology.axes")?,
            None => Axes::Both,
        };
        match kind {
            "mesh" => Ok(TopologyKind::Mesh),
            "multi-mesh" => Ok(TopologyKind::MultiMesh),
            "torus" => Ok(TopologyKind::Torus { axes }),
            "ruche" => {
                let rf = to_u16(opt_u64(v, "rf")?.unwrap_or(1), "topology.rf")?;
                Ok(TopologyKind::Ruche { rf, axes })
            }
            other => Err(WireError::new(
                "topology.kind",
                format!("unknown topology {other:?}; expected mesh, multi-mesh, torus, or ruche"),
            )),
        }
    }
}

impl NetworkConfig {
    /// The canonical wire form: every field, fixed order, version first.
    ///
    /// `step_mode` is deliberately absent — it is a pure performance knob
    /// whose setting never changes results, so it must not split cache
    /// keys (see the module docs).
    pub fn to_wire(&self) -> Json {
        Json::Obj(vec![
            ("config_version".into(), Json::U64(CONFIG_WIRE_VERSION)),
            ("dims".into(), self.dims.to_wire()),
            ("topology".into(), self.topology.to_wire()),
            (
                "scheme".into(),
                Json::Str(
                    match self.scheme {
                        CrossbarScheme::FullyPopulated => "pop",
                        CrossbarScheme::Depopulated => "depop",
                    }
                    .into(),
                ),
            ),
            (
                "dor".into(),
                Json::Str(
                    match self.dor {
                        DorOrder::XY => "xy",
                        DorOrder::YX => "yx",
                    }
                    .into(),
                ),
            ),
            ("fifo_depth".into(), Json::U64(self.fifo_depth as u64)),
            (
                "channel_width_bits".into(),
                Json::U64(self.channel_width_bits as u64),
            ),
            (
                "edge_memory_ports".into(),
                Json::Bool(self.edge_memory_ports),
            ),
            (
                "pipeline_stages".into(),
                Json::U64(self.pipeline_stages as u64),
            ),
            (
                "edge_bidirectional".into(),
                Json::Bool(self.edge_bidirectional),
            ),
        ])
    }

    /// Decodes the wire form of [`NetworkConfig::to_wire`].
    ///
    /// Required: `dims` and `topology`. Everything else falls back to the
    /// paper defaults, and an omitted `config_version` is read as the
    /// current one. The result is **unvalidated** — callers run
    /// [`NetworkConfig::validate`] (the service front door does) so that a
    /// decodable-but-illegal configuration still fails with a structured
    /// error rather than deep inside a sweep.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field, or an
    /// unsupported `config_version`.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(WireError::new("config", "expected an object"));
        }
        let version = opt_u64(v, "config_version")?.unwrap_or(CONFIG_WIRE_VERSION);
        if version != CONFIG_WIRE_VERSION {
            return Err(WireError::new(
                "config_version",
                format!("unsupported version {version}; this build speaks {CONFIG_WIRE_VERSION}"),
            ));
        }
        let dims = Dims::from_wire(
            v.get("dims")
                .ok_or_else(|| WireError::new("dims", "missing"))?,
        )?;
        let topology = TopologyKind::from_wire(
            v.get("topology")
                .ok_or_else(|| WireError::new("topology", "missing"))?,
        )?;
        let mut cfg = NetworkConfig::new(dims, topology);
        if let Some(s) = opt_str(v, "scheme")? {
            cfg.scheme = match s {
                "pop" => CrossbarScheme::FullyPopulated,
                "depop" => CrossbarScheme::Depopulated,
                other => {
                    return Err(WireError::new(
                        "scheme",
                        format!("unknown scheme {other:?}; expected pop or depop"),
                    ))
                }
            };
        }
        if let Some(s) = opt_str(v, "dor")? {
            cfg.dor = match s {
                "xy" => DorOrder::XY,
                "yx" => DorOrder::YX,
                other => {
                    return Err(WireError::new(
                        "dor",
                        format!("unknown DOR order {other:?}; expected xy or yx"),
                    ))
                }
            };
        }
        if let Some(n) = opt_u64(v, "fifo_depth")? {
            cfg.fifo_depth = n as usize;
        }
        if let Some(n) = opt_u64(v, "channel_width_bits")? {
            cfg.channel_width_bits = to_u32(n, "channel_width_bits")?;
        }
        if let Some(b) = opt_bool(v, "edge_memory_ports")? {
            cfg.edge_memory_ports = b;
        }
        if let Some(n) = opt_u64(v, "pipeline_stages")? {
            cfg.pipeline_stages = to_u32(n, "pipeline_stages")?;
        }
        if let Some(b) = opt_bool(v, "edge_bidirectional")? {
            cfg.edge_bidirectional = b;
        }
        Ok(cfg)
    }
}

/// Parses a [`Dir`] wire spelling (the canonical short names, e.g. `RE`).
fn dir_from(s: &str, field: &str) -> Result<Dir, WireError> {
    Dir::ALL
        .into_iter()
        .find(|d| d.name() == s)
        .ok_or_else(|| WireError::new(field, format!("unknown direction {s:?}")))
}

impl FaultModel {
    /// The wire form: dead links as `{"x":..,"y":..,"dir":".."}` objects
    /// and dead routers as coordinates, both in the model's canonical
    /// sorted order.
    pub fn to_wire(&self) -> Json {
        Json::Obj(vec![
            (
                "dead_links".into(),
                Json::Arr(
                    self.dead_links()
                        .iter()
                        .map(|&(c, d)| {
                            Json::Obj(vec![
                                ("x".into(), Json::U64(c.x as u64)),
                                ("y".into(), Json::U64(c.y as u64)),
                                ("dir".into(), Json::Str(d.name().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dead_routers".into(),
                Json::Arr(self.dead_routers().iter().map(|c| c.to_wire()).collect()),
            ),
        ])
    }

    /// Decodes the wire form of [`FaultModel::to_wire`]. Entries pass
    /// through the deduplicating builders, so the canonical sorted-order
    /// invariant holds regardless of input order.
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or malformed field.
    pub fn from_wire(v: &Json) -> Result<Self, WireError> {
        let mut model = FaultModel::default();
        if let Some(links) = v.get("dead_links") {
            let links = links
                .as_arr()
                .ok_or_else(|| WireError::new("dead_links", "expected an array"))?;
            for l in links {
                let c = Coord::from_wire(l)
                    .map_err(|e| WireError::new(format!("dead_links.{}", e.field), e.reason))?;
                let d = opt_str(l, "dir")?
                    .ok_or_else(|| WireError::new("dead_links.dir", "missing"))?;
                model = model.kill_link(c, dir_from(d, "dead_links.dir")?);
            }
        }
        if let Some(routers) = v.get("dead_routers") {
            let routers = routers
                .as_arr()
                .ok_or_else(|| WireError::new("dead_routers", "expected an array"))?;
            for r in routers {
                let c = Coord::from_wire(r)
                    .map_err(|e| WireError::new(format!("dead_routers.{}", e.field), e.reason))?;
                model = model.kill_router(c);
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_telemetry::json::parse;

    fn roundtrip(cfg: &NetworkConfig) {
        let wire = cfg.to_wire().render();
        let back = NetworkConfig::from_wire(&parse(&wire).expect("wire parses"))
            .unwrap_or_else(|e| panic!("{wire}: {e}"));
        assert_eq!(&back, cfg, "{wire}");
        // Canonical: re-rendering the decoded config is byte-identical.
        assert_eq!(back.to_wire().render(), wire);
    }

    #[test]
    fn every_topology_family_roundtrips() {
        let dims = Dims::new(16, 8);
        for cfg in [
            NetworkConfig::mesh(dims),
            NetworkConfig::multi_mesh(dims),
            NetworkConfig::torus(dims),
            NetworkConfig::half_torus(dims),
            NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
            NetworkConfig::full_ruche(dims, 3, CrossbarScheme::FullyPopulated),
            NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
            NetworkConfig::ruche_one(dims),
            NetworkConfig::mesh(dims).with_edge_memory_ports(),
            NetworkConfig::torus(dims).with_pipeline_stages(2),
            NetworkConfig::mesh(dims).with_fifo_depth(4),
            NetworkConfig::mesh(dims).with_dor(DorOrder::YX),
        ] {
            roundtrip(&cfg);
        }
    }

    #[test]
    fn step_knobs_never_reach_the_wire() {
        let dims = Dims::new(8, 8);
        let plain = NetworkConfig::mesh(dims);
        let tuned =
            NetworkConfig::mesh(dims).with_step_mode(crate::topology::StepMode::EventDriven);
        assert_eq!(
            plain.to_wire().render(),
            tuned.to_wire().render(),
            "performance knobs must not split wire identity"
        );
        let back = NetworkConfig::from_wire(&tuned.to_wire()).unwrap();
        assert_eq!(back.step_mode, None);
    }

    #[test]
    fn minimal_request_decodes_with_paper_defaults() {
        let v = parse(r#"{"dims":{"cols":8,"rows":8},"topology":{"kind":"mesh"}}"#).unwrap();
        let cfg = NetworkConfig::from_wire(&v).unwrap();
        assert_eq!(cfg, NetworkConfig::mesh(Dims::new(8, 8)));
    }

    #[test]
    fn malformed_configs_name_the_field() {
        let cases = [
            (r#"{"topology":{"kind":"mesh"}}"#, "dims"),
            (r#"{"dims":{"cols":8},"topology":{"kind":"mesh"}}"#, "rows"),
            (
                r#"{"dims":{"cols":8,"rows":8},"topology":{"kind":"donut"}}"#,
                "topology.kind",
            ),
            (
                r#"{"dims":{"cols":8,"rows":8},"topology":{"kind":"ruche","rf":99999}}"#,
                "topology.rf",
            ),
            (
                r#"{"dims":{"cols":8,"rows":8},"topology":{"kind":"mesh"},"scheme":"half"}"#,
                "scheme",
            ),
            (
                r#"{"dims":{"cols":8,"rows":8},"topology":{"kind":"mesh"},"config_version":99}"#,
                "config_version",
            ),
            (
                r#"{"dims":{"cols":70000,"rows":8},"topology":{"kind":"mesh"}}"#,
                "cols",
            ),
        ];
        for (body, field) in cases {
            let v = parse(body).unwrap();
            let err = NetworkConfig::from_wire(&v).expect_err(body);
            assert_eq!(err.field, field, "{body}: {err}");
        }
    }

    #[test]
    fn fault_models_roundtrip_in_canonical_order() {
        let fm = FaultModel::default()
            .kill_link(Coord::new(3, 1), Dir::E)
            .kill_link(Coord::new(0, 0), Dir::RS)
            .kill_router(Coord::new(5, 5))
            .kill_router(Coord::new(1, 2));
        let wire = fm.to_wire().render();
        let back = FaultModel::from_wire(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, fm);
        assert_eq!(back.to_wire().render(), wire);
        // Input order does not matter: the builders re-canonicalize.
        let shuffled = parse(
            r#"{"dead_links":[{"x":3,"y":1,"dir":"E"},{"x":0,"y":0,"dir":"RS"}],
                "dead_routers":[{"x":5,"y":5},{"x":1,"y":2}]}"#,
        )
        .unwrap();
        assert_eq!(FaultModel::from_wire(&shuffled).unwrap(), fm);
        // Bad direction names are structured errors.
        let bad = parse(r#"{"dead_links":[{"x":1,"y":1,"dir":"Q"}]}"#).unwrap();
        assert_eq!(
            FaultModel::from_wire(&bad).unwrap_err().field,
            "dead_links.dir"
        );
    }

    #[test]
    fn empty_fault_model_roundtrips() {
        let fm = FaultModel::default();
        assert_eq!(
            FaultModel::from_wire(&fm.to_wire()).unwrap(),
            FaultModel::default()
        );
        assert!(FaultModel::from_wire(&parse("{}").unwrap())
            .unwrap()
            .is_empty());
    }
}
