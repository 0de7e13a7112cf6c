//! The probe sink trait and the built-in sinks.
//!
//! Instrumented components export their counters by *pushing* them into a
//! [`Probe`]: the component decides what exists and what it is called; the
//! probe decides what to do with it (serialize, aggregate, discard). This
//! keeps the simulator free of any serialization dependency and lets the
//! no-probe case compile down to nothing.

use crate::histogram::Histogram;
use crate::json::Json;
use crate::series::TimeSeries;
use std::collections::BTreeMap;

/// A sink that instrumented components export telemetry into.
///
/// Names are dotted paths (`link.0012.E.vc0.traversed`); numeric path
/// segments are zero-padded by convention so lexicographic key order equals
/// numeric order.
pub trait Probe {
    /// Reports a named scalar counter.
    fn scalar(&mut self, name: &str, value: u64);
    /// Reports a named array of scalars (e.g. one slot per node).
    fn scalars(&mut self, name: &str, values: &[u64]);
    /// Reports a named histogram.
    fn histogram(&mut self, name: &str, h: &Histogram);
    /// Reports a named time series.
    fn series(&mut self, name: &str, s: &TimeSeries);
}

/// Forwards everything to an inner probe with a fixed name prefix.
///
/// Lets a component that owns several instrumented sub-components nest
/// each one's export under its own namespace — e.g. the manycore machine
/// exports its two networks under `req.` and `resp.`.
///
/// # Examples
///
/// ```
/// use ruche_telemetry::{JsonProbe, Prefixed, Probe};
///
/// let mut p = JsonProbe::new();
/// Prefixed::new("req.", &mut p).scalar("cycles", 7);
/// assert!(p.into_json().contains("\"req.cycles\": 7"));
/// ```
pub struct Prefixed<'a> {
    prefix: &'a str,
    inner: &'a mut dyn Probe,
}

impl std::fmt::Debug for Prefixed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefixed")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl<'a> Prefixed<'a> {
    /// Wraps `inner`, prepending `prefix` to every reported name.
    pub fn new(prefix: &'a str, inner: &'a mut dyn Probe) -> Self {
        Prefixed { prefix, inner }
    }

    fn name(&self, name: &str) -> String {
        let mut s = String::with_capacity(self.prefix.len() + name.len());
        s.push_str(self.prefix);
        s.push_str(name);
        s
    }
}

impl Probe for Prefixed<'_> {
    fn scalar(&mut self, name: &str, value: u64) {
        self.inner.scalar(&self.name(name), value);
    }

    fn scalars(&mut self, name: &str, values: &[u64]) {
        self.inner.scalars(&self.name(name), values);
    }

    fn histogram(&mut self, name: &str, h: &Histogram) {
        self.inner.histogram(&self.name(name), h);
    }

    fn series(&mut self, name: &str, s: &TimeSeries) {
        self.inner.series(&self.name(name), s);
    }
}

/// A probe that collects everything into one deterministic JSON object:
/// keys sorted, integer-exact values — two identical runs produce
/// byte-identical blobs.
///
/// # Examples
///
/// ```
/// use ruche_telemetry::{Histogram, JsonProbe, Probe};
///
/// let mut p = JsonProbe::new();
/// p.annotate("config", "mesh");
/// p.scalar("cycles", 100);
/// p.histogram("occupancy", &Histogram::zero_to(2));
/// let blob = p.into_json();
/// assert!(blob.starts_with('{') && blob.ends_with("}\n"));
/// assert!(blob.contains("\"cycles\": 100"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonProbe {
    /// Name → rendered JSON fragment. `BTreeMap` gives sorted keys.
    entries: BTreeMap<String, String>,
}

impl JsonProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a string annotation (run metadata: config label, pattern).
    pub fn annotate(&mut self, name: &str, value: &str) {
        self.entries
            .insert(name.to_string(), Json::Str(value.to_string()).render());
    }

    /// Number of entries collected.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the collected entries as one pretty-printed JSON object with
    /// sorted keys and a trailing newline.
    pub fn into_json(self) -> String {
        let mut out = String::from("{\n");
        let n = self.entries.len();
        for (i, (k, v)) in self.entries.into_iter().enumerate() {
            out.push_str("  ");
            out.push_str(&Json::Str(k).render());
            out.push_str(": ");
            out.push_str(&v);
            if i + 1 < n {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

impl Probe for JsonProbe {
    fn scalar(&mut self, name: &str, value: u64) {
        self.entries
            .insert(name.to_string(), Json::U64(value).render());
    }

    fn scalars(&mut self, name: &str, values: &[u64]) {
        self.entries
            .insert(name.to_string(), crate::json::u64_array(values).render());
    }

    fn histogram(&mut self, name: &str, h: &Histogram) {
        self.entries.insert(name.to_string(), h.to_json());
    }

    fn series(&mut self, name: &str, s: &TimeSeries) {
        self.entries.insert(name.to_string(), s.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn json_probe_sorts_keys_and_parses_back() {
        let mut p = JsonProbe::new();
        p.scalar("z.last", 1);
        p.scalar("a.first", 2);
        let mut h = Histogram::zero_to(1);
        h.record(1);
        p.histogram("m.hist", &h);
        let mut s = TimeSeries::new(10);
        s.record(3, 4);
        p.series("m.series", &s);
        p.annotate("meta", "label");
        p.scalars("m.array", &[7, 8]);
        assert_eq!(p.len(), 6);
        let blob = p.into_json();
        let a = blob.find("\"a.first\"").unwrap();
        let z = blob.find("\"z.last\"").unwrap();
        assert!(a < z, "keys sorted");
        // The whole blob is valid subset JSON.
        let v = json::parse(&blob).unwrap();
        assert_eq!(v.get("a.first").and_then(json::Json::as_u64), Some(2));
        let hist = v.get("m.hist").unwrap();
        assert_eq!(hist.u64_array("counts"), Some(vec![0, 1, 0]));
        assert_eq!(v.u64_array("m.array"), Some(vec![7, 8]));
    }

    #[test]
    fn identical_inputs_produce_identical_blobs() {
        let build = || {
            let mut p = JsonProbe::new();
            p.scalar("b", 2);
            p.scalar("a", 1);
            p.into_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn prefixed_probe_namespaces_every_kind() {
        let mut p = JsonProbe::new();
        {
            let mut req = Prefixed::new("req.", &mut p);
            req.scalar("cycles", 3);
            req.scalars("loads", &[1, 2]);
            req.histogram("occ", &Histogram::zero_to(1));
            req.series("inj", &TimeSeries::new(4));
        }
        p.scalar("cycles", 9); // unprefixed sibling coexists
        let blob = p.into_json();
        for key in ["req.cycles", "req.loads", "req.occ", "req.inj"] {
            assert!(blob.contains(&format!("\"{key}\"")), "{blob}");
        }
        let v = json::parse(&blob).unwrap();
        assert_eq!(v.get("req.cycles").and_then(json::Json::as_u64), Some(3));
        assert_eq!(v.get("cycles").and_then(json::Json::as_u64), Some(9));
    }

    #[test]
    fn empty_probe_renders_empty_object() {
        let p = JsonProbe::new();
        assert!(p.is_empty());
        assert_eq!(p.into_json(), "{\n}\n");
    }
}
