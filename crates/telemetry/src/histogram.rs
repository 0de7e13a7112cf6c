//! Fixed-bucket streaming histograms.

use crate::json::{self, Json, JsonError};

/// A streaming histogram over fixed, inclusive upper-edge buckets.
///
/// Bucket `i` counts values `v` with `edges[i-1] < v <= edges[i]` (bucket 0
/// counts `v <= edges[0]`); one extra overflow bucket counts values above
/// the last edge. Recording never allocates, so a histogram can sit inside
/// a cycle-accurate hot loop.
///
/// # Examples
///
/// ```
/// use ruche_telemetry::Histogram;
///
/// let mut h = Histogram::with_edges(&[0, 1, 2, 4]);
/// for v in [0, 1, 1, 3, 9] {
///     h.record(v);
/// }
/// assert_eq!(h.counts(), &[1, 2, 0, 1, 1]); // last bucket = overflow
/// assert_eq!(h.count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive bucket upper edges, strictly increasing.
    edges: Vec<u64>,
    /// Per-bucket counts; one longer than `edges` (overflow last).
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram over the given inclusive upper edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn with_edges(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one bucket");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bucket edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// A unit-bucket histogram over `0..=max` (one bucket per exact value,
    /// plus overflow) — the shape used for FIFO occupancy, where `max` is
    /// the FIFO depth.
    pub fn zero_to(max: u64) -> Self {
        let edges: Vec<u64> = (0..=max).collect();
        Self::with_edges(&edges)
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        let i = self.edges.partition_point(|&e| e < v);
        self.counts[i] += n;
        self.total += n;
        self.sum += v * n;
    }

    /// The inclusive bucket upper edges.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Observations above the last edge.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts non-empty")
    }

    /// Adds another histogram's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge histograms with different bucket edges"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The smallest bucket upper edge at or below which at least fraction
    /// `q` of observations fall, or `None` when empty or when the quantile
    /// lands in the overflow bucket (above every edge).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.edges.get(i).copied();
            }
        }
        unreachable!("counts sum to total");
    }

    /// Serializes to deterministic JSON (sorted keys, exact integers).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("counts".into(), json::u64_array(&self.counts)),
            ("edges".into(), json::u64_array(&self.edges)),
            ("sum".into(), Json::U64(self.sum)),
            ("total".into(), Json::U64(self.total)),
        ])
        .render()
    }

    /// Parses the [`Histogram::to_json`] format.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `s` is not valid subset JSON or lacks the
    /// expected fields/shape.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v = json::parse(s)?;
        let shape = JsonError {
            at: 0,
            expected: "a histogram object",
        };
        let edges = v.u64_array("edges").ok_or(shape.clone())?;
        let counts = v.u64_array("counts").ok_or(shape.clone())?;
        let sum = v.get("sum").and_then(Json::as_u64).ok_or(shape.clone())?;
        let total = v.get("total").and_then(Json::as_u64).ok_or(shape.clone())?;
        if edges.is_empty()
            || counts.len() != edges.len() + 1
            || !edges.windows(2).all(|w| w[0] < w[1])
            || counts.iter().sum::<u64>() != total
        {
            return Err(shape);
        }
        Ok(Histogram {
            edges,
            counts,
            total,
            sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_edges(&[10, 20, 40]);
        h.record(0); // <= 10
        h.record(10); // <= 10 (inclusive)
        h.record(11); // <= 20
        h.record(20);
        h.record(40);
        h.record(41); // overflow
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 122);
    }

    #[test]
    fn zero_to_gives_unit_buckets() {
        let mut h = Histogram::zero_to(2);
        assert_eq!(h.edges(), &[0, 1, 2]);
        h.record(0);
        h.record(2);
        h.record(3);
        assert_eq!(h.counts(), &[1, 0, 1, 1]);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::zero_to(4);
        let mut b = Histogram::zero_to(4);
        a.record_n(3, 5);
        for _ in 0..5 {
            b.record(3);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::with_edges(&[1, 2]);
        let mut b = Histogram::with_edges(&[1, 2]);
        a.record(1);
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 8);
    }

    #[test]
    #[should_panic(expected = "different bucket edges")]
    fn merge_rejects_mismatched_edges() {
        let mut a = Histogram::with_edges(&[1, 2]);
        a.merge(&Histogram::with_edges(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_edges_panic() {
        Histogram::with_edges(&[2, 2]);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::with_edges(&[1, 2, 3, 4]);
        for v in [1, 1, 2, 3, 4, 4, 4, 4, 4, 4] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(4));
        assert_eq!(Histogram::zero_to(4).quantile(0.5), None);
        let mut o = Histogram::with_edges(&[1]);
        o.record(100);
        assert_eq!(o.quantile(0.9), None, "quantile in the overflow bucket");
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let h = Histogram::zero_to(4);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        // A huge top edge exercises exact u64 serialization without ever
        // being recorded (recording it would overflow `sum`).
        let mut h = Histogram::with_edges(&[0, 1, 2, 4, u64::MAX - 1]);
        for v in [0, 1, 1, 3, 4, 100, 40_000] {
            h.record(v);
        }
        let s = h.to_json();
        let back = Histogram::from_json(&s).unwrap();
        assert_eq!(back, h);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json(), s);
    }

    #[test]
    fn from_json_rejects_malformed_shapes() {
        assert!(Histogram::from_json("[]").is_err());
        assert!(Histogram::from_json(r#"{"edges":[1],"counts":[0],"sum":0,"total":0}"#).is_err());
        // total disagrees with counts
        assert!(Histogram::from_json(r#"{"counts":[1,0],"edges":[1],"sum":0,"total":3}"#).is_err());
        assert!(Histogram::from_json("not json").is_err());
    }
}
