//! Windowed time series: event counts bucketed into fixed-width cycle
//! windows.

use crate::json::{self, Json, JsonError};

/// A time series of event counts over fixed-width cycle windows.
///
/// `record(cycle, n)` adds `n` events to the bin `cycle / window`. Bins
/// grow on demand (amortized; recording into an already-covered cycle range
/// does not allocate), so the series length reflects the last recorded
/// cycle, not a preconfigured horizon.
///
/// # Examples
///
/// ```
/// use ruche_telemetry::TimeSeries;
///
/// let mut s = TimeSeries::new(100);
/// s.record(5, 1);
/// s.record(99, 2);
/// s.record(250, 1);
/// assert_eq!(s.bins(), &[3, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Cycles per bin.
    window: u64,
    bins: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be at least one cycle");
        TimeSeries {
            window,
            bins: Vec::new(),
        }
    }

    /// Adds `amount` events at `cycle`.
    #[inline]
    pub fn record(&mut self, cycle: u64, amount: u64) {
        let bin = (cycle / self.window) as usize;
        if bin >= self.bins.len() {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += amount;
    }

    /// Cycles per bin.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Per-window event counts, oldest first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Peak per-window rate in events per cycle.
    pub fn peak_rate(&self) -> f64 {
        self.bins.iter().copied().max().unwrap_or(0) as f64 / self.window as f64
    }

    /// Adds another series' bins into this one (bin-by-bin).
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.window, other.window,
            "cannot merge series with different windows"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
    }

    /// Serializes to deterministic JSON (sorted keys, exact integers).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("bins".into(), json::u64_array(&self.bins)),
            ("window".into(), Json::U64(self.window)),
        ])
        .render()
    }

    /// Parses the [`TimeSeries::to_json`] format.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `s` is not valid subset JSON or lacks the
    /// expected fields.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v = json::parse(s)?;
        let shape = JsonError {
            at: 0,
            expected: "a time-series object",
        };
        let bins = v.u64_array("bins").ok_or(shape.clone())?;
        let window = v
            .get("window")
            .and_then(Json::as_u64)
            .filter(|&w| w > 0)
            .ok_or(shape)?;
        Ok(TimeSeries { window, bins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_window() {
        let mut s = TimeSeries::new(10);
        s.record(0, 1);
        s.record(9, 1);
        s.record(10, 5);
        s.record(35, 2);
        assert_eq!(s.bins(), &[2, 5, 0, 2]);
        assert_eq!(s.total(), 9);
        assert_eq!(s.peak_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        TimeSeries::new(0);
    }

    /// A zero-amount record still extends the bin vector — the event
    /// wheel's bulk idle accounting relies on one `record(last, 0)`
    /// producing exactly the bins that per-cycle empty records would.
    #[test]
    fn zero_amount_record_extends_bins() {
        let mut bulk = TimeSeries::new(10);
        bulk.record(34, 0);
        let mut per_cycle = TimeSeries::new(10);
        for cycle in 0..35 {
            per_cycle.record(cycle, 0);
        }
        assert_eq!(bulk.bins(), per_cycle.bins());
        assert_eq!(bulk.bins(), &[0, 0, 0, 0]);
        assert_eq!(bulk.total(), 0);
    }

    #[test]
    fn merge_extends_and_accumulates() {
        let mut a = TimeSeries::new(4);
        let mut b = TimeSeries::new(4);
        a.record(0, 1);
        b.record(1, 2);
        b.record(11, 3);
        a.merge(&b);
        assert_eq!(a.bins(), &[3, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn merge_rejects_mismatched_windows() {
        let mut a = TimeSeries::new(4);
        a.merge(&TimeSeries::new(5));
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut s = TimeSeries::new(64);
        s.record(1, 2);
        s.record(640, 9);
        let j = s.to_json();
        let back = TimeSeries::from_json(&j).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), j);
        // An empty series roundtrips too.
        let e = TimeSeries::new(8);
        assert_eq!(TimeSeries::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn from_json_rejects_malformed_shapes() {
        assert!(TimeSeries::from_json(r#"{"bins":[1]}"#).is_err());
        assert!(TimeSeries::from_json(r#"{"bins":[1],"window":0}"#).is_err());
        assert!(TimeSeries::from_json("3").is_err());
    }
}
