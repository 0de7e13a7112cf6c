//! Streaming statistics accumulators.

/// A streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use ruche_stats::Accum;
///
/// let mut a = Accum::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     a.add(x);
/// }
/// assert_eq!(a.mean(), 5.0);
/// assert_eq!(a.stdev(), 2.0); // population standard deviation
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accum {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accum {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accum) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 when fewer than two samples).
    pub fn stdev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// The raw internal state `(count, mean, m2, min, max)`, for exact
    /// serialization. [`Accum::from_parts`] reconstructs a bit-identical
    /// accumulator; the pair is how the service wire codec round-trips
    /// per-tile statistics without losing Welford precision.
    pub fn to_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`Accum::to_parts`] output. The parts
    /// are trusted verbatim — this is a serialization escape hatch, not a
    /// constructor for hand-made statistics.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Accum {
            count,
            mean,
            m2,
            min,
            max,
        }
    }
}

impl Extend<f64> for Accum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Accum {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut a = Accum::new();
        a.extend(iter);
        a
    }
}

/// A sample store with quantile queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty store.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (nearest-rank), `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        Some(self.values[idx])
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// All samples, insertion order not guaranteed after quantile queries.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
        self.sorted = false;
    }
}

/// Geometric mean of strictly positive values.
///
/// Returns 0 for an empty iterator.
///
/// # Panics
///
/// Panics if any value is non-positive.
///
/// # Examples
///
/// ```
/// use ruche_stats::geomean;
///
/// let g = geomean([1.0, 4.0].into_iter());
/// assert_eq!(g, 2.0);
/// ```
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_mean_and_stdev() {
        let a: Accum = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
        assert!((a.stdev() - 1.118).abs() < 1e-3);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(4.0));
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn accum_empty_is_safe() {
        let a = Accum::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.stdev(), 0.0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
    }

    #[test]
    fn accum_merge_matches_combined() {
        let mut a: Accum = (0..50).map(f64::from).collect();
        let b: Accum = (50..100).map(f64::from).collect();
        let combined: Accum = (0..100).map(f64::from).collect();
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert!((a.mean() - combined.mean()).abs() < 1e-9);
        assert!((a.stdev() - combined.stdev()).abs() < 1e-9);
    }

    #[test]
    fn accum_merge_with_empty() {
        let mut a: Accum = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Accum::new());
        assert_eq!(a, before);
        let mut e = Accum::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn samples_quantiles() {
        let mut s = Samples::new();
        s.extend((1..=100).map(f64::from));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.5), Some(51.0));
        assert_eq!(s.len(), 100);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn samples_empty_quantile_is_none() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5), None);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_quantile_panics() {
        let mut s = Samples::new();
        s.add(1.0);
        s.quantile(1.5);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert!((geomean([1.12, 1.17].into_iter()) - 1.1447).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean([1.0, 0.0].into_iter());
    }
}
