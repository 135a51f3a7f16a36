//! Exact percentiles over per-request samples.

/// Per-request samples of one quantity, in the unit it is reported in.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`); 0 with no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The highest of p99.9, p99, p95 and p90 that still has at least
    /// ten samples beyond it, as `(label, value)`; the median when even
    /// p90 has fewer.
    pub fn tail(&mut self) -> (&'static str, f64) {
        let n = self.values.len() as f64;
        for (label, q) in [
            ("p99.9", 0.999),
            ("p99", 0.99),
            ("p95", 0.95),
            ("p90", 0.90),
        ] {
            if n * (1.0 - q) >= 10.0 {
                return (label, self.quantile(q));
            }
        }
        ("p50", self.median())
    }
}

/// Per-request samples stamped with their completion time, for
/// statistics over consecutive chunks of a run.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// `(completion time in ns since the run's origin, value)`.
    points: Vec<(u64, f64)>,
}

/// Medians over the chunks of a [`Series`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkStats {
    pub chunks: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples per second of completion time.
    pub rate: f64,
}

impl Series {
    pub fn new() -> Series {
        Series::default()
    }

    pub fn push(&mut self, end_ns: u64, v: f64) {
        self.points.push((end_ns, v));
    }

    pub fn extend(&mut self, other: &Series) {
        self.points.extend_from_slice(&other.points);
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// All values, for whole-run percentiles.
    pub fn samples(&self) -> Samples {
        let mut s = Samples::new();
        for &(_, v) in &self.points {
            s.push(v);
        }
        s
    }

    /// Splits the run, in completion order, into chunks of `size`
    /// samples (a short last chunk joins the one before) and returns the
    /// median over chunks of each chunk's median, p99 and rate. A chunk
    /// of 1,000 keeps ten samples beyond its p99; taking medians over
    /// chunks keeps a burst of outside load in a few chunks from moving
    /// the figures.
    pub fn chunked(&self, size: usize) -> ChunkStats {
        let mut points = self.points.clone();
        points.sort_by_key(|p| p.0);
        let n = points.len();
        let chunks = (n / size.max(1)).max(1);
        let (mut p50, mut p99, mut rate) = (Samples::new(), Samples::new(), Samples::new());
        for c in 0..chunks {
            let lo = c * n / chunks;
            let hi = (c + 1) * n / chunks;
            let chunk = &points[lo..hi];
            let mut s = Samples::new();
            chunk.iter().for_each(|p| s.push(p.1));
            p50.push(s.median());
            p99.push(s.quantile(0.99));
            if let (Some(first), Some(last)) = (chunk.first(), chunk.last()) {
                let span = last.0.saturating_sub(first.0).max(1) as f64 / 1e9;
                rate.push((chunk.len() - 1).max(1) as f64 / span);
            }
        }
        ChunkStats {
            chunks,
            p50: p50.median(),
            p99: p99.median(),
            rate: rate.median(),
        }
    }
}

/// Nanoseconds from `origin` to `t`.
pub fn ns_since(origin: std::time::Instant, t: std::time::Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Median of a small list of values (set-up repetitions, rounds).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let mut s = Samples::new();
        for v in (1..=1000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.tail(), ("p99", 990.0));
        s.push(0.5);
        assert_eq!(s.quantile(0.0), 0.5);
    }

    #[test]
    fn chunks_take_medians() {
        let mut s = Series::new();
        // 3 chunks of 1000 at 1 ms apart; the middle one is slow.
        for i in 0..3000u64 {
            let v = if (1000..2000).contains(&i) {
                100.0
            } else {
                (i % 1000) as f64
            };
            s.push(i * 1_000_000, v);
        }
        let c = s.chunked(1000);
        assert_eq!(c.chunks, 3);
        assert_eq!(c.p50, 499.0);
        assert_eq!(c.p99, 989.0);
        assert!((c.rate - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for v in 0..200 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail().0, "p95");
        let mut few = Samples::new();
        few.push(3.0);
        assert_eq!(few.tail(), ("p50", 3.0));
    }
}
