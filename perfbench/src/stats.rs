//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentiles a summary considers, ascending.
pub const TAILS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// One line for people: quartiles of the set-up times, and the latency
/// sample count with its median and the highest tail percentile it
/// supports.
pub fn summary(setups: &[f64], measured: &Measured) -> String {
    let samples = sorted(&measured.samples);
    let tail = match highest_supported(samples.len(), &TAILS) {
        Some(p) => format!("p{p} {:.3} ms", percentile(&samples, p)),
        None => "no supported tail".to_owned(),
    };
    let q = quartiles(setups);
    format!(
        "set-up quartiles {:.3} / {:.3} / {:.3} s over {} set-ups; {} latency samples, \
         p50 {:.3} ms, {tail}",
        q[0],
        q[1],
        q[2],
        setups.len(),
        samples.len(),
        percentile(&samples, 50.0)
    )
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// spreads computed here match the ones a reader recomputes from the
/// printed values.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let sorted = sorted(values);
    let m = sorted.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * m;
        let j = (scaled / 4).clamp(1, sorted.len() - 1);
        // Negative or above 4 at the clamped ends: Python extrapolates.
        let delta = scaled as f64 - 4.0 * j as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Nearest rank of percentile `p` among `count` samples, 1-based. `p` is
/// taken to a hundredth and the rank computed in integers, so 99.9 of
/// 10,000 is exactly rank 9,990.
fn rank(count: u64, p: f64) -> u64 {
    let hundredths = (p * 100.0).round() as u64;
    (count * hundredths).div_ceil(10_000).clamp(1, count.max(1))
}

/// Whether `count` samples support percentile `p`: at least
/// [`TAIL_SAMPLES`] of them lie beyond it.
pub fn supports(count: usize, p: f64) -> bool {
    count > 0 && count as u64 - rank(count as u64, p) >= TAIL_SAMPLES as u64
}

/// The highest of `candidates` (ascending) that `count` samples support.
pub fn highest_supported(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| supports(count, p))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    sorted[rank(sorted.len() as u64, p) as usize - 1]
}

/// What the measured phases of a run observed: their wall time, the
/// deliveries they completed and their latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Wall seconds measured.
    pub wall_s: f64,
    /// Deliveries completed in that time.
    pub delivered: u64,
    /// Latency samples, one per measurement.
    pub samples: Vec<f64>,
}

impl Measured {
    /// Moves the time, deliveries and samples of `other` into this one.
    pub fn absorb(&mut self, other: &mut Measured) {
        self.wall_s += other.wall_s;
        self.delivered += other.delivered;
        self.samples.append(&mut other.samples);
    }
}

/// Delivery rate and latency of a run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Deliveries per wall second.
    pub rate: f64,
    /// Mean latency. Not the median: the live latencies cluster one and
    /// two ihave timeouts after the send, about half in each, so their
    /// median jumps between the clusters from run to run while the mean
    /// follows the mix.
    pub mean: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// The samples support a p99: the count is of measurements, so a few
    /// slow ones cannot stand for many.
    pub supported: bool,
}

/// The [`Timing`] of `measured`; sorts its samples.
///
/// # Panics
///
/// Panics when `measured` holds no samples.
pub fn timing(measured: &mut Measured) -> Timing {
    measured.samples.sort_by(f64::total_cmp);
    let samples = &measured.samples;
    Timing {
        rate: measured.delivered as f64 / measured.wall_s,
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        p99: percentile(samples, 99.0),
        supported: supports(samples.len(), 99.0),
    }
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10_000, &candidates), Some(99.9));
        assert_eq!(highest_supported(5_000, &candidates), Some(99.0));
        assert_eq!(highest_supported(150, &candidates), Some(90.0));
        assert_eq!(highest_supported(10, &candidates), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.9), 9_990.0);
    }

    #[test]
    fn timing_of_pooled_phases() {
        let phase = |wall_s, delivered, ms: f64| {
            let mut samples = vec![ms; 985];
            samples.extend([ms * 10.0; 15]);
            Measured { wall_s, delivered, samples }
        };
        let mut run = Measured::default();
        run.absorb(&mut phase(1.0, 100, 3.0));
        run.absorb(&mut phase(3.0, 300, 2.0));
        let t = timing(&mut run);
        assert_eq!((t.rate, t.mean, t.p99), (100.0, 5675.0 / 2000.0, 20.0));
        assert!(t.supported);
    }

    #[test]
    fn timing_counts_measurements_not_what_they_stand_for() {
        let calls =
            |n: usize| Measured { wall_s: 1.0, delivered: 2_000_000, samples: vec![1.0; n] };
        assert!(timing(&mut calls(1_000)).supported);
        // 999 calls that each served 2,000 deliveries still support no p99.
        assert!(!timing(&mut calls(999)).supported);
    }
}
