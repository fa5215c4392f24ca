//! Order statistics for step latencies and the small arithmetic the report
//! is built from.

/// Step latency summary: median, the 95th percentile, and how many samples
/// it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
    pub samples: usize,
}

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).max(1).min(n)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Summarizes step latencies, refusing a p95 with fewer than
/// [`MIN_BEYOND`] samples above it.
pub fn latency(samples: &[f64]) -> Result<Latency, String> {
    let beyond = samples_beyond(samples.len(), 0.95);
    if samples.is_empty() || beyond < MIN_BEYOND {
        return Err(format!(
            "{} step samples leave {beyond} beyond p95; need at least {MIN_BEYOND}",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Latency {
        p50: percentile(&sorted, 0.50),
        p95: percentile(&sorted, 0.95),
        samples: samples.len(),
    })
}

/// A span's self time: its duration minus the time its direct children
/// cover. Children of one span run one after another on the same thread,
/// so their durations add without overlap.
pub fn self_time(total_ns: u64, children_ns: &[u64]) -> i64 {
    total_ns as i64 - children_ns.iter().map(|&c| c as i64).sum::<i64>()
}

/// 64-bit FNV-1a, used to fingerprint a workload's pinned definition.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(201, 0.95), 10);
        assert_eq!(samples_beyond(1, 0.95), 0);
    }

    #[test]
    fn latency_needs_ten_samples_beyond_p95() {
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(latency(&short).is_err());
        let enough: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let l = latency(&enough).expect("200 samples leave 10 beyond p95");
        assert_eq!(l, Latency { p50: 99.0, p95: 189.0, samples: 200 });
        assert!(latency(&[]).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(100, &[30, 50]), 20);
        assert_eq!(self_time(100, &[]), 100);
        // Children can only exceed the parent through a clock fault or
        // double-counted nesting; the residual then shows it as negative.
        assert_eq!(self_time(100, &[60, 60]), -20);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
