//! Order statistics for the metric tables.

/// Samples a percentile must leave beyond itself to be worth printing.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample ascending (NaN-free by construction: all inputs are
/// differences of monotonic clock readings or counts).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    v
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending sample,
/// whatever its size; `None` only when empty.
pub fn pctl_any(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// [`pctl_any`], refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond the percentile (above it for `p > 0.5`, on the thinner side
/// for the median), so a tail is never read off a handful of points.
pub fn pctl(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let (below, above) = (rank - 1, n - rank);
    let beyond = if p > 0.5 { above } else { above.min(below) };
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. `None` under four samples or a zero
/// median.
pub fn iqr_share(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 4 {
        return None;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
    };
    let med = median(&s)?;
    (med != 0.0).then(|| (q(3) - q(1)) / med.abs())
}

/// The request latencies of a run's *quiet laps*.
///
/// A lap is a fixed number of consecutive requests of the seeded list,
/// which the generator's stratification makes the same work in every
/// lap of every seed (the same lengths in another order). Equal work
/// means a lap's mean latency measures the host, not the inputs: the
/// benchmark's host is shared, and its other tenants slow a pinned,
/// single-threaded loop by up to 40 % for seconds at a time. A statistic
/// over the whole run follows how busy they were (ten 10-second runs of
/// one binary spread 23 % on `frontdoor_sim`'s median latency); the
/// fastest fifth of the laps is the program with the host out of the
/// way, and repeats (2.5 % on the same ten runs, taken over the fastest
/// tenth of their 250 ms windows).
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// Latencies of the requests in the quiet laps, ascending, ms.
    pub latencies_ms: Vec<f64>,
    /// Whole laps the run completed.
    pub laps: usize,
}

impl Quiet {
    /// Requests per second in the quiet laps of a closed loop that keeps
    /// `clients` requests in flight: each client completes one request
    /// per mean latency.
    pub fn per_second(&self, clients: usize) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        clients as f64 * 1e3 / mean(&self.latencies_ms)
    }
}

/// Share of a run's laps that count as quiet, and the fewest that do.
const QUIET_SHARE: f64 = 0.2;
const QUIET_MIN: usize = 3;

/// Group `(request index, latency ms)` samples into laps of `len`
/// requests by index and keep the fastest fifth by mean latency (three
/// at least: a percentile of fewer than thirty requests is too coarse). A lap missing any of its requests (the run stopped inside
/// it, or one failed) is left out; a run too short for one whole lap
/// (`--quick`) is one lap.
pub fn quiet_laps(samples: &[(u32, f32)], len: usize) -> Quiet {
    let n_laps = samples.iter().map(|s| s.0 as usize / len + 1).max();
    let mut laps: Vec<Vec<f64>> = vec![Vec::new(); n_laps.unwrap_or(0)];
    for (index, ms) in samples {
        laps[*index as usize / len].push(f64::from(*ms));
    }
    laps.retain(|l| l.len() == len);
    if laps.is_empty() && !samples.is_empty() {
        laps.push(samples.iter().map(|s| f64::from(s.1)).collect());
    }
    let whole = laps.len();
    laps.sort_by(|a, b| {
        mean(a)
            .partial_cmp(&mean(b))
            .expect("no NaN in timing samples")
    });
    laps.truncate(((QUIET_SHARE * whole as f64).ceil() as usize).max(QUIET_MIN));
    Quiet {
        latencies_ms: sorted(laps.concat()),
        laps: whole,
    }
}

/// Least-squares slope of `y` over `x`.
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let (mx, my) = (mean(x), mean(y));
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_arrays() {
        let s = ramp(100);
        assert_eq!(pctl(&s, 0.5), Some(50.0));
        assert_eq!(pctl(&s, 0.9), Some(90.0));
        assert_eq!(pctl_any(&s, 0.99), Some(99.0));
        assert_eq!(pctl_any(&s, 1.0), Some(100.0));
        assert_eq!(pctl_any(&[4.0], 0.5), Some(4.0));
        assert_eq!(pctl_any(&[], 0.5), None);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        // p99 of 100 leaves one sample beyond; of 1100 it leaves eleven.
        assert_eq!(pctl(&ramp(100), 0.99), None);
        assert_eq!(pctl(&ramp(1100), 0.99), Some(1089.0));
        // p90 needs at least 100 samples: 99 leave nine beyond.
        assert_eq!(pctl(&ramp(99), 0.9), None);
        assert_eq!(pctl(&ramp(100), 0.9), Some(90.0));
        // p75 of 40 leaves exactly ten.
        assert_eq!(pctl(&ramp(40), 0.75), Some(30.0));
        assert_eq!(pctl(&ramp(39), 0.75), None);
        // The median needs ten on each side.
        assert_eq!(pctl(&ramp(20), 0.5), None);
        assert_eq!(pctl(&ramp(21), 0.5), Some(11.0));
        assert_eq!(pctl(&[], 0.5), None);
    }

    #[test]
    fn quiet_laps_are_the_fastest_whole_ones() {
        // Laps of 2 over 25 requests: lap k has latencies (k, k + 1)
        // except lap 3, which is the fastest, and lap 5, which misses a
        // request; index 24 starts a lap the run never finished.
        let mut samples: Vec<(u32, f32)> = (0..25u32)
            .filter(|i| *i != 11)
            .map(|i| (i, (i / 2 + i % 2 + 10) as f32))
            .collect();
        samples[6].1 = 1.0;
        samples[7].1 = 2.0;
        samples.reverse();
        let q = quiet_laps(&samples, 2);
        assert_eq!(q.laps, 11);
        // A fifth of eleven laps, rounded up, is three: laps 3, 0 and 1.
        assert_eq!(q.latencies_ms, [1.0, 2.0, 10.0, 11.0, 11.0, 12.0]);
        // Mean latency 47/6 ms, two requests in flight.
        assert!((q.per_second(2) - 2.0 * 6000.0 / 47.0).abs() < 1e-9);

        // Never fewer than three laps; a run shorter than a lap is one.
        assert_eq!(quiet_laps(&samples, 4).latencies_ms.len(), 12);
        let short = quiet_laps(&samples[..3], 4);
        assert_eq!((short.laps, short.latencies_ms.len()), (1, 3));
        assert_eq!(quiet_laps(&[], 4).laps, 0);
    }

    #[test]
    fn median_iqr_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let share = iqr_share(&ramp(10)).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), None);
        assert!((slope(&[1.0, 2.0, 4.0], &[5.0, 7.0, 11.0]) - 2.0).abs() < 1e-12);
    }
}
