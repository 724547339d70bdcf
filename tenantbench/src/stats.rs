//! The benchmark's arithmetic: the tail-percentile rule, quartiles, the
//! `max_qps_at_slo` bisection and the trace residual. Pure functions, so
//! the unit tests at the bottom pin each rule on synthetic inputs.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a copy of `values` ascending (`+∞` — a failed session — sorts
/// last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (nearest rank). `None` on no samples.
pub fn p50(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| percentile(values, 50.0))
}

/// Nearest-rank percentile `p` of `values`; `+∞` on no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::INFINITY;
    }
    nearest_rank(&sorted(values), p)
}

/// The tail rule: the highest percentile at or below p99 with at least
/// [`TAIL_SAMPLES`] samples beyond it. Failed sessions enter as `+∞`.
/// Returns `(percentile, value)`; `None` when there are too few samples
/// for any percentile to have ten beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let v = sorted(values);
    // Rank r (0-based) has n-1-r samples beyond it.
    let r99 = ((0.99 * n as f64).ceil() as usize).max(1) - 1;
    let r = r99.min(n - 1 - TAIL_SAMPLES);
    Some(((r + 1) as f64 * 100.0 / n as f64, v[r]))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method). Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let d = sorted(values);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Finds the highest rate that passes `probe`, to within `resolution`
/// (e.g. `1.05` = 5%), starting from `start`.
///
/// The search first brackets the threshold geometrically — doubling up
/// from a passing start, halving down from a failing one, at most
/// `max_steps` times — then bisects the bracket in log space until
/// `hi / lo <= resolution`. Returns `None` if no probed rate passed.
/// Every probe is one measured load point, so the probe count is the
/// cost; callers cap it with `max_steps`.
pub fn bisect_max_rate(
    start: f64,
    resolution: f64,
    max_steps: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> Option<f64> {
    let (mut lo, mut hi);
    if probe(start) {
        lo = start;
        hi = start * 2.0;
        let mut steps = 0;
        while probe(hi) {
            lo = hi;
            hi *= 2.0;
            steps += 1;
            if steps >= max_steps {
                return Some(lo);
            }
        }
    } else {
        hi = start;
        lo = start / 2.0;
        let mut steps = 0;
        while !probe(lo) {
            hi = lo;
            lo /= 2.0;
            steps += 1;
            if steps >= max_steps {
                return None;
            }
        }
    }
    while hi / lo > resolution {
        let mid = (lo * hi).sqrt();
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The unattributed share of session wall-clock: `1 − Σ stage time /
/// Σ session wall`, over the stages that do not overlap one another.
pub fn residual_share(attributed_ms: f64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        return 0.0;
    }
    1.0 - attributed_ms / wall_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        // 2000 samples 1..=2000: p99 by nearest rank is 1980, with 20
        // samples beyond it.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 1980.0);
        assert!((p - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_drops_below_p99_on_short_runs() {
        // 200 samples: p99 would leave 2 beyond; the rule backs off to
        // rank 189 (0-based), which has exactly ten beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_SAMPLES);
        assert!((p - 95.0).abs() < 1e-9);
        assert!(tail(&v[..10]).is_none());
        assert!(tail(&v[..11]).is_some());
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 30 failures: 1.5% > 1%, so p99 itself is a failure.
        for x in v.iter_mut().take(30) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail(&v).unwrap().1, f64::INFINITY);
        // 5 failures stay beyond p99 and push it up by five ranks.
        let mut w: Vec<f64> = (1..=2000).map(f64::from).collect();
        for x in w.iter_mut().take(5) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail(&w).unwrap().1, 1985.0);
        assert_eq!(p50(&[f64::INFINITY, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    /// A synthetic service: p99 latency is flat below its capacity and
    /// explodes past it; achieved rate saturates at capacity.
    fn slo_probe(capacity: f64) -> impl FnMut(f64) -> bool {
        move |rate: f64| {
            let p99_ms = if rate < capacity * 0.9 {
                4.0
            } else {
                4.0 + 2000.0 * (rate - capacity * 0.9) / capacity
            };
            let achieved = rate.min(capacity);
            p99_ms <= 100.0 && achieved >= 0.95 * rate
        }
    }

    #[test]
    fn bisection_finds_the_slo_knee_within_resolution() {
        for capacity in [150.0, 700.0, 1234.0, 5000.0] {
            // The synthetic knee: p99 hits 100 ms at 0.948 × capacity.
            let knee = capacity * (0.9 + 96.0 / 2000.0);
            for start in [50.0, 400.0, 900.0, 4000.0] {
                let mut probes = 0;
                let mut probe = slo_probe(capacity);
                let got = bisect_max_rate(start, 1.05, 8, |r| {
                    probes += 1;
                    probe(r)
                })
                .unwrap();
                assert!(got <= knee, "cap {capacity} start {start}: {got} > {knee}");
                assert!(
                    got * 1.05 >= knee,
                    "cap {capacity} start {start}: {got} too low"
                );
                assert!(probes <= 14, "{probes} probes");
            }
        }
    }

    #[test]
    fn bisection_reports_none_when_nothing_passes() {
        assert_eq!(bisect_max_rate(100.0, 1.05, 3, |_| false), None);
        // Capped upward search returns the last passing rate.
        assert_eq!(bisect_max_rate(100.0, 1.05, 2, |_| true), Some(400.0));
    }

    #[test]
    fn residual_is_the_unattributed_share_of_wall() {
        assert!((residual_share(7.5, 10.0) - 0.25).abs() < 1e-12);
        assert_eq!(residual_share(0.0, 0.0), 0.0);
        assert!((residual_share(10.0, 10.0)).abs() < 1e-12);
    }
}
