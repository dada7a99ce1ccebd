//! Order statistics and the seeded arrival process.

/// The `q`-quantile (nearest rank on `(len-1)·q`) of an unsorted sample;
/// 0 for an empty one.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    sorted[((last as f64 * q).round() as usize).min(last)]
}

/// The median of an unsorted sample (mean of the middle pair when the
/// count is even); 0 for an empty one.
pub fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Splits `in_order` (samples in send order) into `windows` equal-count
/// windows, takes each window's `q`-quantile, and returns the median of
/// those.
///
/// On this class of host each vCPU is descheduled for milliseconds many
/// times per run; a whole-run tail quantile then measures how many
/// stalls the run happened to catch. A stall lands in one or two
/// windows, and the median over windows discards them.
pub fn windowed_quantile(in_order: &[f64], windows: usize, q: f64) -> f64 {
    let windows = windows.clamp(1, in_order.len().max(1));
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w * in_order.len() / windows;
            let hi = (w + 1) * in_order.len() / windows;
            quantile(&in_order[lo..hi], q)
        })
        .collect();
    median(&per_window)
}

/// SplitMix64: the ledger's own generator for the arrival process, so
/// the harness's draws never touch the measured crates' `rand`.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, in nanoseconds from the start of the stream, of `count`
/// arrivals of a Poisson process at `rate_per_s`: cumulative
/// exponential inter-arrival gaps drawn from `seed`.
pub fn poisson_due_ns(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64(seed ^ 0xA881_7A15);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_quantile_ignores_a_stall_that_a_whole_run_tail_sees() {
        // 20 windows of 100 samples at 10.0, one window hit by a stall.
        let mut sample = vec![10.0; 2_000];
        for v in &mut sample[700..760] {
            *v = 4_000.0;
        }
        assert_eq!(windowed_quantile(&sample, 20, 0.99), 10.0);
        assert_eq!(quantile(&sample, 0.99), 4_000.0);
        // Each window's own quantile is taken, then the median of those.
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(windowed_quantile(&ramp, 4, 0.5), (37.0 + 62.0) / 2.0);
        assert_eq!(windowed_quantile(&[], 20, 0.5), 0.0);
        assert_eq!(windowed_quantile(&[3.0], 20, 0.5), 3.0);
    }

    #[test]
    fn median_and_quantiles_pick_expected_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sample, 0.5), 51.0);
        assert_eq!(quantile(&sample, 0.99), 99.0);
        assert_eq!(quantile(&sample, 1.0), 100.0);
    }

    #[test]
    fn arrivals_repeat_per_seed_and_hold_the_offered_rate() {
        let a = poisson_due_ns(2012, 80_000.0, 200_000);
        assert_eq!(a, poisson_due_ns(2012, 80_000.0, 200_000));
        assert_ne!(a, poisson_due_ns(7, 80_000.0, 200_000));
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "due times never go back"
        );
        let realized = a.len() as f64 / (*a.last().expect("non-empty") as f64 / 1e9);
        assert!(
            (realized / 80_000.0 - 1.0).abs() < 0.01,
            "realized {realized}"
        );
        // Exponential gaps: the mean gap equals the standard deviation.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.02,
            "cv {}",
            var.sqrt() / mean
        );
    }
}
