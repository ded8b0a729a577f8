//! Order statistics and timing loops shared by the workloads and probes.

use std::time::{Duration, Instant};

/// Every throughput is the median of this many equal slices of the
/// measured window, so one fsync stall or scheduler hiccup moves one
/// slice, not the metric.
pub const SLICES: usize = 10;

/// A percentile is reported only with at least this many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (sorts in place); `0.0` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `percent`-th percentile (nearest rank) of `values`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples would lie beyond it.
pub fn tail(values: &mut [f64], percent: usize) -> Option<f64> {
    let rank = (values.len() * percent).div_ceil(100);
    if values.len() - rank < TAIL_SAMPLES {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[rank - 1])
}

/// Median per-second rate over the window's slices.
pub fn slice_median_rate(slices: &[u64; SLICES], window: Duration) -> f64 {
    let slice_secs = window.as_secs_f64() / SLICES as f64;
    let mut rates: Vec<f64> = slices.iter().map(|&n| n as f64 / slice_secs).collect();
    median(&mut rates)
}

/// A fixed-size uniform sample of a stream of latencies (Vitter's
/// algorithm R), so a faster run does not hold more memory than a slower
/// one and `rss_peak_mb` does not move with throughput.
pub struct Reservoir {
    seen: u64,
    state: u64,
    samples_us: Vec<f64>,
}

impl Reservoir {
    pub const CAPACITY: usize = 1 << 16;

    pub fn new(seed: u64) -> Reservoir {
        Reservoir {
            seen: 0,
            state: seed | 1,
            samples_us: Vec::with_capacity(Reservoir::CAPACITY),
        }
    }

    pub fn push(&mut self, us: f64) {
        self.seen += 1;
        if self.samples_us.len() < Reservoir::CAPACITY {
            self.samples_us.push(us);
            return;
        }
        // xorshift64: cheap, and which samples survive need not be
        // unpredictable, only unbiased.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let slot = self.state % self.seen;
        if let Some(kept) = self.samples_us.get_mut(slot as usize) {
            *kept = us;
        }
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.samples_us
    }
}

/// Calls `f` repeatedly until `budget` has elapsed and at least `min`
/// calls were made, timing each; returns the median in nanoseconds.
pub fn median_ns(budget: Duration, min: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < min || start.elapsed() < budget {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut ns)
}

/// [`median_ns`] for calls too short to time one by one: `f(i)` runs in
/// blocks of `block` calls, each block's mean is one sample, and the
/// result is nanoseconds per call.
pub fn median_block_ns(budget: Duration, block: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    median_ns(budget, TAIL_SAMPLES, || {
        for _ in 0..block {
            f(i);
            i = i.wrapping_add(1);
        }
    }) / block as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&mut few, 99), None);
        let mut enough: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&mut enough, 99), Some(990.0));
        assert_eq!(tail(&mut enough[..100], 90), Some(90.0));
        assert_eq!(tail(&mut [], 90), None);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_sample() {
        let mut reservoir = Reservoir::new(7);
        for i in 0..1000 {
            reservoir.push(f64::from(i));
        }
        assert_eq!(reservoir.into_samples().len(), 1000);
        let mut reservoir = Reservoir::new(7);
        let n = 4 * Reservoir::CAPACITY;
        for i in 0..n {
            reservoir.push(i as f64);
        }
        let mut kept = reservoir.into_samples();
        assert_eq!(kept.len(), Reservoir::CAPACITY);
        // Uniform over the stream: the sample's median sits near the stream's.
        let middle = median(&mut kept) / n as f64;
        assert!((0.45..0.55).contains(&middle), "{middle}");
    }

    #[test]
    fn slice_rate_is_the_median_slice() {
        assert_eq!(SLICES, 10, "throughputs are medians of ten slices");
        let mut slices = [100u64; SLICES];
        slices[3] = 0; // one stalled slice does not move the metric
        assert_eq!(slice_median_rate(&slices, Duration::from_secs(10)), 100.0);
    }
}
