//! Sample sets, percentiles and the span accumulator the traced runs use.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample set (`p` in 0..=100);
/// 0 for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample set; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Microseconds between two instants.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// Every call to one layer: how many, how long in total, and each
/// duration for its percentiles.
#[derive(Debug, Default, Clone)]
pub struct Span {
    samples_us: Vec<f64>,
}

impl Span {
    /// Record one call lasting `us` microseconds.
    pub fn add(&mut self, us: f64) {
        self.samples_us.push(us);
    }

    /// Add every call `other` recorded.
    pub fn extend(&mut self, other: &Span) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Calls recorded.
    pub fn calls(&self) -> f64 {
        self.samples_us.len() as f64
    }

    /// Total time busy in the layer, milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.samples_us.iter().sum::<f64>() / 1e3
    }

    /// Percentile of the call durations, microseconds.
    pub fn p_us(&self, p: f64) -> f64 {
        let mut v = self.samples_us.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// The raw durations, microseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples_us
    }
}

/// Set-ups timed per run, fewest and most; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (21, 301);
/// Between those bounds, a run times as many set-ups as fill this long.
const SETUP_TIME: Duration = Duration::from_millis(100);

/// Time a set-up `f` (which reports its own duration) and return the
/// median of its timings, seconds: a stall that hits a few set-ups moves
/// the median less than it would a mean.
///
/// The number of set-ups is bounded rather than filling a time budget: a
/// set-up that binds and connects loopback sockets leaves a TIME_WAIT
/// socket per connection for a minute, and thousands of those made
/// `bind`/`connect` — and so the set-up of this and the next runs — up
/// to 2.5x slower.
pub fn median_setup_secs(mut f: impl FnMut() -> Duration) -> f64 {
    // Warm-up set-ups, which also size the run.
    let warm: Vec<f64> = (0..5).map(|_| f().as_secs_f64()).collect();
    let reps = (SETUP_TIME.as_secs_f64() / median(&warm).max(1e-9)).ceil() as usize;
    let reps = reps.clamp(SETUP_REPS.0, SETUP_REPS.1);
    let timings: Vec<f64> = (0..reps).map(|_| f().as_secs_f64()).collect();
    median(&timings)
}

/// Mean cost of one traced boundary — two `Instant::now` calls and a
/// `Span::add` — measured directly, microseconds. It is the only work a
/// layer timing adds to the loop it times.
pub fn stamp_cost_us() -> f64 {
    const STAMPS: usize = 100_000;
    let mut span = Span { samples_us: Vec::with_capacity(STAMPS) };
    let t = Instant::now();
    for _ in 0..STAMPS {
        let t0 = Instant::now();
        span.add(us(t0, Instant::now()));
    }
    let took = us(t, Instant::now());
    std::hint::black_box(span);
    took / STAMPS as f64
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit digest, for comparing large payloads without keeping them.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
