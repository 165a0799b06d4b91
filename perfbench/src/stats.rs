//! Small numeric helpers: quantiles, geometric means, and the seeded
//! generator the load generator draws its inputs from.

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// the closest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of strictly positive `values` (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs `f`, adds its host seconds to `acc`, and returns its output
/// with those seconds.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    *acc += secs;
    (out, secs)
}

/// SplitMix64: the workload seed's only consumer. Everything the
/// program under test receives is drawn from it before being handed
/// over, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_pure_in_its_seed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
