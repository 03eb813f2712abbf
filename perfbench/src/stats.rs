//! Order statistics and the benchmark's own input generator.

/// Percentile `p` in `[0, 1]` of `xs` by linear interpolation between the
/// closest ranks. `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (`0.0` for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The best (smallest) of `xs`; infinite for an empty slice. Per-input
/// times are the best of the input's repeats in a run: a shared machine
/// slows down by up to 40% for seconds at a time, and an input's fastest
/// repeat is the figure that stays put from run to run.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values (`0.0` for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// SplitMix64: the generator every workload draws its inputs from, so the
/// same `--seed` always yields the same kernel orders, DSE seeds and job
/// sequences, independent of the library's own PRNG.
#[derive(Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed ^ 0x6F76_6572_6765_6E00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn permutation_is_a_permutation_and_seeded() {
        let a = SeedRng::new(7).permutation(19);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..19).collect::<Vec<_>>());
        assert_eq!(a, SeedRng::new(7).permutation(19));
        assert_ne!(a, SeedRng::new(8).permutation(19));
    }
}
