//! Seeded input generation for the context-plane workload. The benchmark
//! owns its random stream (SplitMix64) so that a change to the library's
//! RNG can never change the inputs the benchmark feeds the server.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `label`, so adding a draw to one stream
    /// never shifts another.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Arrival offsets (ns from the start of the window) of a Poisson process
/// at `rate_per_s`, covering `window_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank 0 is the busiest path,
/// the egress shape of the paper's §2.1 measurement.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7), 2000.0, 1_000_000_000);
        let b = poisson_schedule(&mut Rng::new(7), 2000.0, 1_000_000_000);
        let c = poisson_schedule(&mut Rng::new(8), 2000.0, 1_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        // 2000 arrivals expected; a Poisson count is within 5 sigma.
        assert!(
            (a.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt(),
            "{}",
            a.len()
        );
    }

    #[test]
    fn zipf_keys_are_a_function_of_the_seed_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&k| k < 1000));
        // Rank 0 carries 1/H(1000) ≈ 13% of draws; rank 999 about 0.013%.
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        assert!((0.11..0.16).contains(&top), "{top}");
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = Rng::new(42);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
        assert_eq!(root.fork(1).next_u64(), Rng::new(42).fork(1).next_u64());
    }
}
