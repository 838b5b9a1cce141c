//! Sample summaries under the benchmark's percentile rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, and
//! always together with the sample count.

/// Samples that must lie strictly above a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the report may name, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank index of percentile `p` (0 < p <= 100) in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99.9% of 10 000 at rank 9990, not 9991.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `p` of an ascending sample by nearest rank, or `None` when the
/// sample is empty or fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median (`p <= 50`) needs only one sample: it is a centre, not a tail.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), p);
    let beyond = sorted.len() - 1 - i;
    if p > 50.0 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[i])
}

/// The highest percentile of [`LADDER`] that `at` supports, with its value.
fn highest(at: impl Fn(f64) -> Option<f64>) -> Option<(f64, f64)> {
    LADDER.iter().find_map(|&p| at(p).map(|v| (p, v)))
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Smallest of a sample (`None` when empty): the estimate of a repeated,
/// identical piece of work's own cost, since interference from other
/// work on the machine only ever adds time.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// An ascending copy of `values`. Panics on NaN, which no timing produces.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// A latency sample summarised as median, p99 and the highest supported
/// percentile, each with the sample count.
#[derive(Debug, Clone)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(values: &[f64]) -> Self {
        Dist {
            sorted: sorted(values),
        }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> Option<f64> {
        percentile(&self.sorted, 50.0)
    }

    pub fn p99(&self) -> Option<f64> {
        percentile(&self.sorted, 99.0)
    }

    /// `"p50 41.2 p99 88.0 (highest p99.9 140.3) n=40000"`, with
    /// `unresolved` in place of any percentile the sample cannot support.
    pub fn describe(&self) -> String {
        describe(self.n() as u64, |p| percentile(&self.sorted, p))
    }
}

fn describe(n: u64, at: impl Fn(f64) -> Option<f64>) -> String {
    let show = |v: Option<f64>| v.map_or("unresolved".to_string(), |v| format!("{v:.1}"));
    let top = highest(&at).map_or("none".to_string(), |(p, v)| format!("p{p} {v:.1}"));
    format!(
        "p50 {} p99 {} (highest {top}) n={n}",
        show(at(50.0)),
        show(at(99.0))
    )
}

/// Width of a [`Hist`] bucket, ns.
const HIST_NS: u64 = 10;
/// Durations from here on land in the overflow count, ns.
const HIST_MAX_NS: u64 = 2_000_000;

/// Durations counted in [`HIST_NS`]-wide buckets: for samples too many to
/// keep, in memory that does not grow with their number. Percentiles
/// follow the same rule as [`percentile`] and read the bucket's middle.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Allocated zeroed on the first sample, so only buckets that are hit
    /// ever occupy memory.
    buckets: Vec<u32>,
    over: u64,
    count: u64,
    sum_ns: u64,
}

impl Hist {
    pub fn add(&mut self, ns: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; (HIST_MAX_NS / HIST_NS) as usize];
        }
        self.count += 1;
        self.sum_ns += ns;
        match self.buckets.get_mut((ns / HIST_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over += 1,
        }
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; (HIST_MAX_NS / HIST_NS) as usize];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over += other.over;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn n(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Percentile `p` in µs, or `None` when the sample cannot support it
    /// or it lies in the overflow.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let i = rank(self.count as usize, p) as u64;
        if p > 50.0 && self.count - 1 - i < MIN_BEYOND as u64 {
            return None;
        }
        let mut seen = 0u64;
        self.buckets.iter().enumerate().find_map(|(b, &c)| {
            seen += c as u64;
            (seen > i).then(|| (b as u64 * HIST_NS) as f64 / 1e3 + HIST_NS as f64 / 2e3)
        })
    }

    pub fn p50_us(&self) -> Option<f64> {
        self.percentile_us(50.0)
    }

    /// As [`Dist::describe`], in µs.
    pub fn describe(&self) -> String {
        describe(self.count, |p| self.percentile_us(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // Nearest rank 990 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 99.0), Some(1980.0));
    }

    #[test]
    fn median_of_small_samples_is_reported() {
        assert_eq!(percentile(&ramp(1), 50.0), Some(1.0));
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let top = |v: Vec<f64>| highest(|p| percentile(&v, p));
        assert_eq!(top(ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(top(ramp(1500)), Some((99.0, 1485.0)));
        assert_eq!(top(ramp(100)), Some((90.0, 90.0)));
        assert_eq!(top(ramp(20)), Some((50.0, 10.0)));
        assert_eq!(top(vec![]), None);
    }

    #[test]
    fn hist_reads_the_same_ranks_as_a_sorted_sample() {
        let mut h = Hist::default();
        for ns in (1..=2000).map(|i| i * HIST_NS) {
            h.add(ns);
        }
        // Nearest rank 1000 is 10 000 ns, in the bucket [10 000, 10 010).
        assert_eq!(h.p50_us(), Some(10.005));
        assert_eq!(h.percentile_us(99.0), Some(19.805));
        assert_eq!(h.percentile_us(99.9), None);
        let mut m = Hist::default();
        m.merge(&h);
        m.add(HIST_MAX_NS);
        assert_eq!((m.n(), m.sum_ns()), (2001, h.sum_ns() + HIST_MAX_NS));
        assert_eq!(m.describe(), "p50 10.0 p99 19.8 (highest p99 19.8) n=2001");
    }

    #[test]
    fn unresolved_tail_is_said_not_printed_as_a_number() {
        let d = Dist::new(&ramp(50));
        assert_eq!(d.p99(), None);
        assert!(d.describe().contains("p99 unresolved"), "{}", d.describe());
        assert!(d.describe().contains("n=50"));
    }
}
