//! Order statistics, the seeded generator and the output digest shared
//! by every workload.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99 and p90 that has at least ten samples beyond its
/// nearest rank among `n` samples, or `None` when neither has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 90.0].into_iter().find(|&q| {
        let rank = (q / 100.0 * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them, so that spreads read the same here and in any script that
/// checks them.
///
/// # Panics
///
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let m = v.len() as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// SplitMix64: a small, well-mixed generator whose whole sequence is
/// fixed by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams of the
    /// same seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`, never zero, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential variate with the given rate: the gap to the next
    /// arrival of a Poisson process.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless sequence of seeded permutations of `0..n`: every input
/// occurs once per round, so the mix of a time-bounded run is balanced
/// whatever the seed, and the seed only decides the order.
#[derive(Debug, Clone)]
pub struct Rounds {
    rng: Rng,
    round: Vec<usize>,
    next: usize,
}

impl Rounds {
    /// Rounds over `n` inputs.
    pub fn new(rng: Rng, n: usize) -> Self {
        Rounds {
            rng,
            round: (0..n).collect(),
            next: n,
        }
    }
}

impl Iterator for Rounds {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.next = 0;
        }
        self.next += 1;
        self.round.get(self.next - 1).copied()
    }
}

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn rounds_are_balanced_and_seeded() {
        let a: Vec<usize> = Rounds::new(Rng::new(1, 0), 4).take(40).collect();
        let b: Vec<usize> = Rounds::new(Rng::new(1, 0), 4).take(40).collect();
        let c: Vec<usize> = Rounds::new(Rng::new(2, 0), 4).take(40).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for round in a.chunks(4) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
