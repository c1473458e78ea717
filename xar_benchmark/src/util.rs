//! Small shared helpers: the benchmark-owned input generator, order
//! statistics, process memory, and the scratch directory.

use std::path::PathBuf;

/// splitmix64 — the benchmark's only source of inputs. The program
/// under test never sees the seed, only what this generates from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, a, b)` — e.g. one per client
    /// and block, so the oracle can regenerate a block's inputs.
    pub fn stream(seed: u64, a: u64, b: u64) -> Self {
        let mut s = SplitMix64(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let x = s.next_u64();
        let mut s = SplitMix64(x ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` far below 2^32 here, so
    /// the bias is immaterial).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// The `q`-quantile (0..=1) of an already sorted slice, nearest rank.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of unsorted values, nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max − min) / median` — the repetition spread printed beside every
/// timed metric.
pub fn rep_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / m
}

/// Interquartile distance as a share of the median, computed the way
/// Python's `statistics.quantiles(values, n=4)` (exclusive method)
/// computes the quartiles — the acceptance rule's spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / m
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `<target dir>/xar-benchmark`: where WAL scratch, traces, results and
/// the history live — beside the binary, so always inside the checkout
/// the benchmark was built in and never in the source tree.
pub fn output_root() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    // <target>/<profile>/xar_benchmark → <target>
    let target = exe.parent().and_then(|p| p.parent()).expect("binary lives in <target>/<profile>");
    target.join("xar-benchmark")
}

/// A per-process scratch directory under [`output_root`], removed on
/// drop (durability directories live here).
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let dir = output_root().join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::stream(7, 1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix64::stream(7, 1, 2).next_u64(), SplitMix64::stream(7, 2, 1).next_u64());
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile_sorted(&v, 0.5), 5);
        assert_eq!(quantile_sorted(&v, 0.99), 10);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
    }
}
