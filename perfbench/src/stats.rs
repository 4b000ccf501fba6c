//! Small measurement helpers: order statistics, response hashing, the
//! process memory high-water mark and the host calibration loop.

use std::time::Instant;

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice; `0.0`
/// for an empty one.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    ct_bench::streams::percentile(sorted, p).unwrap_or(0.0)
}

/// Median of an unsorted sample (nearest rank, lower middle).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean of a sample; `0.0` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when there is nothing to divide by.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fingerprint of one response: its FNV-1a 64 hash and length. Served
/// responses are stored as fingerprints so the client's own memory does
/// not swamp the server's in `peak_rss_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub len: usize,
}

impl Digest {
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Self {
            hash: ct_bench::harness::fnv1a(bytes),
            len: bytes.len(),
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time of a fixed integer loop, in milliseconds. Recorded next to
/// every run so reports from different hosts or sessions can be put on
/// one scale; it never adjusts or gates another metric.
#[must_use]
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}
