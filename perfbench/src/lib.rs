//! The repository benchmark: three workloads over the kgae stack, each
//! reporting end-to-end metrics (untraced) or per-layer metrics
//! (traced). See `METRICS.md` beside this crate for the catalogue.
//!
//! * [`gen`] — the seeded workload generator (campaign specs, delta
//!   batches); the same seed always yields the same inputs.
//! * [`grid`] — `engine_grid` and `engine_cached`: in-process
//!   poll-driven campaigns, without and with a shared kernel cache.
//! * [`campaign`] — one campaign driver written once against a
//!   [`campaign::Transport`], run over HTTP or an in-process manager.
//! * [`service`] — `service_steady` and `service_churn`.
//! * [`layers`] — replays of inner-layer public functions at recorded
//!   inputs, for the traced run.
//! * [`catalogue`] — every metric name and unit.

pub mod campaign;
pub mod catalogue;
pub mod gen;
pub mod grid;
pub mod layers;
pub mod service;

use std::time::Instant;

/// One reported metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `ns`, `count`, ...).
    pub unit: &'static str,
}

/// What one workload run produced: its metrics plus the correctness
/// tally behind `attempted`/`failed`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (campaigns and their requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// Human-readable reasons for failures (first few).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(reason.into());
        }
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile of a **sorted** sample by linear interpolation
/// between closest ranks.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Log-linear latency histogram in nanoseconds: 1024 linear buckets per
/// power of two (≤ 0.1% relative width), so millions of request times
/// fit in a fixed 512 KiB. Quantiles interpolate within the bucket by
/// rank, so they keep all their digits.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: f64,
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
            sum_ns: 0.0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS
        let shift = exp - SUB_BITS;
        let mantissa = (ns >> shift) - SUB; // 0..SUB
        ((u64::from(shift) + 1) * SUB + mantissa) as usize
    }

    /// `[lo, hi)` of bucket `i` in ns.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, (i + 1) as f64);
        }
        let shift = i / SUB - 1;
        let mantissa = i % SUB;
        let lo = ((SUB + mantissa) << shift) as f64;
        (lo, lo + (1u64 << shift) as f64)
    }

    /// Records one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as f64;
    }

    /// Records the time elapsed since `t0`; returns it in ns.
    pub fn record_since(&mut self, t0: Instant) -> u64 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(ns);
        ns
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples in ns.
    #[must_use]
    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// The `p`-quantile in ns (NaN when empty).
    #[must_use]
    pub fn quantile_ns(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = p.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 > rank {
                let (lo, hi) = Self::bounds(i);
                let frac = ((rank - before as f64) + 0.5) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            before += c;
        }
        let (_, hi) = Self::bounds(self.counts.len() - 1);
        hi
    }
}

/// One finished campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    /// Labels the campaign absorbed.
    pub annotations: u64,
    /// Requests it issued.
    pub requests: u64,
}

/// Window throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Campaigns completed per second.
    pub campaigns_per_s: f64,
    /// Wall ns per absorbed label.
    pub ns_per_annotation: f64,
    /// Requests per second.
    pub requests_per_s: f64,
}

/// Throughput of a window: total work over its whole wall time. A host
/// that alternates between a fast and a slow state within a run is
/// averaged in proportion, where a median over time slices would flip
/// between the two states from run to run.
#[must_use]
pub fn window_rates(done: &[Done], wall_s: f64) -> Rates {
    let annotations: u64 = done.iter().map(|d| d.annotations).sum();
    let requests: u64 = done.iter().map(|d| d.requests).sum();
    Rates {
        campaigns_per_s: done.len() as f64 / wall_s,
        ns_per_annotation: wall_s * 1e9 / annotations.max(1) as f64,
        requests_per_s: requests as f64 / wall_s,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU; `None`
/// where the affinity cannot be read or set, and the run goes unpinned.
///
/// On a small virtual machine, threads that hop between vCPUs pay for
/// cross-vCPU wake-ups and for host steal on every vCPU they touch; one
/// CPU makes a run's figures depend on the code, not on placement.
#[cfg(target_os = "linux")]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable mask of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| (allowed.0[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live mask of exactly `size` bytes; pid 0 names
    // the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Affinity is only set on Linux; elsewhere the run goes unpinned.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `(total, steal)` CPU ticks of the whole machine from `/proc/stat`:
/// the share stolen by the hypervisor explains runs that read slow.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// CPU time this process has used (user + system), in clock ticks.
#[must_use]
pub fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// Times `f` `reps` times and returns the median ns per call over
/// `rounds` rounds (each round times `reps` calls together).
pub fn time_per_call(rounds: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_round = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t0 = Instant::now();
        for i in 0..reps {
            f(r * reps + i);
        }
        per_round.push(t0.elapsed().as_nanos() as f64 / reps.max(1) as f64);
    }
    median(&per_round)
}

/// Runs `setup` once and returns its wall seconds with the result.
///
/// # Errors
///
/// Whatever `setup` returns.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = Instant::now();
    let value = setup()?;
    Ok((t0.elapsed().as_secs_f64(), value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::new();
        let mut exact: Vec<f64> = Vec::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = gen::splitmix64(x);
            let ns = 200 + x % 2_000_000;
            h.record(ns);
            exact.push(ns as f64);
        }
        exact.sort_by(f64::total_cmp);
        for p in [0.5, 0.9, 0.99] {
            let want = quantile_sorted(&exact, p);
            let got = h.quantile_ns(p);
            assert!((got - want).abs() / want < 0.01, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn histogram_buckets_tile_the_line() {
        for ns in [0u64, 1, 1023, 1024, 1025, 4096, 123_456_789] {
            let (lo, hi) = Histogram::bounds(Histogram::index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < hi, "{ns}: [{lo}, {hi})");
        }
    }
}
