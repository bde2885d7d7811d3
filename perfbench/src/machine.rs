//! The machine-speed probe, calibration and small statistics helpers.
//!
//! Wall time on a shared machine drifts: the same probing cells have
//! been seen to take 1.8x longer within one process and the raw
//! throughput geomean to differ by 68% between processes. The probe
//! below is a fixed piece of CPU work of the same character as the
//! schedulers (a binary-heap Dijkstra plus sorted-vector insertion),
//! timed before and after every measured call. Each call's wall time
//! is scaled by `NOMINAL_PROBE_MS / probe_ms`, which maps it onto a
//! fixed nominal machine. The raw wall and probe times are reported
//! next to the calibrated figures, so drift stays visible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Probe time of the nominal machine. Fixed forever: changing it would
/// rescale every calibrated figure and break comparisons with earlier
/// baselines.
pub const NOMINAL_PROBE_MS: f64 = 1.75;

/// The probe graph is larger than the last-level cache share of one
/// core, so memory contention from other tenants slows the probe as it
/// slows the schedulers; an L2-resident probe tracked it far worse.
const PROBE_NODES: usize = 8192;
const PROBE_DEGREE: usize = 6;
const PROBE_INSERTS: usize = 1024;

/// SplitMix64 step: the benchmark's own seeded stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the SplitMix64 stream.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

struct ProbeInput {
    adj: Vec<(u32, f64)>,
    keys: Vec<f64>,
}

fn probe_input() -> &'static ProbeInput {
    static INPUT: OnceLock<ProbeInput> = OnceLock::new();
    INPUT.get_or_init(|| {
        let mut s = 0x5EED_CA11_B4A7_E000;
        let mut adj = Vec::with_capacity(PROBE_NODES * PROBE_DEGREE);
        for u in 0..PROBE_NODES {
            for k in 0..PROBE_DEGREE {
                // One ring edge keeps the graph connected; the rest are random.
                let v = if k == 0 {
                    (u + 1) % PROBE_NODES
                } else {
                    (splitmix(&mut s) % PROBE_NODES as u64) as usize
                };
                adj.push((v as u32, 1.0 + 99.0 * unit(&mut s)));
            }
        }
        let keys = (0..PROBE_INSERTS).map(|_| 1e4 * unit(&mut s)).collect();
        ProbeInput { adj, keys }
    })
}

/// Probe repetitions per reading; the reading is their median, so one
/// preemption inside a repetition does not skew it.
const PROBE_REPS: usize = 3;

/// One probe reading: the median wall time, in ms, of `PROBE_REPS`
/// runs of the fixed probe work.
pub fn probe_ms() -> f64 {
    let reps: Vec<f64> = (0..PROBE_REPS).map(|_| probe_once_ms()).collect();
    median(&reps)
}

fn probe_once_ms() -> f64 {
    let input = probe_input();
    let t = Instant::now();
    let mut dist = vec![f64::INFINITY; PROBE_NODES];
    let mut heap = BinaryHeap::new();
    dist[0] = 0.0;
    heap.push((Reverse(0u64), 0u32));
    while let Some((Reverse(d), u)) = heap.pop() {
        let d = f64::from_bits(d);
        if d > dist[u as usize] {
            continue;
        }
        let row = &input.adj[u as usize * PROBE_DEGREE..(u as usize + 1) * PROBE_DEGREE];
        for &(v, w) in row {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                // Non-negative floats order like their bit patterns.
                heap.push((Reverse(nd.to_bits()), v));
            }
        }
    }
    let mut gaps: Vec<f64> = Vec::with_capacity(PROBE_INSERTS);
    for &k in &input.keys {
        let at = gaps.partition_point(|&g| g < k);
        gaps.insert(at, k);
    }
    black_box((&dist, &gaps));
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed call: raw wall time and the probe time around it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Raw wall time of the call, ms.
    pub raw_ms: f64,
    /// Mean of the probe times just before and just after, ms.
    pub probe_ms: f64,
}

impl Sample {
    /// The wall time scaled to the nominal machine, ms.
    pub fn cal_ms(self) -> f64 {
        self.raw_ms * NOMINAL_PROBE_MS / self.probe_ms
    }
}

/// Time `f` between two probes.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let before = probe_ms();
    let t = Instant::now();
    let r = f();
    let raw_ms = t.elapsed().as_secs_f64() * 1e3;
    let after = probe_ms();
    (
        r,
        Sample {
            raw_ms,
            probe_ms: 0.5 * (before + after),
        },
    )
}

/// Median (mean of the middle pair for even lengths); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Harrell–Davis estimate of the `p` quantile: a beta-weighted mean of
/// all order statistics; 0 for no values. Every cell contributes the
/// same number of calls, so a nearest-rank pick often falls exactly on
/// the border between two cells' calls and jumps between them run to
/// run; the weighted mean moves smoothly instead.
pub fn quantile_hd(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// Regularized incomplete beta function `I_x(a, b)` by Lentz's continued
/// fraction.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(1.0 - x, b, a);
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    let tiny = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut f = d;
    for m in 1..500 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        for coef in [even, odd] {
            d = 1.0 + coef * d;
            if d.abs() < tiny {
                d = tiny;
            }
            c = 1.0 + coef / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (ln_front.exp() * f / a).clamp(0.0, 1.0)
}

fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut acc = G[0];
    for (i, g) in G.iter().enumerate().skip(1) {
        acc += g / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: the input and output fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a float by its bits.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_values() {
        // Symmetric sample: the median estimate is the centre.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((quantile_hd(&v, 0.5) - 5.0).abs() < 1e-9);
        // Two equal groups with a gap: the estimate sits in the gap
        // instead of jumping to either side.
        let mut g = vec![10.0; 50];
        g.extend(vec![20.0; 50]);
        let m = quantile_hd(&g, 0.5);
        assert!((m - 15.0).abs() < 1e-6, "{m}");
        assert!(quantile_hd(&g, 0.95) > 19.99);
    }

    #[test]
    fn beta_cdf_is_a_distribution() {
        assert!((beta_cdf(0.5, 3.0, 3.0) - 0.5).abs() < 1e-12);
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.2, 2.0, 1.0) - 0.04).abs() < 1e-12);
    }
}
