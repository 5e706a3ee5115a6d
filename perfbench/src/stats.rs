//! Order statistics, JSON number formatting and process memory.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    s[lo] * (1.0 - frac) + s[hi] * frac
}

/// A finite float as a JSON number with all its digits (shortest
/// round-trip form); non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("bad VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// SplitMix64: the benchmark's own generator for request schedules and
/// samples, independent of the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf-distributed user ids: rank `r` (1-based) has weight `r^-s`, and
/// ranks map onto users through a seeded permutation so the popular users
/// are not simply the lowest ids.
pub struct ZipfUsers {
    cdf: Vec<f64>,
    users: Vec<u32>,
}

impl ZipfUsers {
    pub fn new(n_users: usize, exponent: f64, rng: &mut SplitMix) -> Self {
        let mut users: Vec<u32> = (0..n_users as u32).collect();
        for i in (1..users.len()).rev() {
            users.swap(i, rng.below(i + 1));
        }
        let mut cdf = Vec::with_capacity(n_users);
        let mut acc = 0.0;
        for r in 1..=n_users {
            acc += (r as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf, users }
    }

    pub fn draw(&self, rng: &mut SplitMix) -> u32 {
        let u = rng.unit();
        let idx = self.cdf.partition_point(|&c| c < u).min(self.users.len() - 1);
        self.users[idx]
    }
}
