//! Small numeric helpers: order statistics, the `VmHWM` reader and the
//! FNV-1a fingerprint.

/// Median, minimum, maximum and sample count of a series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

/// Median (mean of the two middle values when the count is even).
pub fn median(values: &[f64]) -> f64 {
    egoist_core::stats::percentile(values, 50.0)
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: values.len(),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here agree
/// with the driver's. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 below two samples).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a, fed 64-bit words or raw bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_extremes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!(
            s,
            Summary {
                median: 5.0,
                min: 1.0,
                max: 9.0,
                samples: 3
            }
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(1.5);
        b.word(1.5f64.to_bits());
        assert_eq!(a.finish(), b.finish());
    }
}
