//! Small shared pieces: order statistics, the metric list a run
//! reports, process memory, and timing helpers.

use std::time::Instant;

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median as the mean of the two middle samples (even counts), so a
/// run's median is not pinned to one extreme sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times one call, returning its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, secs(t0))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Paper pseudo-flops of an `n`-point complex transform: `5·n·log2 n`.
pub fn pseudo_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n.max(2) as f64).log2()
}

/// A seeded stream of kind indices in which every cycle holds each
/// kind exactly `weights[k]` times, in a freshly shuffled order. Exact
/// proportions keep a mix's median at a fixed quantile of one kind.
pub struct Cycle {
    weights: Vec<usize>,
    rng: bwfft_num::signal::SplitMix64,
    pending: Vec<usize>,
}

impl Cycle {
    pub fn new(weights: &[usize], seed: u64) -> Cycle {
        Cycle {
            weights: weights.to_vec(),
            rng: bwfft_num::signal::SplitMix64::new(seed),
            pending: Vec::new(),
        }
    }

    pub fn next_kind(&mut self) -> usize {
        if self.pending.is_empty() {
            for (k, &w) in self.weights.iter().enumerate() {
                self.pending.extend(std::iter::repeat_n(k, w));
            }
            for i in (1..self.pending.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.pending.swap(i, j);
            }
        }
        self.pending
            .pop()
            .expect("every cycle holds at least one kind")
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics one pass produced, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(&m.name, m.value, m.unit);
        }
    }
}

/// A correctness verdict: what was checked and whether it held.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub what: String,
    pub ok: bool,
    pub detail: String,
}

impl Verdict {
    pub fn new(what: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Verdict {
            what: what.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Formats a finite number for JSON with full precision (non-finite
/// values become `null`, which the result check then refuses).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn cycles_hold_exact_proportions() {
        let mut c = Cycle::new(&[3, 1, 0, 2], 7);
        let mut counts = [0usize; 4];
        for _ in 0..60 {
            counts[c.next_kind()] += 1;
        }
        assert_eq!(counts, [30, 10, 0, 20]);
    }
}
