//! What every workload gets and gives back.

use crate::spans::Tracer;
use crate::util::{median, quantile, Metrics, Verdict};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Inputs of one pass of one workload.
pub struct Ctx {
    pub seed: u64,
    /// Measured-loop duration.
    pub seconds: f64,
    /// Set-up repetitions (the reported set-up time is their median).
    pub setup_reps: usize,
    /// Records spans around every layer call and arms the library's
    /// existing trace/metrics hooks.
    pub tracer: Tracer,
    /// Small shapes and short phases: checks that every metric is
    /// emitted, not how fast anything is.
    pub smoke: bool,
    /// Negative control: corrupt one output element after a call, so
    /// the workload's own check must flag it.
    pub corrupt: bool,
    /// Scratch directory inside the checkout (stores, span files).
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each measured operation (for the open loop:
    /// from due time to completion, at the reported rate).
    pub op_ms: Vec<f64>,
    /// Pseudo-flops of each measured operation (parallel to `op_ms`).
    pub op_flops: Vec<f64>,
    /// Wall seconds of the measured loop.
    pub loop_s: f64,
    /// Sustained throughput when it is not `op_ms.len() / loop_s`
    /// (the open loop reports the completion rate at its highest
    /// passing offered rate).
    pub ops_per_s: Option<f64>,
    pub attempted: u64,
    /// Failed calls, wrong outputs, shed and deadline-exceeded requests.
    pub failed: u64,
    pub verdicts: Vec<Verdict>,
    /// Facts recorded next to the metrics (sizes, rates, host).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, k: &str, v: impl ToString) {
        self.notes.push((k.to_string(), v.to_string()));
    }

    pub fn verdict(&mut self, what: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.verdicts.push(Verdict::new(what, ok, detail));
    }

    pub fn op_ms_p50(&self) -> f64 {
        median(&self.op_ms).unwrap_or(f64::NAN)
    }

    /// The end-to-end metrics, timed with tracing off.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s).unwrap_or(f64::NAN), "s");
        m.put("op_ms_p50", self.op_ms_p50(), "ms");
        // The bounded tail is p95: on a shared VM one stall of a few
        // tens of ms moves an open loop's p99 by more than any usable
        // bound. p99 and its sample count are in the printed report.
        m.put(
            "op_ms_p95",
            quantile(&self.op_ms, 0.95).unwrap_or(f64::NAN),
            "ms",
        );
        let ops_per_s = self
            .ops_per_s
            .unwrap_or(self.op_ms.len() as f64 / self.loop_s.max(f64::MIN_POSITIVE));
        m.put("ops_per_s", ops_per_s, "1/s");
        let rates: Vec<f64> = self
            .op_flops
            .iter()
            .zip(&self.op_ms)
            .map(|(f, ms)| f / (ms * 1e6))
            .collect();
        m.put("gflops", median(&rates).unwrap_or(f64::NAN), "GFLOP/s");
        m.put("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
        m
    }

    /// Operations measured beyond the p99 rank (the tail is only
    /// meaningful with at least ten).
    pub fn beyond_p99(&self) -> usize {
        self.op_ms.len() - ((0.99 * self.op_ms.len() as f64).ceil() as usize).min(self.op_ms.len())
    }
}
