//! Measured (wall-clock) benchmark runs of the real executors.
//!
//! One place owns the warmup/measure/trace loop that the figure
//! binaries used to copy-paste: fill the input deterministically from
//! a seed, warm the caches, time `reps` untraced repetitions (the
//! collector off — the hot path stays clock-free), then run one final
//! *traced* repetition to attribute the time to stages (overlap
//! fraction, achieved GB/s, % of STREAM). Timing and tracing are
//! separate reps on purpose: the trace rep pays for span recording and
//! must not contaminate the sample.
//!
//! [`interleave`] is the loop itself, and the only A/B loop in the
//! harness: the executor suites' plain/guarded pair, the serve suite's
//! metrics-off/metrics-on pair and the real rows' real/complex pair
//! all run through it.

use bwfft_core::exec_real::{execute_with, ExecConfig};
use bwfft_core::{profile, CoreError, FftPlan};
use bwfft_num::{signal, AlignedVec, Complex64};
use bwfft_pipeline::IntegrityConfig;
use bwfft_trace::{TraceCollector, TraceReport};
use std::sync::Arc;
use std::time::Instant;

/// Repetition counts and input seed for one measured case.
#[derive(Clone, Debug)]
pub struct MeasureConfig {
    /// Untimed cache-warming repetitions.
    pub warmup: usize,
    /// Timed repetitions (the statistics sample).
    pub reps: usize,
    /// Seed of the deterministic input signal; the same seed yields the
    /// same input, element for element, across runs and machines.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            warmup: 2,
            reps: 5,
            seed: 42,
        }
    }
}

/// One half of an A/B pair: `A` is the baseline side, `B` the side
/// under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

/// The one measurement loop of the harness: `warmup` discarded rounds,
/// then `reps` recorded rounds. A round runs side A, or — when
/// `paired` — both sides, with the order alternating every round so
/// neither side systematically inherits the other's cache and
/// scheduler state. Interleaving at the rep level means slow machine
/// drift (thermal throttling, background load) biases both samples
/// equally, so a pair supports a much tighter threshold than two
/// back-to-back runs. Returns the `(A, B)` samples, `reps` each; B is
/// empty when unpaired.
pub fn interleave<T, E>(
    warmup: usize,
    reps: usize,
    paired: bool,
    mut run: impl FnMut(Side) -> Result<T, E>,
) -> Result<(Vec<T>, Vec<T>), E> {
    let order = |round: usize| -> &'static [Side] {
        match (paired, round % 2) {
            (false, _) => &[Side::A],
            (true, 0) => &[Side::A, Side::B],
            (true, _) => &[Side::B, Side::A],
        }
    };
    for round in 0..warmup {
        for &side in order(round) {
            run(side)?;
        }
    }
    let mut a = Vec::with_capacity(reps);
    let mut b = Vec::with_capacity(if paired { reps } else { 0 });
    for round in 0..reps {
        for &side in order(round) {
            let sample = run(side)?;
            match side {
                Side::A => a.push(sample),
                Side::B => b.push(sample),
            }
        }
    }
    Ok((a, b))
}

/// What one measured case produced: the raw timing sample plus the
/// traced rep's per-stage attribution.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Wall time of each timed repetition, nanoseconds.
    pub times_ns: Vec<f64>,
    /// Stage-attributed profile of the extra traced repetition.
    pub trace: TraceReport,
    /// Executor that actually ran (the plan may have degraded).
    pub executor: String,
}

/// Runs `plan` per [`MeasureConfig`] and returns the timing sample and
/// a traced-rep profile. `stream_gbs` anchors the %-of-achievable
/// column of the trace (pass the reference machine's STREAM figure, or
/// `None` to omit the roofline).
///
/// With `paired`, [`interleave`] also times the executor pair's side
/// B — the same plan with the steady-state integrity guards (buffer
/// canaries, per-block checksums) armed — and returns it second. The
/// whole-run Parseval check stays off: it is a per-run verification
/// like `--verify`, not an always-on guard, and its two full-array
/// passes would swamp the per-block cost on small suite shapes.
pub fn measure_plan(
    plan: &FftPlan,
    cfg: &MeasureConfig,
    stream_gbs: Option<f64>,
    paired: bool,
) -> Result<(Measured, Option<Measured>), CoreError> {
    let total = plan.dims.total();
    let input = signal::random_complex(total, cfg.seed);
    let mut data = AlignedVec::from_slice(&input);
    let mut work = AlignedVec::<Complex64>::zeroed(total);
    let plain = ExecConfig::default();
    let guarded = ExecConfig {
        integrity: IntegrityConfig::full(),
        ..ExecConfig::default()
    };
    let mut executor = String::new();
    let (plain_ns, guarded_ns) = interleave(cfg.warmup, cfg.reps, paired, |side| {
        let exec_cfg = match side {
            Side::A => &plain,
            Side::B => &guarded,
        };
        // The transform is in place, so each rep restores the input
        // outside the timed region — input-for-input reproducible.
        data.copy_from_slice(&input);
        let t0 = Instant::now();
        let report = execute_with(plan, &mut data, &mut work, exec_cfg)?;
        let ns = t0.elapsed().as_nanos() as f64;
        executor = executor_label(&report.executor);
        Ok::<_, CoreError>(ns)
    })?;

    let (trace, traced_executor) = trace_once(plan, stream_gbs, cfg.seed)?;
    if executor.is_empty() {
        executor = traced_executor;
    }
    let side = |times_ns| Measured {
        times_ns,
        trace: trace.clone(),
        executor: executor.clone(),
    };
    Ok((side(plain_ns), paired.then(|| side(guarded_ns))))
}

/// Runs `plan` once with tracing enabled and aggregates the spans into
/// a [`TraceReport`]. This is the single traced-run helper the
/// `overlap_profile` binary and the bench suite share.
pub fn trace_once(
    plan: &FftPlan,
    stream_gbs: Option<f64>,
    seed: u64,
) -> Result<(TraceReport, String), CoreError> {
    let total = plan.dims.total();
    let mut data = AlignedVec::from_slice(&signal::random_complex(total, seed));
    let mut work = AlignedVec::<Complex64>::zeroed(total);
    let collector = Arc::new(TraceCollector::new());
    let cfg = ExecConfig {
        trace: Some(Arc::clone(&collector)),
        ..ExecConfig::default()
    };
    let report = execute_with(plan, &mut data, &mut work, &cfg)?;
    let executor = executor_label(&report.executor);
    let trace = profile::profile_report(&collector, plan, &executor, stream_gbs);
    Ok((trace, executor))
}

/// Lower-case executor label used in trace/bench records
/// (`"pipelined"`, `"fused"`).
pub fn executor_label(kind: &bwfft_core::ExecutorKind) -> String {
    format!("{kind:?}").to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_core::Dims;

    #[test]
    fn interleave_alternates_order_and_fills_both_sides() {
        let mut log = Vec::new();
        let (a, b) = interleave::<usize, ()>(1, 4, true, |side| {
            log.push(side);
            Ok(log.len())
        })
        .unwrap();
        use Side::{A, B};
        // One warmup round, then four recorded rounds; the first side
        // flips every round.
        assert_eq!(log, [A, B, A, B, B, A, A, B, B, A]);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        // Samples land on the side that produced them, in round order.
        assert_eq!(a, [3, 6, 7, 10]);
        assert_eq!(b, [4, 5, 8, 9]);
    }

    #[test]
    fn unpaired_interleave_runs_side_a_only() {
        let mut calls = 0;
        let (a, b) = interleave::<(), ()>(2, 3, false, |side| {
            assert_eq!(side, Side::A);
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((calls, a.len(), b.len()), (5, 3, 0));
    }

    #[test]
    fn interleave_stops_at_the_first_error() {
        let mut calls = 0;
        let r = interleave(0, 5, true, |side| {
            calls += 1;
            if side == Side::B {
                Err("b failed")
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("b failed"));
        assert_eq!(calls, 2);
    }

    #[test]
    fn measure_produces_sample_and_trace() {
        let plan = FftPlan::builder(Dims::d2(16, 32))
            .threads(1, 1)
            .build()
            .unwrap();
        let cfg = MeasureConfig {
            warmup: 1,
            reps: 3,
            seed: 7,
        };
        let (m, guarded) = measure_plan(&plan, &cfg, Some(40.0), false).unwrap();
        assert!(guarded.is_none());
        assert_eq!(m.times_ns.len(), 3);
        assert!(m.times_ns.iter().all(|t| *t > 0.0));
        assert_eq!(m.trace.stages.len(), 2);
        assert_eq!(m.executor, "pipelined");
    }

    #[test]
    fn paired_measurement_yields_matched_samples() {
        // Both sides of the pair must carry one time per rep and agree
        // on the executor — they timed the exact same plan, and a clean
        // plan never trips the guards on side B.
        let plan = FftPlan::builder(Dims::d2(16, 32))
            .threads(1, 1)
            .build()
            .unwrap();
        let cfg = MeasureConfig {
            warmup: 1,
            reps: 3,
            seed: 7,
        };
        let (plain, guarded) = measure_plan(&plan, &cfg, None, true).unwrap();
        let guarded = guarded.unwrap();
        assert_eq!(plain.times_ns.len(), 3);
        assert_eq!(guarded.times_ns.len(), 3);
        assert!(plain.times_ns.iter().all(|t| *t > 0.0));
        assert!(guarded.times_ns.iter().all(|t| *t > 0.0));
        assert_eq!(plain.executor, guarded.executor);
    }

    #[test]
    fn trace_once_is_stage_complete() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 16))
            .threads(1, 1)
            .build()
            .unwrap();
        let (trace, executor) = trace_once(&plan, None, 1).unwrap();
        assert_eq!(trace.stages.len(), 3);
        assert_eq!(executor, "pipelined");
        assert!(trace.total_wall_ns > 0);
    }
}
