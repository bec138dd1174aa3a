//! `mem3d`: the paper's regime. Closed loop, one caller, forward
//! complex 3D FFTs of 256³ (256 MiB per array) through
//! `exec_real::execute` on a plan built once with builder defaults.

use crate::check::{energy, parseval_rel_err, ulp_error, PARSEVAL_REL_TOL, ULP_BOUND};
use crate::host;
use crate::util::{median, ms, pseudo_flops, secs, timed, Metrics};
use crate::workload::{Ctx, Outcome};
use bwfft_core::exec_real::{execute, execute_fused, execute_with};
use bwfft_core::metrics::ideal_traffic_bytes;
use bwfft_core::{Dims, ExecConfig, FftPlan};
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::transpose::{load_contiguous, store_through_write_matrix, write_matrix_packets};
use bwfft_kernels::Direction;
use bwfft_num::signal::SplitMix64;
use bwfft_num::{AlignedVec, Complex64};
use bwfft_spl::gather_scatter::WriteMatrix;
use bwfft_trace::{aggregate, RunMeta, TraceCollector};
use std::sync::Arc;
use std::time::Instant;

pub fn edge(smoke: bool) -> usize {
    if smoke {
        64
    } else {
        256
    }
}

fn dims(smoke: bool) -> Dims {
    let e = edge(smoke);
    Dims::d3(e, e, e)
}

/// Seeded input: uniform in `[-1, 1)` for both parts.
pub fn input(n: usize, seed: u64) -> AlignedVec<Complex64> {
    let mut rng = SplitMix64::new(seed ^ 0x6D65_6D33);
    AlignedVec::from_fn(n, |_| rng.next_complex())
}

pub fn build_plan(dims: Dims) -> FftPlan {
    FftPlan::builder(dims)
        .build()
        .expect("the mem3d shape is a valid default plan")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dims = dims(ctx.smoke);
    let n = dims.total();
    let bytes = n * std::mem::size_of::<Complex64>();
    let facts = host::facts();
    out.note("array_bytes", bytes);
    out.note("llc_bytes", facts.llc_bytes);
    out.note("nproc", facts.nproc);
    out.note(
        "array_over_llc",
        format!("{:.3}", bytes as f64 / facts.llc_bytes.max(1) as f64),
    );
    if !ctx.traced() {
        // The out-of-cache claim, checked on every timed run: the
        // array-size copy rate against the in-cache copy rate.
        let big = host::copy_gbs(bytes);
        let small = host::copy_gbs(host::CACHE_COPY_BYTES);
        out.note("host.copy_gbs", format!("{big:.3}"));
        out.note("host.cache_copy_gbs", format!("{small:.3}"));
        out.note("array_copy_below_cache_copy", big < small);
    }

    let src = input(n, ctx.seed);
    let e_in = energy(&src);
    let mut data = AlignedVec::<Complex64>::zeroed(n);
    let mut work = AlignedVec::<Complex64>::zeroed(0);
    let mut plan = None;
    for _ in 0..ctx.setup_reps.max(1) {
        // Fresh arrays per repetition, so every set-up pays the first
        // touch of its workspace as a new caller would.
        drop(std::mem::replace(&mut work, AlignedVec::zeroed(0)));
        data.copy_from_slice(&src);
        let t0 = Instant::now();
        let p = build_plan(dims);
        work = AlignedVec::zeroed(n);
        let r = execute(&p, &mut data, &mut work);
        out.setup_s.push(secs(t0));
        if let Err(e) = r {
            out.verdict("mem3d warm-up execute", false, e.to_string());
            return out;
        }
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up ran");

    let tr = &ctx.tracer;
    let deadline = ctx.deadline();
    let t_loop = Instant::now();
    let mut parseval_worst = 0.0f64;
    let mut op = 0u64;
    while op == 0 || Instant::now() < deadline {
        op += 1;
        data.copy_from_slice(&src);
        let root = tr.enter("bench", "mem3d.op", op, None);
        let t0 = Instant::now();
        let r = if ctx.traced() {
            // The executor's own phase hook, re-based onto the span clock.
            let (cfg, hook) = tr.exec_config();
            let id = tr.enter("core", "exec_real::execute", op, root);
            let r = execute_with(&plan, &mut data, &mut work, &cfg);
            tr.exit(id);
            tr.absorb(&hook, op, id, "kernels");
            r
        } else {
            execute(&plan, &mut data, &mut work)
        };
        let dt = ms(t0);
        tr.exit(root);
        out.attempted += 1;
        if let Err(e) = r {
            out.verdict("mem3d execute", false, e.to_string());
            continue;
        }
        out.op_ms.push(dt);
        out.op_flops.push(pseudo_flops(n));
        let err = parseval_rel_err(n, e_in, &data);
        parseval_worst = parseval_worst.max(err);
        if err > PARSEVAL_REL_TOL {
            out.verdict(
                "mem3d Parseval",
                false,
                format!("op {op}: rel err {err:.3e}"),
            );
        }
    }
    out.loop_s = secs(t_loop);
    out.verdicts.push(crate::util::Verdict::new(
        "mem3d Parseval (every op)",
        parseval_worst <= PARSEVAL_REL_TOL,
        format!("worst rel err {parseval_worst:.3e} <= {PARSEVAL_REL_TOL:e}"),
    ));

    // One transform per run against the single-threaded pencil baseline:
    // `data` holds the last op's output.
    if ctx.corrupt {
        data[n / 3].re += 1.0;
    }
    work.copy_from_slice(&src);
    let e = edge(ctx.smoke);
    let (_, pencil_s) = timed(|| {
        bwfft_baselines::reference_impl::pencil_fft_3d(&mut work, e, e, e, Direction::Forward)
    });
    let err = ulp_error(&data, &work);
    out.verdict(
        "mem3d vs baselines::pencil_fft_3d",
        err <= ULP_BOUND,
        format!("{err:.1} ULP <= {ULP_BOUND}"),
    );
    out.note("pencil_ms", format!("{:.1}", pencil_s * 1e3));
    out
}

/// Per-layer probe on `mem3d`'s plan and stage shapes: host ceilings,
/// the three kernels of each stage timed from outside, the pipeline's
/// own phase trace, fused vs pipelined, and the pencil baseline.
pub fn layers(seed: u64, smoke: bool) -> Metrics {
    let mut m = Metrics::default();
    let dims = dims(smoke);
    let n = dims.total();
    let bytes = n * std::mem::size_of::<Complex64>();

    let copy = host::copy_gbs(bytes);
    m.put("host.copy_gbs", copy, "GB/s");
    m.put(
        "host.cache_copy_gbs",
        host::copy_gbs(host::CACHE_COPY_BYTES),
        "GB/s",
    );
    m.put("kernels.copy_nt_gbs", host::copy_nt_gbs(bytes), "GB/s");

    let builds: Vec<f64> = (0..7).map(|_| timed(|| build_plan(dims)).1 * 1e6).collect();
    m.put(
        "core.plan_build_us",
        median(&builds).unwrap_or(f64::NAN),
        "us",
    );
    let plan = build_plan(dims);

    // Kernels, one stage at a time, in the fused executor's order.
    let src = input(n, seed);
    let mut dst = AlignedVec::<Complex64>::zeroed(n);
    let b = plan.buffer_elems;
    let mut buf = AlignedVec::<Complex64>::zeroed(b);
    let (mut t_load, mut t_fft, mut t_store, mut flops) = (0.0, 0.0, 0.0, 0.0);
    for stage in plan.stages() {
        let mut kernel = BatchFft::with_variant(stage.fft_size, stage.lanes, plan.dir, plan.kernel);
        for blk in 0..n / b {
            t_load += timed(|| load_contiguous(&src, &mut buf, blk * b, 0..b)).1;
            t_fft += timed(|| kernel.run(&mut buf)).1;
            flops += kernel.pseudo_flops(b);
            let w = WriteMatrix::new(stage.perm, b, blk);
            let packets = write_matrix_packets(&w);
            t_store += timed(|| {
                store_through_write_matrix(&buf, &mut dst, &w, 0..packets, plan.non_temporal)
            })
            .1;
        }
    }
    let moved = 2.0 * bytes as f64 * plan.stages().len() as f64;
    let store_gbs = moved / t_store / 1e9;
    m.put("kernels.store_gbs", store_gbs, "GB/s");
    m.put("kernels.store_pct_copy", 100.0 * store_gbs / copy, "%");
    m.put("kernels.load_gbs", moved / t_load / 1e9, "GB/s");
    m.put("kernels.fft_gflops", flops / t_fft / 1e9, "GFLOP/s");
    drop(buf);

    // Pipelined: one untimed-trace run for the wall, one traced run
    // for the phase split.
    let mut data = AlignedVec::<Complex64>::zeroed(n);
    data.copy_from_slice(&src);
    let (r, t_pipe) = timed(|| execute(&plan, &mut data, &mut dst));
    let t_pipe = if r.is_ok() { t_pipe } else { f64::NAN };
    m.put(
        "core.pct_copy_bw",
        100.0 * ideal_traffic_bytes(n, plan.stages().len()) / t_pipe / 1e9 / copy,
        "%",
    );

    data.copy_from_slice(&src);
    let col = Arc::new(TraceCollector::new());
    let cfg = ExecConfig {
        trace: Some(Arc::clone(&col)),
        ..ExecConfig::default()
    };
    let _ = execute_with(&plan, &mut data, &mut dst, &cfg);
    let report = aggregate(&col.take_events(), &RunMeta::default());
    let sum = |f: &dyn Fn(&bwfft_trace::StageProfile) -> u64| {
        report.stages.iter().map(f).sum::<u64>() as f64 / 1e6
    };
    m.put("pipeline.load_ms", sum(&|s| s.load_busy_ns), "ms");
    m.put("pipeline.compute_ms", sum(&|s| s.compute_busy_ns), "ms");
    m.put("pipeline.store_ms", sum(&|s| s.store_busy_ns), "ms");
    m.put(
        "pipeline.barrier_ms",
        sum(&|s| s.data_barrier_ns + s.compute_barrier_ns),
        "ms",
    );
    m.put(
        "pipeline.overlap_frac",
        report.overall_overlap_fraction().unwrap_or(0.0),
        "ratio",
    );
    let max_phase = sum(&|s| s.load_busy_ns.max(s.compute_busy_ns).max(s.store_busy_ns));
    m.put(
        "pipeline.stage_over_max_phase",
        sum(&|s| s.wall_ns) / max_phase,
        "ratio",
    );

    data.copy_from_slice(&src);
    let (r, t_fused) = timed(|| execute_fused(&plan, &mut data, &mut dst));
    let t_fused = if r.is_ok() { t_fused } else { f64::NAN };
    m.put("core.fused_ms", t_fused * 1e3, "ms");
    m.put("core.pipelined_over_fused", t_pipe / t_fused, "ratio");

    data.copy_from_slice(&src);
    let e = edge(smoke);
    let (_, t_pencil) = timed(|| {
        bwfft_baselines::reference_impl::pencil_fft_3d(&mut data, e, e, e, Direction::Forward)
    });
    m.put("core.speedup_vs_pencil", t_pencil / t_pipe, "x");
    m
}
