//! `small-mix`: closed loop, one caller, a seeded stream of
//! cache-resident library calls on plans built once: complex forward
//! 16², 64², 256², 32³; r2c and c2r at 64² and 32³; and a spectral
//! convolution at 1×4096. Fixed per-call cost dominates.

use crate::check::{rel_max_error_real, ulp_error, ulp_error_real, CONV_REL_TOL, ULP_BOUND};
use crate::util::{median, ms, pseudo_flops, secs, timed, Cycle, Metrics};
use crate::workload::{Ctx, Outcome};
use bwfft_core::exec_real::{execute, execute_with};
use bwfft_core::{execute_reference, Dims, ExecConfig, FftPlan, RealFftPlan, SpectralConvPlan};
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::realfft::conv_direct;
use bwfft_kernels::transpose::{load_contiguous, store_through_write_matrix, write_matrix_packets};
use bwfft_num::signal::SplitMix64;
use bwfft_num::{AlignedVec, Complex64};
use bwfft_spl::gather_scatter::WriteMatrix;
use std::time::Instant;

const COMPLEX: [Dims; 4] = [
    Dims::Two { n: 16, m: 16 },
    Dims::Two { n: 64, m: 64 },
    Dims::Two { n: 256, m: 256 },
    Dims::Three {
        k: 32,
        n: 32,
        m: 32,
    },
];
const REAL: [Dims; 2] = [
    Dims::Two { n: 64, m: 64 },
    Dims::Three {
        k: 32,
        n: 32,
        m: 32,
    },
];
const CONV: Dims = Dims::Two { n: 1, m: 4096 };
/// Calls of each kind per cycle of 20, in `build_calls` order: complex
/// 16², 64², 256², 32³; r2c 64², c2r 64², r2c 32³, c2r 32³; conv. The
/// kinds cheaper than complex 64² make up 35% and 64² itself 30%, so
/// the mix's median sits mid-way through the 64² calls.
const WEIGHTS: [usize; 9] = [3, 6, 1, 1, 2, 2, 1, 1, 3];

fn reals(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

fn complexes(n: usize, rng: &mut SplitMix64) -> AlignedVec<Complex64> {
    AlignedVec::from_fn(n, |_| rng.next_complex())
}

/// One kind of call in the stream, with its plan, seeded input and
/// output buffers.
enum Call {
    Complex {
        plan: FftPlan,
        input: AlignedVec<Complex64>,
        data: AlignedVec<Complex64>,
        work: AlignedVec<Complex64>,
    },
    R2c {
        plan: RealFftPlan,
        x: Vec<f64>,
        work: Vec<Complex64>,
        out: Vec<Complex64>,
    },
    C2r {
        plan: RealFftPlan,
        spec: Vec<Complex64>,
        work: Vec<Complex64>,
        out: Vec<f64>,
    },
    Conv {
        plan: SpectralConvPlan,
        kernel: Vec<f64>,
        input: Vec<f64>,
        x: Vec<f64>,
        work: Vec<Complex64>,
    },
}

impl Call {
    fn label(&self) -> String {
        match self {
            Call::Complex { plan, .. } => format!("complex {}", plan.dims.label()),
            Call::R2c { plan, .. } => format!("r2c {}", plan.dims().label()),
            Call::C2r { plan, .. } => format!("c2r {}", plan.dims().label()),
            Call::Conv { plan, .. } => format!("conv {}", plan.plan().dims().label()),
        }
    }

    fn layer_and_name(&self) -> (&'static str, &'static str) {
        match self {
            Call::Complex { .. } => ("core", "exec_real::execute"),
            Call::R2c { .. } => ("real", "RealFftPlan::r2c"),
            Call::C2r { .. } => ("real", "RealFftPlan::c2r"),
            Call::Conv { .. } => ("real", "SpectralConvPlan::convolve"),
        }
    }

    fn pseudo_flops(&self) -> f64 {
        match self {
            Call::Complex { plan, .. } => pseudo_flops(plan.dims.total()),
            Call::R2c { plan, .. } | Call::C2r { plan, .. } => {
                0.5 * pseudo_flops(plan.real_elems())
            }
            Call::Conv { plan, .. } => pseudo_flops(plan.plan().real_elems()),
        }
    }

    /// Restores the input an in-place call overwrote (untimed).
    fn reset(&mut self) {
        match self {
            Call::Complex { input, data, .. } => data.copy_from_slice(input),
            Call::Conv { input, x, .. } => x.copy_from_slice(input),
            Call::R2c { .. } | Call::C2r { .. } => {}
        }
    }

    /// The timed library call.
    fn call(&mut self, cfg: &ExecConfig) -> Result<(), bwfft_core::CoreError> {
        match self {
            Call::Complex {
                plan, data, work, ..
            } => execute_with(plan, data, work, cfg).map(|_| ()),
            Call::R2c { plan, x, work, out } => plan.r2c_with(x, work, out, cfg).map(|_| ()),
            Call::C2r {
                plan,
                spec,
                work,
                out,
            } => plan.c2r_with(spec, work, out, cfg).map(|_| ()),
            Call::Conv { plan, x, work, .. } => plan.convolve_with(x, work, cfg).map(|_| ()),
        }
    }

    /// The call's output, flattened to complex values for saving.
    fn output(&self) -> Vec<Complex64> {
        match self {
            Call::Complex { data, .. } => data.to_vec(),
            Call::R2c { out, .. } => out.clone(),
            Call::C2r { out, .. } => out.iter().map(|&v| Complex64::new(v, 0.0)).collect(),
            Call::Conv { x, .. } => x.iter().map(|&v| Complex64::new(v, 0.0)).collect(),
        }
    }

    /// Checks a saved output against the reference for this kind:
    /// `execute_reference`, the r2c/c2r reference tier, or `conv_direct`.
    fn check(&self, got: &[Complex64]) -> (bool, String) {
        let re = |v: &[Complex64]| v.iter().map(|c| c.re).collect::<Vec<f64>>();
        let failed = |e: bwfft_core::CoreError| (false, format!("reference failed: {e}"));
        match self {
            Call::Complex { plan, input, .. } => {
                let mut want = input.to_vec();
                if let Err(e) = execute_reference(plan, &mut want) {
                    return failed(e);
                }
                let err = ulp_error(got, &want);
                (
                    err <= ULP_BOUND,
                    format!("{err:.1} ULP vs execute_reference"),
                )
            }
            Call::R2c { plan, x, .. } => {
                let mut want = vec![Complex64::ZERO; plan.spectrum_elems()];
                if let Err(e) = plan.r2c_reference(x, &mut want) {
                    return failed(e);
                }
                let err = ulp_error(got, &want);
                (err <= ULP_BOUND, format!("{err:.1} ULP vs r2c_reference"))
            }
            Call::C2r { plan, spec, .. } => {
                let mut want = vec![0.0; plan.real_elems()];
                if let Err(e) = plan.c2r_reference(spec, &mut want) {
                    return failed(e);
                }
                let err = ulp_error_real(&re(got), &want);
                (err <= ULP_BOUND, format!("{err:.1} ULP vs c2r_reference"))
            }
            Call::Conv { kernel, input, .. } => {
                let want = conv_direct(input, kernel);
                let err = rel_max_error_real(&re(got), &want);
                (
                    err <= CONV_REL_TOL,
                    format!("rel err {err:.2e} vs conv_direct"),
                )
            }
        }
    }
}

/// Builds every plan and its buffers, and draws the inputs from `rng`.
/// Returns the calls and the wall seconds of the set-up part (plan
/// construction and buffer allocation; input generation is untimed).
fn build_calls(rng: &mut SplitMix64) -> Result<(Vec<Call>, f64), bwfft_core::CoreError> {
    let mut calls = Vec::new();
    let mut setup = 0.0;
    for dims in COMPLEX {
        let n = dims.total();
        let input = complexes(n, rng);
        let ((plan, work), t) = timed(|| (FftPlan::builder(dims).build(), AlignedVec::zeroed(n)));
        setup += t;
        calls.push(Call::Complex {
            plan: plan?,
            data: AlignedVec::from_slice(&input),
            input,
            work,
        });
    }
    for dims in REAL {
        let (plan, t) = timed(|| RealFftPlan::builder(dims).build());
        setup += t;
        let plan = plan?;
        let x = reals(plan.real_elems(), rng);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
        // A genuine conjugate-even spectrum as the c2r input.
        plan.r2c_reference(&reals(plan.real_elems(), rng), &mut spec)?;
        calls.push(Call::R2c {
            work: vec![Complex64::ZERO; plan.packed_elems()],
            out: vec![Complex64::ZERO; plan.spectrum_elems()],
            plan: plan.clone(),
            x,
        });
        calls.push(Call::C2r {
            work: vec![Complex64::ZERO; plan.packed_elems()],
            out: vec![0.0; plan.real_elems()],
            plan,
            spec,
        });
    }
    let kernel = reals(CONV.total(), rng);
    let input = reals(CONV.total(), rng);
    let (conv, t) = timed(|| -> Result<_, bwfft_core::CoreError> {
        let real = RealFftPlan::builder(CONV).build()?;
        let work = vec![Complex64::ZERO; real.packed_elems()];
        Ok((SpectralConvPlan::new(real, &kernel)?, work))
    });
    setup += t;
    let (plan, work) = conv?;
    calls.push(Call::Conv {
        plan,
        kernel,
        x: input.clone(),
        input,
        work,
    });
    Ok((calls, setup))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut calls = Vec::new();
    for _ in 0..ctx.setup_reps.max(1) {
        // The timed part is plan construction plus the first call of each.
        let built = build_calls(&mut SplitMix64::new(ctx.seed ^ 0x736D_6978));
        let (mut built, mut setup) = match built {
            Ok(c) => c,
            Err(e) => {
                out.verdict("small-mix plan build", false, e.to_string());
                return out;
            }
        };
        let t0 = Instant::now();
        for c in built.iter_mut() {
            if let Err(e) = c.call(&ExecConfig::default()) {
                out.verdict(
                    "small-mix warm-up call",
                    false,
                    format!("{}: {e}", c.label()),
                );
                return out;
            }
        }
        setup += secs(t0);
        out.setup_s.push(setup);
        calls = built;
    }
    out.note(
        "kinds",
        calls.iter().map(Call::label).collect::<Vec<_>>().join(", "),
    );

    let tr = &ctx.tracer;
    let mut saved: Vec<Option<Vec<Complex64>>> = vec![None; calls.len()];
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); calls.len()];
    let mut pick = Cycle::new(&WEIGHTS, ctx.seed ^ 0x5354_524D);
    let deadline = ctx.deadline();
    let t_loop = Instant::now();
    let mut op = 0u64;
    while op == 0 || Instant::now() < deadline {
        op += 1;
        let k = pick.next_kind();
        let c = &mut calls[k];
        c.reset();
        let (layer, name) = c.layer_and_name();
        let root = tr.enter("bench", "small-mix.op", op, None);
        let t0 = Instant::now();
        // Spans around the layer call only: at these sizes the
        // executor's per-block phase events would outnumber the calls
        // a hundredfold.
        let id = tr.enter(layer, name, op, root);
        let r = c.call(&ExecConfig::default());
        tr.exit(id);
        let dt = ms(t0);
        tr.exit(root);
        out.attempted += 1;
        if let Err(e) = r {
            out.verdict("small-mix call", false, format!("{}: {e}", c.label()));
            continue;
        }
        out.op_ms.push(dt);
        out.op_flops.push(c.pseudo_flops());
        per_kind[k].push(dt);
        if saved[k].is_none() {
            saved[k] = Some(c.output());
        }
    }
    out.loop_s = secs(t_loop);
    for (c, t) in calls.iter().zip(&per_kind) {
        out.note(
            &format!("{} p50 ms", c.label()),
            format!("{:.4} ({} calls)", median(t).unwrap_or(f64::NAN), t.len()),
        );
    }

    // Each plan once against its reference: the first measured output
    // of each kind.
    let mut corrupted = !ctx.corrupt;
    for (c, s) in calls.iter().zip(saved.iter_mut()) {
        let Some(got) = s else {
            out.note(
                &format!("unchecked ({})", c.label()),
                "not drawn in this run",
            );
            continue;
        };
        if !corrupted {
            got[0].re += 1.0;
            corrupted = true;
        }
        let (ok, detail) = c.check(got);
        out.verdict(&format!("small-mix {}", c.label()), ok, detail);
    }
    out
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t: Vec<f64> = (0..reps).map(|_| timed(&mut f).1 * 1e6).collect();
    median(&t).unwrap_or(f64::NAN)
}

/// Per-layer probe on `small-mix`'s shapes: the pipelined executor's
/// fixed per-call cost at 16×16, and the real-input layer's calls.
pub fn layers(seed: u64, smoke: bool) -> Metrics {
    let mut m = Metrics::default();
    let reps = if smoke { 20 } else { 300 };
    let mut rng = SplitMix64::new(seed ^ 0x4C41_5952);

    // 16×16: the whole call, and the same kernels driven from outside.
    let plan = FftPlan::builder(COMPLEX[0])
        .build()
        .expect("16x16 is a valid default plan");
    let n = plan.dims.total();
    let input = complexes(n, &mut rng);
    let mut data = AlignedVec::from_slice(&input);
    let mut work = AlignedVec::<Complex64>::zeroed(n);
    let call_us = median_us(reps, || {
        data.copy_from_slice(&input);
        let _ = execute(&plan, &mut data, &mut work);
    });
    let copy_us = median_us(reps, || data.copy_from_slice(&input));
    let b = plan.buffer_elems;
    let mut buf = AlignedVec::<Complex64>::zeroed(b);
    let mut kernels: Vec<BatchFft> = plan
        .stages()
        .iter()
        .map(|s| BatchFft::with_variant(s.fft_size, s.lanes, plan.dir, plan.kernel))
        .collect();
    let kernel_us = median_us(reps, || {
        for (s, stage) in plan.stages().iter().enumerate() {
            let (src, dst) = if s % 2 == 0 {
                (&data, &mut work)
            } else {
                (&work, &mut data)
            };
            for blk in 0..n / b {
                load_contiguous(src, &mut buf, blk * b, 0..b);
                kernels[s].run(&mut buf);
                let w = WriteMatrix::new(stage.perm, b, blk);
                store_through_write_matrix(
                    &buf,
                    dst,
                    &w,
                    0..write_matrix_packets(&w),
                    plan.non_temporal,
                );
            }
        }
    });
    m.put("pipeline.fixed_us", call_us - copy_us - kernel_us, "us");

    // The real layer at 64×64, against the complex call of that shape.
    let complex = FftPlan::builder(COMPLEX[1])
        .build()
        .expect("64x64 is a valid default plan");
    let cn = complex.dims.total();
    let cin = complexes(cn, &mut rng);
    let mut cdata = AlignedVec::from_slice(&cin);
    let mut cwork = AlignedVec::<Complex64>::zeroed(cn);
    let complex_us = median_us(reps, || {
        cdata.copy_from_slice(&cin);
        let _ = execute(&complex, &mut cdata, &mut cwork);
    }) - median_us(reps, || cdata.copy_from_slice(&cin));

    let real = RealFftPlan::builder(REAL[0])
        .build()
        .expect("64x64 is a valid real plan");
    let x = reals(real.real_elems(), &mut rng);
    let mut w = vec![Complex64::ZERO; real.packed_elems()];
    let mut spec = vec![Complex64::ZERO; real.spectrum_elems()];
    let r2c_us = median_us(reps, || {
        let _ = real.r2c(&x, &mut w, &mut spec);
    });
    let mut back = vec![0.0; real.real_elems()];
    let c2r_us = median_us(reps, || {
        let _ = real.c2r(&spec, &mut w, &mut back);
    });
    m.put("real.r2c_us_p50", r2c_us, "us");
    m.put("real.c2r_us_p50", c2r_us, "us");
    m.put("real.r2c_over_complex", r2c_us / complex_us, "ratio");

    let conv_plan = RealFftPlan::builder(CONV)
        .build()
        .expect("1x4096 is a valid real plan");
    let kernel = reals(conv_plan.real_elems(), &mut rng);
    let xin = reals(conv_plan.real_elems(), &mut rng);
    let mut cw = vec![Complex64::ZERO; conv_plan.packed_elems()];
    let conv = SpectralConvPlan::new(conv_plan, &kernel).expect("the conv kernel matches its plan");
    let mut xc = xin.clone();
    let conv_us = median_us(reps, || {
        xc.copy_from_slice(&xin);
        let _ = conv.convolve(&mut xc, &mut cw);
    });
    m.put("real.conv_us_p50", conv_us, "us");
    m
}
