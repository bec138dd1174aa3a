//! `serve-open`: open loop. One generator thread submits a seeded mix
//! of 32², 64², 128² and 32³ requests (default knobs, so plans resolve
//! through `PlanCache::get_or_tune`) to an `FftServer` with one worker,
//! on a fixed inter-arrival schedule at a few fixed rates. Latency runs
//! from the due time; the limit is p99 ≤ 25 ms.

use crate::check::{ulp_error, ULP_BOUND};
use crate::spans::Tracer;
use crate::util::{median, pseudo_flops, quantile, secs, timed, Cycle, Metrics, Verdict};
use crate::workload::{Ctx, Outcome};
use bwfft_core::{execute_reference, Dims, FftPlan, HostProfile};
use bwfft_kernels::Direction;
use bwfft_metrics::Registry;
use bwfft_num::signal::SplitMix64;
use bwfft_num::Complex64;
use bwfft_serve::{FftRequest, FftServer, RequestOutcome, ServeConfig};
use bwfft_tuner::{HostFingerprint, PlanCache, Tuner, TunerOptions};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHAPES: [Dims; 4] = [
    Dims::Two { n: 32, m: 32 },
    Dims::Two { n: 64, m: 64 },
    Dims::Two { n: 128, m: 128 },
    Dims::Three {
        k: 32,
        n: 32,
        m: 32,
    },
];
/// Requests of each shape per cycle of 20: 35% are 32², 30% 64², so
/// the median latency sits mid-way through the 64² requests.
const WEIGHTS: [usize; 4] = [7, 6, 4, 3];
/// Offered rates, requests per second, tried from the highest down
/// until one meets the limit. They bracket the knee of the seed code on
/// a 2-vCPU host (300–400/s): 800/s grows a backlog at once, and rates
/// near the knee pass or fail by chance. 100/s stays well below it: at
/// 200/s some 40% of requests already wait behind another, so a host
/// running 25% slower for a while tips the median from a bare 64²
/// execute to execute plus wait (0.5 → 1.5 ms).
pub const RATES: [f64; 3] = [800.0, 100.0, 50.0];
/// The rate the per-layer serve probe offers.
const PROBE_RATE: f64 = 100.0;
/// The latency limit on p99, from due time to completion.
pub const P99_LIMIT_MS: f64 = 25.0;
/// A queue this deep at a due time means the backlog is growing: the
/// step stops offering load before anything is shed (the server's
/// queue holds 16, and one step adds at most one request).
const BACKLOG_LIMIT: usize = 12;
/// Inputs pre-generated per shape.
const INPUTS_PER_SHAPE: usize = 4;
/// Every `SAMPLE_EVERY`-th completion is kept for the output check, up
/// to `MAX_SAMPLES`.
const SAMPLE_EVERY: u64 = 37;
const MAX_SAMPLES: usize = 48;

struct Inputs(Vec<Vec<Vec<Complex64>>>);

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x5345_5256);
        Inputs(
            SHAPES
                .iter()
                .map(|d| {
                    (0..INPUTS_PER_SHAPE)
                        .map(|_| (0..d.total()).map(|_| rng.next_complex()).collect())
                        .collect()
                })
                .collect(),
        )
    }
}

/// What one offered rate produced.
#[derive(Default)]
struct Step {
    rate: f64,
    offered: u64,
    shed: u64,
    failed: u64,
    /// Stopped early because the backlog grew.
    aborted: bool,
    backlog_max: usize,
    lat_ms: Vec<f64>,
    /// Pseudo-flops of each completed request (parallel to `lat_ms`).
    flops: Vec<f64>,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// First due time to last completion.
    span_s: f64,
    /// (shape, input, output) of sampled completions.
    samples: Vec<(usize, usize, Vec<Complex64>)>,
}

impl Step {
    fn passes(&self) -> bool {
        !self.aborted
            && self.shed == 0
            && self.failed == 0
            && !self.lat_ms.is_empty()
            && quantile(&self.lat_ms, 0.99).is_some_and(|p| p <= P99_LIMIT_MS)
    }
}

struct Pending {
    ticket: bwfft_serve::Ticket,
    due: Instant,
    t_sub: Instant,
    submitted: Instant,
    shape: usize,
    input: usize,
    op: u64,
}

/// Offers `rate` requests/s for `dur` on the fixed schedule, timing each
/// from its due time to its completion.
fn drive(
    server: &FftServer,
    inputs: &Inputs,
    mix: &mut Cycle,
    rate: f64,
    dur: f64,
    tr: &Tracer,
    op0: u64,
) -> Step {
    let mut step = Step {
        rate,
        ..Step::default()
    };
    let n = ((rate * dur).round() as u64).max(1);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(2);
    let collector = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut got = Vec::new();
            let mut flops = Vec::new();
            let mut last = start;
            let mut samples = Vec::new();
            let mut failed = 0u64;
            for p in rx {
                let outcome = p.ticket.wait();
                let done = p.submitted + outcome.latency();
                last = last.max(done);
                got.push(done.saturating_duration_since(p.due).as_secs_f64() * 1e3);
                flops.push(pseudo_flops(SHAPES[p.shape].total()));
                match outcome {
                    RequestOutcome::Completed { output, .. } => {
                        if p.op % SAMPLE_EVERY == 1 && samples.len() < MAX_SAMPLES {
                            samples.push((p.shape, p.input, output));
                        }
                    }
                    _ => failed += 1,
                }
                if tr.enabled() {
                    let (due, sub, end) = (tr.ns_of(p.due), tr.ns_of(p.submitted), tr.ns_of(done));
                    let root = tr.record("bench", "serve-open.request", p.op, None, due, end);
                    tr.record(
                        "serve",
                        "FftServer::submit",
                        p.op,
                        root,
                        tr.ns_of(p.t_sub),
                        sub,
                    );
                    tr.record("serve", "queue+execute", p.op, root, sub, end);
                }
            }
            (got, flops, last, samples, failed)
        });
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let shape = mix.next_kind();
            let input = (i % INPUTS_PER_SHAPE as u64) as usize;
            let req = FftRequest::new(SHAPES[shape], inputs.0[shape][input].clone());
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t_sub = Instant::now();
            step.lag_ms
                .push(t_sub.saturating_duration_since(due).as_secs_f64() * 1e3);
            let depth = server.queue_depth();
            step.backlog_max = step.backlog_max.max(depth);
            if depth >= BACKLOG_LIMIT {
                step.aborted = true;
                break;
            }
            step.offered += 1;
            match server.submit(req) {
                Ok(ticket) => {
                    let submitted = Instant::now();
                    step.submit_us.push((submitted - t_sub).as_secs_f64() * 1e6);
                    let op = op0 + i + 1;
                    let _ = tx.send(Pending {
                        ticket,
                        due,
                        t_sub,
                        submitted,
                        shape,
                        input,
                        op,
                    });
                }
                Err(_) => step.shed += 1,
            }
        }
        drop(tx);
        waiter.join().expect("the completion waiter does not panic")
    });
    let (lat, flops, last, samples, failed) = collector;
    step.lat_ms = lat;
    step.flops = flops;
    step.samples = samples;
    step.failed = failed;
    step.span_s = last.saturating_duration_since(start).as_secs_f64();
    step
}

/// Sampled completions against `execute_reference`, 512-ULP contract.
fn check_samples(
    samples: &mut [(usize, usize, Vec<Complex64>)],
    inputs: &Inputs,
    corrupt: bool,
) -> Verdict {
    let mut worst = 0.0f64;
    if corrupt {
        if let Some(s) = samples.first_mut() {
            s.2[0].re += 1.0;
        }
    }
    for (shape, input, got) in samples.iter() {
        let mut want = inputs.0[*shape][*input].clone();
        let ok = FftPlan::builder(SHAPES[*shape])
            .build()
            .map_err(|e| e.to_string())
            .and_then(|p| execute_reference(&p, &mut want).map_err(|e| e.to_string()));
        worst = worst.max(if ok.is_ok() {
            ulp_error(got, &want)
        } else {
            f64::INFINITY
        });
    }
    Verdict::new(
        "serve-open sampled completions vs execute_reference",
        !samples.is_empty() && worst <= ULP_BOUND,
        format!(
            "{} samples, worst {worst:.1} ULP <= {ULP_BOUND}",
            samples.len()
        ),
    )
}

fn start_server(metrics: Option<Arc<Registry>>) -> FftServer {
    FftServer::start(ServeConfig {
        workers: 1,
        metrics,
        ..ServeConfig::default()
    })
}

/// Set-up: start the server and send one warm-up request per shape
/// (each resolves, tunes and caches its plan).
fn setup(inputs: &Inputs, metrics: Option<Arc<Registry>>) -> Result<FftServer, String> {
    let server = start_server(metrics);
    for (s, dims) in SHAPES.iter().enumerate() {
        let t = server
            .submit(FftRequest::new(*dims, inputs.0[s][0].clone()))
            .map_err(|e| format!("warm-up {}: {e}", dims.label()))?;
        if !matches!(t.wait(), RequestOutcome::Completed { .. }) {
            return Err(format!("warm-up {} did not complete", dims.label()));
        }
    }
    Ok(server)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::new(ctx.seed);
    let metrics = ctx.traced().then(|| Arc::new(Registry::new()));
    let mut server = None;
    for _ in 0..ctx.setup_reps.max(1) {
        if let Some(mut old) = server.take() {
            FftServer::shutdown(&mut old);
        }
        let (s, t) = timed(|| setup(&inputs, metrics.clone()));
        match s {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.verdict("serve-open set-up", false, e);
                return out;
            }
        }
        out.setup_s.push(t);
    }
    let mut server = server.expect("at least one set-up ran");
    out.note("workers", 1);
    out.note("rates_per_s", format!("{RATES:?}, highest first"));
    out.note("p99_limit_ms", P99_LIMIT_MS);

    let mut mix = Cycle::new(&WEIGHTS, ctx.seed ^ 0x4745_4E52);
    let t_loop = Instant::now();
    let mut steps: Vec<Step> = Vec::new();
    let mut op0 = 0;
    for (i, rate) in RATES.into_iter().enumerate() {
        // A rate above the knee stops early on its backlog; one that
        // meets the limit ends the search. Each step but the last keeps
        // a tenth of the remaining time in reserve for a lower rate.
        let left = ctx.seconds - secs(t_loop);
        let dur = if i + 1 == RATES.len() {
            left
        } else {
            left * 0.9
        };
        let st = drive(
            &server,
            &inputs,
            &mut mix,
            rate,
            dur.max(0.05),
            &ctx.tracer,
            op0,
        );
        op0 += st.offered + 1;
        let pass = st.passes();
        out.note(
            &format!("rate {rate}/s"),
            format!(
                "{} offered, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, backlog max {}, shed {}, {}",
                st.offered,
                median(&st.lat_ms).unwrap_or(f64::NAN),
                quantile(&st.lat_ms, 0.95).unwrap_or(f64::NAN),
                quantile(&st.lat_ms, 0.99).unwrap_or(f64::NAN),
                st.backlog_max,
                st.shed,
                if st.aborted {
                    "stopped: backlog grew"
                } else if pass {
                    "meets the limit"
                } else {
                    "over the limit"
                }
            ),
        );
        steps.push(st);
        if pass {
            break;
        }
    }
    out.loop_s = secs(t_loop);
    let report = server.shutdown();

    let best = steps.iter().position(Step::passes);
    out.verdicts.push(Verdict::new(
        "serve-open some offered rate meets the p99 limit",
        best.is_some(),
        format!("p99 <= {P99_LIMIT_MS} ms, no backlog growth, no shedding"),
    ));
    if let Some(i) = best {
        let st = &steps[i];
        out.note("max_rps_offered", st.rate);
        out.op_ms = st.lat_ms.clone();
        out.op_flops = st.flops.clone();
        out.ops_per_s = Some(st.lat_ms.len() as f64 / st.span_s.max(f64::MIN_POSITIVE));
    }
    let mut samples: Vec<_> = steps
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.samples))
        .collect();
    for st in &steps {
        out.attempted += st.offered;
        out.failed += st.shed + st.failed;
    }
    out.verdicts.push(Verdict::new(
        "serve-open drained accounting",
        report.holds(),
        format!(
            "{} submitted, {} completed",
            report.submitted, report.completed
        ),
    ));
    let v = check_samples(&mut samples, &inputs, ctx.corrupt);
    out.verdict(&v.what, v.ok, v.detail);
    out
}

/// Per-layer probe on `serve-open`'s shapes: the tuner's search on a
/// fresh plan cache, then the server at one fixed rate with its metrics
/// registry armed.
pub fn layers(seed: u64, smoke: bool) -> (Metrics, Vec<Verdict>) {
    let mut m = Metrics::default();
    let cache = PlanCache::new(
        Tuner::new(TunerOptions {
            model_only: true,
            ..TunerOptions::for_host(&HostProfile::detect())
        }),
        HostFingerprint::detect(),
    );
    let tune_s: f64 = SHAPES
        .iter()
        .map(|d| timed(|| cache.get_or_tune(*d, Direction::Forward)).1)
        .sum();
    m.put("tuner.tune_ms", tune_s * 1e3, "ms");

    let inputs = Inputs::new(seed);
    let reg = Arc::new(Registry::new());
    let mut verdicts = Vec::new();
    let mut server = match setup(&inputs, Some(Arc::clone(&reg))) {
        Ok(s) => s,
        Err(e) => {
            verdicts.push(Verdict::new("serve probe set-up", false, e));
            return (m, verdicts);
        }
    };
    let before = server.stats().plan_cache;
    let mut mix = Cycle::new(&WEIGHTS, seed ^ 0x5052_4F42);
    let dur = if smoke { 0.3 } else { 2.0 };
    let st = drive(
        &server,
        &inputs,
        &mut mix,
        PROBE_RATE,
        dur,
        &Tracer::new(false),
        0,
    );
    let after = server.stats().plan_cache;
    let hist = |name: &str| reg.histogram(name).snapshot();
    let (queue, resolve, exec) = (
        hist("serve.queue_wait_ns"),
        hist("serve.plan_resolve_ns"),
        hist("serve.execute_ns"),
    );
    let ns_ms = |v: Option<u64>| v.map_or(f64::NAN, |x| x as f64 / 1e6);
    m.put(
        "serve.submit_us_p50",
        median(&st.submit_us).unwrap_or(f64::NAN),
        "us",
    );
    m.put("serve.queue_wait_ms_p50", ns_ms(queue.p50()), "ms");
    m.put("serve.queue_wait_ms_p99", ns_ms(queue.p99()), "ms");
    m.put(
        "serve.plan_resolve_us_p50",
        ns_ms(resolve.p50()) * 1e3,
        "us",
    );
    m.put("serve.execute_ms_p50", ns_ms(exec.p50()), "ms");
    m.put("serve.execute_ms_p99", ns_ms(exec.p99()), "ms");
    m.put(
        "serve.shed_ratio",
        st.shed as f64 / st.offered.max(1) as f64,
        "ratio",
    );
    m.put("serve.backlog_max", st.backlog_max as f64, "count");
    m.put(
        "serve.generator_lag_ms_p99",
        quantile(&st.lag_ms, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.put(
        "tuner.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let report = server.shutdown();
    verdicts.push(Verdict::new(
        "serve probe drained accounting",
        report.holds(),
        format!(
            "{} submitted, {} completed",
            report.submitted, report.completed
        ),
    ));
    (m, verdicts)
}
