//! `hostbench` — the repository benchmark.
//!
//! Four seeded workloads stress different layers of the library on the
//! host it runs on: `mem3d` (out-of-cache 3D FFTs), `small-mix`
//! (cache-resident library calls), `serve-open` (an open-loop
//! `FftServer`) and `ooc1d` (file-backed out-of-core 1D FFTs).
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hostbench --workload all  [--seed n] [--seconds s]   # every workload, timed then traced
//! hostbench --smoke                                    # seconds-long: every metric emitted?
//! hostbench --negative-control                         # corrupt one output: every check flags it?
//! ```
//!
//! A timed run (`--trace 0`) reports the end-to-end metrics with
//! tracing off. A traced run (`--trace 1`) runs the workload once
//! untraced and once with spans around every layer call (written to
//! `hostbench/out/`), reports the tracing overhead, and runs the
//! per-layer probes, each of which times one layer's public functions
//! on the shapes of the workload that layer belongs to. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod host;
mod mem3d;
mod names;
mod ooc1d;
mod serve_open;
mod small_mix;
mod spans;
mod util;
mod workload;

use std::path::PathBuf;
use util::{json_num, json_str, Metrics, Verdict};
use workload::{Ctx, Outcome};

const WORKLOADS: [&str; 4] = ["mem3d", "small-mix", "serve-open", "ooc1d"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    negative_control: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("hostbench: {msg}");
    eprintln!(
        "usage: hostbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         hostbench --smoke | --negative-control",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        negative_control: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => a.smoke = true,
            "--negative-control" => a.negative_control = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if a.smoke || a.negative_control {
        return a;
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        usage("--workload must name a workload or `all`");
    }
    a
}

fn out_dir() -> PathBuf {
    PathBuf::from("hostbench").join("out")
}

fn ctx(
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    traced: bool,
    smoke: bool,
    corrupt: bool,
) -> Ctx {
    Ctx {
        seed,
        seconds,
        setup_reps,
        tracer: spans::Tracer::new(traced),
        smoke,
        corrupt,
        out_dir: out_dir(),
    }
}

fn run_workload(name: &str, c: &Ctx) -> Outcome {
    match name {
        "mem3d" => mem3d::run(c),
        "small-mix" => small_mix::run(c),
        "serve-open" => serve_open::run(c),
        "ooc1d" => ooc1d::run(c),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Every per-layer probe, in a fixed order, on the given seed.
fn layer_probes(seed: u64, smoke: bool) -> (Metrics, Vec<Verdict>) {
    let mut m = Metrics::default();
    let mut v = Vec::new();
    m.extend(mem3d::layers(seed, smoke));
    m.extend(small_mix::layers(seed, smoke));
    let (serve, sv) = serve_open::layers(seed, smoke);
    m.extend(serve);
    v.extend(sv);
    let (ooc, ov) = ooc1d::layers(seed, smoke, &out_dir());
    m.extend(ooc);
    v.extend(ov);
    (m, v)
}

/// Result of one command-line run.
#[derive(Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    verdicts: Vec<Verdict>,
    metrics: Metrics,
}

impl RunResult {
    fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.verdicts.extend(o.verdicts.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.verdicts.iter().all(|v| v.ok)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_outcome(name: &str, o: &Outcome) {
    for (k, v) in &o.notes {
        eprintln!("[{name}] note {k} = {v}");
    }
    for v in &o.verdicts {
        eprintln!(
            "[{name}] check {} {}: {}",
            if v.ok { "ok  " } else { "FAIL" },
            v.what,
            v.detail
        );
    }
    eprintln!(
        "[{name}] {} ops measured, {} attempted, {} failed; p99 {:.4} ms with {} ops beyond it",
        o.op_ms.len(),
        o.attempted,
        o.failed,
        util::quantile(&o.op_ms, 0.99).unwrap_or(f64::NAN),
        o.beyond_p99(),
    );
}

fn print_metrics(prefix: &str, m: &Metrics) {
    for x in &m.0 {
        eprintln!("{prefix}{:<34} {:>14.4} {}", x.name, x.value, x.unit);
    }
}

/// Set-up repetitions of a timed pass: the cheap set-ups repeat more,
/// so their median is steady.
fn setup_reps(name: &str, smoke: bool) -> usize {
    match (smoke, name) {
        (true, _) => 1,
        (false, "small-mix" | "serve-open") => 15,
        (false, _) => 3,
    }
}

/// `--trace 0`: one timed pass.
fn timed_run(name: &str, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let c = ctx(seed, seconds, setup_reps(name, smoke), false, smoke, false);
    let o = run_workload(name, &c);
    print_outcome(name, &o);
    let mut r = RunResult::default();
    r.absorb(&o);
    r.metrics = o.end_to_end();
    r
}

/// An untraced and a traced pass of the workload, half of `seconds`
/// each: the overhead ratio, the span file and per-layer self times.
fn traced_passes(name: &str, seed: u64, seconds: f64, smoke: bool) -> (RunResult, f64) {
    let mut r = RunResult::default();
    let half = seconds / 2.0;
    let plain = run_workload(name, &ctx(seed, half, 1, false, smoke, false));
    print_outcome(name, &plain);
    r.absorb(&plain);
    let c = ctx(seed, half, 1, true, smoke, false);
    let traced = run_workload(name, &c);
    print_outcome(&format!("{name} traced"), &traced);
    r.absorb(&traced);

    let spans = c.tracer.spans();
    let path = out_dir().join(format!("spans-{name}-{seed}.json"));
    match spans::write_json(&path, name, seed, &spans) {
        Ok(()) => eprintln!(
            "[{name}] {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("[{name}] could not write spans: {e}"),
    }
    let ops = traced.attempted.max(1) as f64;
    for (layer, ms) in spans::layer_self_ms(&spans) {
        eprintln!(
            "[{name}] self time per op, summed over threads  {layer:<10} {:>12.4} ms",
            ms / ops
        );
    }
    (r, traced.op_ms_p50() / plain.op_ms_p50())
}

/// `--trace 1`: the traced passes, then every layer probe.
fn traced_run(name: &str, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let (mut r, ratio) = traced_passes(name, seed, seconds, smoke);
    let (mut m, verdicts) = layer_probes(seed, smoke);
    r.verdicts.extend(verdicts);
    m.put("trace.overhead_ratio", ratio, "ratio");
    r.metrics = m;
    r
}

/// Every workload: timed passes, then traced passes, then the probes;
/// every metric printed by name, prefixed with its workload where it
/// belongs to one.
fn run_all(seed: u64, seconds: f64) -> RunResult {
    let mut all = RunResult::default();
    let add = |all: &mut RunResult, r: RunResult, prefix: &str| {
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.verdicts.extend(r.verdicts);
        for m in r.metrics.0 {
            all.metrics
                .put(&format!("{prefix}{}", m.name), m.value, m.unit);
        }
    };
    for w in WORKLOADS {
        let r = timed_run(w, seed, seconds, false);
        add(&mut all, r, &format!("{w}."));
    }
    for w in WORKLOADS {
        let (mut r, ratio) = traced_passes(w, seed, seconds, false);
        r.metrics.put("trace.overhead_ratio", ratio, "ratio");
        add(&mut all, r, &format!("{w}."));
    }
    let (m, verdicts) = layer_probes(seed, false);
    add(
        &mut all,
        RunResult {
            verdicts,
            metrics: m,
            ..RunResult::default()
        },
        "",
    );
    all
}

/// `--smoke`: every workload in seconds, at reduced sizes, then the
/// metric names and units compared with the benchmark definition.
fn smoke(seed: u64) -> i32 {
    let mut missing = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let t = timed_run(w, seed, 0.5, true);
        missing.extend(names::missing(&t.metrics, names::Kind::EndToEnd, w));
        ok &= t.correct();
        let tr = traced_run(w, seed, 0.5, true);
        missing.extend(names::missing(&tr.metrics, names::Kind::PerLayer, w));
        ok &= tr.correct();
    }
    for m in &missing {
        eprintln!("smoke: {m}");
    }
    let pass = ok && missing.is_empty();
    println!(
        "smoke: {}",
        if pass {
            "every metric emitted with its unit; every check passed"
        } else {
            "FAILED"
        }
    );
    i32::from(!pass)
}

/// `--negative-control`: each workload with one output element
/// corrupted after a call; its check must flag the run.
fn negative_control(seed: u64) -> i32 {
    let mut all = true;
    for w in WORKLOADS {
        let c = ctx(seed, 0.5, 1, false, true, true);
        let o = run_workload(w, &c);
        print_outcome(w, &o);
        let flagged = o.failed > 0 && o.verdicts.iter().any(|v| !v.ok);
        println!(
            "negative-control {w}: {}",
            if flagged { "flagged" } else { "MISSED" }
        );
        all &= flagged;
    }
    i32::from(!all)
}

fn main() {
    let a = parse_args();
    if a.smoke {
        std::process::exit(smoke(a.seed));
    }
    if a.negative_control {
        std::process::exit(negative_control(a.seed));
    }
    let r = if a.workload == "all" {
        let r = run_all(a.seed, a.seconds);
        for v in &r.verdicts {
            println!("check {} {}", if v.ok { "ok  " } else { "FAIL" }, v.what);
        }
        for m in &r.metrics.0 {
            println!("{:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
        r
    } else if a.trace {
        traced_run(&a.workload, a.seed, a.seconds, false)
    } else {
        timed_run(&a.workload, a.seed, a.seconds, false)
    };
    print_metrics(&format!("[{}] ", a.workload), &r.metrics);
    println!("{}", r.json());
}
