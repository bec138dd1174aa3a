//! `bwfft-cli` — run and simulate bandwidth-efficient FFTs from the
//! command line.
//!
//! Every subcommand declares its flags once, in [`COMMANDS`]: name,
//! whether the flag takes a value, and a one-line help. Groups that
//! several subcommands share (the plan knobs, the execution knobs,
//! `--seed`, the serve load profile) are declared once and referenced.
//! The parser accepts exactly the declared flags of the subcommand it
//! parses for — anything else is a usage error (exit 2) — and the
//! usage text is generated from the same tables.
//!
//! `--profile` traces the run and prints the per-stage roofline/overlap
//! summary; `--profile=json` emits the versioned JSON trace report as
//! the **last line** of stdout instead. On `run`, `--machine` names the
//! preset whose STREAM bandwidth anchors the %-of-achievable column
//! (default: kabylake).
//!
//! `bench` runs the canonical statistical suite (DESIGN.md §9) and
//! writes a versioned `bwfft-bench/1` record to `BENCH_<gitrev>.json`.
//! With `--compare BASELINE` it then gates against a baseline record:
//! the human diff table goes to stdout, the machine-readable verdict
//! is the **last line** of stdout, and a significant regression makes
//! the exit code nonzero (this is what `scripts/perf_gate.sh` wires
//! into CI). `--current PATH` compares two existing files without
//! running anything; `--derate F` pretends the run was `F`× slower — a
//! self-test proving the gate trips. `--baseline-out PATH` switches to
//! *paired* measurement of the suite's own A/B pair: plain vs
//! integrity-guarded reps for the executor suites, metrics-off vs
//! metrics-on runs for `--suite serve`. The two sides are interleaved
//! rep by rep, so slow machine drift cancels out of the pair. Side A
//! goes to PATH, side B to `--out`, and B is gated against A
//! automatically (unless an explicit `--compare` overrides the
//! baseline; the serve pair gates medians only). This is how the
//! integrity- and metrics-overhead budgets in `scripts/verify.sh` are
//! enforced.
//!
//! `run --integrity` arms every integrity guard (buffer canaries,
//! per-block checksums, the whole-run Parseval check); `run --recover`
//! executes under the retry/backoff supervisor, which escalates
//! pipelined → fused → reference on repeated failure and prints the
//! recovery trail (also visible as `recovery` marks under
//! `--profile`). `soak` drives the randomized chaos harness for a
//! seeded number of iterations and fails (exit 1) on any contract
//! violation.
//!
//! `ooc` runs the out-of-core streaming tier (`bwfft-ooc`): a seeded
//! 1D transform staged through file-backed stores under a working
//! memory budget, verified by the sampled spot-check oracle and the
//! streamed Parseval identity. `--inject-io-fault read,1,0` arms a
//! one-shot storage fault (kind, stage index 0–4, block iteration) that
//! the stage-level retry ladder must absorb; the report line counts
//! `faults_hit` and retries so `scripts/verify.sh` can assert the
//! recovery actually happened.
//!
//! `ooc --workspace PATH` switches to the crash-safe lifecycle
//! (DESIGN.md §15): the run works in the named directory and commits a
//! durable `bwfft-ooc-journal/1` checkpoint record per completed block.
//! If the process dies — crash, OOM-kill, power cut, or the test-only
//! `--crash-at STAGE,BLOCK` abort — the workspace is kept and `ooc
//! --workspace PATH --resume` continues from the journal: it validates
//! the journaled plan and input fingerprint, re-verifies stored block
//! checksums per `--resume-verify` (default `sample:4`; `all` for
//! drills), skips completed work, and reruns at most the one in-flight
//! stage. The `resume:` report line carries the machine-parseable
//! skipped/re-verified/rework counters that `soak --ooc-kill`,
//! `tests/ooc_crash.rs` and the CI `ooc-crash` smoke assert. `workspace
//! gc` sweeps abandoned unnamed scratch directories; named checkpoint
//! workspaces are never touched. `soak --ooc-kill` runs the
//! kill/restart drill: child `ooc` processes aborted at seeded
//! (stage, block) points across all five stages, journals torn,
//! scratch blocks bit-flipped, then resumed — never wrong, never a
//! panic, rework bounded by one stage.
//!
//! `r2c` runs a real-input transform through the packed half-spectrum
//! path (DESIGN.md §13): r2c, the unnormalized c2r round-trip, the
//! packed-Parseval identity, and (with `--verify`) a differential
//! check against the reference tier. `conv` runs the planned *fused*
//! spectral convolution (`r2c → multiply fused into the merge stream →
//! c2r`) against a random kernel or — with `--impulse` — the unit
//! impulse, whose convolution must reproduce the input exactly;
//! `--verify` compares against the unfused reference pipeline and, on
//! small sizes, the direct O(n²) oracle. Both take the same plan and
//! execution groups as `run` and follow the §6 exit-code discipline.
//!
//! `serve` drives the overload-safe concurrent service
//! (`bwfft-serve`) with an open-loop request schedule and prints the
//! drained report: completions with p50/p99 latency, rejections by
//! reason, deadline misses, degradation-governor transitions. `bench
//! --suite serve` runs the same driver through the statistical harness
//! and writes a `bwfft-bench/1` record whose service row carries
//! requests/sec, p50/p99 and the outcome counts; `--compare` then
//! gates the p99 tail exactly like medians.
//!
//! `serve --metrics` arms the live registry and the flight recorder:
//! Prometheus text (or, with `--metrics=json`, one-line
//! `bwfft-metrics/1` JSON as stdout's **last line**) is emitted at the
//! end of the run, every `--metrics-every-ms` milliseconds while it is
//! running, and any `bwfft-flight/1` dumps the recorder captured
//! (breaker degradations, integrity trips, panics) are printed before
//! the final snapshot. `stat --from A.json --to B.json` diffs two
//! snapshot transcripts into per-second rates and interval
//! percentiles.
//!
//! ## Exit-code discipline
//!
//! | code | class | errors |
//! |------|-------|--------|
//! | 0 | success | — |
//! | 0 | serve drained | graceful drain: every submission got exactly one typed outcome; shed requests (`queue_full`, `byte_budget`, `pool_exhausted`, `breaker_open`, `shutting_down`) and `deadline-exceeded` outcomes are counted and reported, not faults |
//! | 1 | runtime fault | `WorkerPanicked`, `StageTimeout`, `Simulation`, `Integrity`, `Allocation`, failed verification, perf regression, soak contract violation, non-usage `Tuner`, every typed `ooc` failure (infeasible size/budget, exhausted stage ladder, oracle or Parseval mismatch, journal clobber/corruption, resume plan or fingerprint mismatch, scratch corruption) |
//! | 1 | serve fault | `Failed` request outcomes, drain accounting that does not balance, serve-soak contract violation |
//! | 2 | usage | `Plan`, `Config`, `InputLength`, `SocketMismatch`, bad-wisdom `Tuner`, malformed or undeclared flags, serve `InvalidRequest`/`InputLength` (malformed descriptors are the caller's fault, never load shedding) |
//!
//! The mapping is `BwfftError::is_usage()` / `ServeError::is_usage()`;
//! `exit_code_discipline` and `serve_exit_code_discipline` in the test
//! module assert it variant by variant. User errors print a one-line
//! typed message, never a backtrace.


use bwfft::baselines::{reference_impl, simulate_baseline, BaselineKind};
use bwfft::bench::compare::{compare, derate, verdict_json, GateConfig};
use bwfft::bench::measure::MeasureConfig;
use bwfft::bench::record::{bench_filename, read_file, write_file, BenchReport};
use bwfft::bench::run_suite;
use bwfft::bench::serve_bench::{run_open_loop, run_serve_suite, ServeBenchConfig};
use bwfft::bench::stats::StatsConfig;
use bwfft::bench::suite::SuiteKind;
use bwfft::core::exec_sim::{simulate, SimOptions};
use bwfft::core::{exec_real, Dims, ExecConfig, FftPlan, RetryPolicy, Supervisor};
use bwfft::kernels::Direction;
use bwfft::machine::stream::stream_triad;
use bwfft::machine::{presets, MachineSpec};
use bwfft::metrics::{FlightRecorder, MetricsSnapshot, Registry};
use bwfft::num::compare::{max_abs_error, rel_l2_error};
use bwfft::num::{signal, AlignedVec, Complex64};
use bwfft::ooc::{
    gc_stale, run_checkpointed, CheckpointRun, CrashMode, CrashPoint, OocConfig, OocFault,
    OocFaultKind, OracleConfig, ResumeVerify,
};
use bwfft::pipeline::{AdaptiveWatchdog, FaultPlan, IntegrityConfig, Role};
use bwfft::real::{packed_spectrum_energy, RealFftPlan, SpectralConvPlan};
use bwfft::serve::ServeError;
use bwfft::soak::{
    run_ooc_kill_soak, run_serve_soak, run_soak, OocKillSoakConfig, ServeSoakConfig, SoakConfig,
};
use bwfft::trace::TraceCollector;
use bwfft::tuner::{wisdom, HostFingerprint, PlanCache, Tuner, TunerOptions, Wisdom, WisdomLoad};
use bwfft::BwfftError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// CLI failure, split by whose fault it is: usage errors (exit 2,
/// usage text shown) vs runtime faults (exit 1, typed message only).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<BwfftError> for CliError {
    fn from(e: BwfftError) -> Self {
        if e.is_usage() {
            CliError::Usage(e.to_string())
        } else {
            CliError::Runtime(e.to_string())
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        // Malformed descriptors are the caller's fault (exit 2); load
        // shedding surfaced as an error is a runtime condition (exit 1).
        if e.is_usage() {
            CliError::Usage(e.to_string())
        } else {
            CliError::Runtime(e.to_string())
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Maps any typed library error that converts into [`BwfftError`] into
/// the CLI error discipline.
fn typed<E: Into<BwfftError>>(e: E) -> CliError {
    CliError::from(e.into())
}

fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            match find_command(&args) {
                Some((cmd, _)) => eprintln!("{}", command_usage(cmd)),
                None => eprintln!("{}", overview()),
            }
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy, Debug)]
enum Arg {
    /// A bare switch: `--verify`.
    Switch,
    /// A value in the next word: `--dims KxNxM` (the metavariable).
    Value(&'static str),
    /// A bare switch or a glued `=VALUE`: `--profile[=json]` (the
    /// choices). A separate-word value would be ambiguous with the
    /// next flag.
    Glued(&'static str),
}

/// One declared flag: its name without `--`, how it takes a value, and
/// a one-line help.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    arg: Arg,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        arg: Arg::Switch,
        help,
    }
}

const fn value(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        arg: Arg::Value(meta),
        help,
    }
}

const fn glued(name: &'static str, choices: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        arg: Arg::Glued(choices),
        help,
    }
}

const DIMS: Flag = value("dims", "KxNxM", "transform shape, NxM or KxNxM (required)");
const VERIFY: Flag = switch("verify", "check the result against the reference tier");
const PROFILE: Flag = glued("profile", "json", "print the per-stage trace report");

/// Plan group, shared by `run`, `r2c` and `conv`. `--inverse` is
/// declared apart: the real-input commands have no direction.
const PLAN: &[Flag] = &[
    DIMS,
    value("threads", "D,C", "data and compute threads (default 2,2)"),
    value("buffer", "B", "buffer half size in elements (default: planner's)"),
    switch("adapt", "degrade to what this host supports instead of failing"),
];
const INVERSE: &[Flag] = &[switch("inverse", "inverse (unnormalized) transform")];
/// Execution group, shared by `run`, `r2c` and `conv`.
const EXEC: &[Flag] = &[
    switch("integrity", "arm every integrity guard (canaries, checksums, Parseval)"),
    switch("recover", "run under the retry/escalation supervisor"),
    value("inject-panic", "ROLE,T,I", "panic thread T of ROLE (data|compute) at block I"),
    value("timeout-ms", "N", "stall budget per iteration (default: adaptive watchdog)"),
];
const SEED: &[Flag] = &[value("seed", "S", "input seed (default 42)")];
/// Open-loop load profile, shared by `serve` and `bench --suite serve`.
const SERVE_LOAD: &[Flag] = &[
    value("dims", "KxNxM", "request shape (default 16x32)"),
    value("buffer", "B", "buffer half size per request (default: planner's)"),
    value("threads", "D,C", "data and compute threads per request (default 1,1)"),
    value("requests", "N", "submissions (default 32)"),
    value("workers", "W", "server workers (default 2)"),
    value("queue-depth", "Q", "admission queue capacity (default 16)"),
    value("byte-budget", "BYTES", "admission byte budget"),
    value("deadline-ms", "N", "per-request deadline"),
    value("arrival-us", "N", "inter-arrival gap (default 0: one burst)"),
];
/// Executor-suite knobs of `bench`; the serve suite rejects them.
const BENCH_EXECUTOR: &[Flag] = &[
    value("reps", "N", "timed repetitions per case (default 5)"),
    value("warmup", "N", "untimed repetitions per case (default 2)"),
    value("machine", "NAME", "preset anchoring the STREAM roofline (default kabylake)"),
];

/// One subcommand: its name (with a positional subaction, if any), a
/// one-line summary, its flag groups, and its handler.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
    handler: fn(&Opts) -> Result<(), CliError>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "machines",
        about: "list the machine presets",
        flags: &[],
        handler: cmd_machines,
    },
    Command {
        name: "run",
        about: "plan, run and time a complex FFT on this host",
        flags: &[
            PLAN,
            INVERSE,
            EXEC,
            SEED,
            &[
                VERIFY,
                PROFILE,
                value("machine", "NAME", "preset anchoring the profile roofline"),
            ],
        ],
        handler: cmd_run,
    },
    Command {
        name: "simulate",
        about: "simulate a plan on a machine preset",
        flags: &[&[
            DIMS,
            value("machine", "NAME", "preset to simulate (required)"),
            value("sockets", "S", "sockets to use (default: all of the preset's)"),
            switch("baselines", "also simulate the MKL-like, FFTW-like and slab baselines"),
        ]],
        handler: cmd_simulate,
    },
    Command {
        name: "stream",
        about: "run the modeled STREAM triad on a machine preset",
        flags: &[&[value("machine", "NAME", "preset to measure (required)")]],
        handler: cmd_stream,
    },
    Command {
        name: "tune",
        about: "search the best plan for a shape, with plan cache and wisdom",
        flags: &[
            &[DIMS],
            INVERSE,
            &[
                switch("model-only", "rank candidates by the model, no timed trials"),
                switch("plan-stats", "print plan-cache hits, misses and evictions"),
                value("wisdom", "PATH", "load tuned plans from PATH, save them back"),
                PROFILE,
            ],
        ],
        handler: cmd_tune,
    },
    Command {
        name: "bench",
        about: "run the statistical bench suite, write BENCH json, gate it",
        flags: &[
            &[
                value("suite", "smoke|fast|full|serve", "suite to run (default smoke)"),
                value("out", "PATH", "record path (default BENCH_<gitrev>.json)"),
                value("baseline-out", "PATH", "run the suite's A/B pair; side A goes to PATH"),
                value("compare", "BASELINE", "gate the record against BASELINE"),
                value("current", "PATH", "with --compare: gate PATH, run nothing"),
                value("threshold", "PCT", "regression threshold in percent"),
                value("derate", "F", "pretend the run was F times slower (gate self-test)"),
            ],
            SEED,
            BENCH_EXECUTOR,
            SERVE_LOAD,
        ],
        handler: cmd_bench,
    },
    Command {
        name: "soak",
        about: "seeded chaos harness: never wrong, never a panic",
        flags: &[&[
            value("iters", "N", "iterations (default 200)"),
            value("seed", "S", "harness seed"),
            value("stall-ms", "N", "injected stall length"),
            switch("serve", "also run the concurrent serve overload matrix"),
            value("serve-iters", "N", "serve lifecycles"),
            switch("ooc-kill", "also run the out-of-core kill/restart drill"),
            value("ooc-dir", "PATH", "parent directory of the drill's workspaces"),
        ]],
        handler: cmd_soak,
    },
    Command {
        name: "serve",
        about: "open-loop request schedule against the concurrent service",
        flags: &[
            SERVE_LOAD,
            SEED,
            &[
                glued("metrics", "json|prom", "emit live metrics (default Prometheus text)"),
                value("metrics-every-ms", "N", "also emit a snapshot every N ms"),
            ],
        ],
        handler: cmd_serve,
    },
    Command {
        name: "stat",
        about: "diff two bwfft-metrics/1 snapshots into rates and percentiles",
        flags: &[&[
            value("from", "A.json", "earlier snapshot or transcript (required)"),
            value("to", "B.json", "later snapshot or transcript (required)"),
        ]],
        handler: cmd_stat,
    },
    Command {
        name: "ooc",
        about: "out-of-core 1D FFT through file-backed stores",
        flags: &[
            &[value("n", "N", "transform length (required)")],
            SEED,
            INVERSE,
            &[
                value("budget", "BYTES", "working memory budget"),
                value("bins", "K", "spot-check oracle bins"),
                value("threads", "D,C", "data and compute threads"),
                value("inject-io-fault", "KIND,STAGE,ITER", "one-shot read|write fault"),
                value("workspace", "PATH", "crash-safe run in PATH with a checkpoint journal"),
                switch("resume", "continue the journaled run in --workspace"),
                switch("keep-workspace", "keep --workspace after success"),
                value("resume-verify", "sample:K|all", "re-verification of journaled blocks"),
                value("crash-at", "STAGE,BLOCK", "abort after BLOCK of STAGE commits (drills)"),
            ],
        ],
        handler: cmd_ooc,
    },
    Command {
        name: "workspace gc",
        about: "sweep abandoned unnamed ooc scratch directories",
        flags: &[&[
            value("dir", "PATH", "directory to sweep (required)"),
            value("older-than-secs", "N", "age threshold (default 86400)"),
        ]],
        handler: cmd_workspace_gc,
    },
    Command {
        name: "r2c",
        about: "real-input transform through the packed half-spectrum path",
        flags: &[PLAN, EXEC, SEED, &[VERIFY]],
        handler: cmd_r2c,
    },
    Command {
        name: "conv",
        about: "fused spectral convolution of real fields",
        flags: &[
            PLAN,
            EXEC,
            SEED,
            &[VERIFY, switch("impulse", "convolve with the unit impulse (identity)")],
        ],
        handler: cmd_conv,
    },
];

/// The command `args` names (its words consumed) and the rest of `args`.
fn find_command(args: &[String]) -> Option<(&'static Command, &[String])> {
    COMMANDS.iter().find_map(|cmd| {
        let mut rest = args;
        for word in cmd.name.split(' ') {
            let (first, tail) = rest.split_first()?;
            if first != word {
                return None;
            }
            rest = tail;
        }
        Some((cmd, rest))
    })
}

/// `--name META` as the usage text shows it.
fn flag_token(f: &Flag) -> String {
    match f.arg {
        Arg::Switch => format!("--{}", f.name),
        Arg::Value(meta) => format!("--{} {meta}", f.name),
        Arg::Glued(choices) => format!("--{}[={choices}]", f.name),
    }
}

/// `bwfft-cli NAME [--flag ...]`, wrapped under the command name.
fn synopsis(cmd: &Command) -> String {
    let head = format!("  bwfft-cli {}", cmd.name);
    let indent = " ".repeat(head.len() + 1);
    let mut out = head.clone();
    let mut col = head.len();
    for f in cmd.flags() {
        let tok = format!("[{}]", flag_token(f));
        if col + 1 + tok.len() > 88 {
            out.push('\n');
            out.push_str(&indent);
            col = indent.len();
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(&tok);
        col += tok.len();
    }
    out
}

/// Usage of one subcommand: synopsis, summary, one line per flag.
fn command_usage(cmd: &Command) -> String {
    let mut out = format!("usage:\n{}\n\n{}\n", synopsis(cmd), cmd.about);
    for f in cmd.flags() {
        out.push_str(&format!("  {:<30} {}\n", flag_token(f), f.help));
    }
    out
}

/// Usage of every subcommand, shown when no command could be told.
fn overview() -> String {
    let mut out = String::from("usage:\n");
    for cmd in COMMANDS {
        out.push_str(&synopsis(cmd));
        out.push('\n');
    }
    out.push_str("machines: kabylake | haswell4770 | amdfx | haswell2667 | opteron6276");
    out
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(first) = args.first() else {
        return Err(usage("missing command"));
    };
    let Some((cmd, rest)) = find_command(args) else {
        return Err(usage(format!("unknown command `{first}`")));
    };
    let opts = parse_flags(cmd, rest).map_err(usage)?;
    (cmd.handler)(&opts)
}

/// The flags one subcommand was given. Handlers read only what their
/// table declares; debug builds assert it, so a table and its handler
/// cannot drift apart unnoticed.
struct Opts {
    cmd: &'static Command,
    values: HashMap<&'static str, String>,
}

impl Opts {
    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.flag(name).is_some(),
            "`{}` reads undeclared flag --{name}",
            self.cmd.name
        );
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| usage(format!("--{name} required")))
    }

    fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| usage(format!("bad --{name} `{v}`"))))
            .transpose()
    }

    /// [`Opts::parse`] for counts that must be at least 1.
    fn count(&self, name: &str) -> Result<Option<usize>, CliError> {
        match self.parse(name)? {
            Some(0) => Err(usage(format!("--{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    fn millis(&self, name: &str) -> Result<Option<Duration>, CliError> {
        Ok(self.parse(name)?.map(Duration::from_millis))
    }

    fn threads(&self) -> Result<Option<(usize, usize)>, CliError> {
        self.get("threads").map(parse_pair).transpose().map_err(usage)
    }

    fn direction(&self) -> Direction {
        if self.has("inverse") {
            Direction::Inverse
        } else {
            Direction::Forward
        }
    }

    fn seed(&self) -> Result<u64, CliError> {
        Ok(self.parse("seed")?.unwrap_or(42))
    }

    fn machine(&self) -> Result<Option<MachineSpec>, CliError> {
        self.get("machine").map(machine_by_name).transpose().map_err(usage)
    }
}

/// Parses `args` against `cmd`'s flag table. Any flag the table does
/// not declare is an error, as is `=VALUE` on a flag that is not glued.
fn parse_flags(cmd: &'static Command, args: &[String]) -> Result<Opts, String> {
    let mut values = HashMap::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        let Some(word) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let (name, glued_value) = match word.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (word, None),
        };
        let flag = cmd
            .flag(name)
            .ok_or_else(|| format!("`{}` takes no flag --{name}", cmd.name))?;
        let v = match (flag.arg, glued_value) {
            (Arg::Glued(_), v) => v.unwrap_or("").to_string(),
            (_, Some(_)) => return Err(format!("--{name} does not take `=VALUE`")),
            (Arg::Switch, None) => String::new(),
            (Arg::Value(_), None) => rest
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone(),
        };
        values.insert(flag.name, v);
    }
    Ok(Opts { cmd, values })
}

fn cmd_machines(_: &Opts) -> Result<(), CliError> {
    for spec in presets::all() {
        println!(
            "{:<36} {} sockets, {} threads, {} MB LLC, {} GB/s STREAM",
            spec.name,
            spec.sockets,
            spec.total_threads(),
            spec.llc().size_bytes >> 20,
            spec.total_dram_bw_gbs()
        );
    }
    Ok(())
}

fn cmd_stream(opts: &Opts) -> Result<(), CliError> {
    let spec = machine_by_name(opts.required("machine")?).map_err(usage)?;
    let r = stream_triad(&spec, 1 << 24);
    println!(
        "{}: triad {:.1} GB/s ({:.1} per socket)",
        spec.name, r.triad_gbs, r.per_socket_gbs
    );
    Ok(())
}

/// How `--metrics[=json|prom]` was requested: `None` = off,
/// `Some(false)` = Prometheus text (the bare default), `Some(true)` =
/// one-line `bwfft-metrics/1` JSON.
fn metrics_mode(opts: &Opts) -> Result<Option<bool>, CliError> {
    match opts.get("metrics") {
        None => Ok(None),
        Some("" | "prom") => Ok(Some(false)),
        Some("json") => Ok(Some(true)),
        Some(other) => Err(usage(format!(
            "bad --metrics format `{other}` (expected `--metrics`, `--metrics=json` or `--metrics=prom`)"
        ))),
    }
}

/// Renders one metrics snapshot in the requested exposition format.
/// JSON is one line so scripted consumers can take stdout's last line;
/// Prometheus text is the multi-line scrape page.
fn emit_metrics(snap: &MetricsSnapshot, json: bool) {
    if json {
        println!("{}", snap.to_json());
    } else {
        print!("{}", snap.to_prometheus());
    }
}

/// How `--profile[=json]` was requested: `None` = off,
/// `Some(false)` = human report, `Some(true)` = JSON export.
fn profile_mode(opts: &Opts) -> Result<Option<bool>, CliError> {
    match opts.get("profile") {
        None => Ok(None),
        Some("") => Ok(Some(false)),
        Some("json") => Ok(Some(true)),
        Some(other) => Err(usage(format!(
            "bad --profile format `{other}` (expected `--profile` or `--profile=json`)"
        ))),
    }
}

/// Renders a finished trace report in the requested format. JSON goes
/// out as a single line so scripted consumers can take stdout's last
/// line.
fn emit_profile(report: &bwfft::trace::TraceReport, json: bool) {
    if json {
        println!("{}", bwfft::trace::json::to_json(report));
    } else {
        println!("{report}");
    }
}

/// The plan group, parsed once for `run`, `r2c` and `conv`.
struct PlanFlags {
    dims: Dims,
    p_d: usize,
    p_c: usize,
    /// 0 lets the planner derive the buffer.
    buffer: usize,
    adapt: bool,
}

impl PlanFlags {
    fn parse(opts: &Opts) -> Result<Self, CliError> {
        let (p_d, p_c) = opts.threads()?.unwrap_or((2, 2));
        Ok(PlanFlags {
            dims: parse_dims(opts.required("dims")?).map_err(usage)?,
            p_d,
            p_c,
            buffer: opts.parse("buffer")?.unwrap_or(0),
            adapt: opts.has("adapt"),
        })
    }

    fn complex(&self, dir: Direction) -> Result<FftPlan, CliError> {
        let b = FftPlan::builder(self.dims)
            .threads(self.p_d, self.p_c)
            .buffer_elems(self.buffer)
            .direction(dir);
        let b = if self.adapt { b.adapt_to_host() } else { b };
        b.build().map_err(typed)
    }

    fn real(&self) -> Result<RealFftPlan, CliError> {
        let b = RealFftPlan::builder(self.dims)
            .threads(self.p_d, self.p_c)
            .buffer_elems(self.buffer);
        let b = if self.adapt { b.adapt_to_host() } else { b };
        b.build().map_err(typed)
    }
}

/// The execution group (`--inject-panic`, `--integrity`,
/// `--timeout-ms`), shared by `run`, `r2c` and `conv`; `--recover` is
/// read where the supervisor is chosen.
fn exec_cfg(opts: &Opts) -> Result<ExecConfig, CliError> {
    let mut exec_cfg = ExecConfig::default();
    if let Some(spec) = opts.get("inject-panic") {
        exec_cfg.fault = Some(parse_fault(spec).map_err(usage)?);
        bwfft::pipeline::fault::silence_injected_panic_reports();
    }
    if opts.has("integrity") {
        // Arm every guard: buffer canaries and per-block checksums in
        // the pipeline, plus the whole-run Parseval check.
        exec_cfg.integrity = IntegrityConfig::full();
        exec_cfg.verify_energy = true;
    }
    exec_cfg.iter_timeout = opts.millis("timeout-ms")?;
    if exec_cfg.iter_timeout.is_none() {
        // No explicit budget: arm the adaptive watchdog, which sizes
        // stall budgets from measured step times instead of a guess.
        // The raised floor tolerates scheduler hiccups on busy hosts.
        exec_cfg.adaptive_watchdog = Some(AdaptiveWatchdog {
            min: Duration::from_millis(250),
            ..AdaptiveWatchdog::default()
        });
    }
    Ok(exec_cfg)
}

/// Prints the recovery trail of one supervised leg.
fn print_recovery(rep: &bwfft::core::SupervisedReport, leg: &str) {
    if rep.recovered() {
        println!(
            "{leg}: recovered at the {} tier after {} attempt(s):",
            rep.tier, rep.attempts
        );
        for ev in &rep.events {
            println!("  {} {} attempt {}: {}", ev.action, ev.tier, ev.attempt, ev.error);
        }
    }
}

fn cmd_run(opts: &Opts) -> Result<(), CliError> {
    let plan = PlanFlags::parse(opts)?.complex(opts.direction())?;
    let mut exec_cfg = exec_cfg(opts)?;
    let seed = opts.seed()?;
    let profile = profile_mode(opts)?;
    let collector = profile.map(|_| Arc::new(TraceCollector::new()));
    exec_cfg.trace = collector.clone();
    let dims = plan.dims;
    let total = dims.total();
    println!(
        "running {} with {} data + {} compute threads, b = {} elems, {} pipeline iterations/stage",
        dims.label(),
        plan.p_d,
        plan.p_c,
        plan.buffer_elems,
        plan.iters_per_socket()
    );
    for d in &plan.degradations {
        println!("note: degraded to fused executor: {d}");
    }
    let mut data = AlignedVec::from_slice(&signal::random_complex(total, seed));
    let original = data.clone();
    let mut work = AlignedVec::<Complex64>::zeroed(total);
    let t0 = std::time::Instant::now();
    let (report, executor_label) = if opts.has("recover") {
        // Supervised execution: bounded retry/backoff per tier, then
        // escalation pipelined → fused → reference. The recovery trail
        // is printed here and (with --profile) exported as `recovery`
        // marks.
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = sup
            .run(&plan, &mut data, &mut work, &exec_cfg)
            .map_err(typed)?;
        print_recovery(&rep, "run");
        let label = rep.tier.to_string();
        (rep.exec.unwrap_or_default(), label)
    } else {
        let rep = exec_real::execute_with(&plan, &mut data, &mut work, &exec_cfg).map_err(typed)?;
        let label = format!("{:?}", rep.executor).to_lowercase();
        (rep, label)
    };
    let dt = t0.elapsed();
    let gflops = plan.pseudo_flops() / dt.as_nanos() as f64;
    println!(
        "done in {dt:.2?} — {gflops:.2} pseudo-Gflop/s on this host ({executor_label} executor)"
    );
    if report.pin_failures > 0 {
        println!(
            "warning: {}/{} pin requests not honored ({})",
            report.pin_failures,
            report.pin_status.len(),
            report
                .pin_status
                .iter()
                .map(|s| s.describe())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if opts.has("verify") {
        let mut reference = original.clone();
        match dims {
            Dims::Three { k, n, m } => {
                reference_impl::pencil_fft_3d(&mut reference, k, n, m, plan.dir)
            }
            Dims::Two { n, m } => reference_impl::pencil_fft_2d(&mut reference, n, m, plan.dir),
        }
        let err = rel_l2_error(&data, &reference);
        println!("verification vs pencil-pencil reference: rel L2 error = {err:.2e}");
        if err > 1e-11 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        println!("verification passed");
    }
    if let (Some(json), Some(collector)) = (profile, &collector) {
        // The %-of-achievable column needs a bandwidth roofline; use
        // the named preset's STREAM figure, defaulting to Kaby Lake.
        let named = opts.machine()?;
        let noted = if named.is_some() { "" } else { " (default; set --machine)" };
        let spec = named.unwrap_or_else(presets::kaby_lake_7700k);
        let bw = spec.total_dram_bw_gbs();
        if !json {
            println!("achievable bandwidth reference: {bw:.1} GB/s from {}{noted}", spec.name);
        }
        let rep =
            bwfft::core::profile::profile_report(collector, &plan, &executor_label, Some(bw));
        emit_profile(&rep, json);
    }
    Ok(())
}

/// `soak`: the seeded chaos harness. Every iteration runs a random
/// shape under a random fault (or none) with all integrity guards
/// armed and the supervisor in charge, then checks the output against
/// the pencil-pencil reference. The contract — every run is either
/// correct or a typed error, never a wrong answer, never a panic —
/// failing is exit code 1.
fn cmd_soak(opts: &Opts) -> Result<(), CliError> {
    let mut cfg = SoakConfig::default();
    cfg.iters = opts.count("iters")?.unwrap_or(cfg.iters);
    cfg.seed = opts.parse("seed")?.unwrap_or(cfg.seed);
    cfg.stall = opts.millis("stall-ms")?.unwrap_or(cfg.stall);
    println!(
        "soak: {} iteration(s), seed {:#x}, full fault matrix, integrity guards on",
        cfg.iters, cfg.seed
    );
    let report = run_soak(&cfg).map_err(CliError::from)?;
    println!("{}", report.render());
    if !report.holds() {
        return Err(CliError::Runtime(format!(
            "soak contract violated: {} silent corruption(s) in {} iteration(s)",
            report.silent_corruptions, report.iterations
        )));
    }
    println!("soak contract holds: never wrong, never a panic");
    if opts.has("serve") {
        // The concurrent overload matrix: burst arrivals, oversized
        // requests, injected faults mid-flight, shutdown races.
        let mut scfg = ServeSoakConfig {
            seed: cfg.seed,
            ..ServeSoakConfig::default()
        };
        scfg.iters = opts.count("serve-iters")?.unwrap_or(scfg.iters);
        println!(
            "serve soak: {} lifecycle(s), seed {:#x}, overload matrix \
             (burst / oversized / faults / shutdown races)",
            scfg.iters, scfg.seed
        );
        let sreport = run_serve_soak(&scfg).map_err(CliError::from)?;
        println!("{}", sreport.render());
        if !sreport.holds() {
            return Err(CliError::Runtime(format!(
                "serve soak contract violated: {} oracle mismatch(es), \
                 {} unbalanced lifecycle(s)",
                sreport.oracle_mismatches, sreport.unbalanced_lifecycles
            )));
        }
        println!("serve soak contract holds: one typed outcome per request, never wrong");
    }
    if opts.has("ooc-kill") {
        // The kill/restart drill: real child processes aborted
        // mid-stage, journals torn, scratch bit-flipped, then resumed.
        let mut kcfg = OocKillSoakConfig {
            seed: cfg.seed,
            ..OocKillSoakConfig::default()
        };
        kcfg.parent = opts.get("ooc-dir").map(PathBuf::from);
        println!(
            "ooc kill soak: {} kill/resume cycle(s), seed {:#x}, n = {}, \
             budget {} B (tamper matrix: torn tail / garbage tail / scratch flip)",
            kcfg.iters, kcfg.seed, kcfg.n, kcfg.budget_bytes
        );
        let kreport = run_ooc_kill_soak(&kcfg).map_err(runtime)?;
        println!("{}", kreport.render());
        if !kreport.holds() {
            return Err(CliError::Runtime(format!(
                "ooc kill soak contract violated: {} wrong answer(s), {} panic(s), \
                 {} unbounded rework, {} unexpected exit(s)",
                kreport.wrong_answers,
                kreport.panics,
                kreport.unbounded_rework,
                kreport.unexpected_child_exits
            )));
        }
        println!("ooc kill soak contract holds: never wrong, never a panic, bounded rework");
    }
    Ok(())
}

/// Builds the open-loop driver config from `serve` / `bench --suite
/// serve` flags.
fn serve_bench_config(opts: &Opts) -> Result<ServeBenchConfig, CliError> {
    let d = ServeBenchConfig::default();
    Ok(ServeBenchConfig {
        dims: opts.get("dims").map(parse_dims).transpose().map_err(usage)?.unwrap_or(d.dims),
        buffer_elems: opts.parse("buffer")?.unwrap_or(d.buffer_elems),
        threads: opts.threads()?.unwrap_or(d.threads),
        requests: opts.count("requests")?.unwrap_or(d.requests),
        workers: opts.count("workers")?.unwrap_or(d.workers),
        queue_capacity: opts.count("queue-depth")?.unwrap_or(d.queue_capacity),
        byte_budget: opts.parse("byte-budget")?.or(d.byte_budget),
        deadline: opts.millis("deadline-ms")?.or(d.deadline),
        arrival: opts.parse("arrival-us")?.map_or(d.arrival, Duration::from_micros),
        seed: opts.seed()?,
        ..d
    })
}

/// `serve`: throw an open-loop request schedule at the concurrent
/// service and print the drained report. A graceful drain — every
/// submission resolved to exactly one typed outcome — is exit 0 even
/// when requests were shed or timed out (that is the service working
/// as specified); `Failed` outcomes or unbalanced accounting are
/// exit 1.
fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let mut cfg = serve_bench_config(opts)?;
    let metrics_json = metrics_mode(opts)?;
    let every_ms = opts.count("metrics-every-ms")?;
    if every_ms.is_some() && metrics_json.is_none() {
        return Err(usage("--metrics-every-ms requires --metrics[=json|prom]"));
    }
    let registry = metrics_json.map(|_| Arc::new(Registry::new()));
    let flight = metrics_json.map(|_| FlightRecorder::new(16));
    cfg.metrics = registry.clone();
    cfg.flight = flight.clone();
    println!(
        "serve: {} open-loop request(s) of {} (b = {}), {} worker(s), queue depth {}{}{}{}",
        cfg.requests,
        cfg.dims.label(),
        match cfg.buffer_elems {
            0 => "planner's".to_string(),
            b => b.to_string(),
        },
        cfg.workers,
        cfg.queue_capacity,
        match cfg.byte_budget {
            Some(b) => format!(", byte budget {b}"),
            None => String::new(),
        },
        match cfg.deadline {
            Some(d) => format!(", deadline {d:?}"),
            None => String::new(),
        },
        if cfg.arrival.is_zero() {
            ", burst arrivals".to_string()
        } else {
            format!(", {:?} inter-arrival", cfg.arrival)
        },
    );
    // Periodic sink: a scraper thread prints live registry snapshots
    // while the open-loop schedule runs. Pool/plan-cache counters sync
    // on the pre-drain scrape; everything else updates live.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sink = match (&registry, every_ms) {
        (Some(reg), Some(ms)) => {
            let reg = Arc::clone(reg);
            let stop = Arc::clone(&stop);
            let json = metrics_json == Some(true);
            Some(std::thread::spawn(move || {
                let tick = Duration::from_millis(ms as u64);
                loop {
                    std::thread::sleep(tick);
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    emit_metrics(&reg.snapshot(), json);
                }
            }))
        }
        _ => None,
    };
    let run = run_open_loop(&cfg);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = sink {
        let _ = h.join();
    }
    let run = run.map_err(CliError::from)?;
    let rep = &run.report;
    let m = &run.metrics;
    println!(
        "drained in {:.2?}: {} completed ({} recovered), {} rejected, \
         {} deadline-exceeded, {} failed",
        run.elapsed, m.completed, rep.recovered_runs, m.rejected, m.deadline_exceeded, m.failed
    );
    let rj = &rep.rejected;
    if rj.total() > 0 {
        println!(
            "  shed by reason: queue_full {}, byte_budget {}, pool_exhausted {}, \
             breaker_open {}, shutting_down {}",
            rj.queue_full, rj.byte_budget, rj.pool_exhausted, rj.breaker_open, rj.shutting_down
        );
    }
    println!(
        "tiers: pipelined {}, fused {}, reference {}; breaker ended {:?} \
         ({} transition(s))",
        rep.tier_completed[0],
        rep.tier_completed[1],
        rep.tier_completed[2],
        rep.breaker_level,
        rep.breaker_transitions.len()
    );
    println!(
        "plan cache: hits={} misses={} evictions={}",
        rep.plan_cache.hits, rep.plan_cache.misses, rep.plan_cache.evictions
    );
    for t in &rep.breaker_transitions {
        println!("  {t}");
    }
    if m.completed > 0 {
        println!(
            "throughput {:.0} req/s; latency p50 {:.3} ms, p99 {:.3} ms",
            m.requests_per_sec,
            m.p50_ns / 1e6,
            m.p99_ns / 1e6
        );
    }
    if !rep.holds() {
        return Err(CliError::Runtime(format!(
            "serve accounting violated: {} admitted but {} outcome(s) delivered",
            rep.submitted,
            rep.outcomes()
        )));
    }
    if m.failed > 0 {
        return Err(CliError::Runtime(format!(
            "{} request(s) failed with typed errors",
            m.failed
        )));
    }
    println!("serve contract holds: every submission terminated with one typed outcome");
    if let Some(f) = &flight {
        let dumps = f.take_dumps();
        if !dumps.is_empty() {
            println!("flight recorder: {} dump(s)", dumps.len());
            for d in &dumps {
                if metrics_json == Some(true) {
                    println!("{}", d.to_json());
                } else {
                    println!(
                        "  {} at {} ns: {} request(s) captured",
                        d.trigger,
                        d.at_ns,
                        d.requests.len()
                    );
                }
            }
        }
    }
    // Final snapshot last, so `--metrics=json` consumers can take
    // stdout's last line.
    if let (Some(reg), Some(json)) = (&registry, metrics_json) {
        emit_metrics(&reg.snapshot(), json);
    }
    Ok(())
}

/// `stat`: diffs two `bwfft-metrics/1` snapshots (each file may be a
/// whole `serve --metrics=json` transcript — the last parseable line
/// wins) and pretty-prints the window as rates and interval
/// percentiles.
fn cmd_stat(opts: &Opts) -> Result<(), CliError> {
    let from = load_metrics_snapshot(opts.required("from")?)?;
    let to = load_metrics_snapshot(opts.required("to")?)?;
    let d = to.diff(&from);
    let secs = d.uptime_ns as f64 / 1e9;
    println!("window: {:.3} s", secs);
    if !d.counters.is_empty() {
        println!("{:<36} {:>12} {:>12}", "counter", "delta", "per-sec");
        for (name, v) in &d.counters {
            let rate = if secs > 0.0 { *v as f64 / secs } else { 0.0 };
            println!("{name:<36} {v:>12} {rate:>12.1}");
        }
    }
    if !d.gauges.is_empty() {
        println!("{:<36} {:>12}", "gauge", "now");
        for (name, v) in &d.gauges {
            println!("{name:<36} {v:>12.1}");
        }
    }
    if !d.histograms.is_empty() {
        println!(
            "{:<36} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p99", "max"
        );
        for (name, h) in &d.histograms {
            if h.count == 0 {
                continue;
            }
            println!(
                "{:<36} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.p50().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max
            );
        }
    }
    Ok(())
}

/// Reads the **last** line of `path` that parses as a
/// `bwfft-metrics/1` snapshot, so redirected `serve --metrics=json`
/// transcripts work unedited.
fn load_metrics_snapshot(path: &str) -> Result<MetricsSnapshot, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let mut last_err = None;
    for line in text.lines().rev() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match MetricsSnapshot::from_json(line) {
            Ok(snap) => return Ok(snap),
            Err(e) => last_err = last_err.or(Some(e)),
        }
    }
    Err(CliError::Runtime(match last_err {
        Some(e) => format!("{path}: no bwfft-metrics/1 snapshot line ({e})"),
        None => format!("{path}: empty file"),
    }))
}

/// `ooc`: the out-of-core streaming tier. Plans the four-step split for
/// a size that does not fit the working budget, streams it through
/// file-backed padded stores in a private workspace, and verifies with
/// the sampled spot-check + streamed-Parseval oracle. Typed failures
/// (infeasible budget, exhausted stage ladder, oracle mismatch) are
/// exit 1; malformed flags are exit 2.
fn cmd_ooc(opts: &Opts) -> Result<(), CliError> {
    let n: usize = opts.parse("n")?.ok_or_else(|| usage("--n required"))?;
    let mut cfg = OocConfig {
        dir: opts.direction(),
        ..OocConfig::default()
    };
    cfg.budget_bytes = opts.count("budget")?.unwrap_or(cfg.budget_bytes);
    if let Some((p_d, p_c)) = opts.threads()? {
        if p_d == 0 || p_c == 0 {
            return Err(usage("--threads counts must be at least 1"));
        }
        cfg.p_d = p_d;
        cfg.p_c = p_c;
    }
    if let Some(spec) = opts.get("inject-io-fault") {
        cfg.fault = Some(parse_io_fault(spec).map_err(usage)?);
    }
    let workspace = opts.get("workspace").map(PathBuf::from);
    let resume = opts.has("resume");
    let keep = opts.has("keep-workspace");
    if workspace.is_none()
        && (resume || keep || opts.has("resume-verify") || opts.has("crash-at"))
    {
        return Err(usage(
            "--resume/--keep-workspace/--resume-verify/--crash-at require --workspace PATH",
        ));
    }
    if let Some(v) = opts.get("resume-verify") {
        cfg.checkpoint.resume_verify = parse_resume_verify(v).map_err(usage)?;
    }
    if let Some(spec) = opts.get("crash-at") {
        cfg.checkpoint.crash = Some(parse_crash_point(spec).map_err(usage)?);
    }
    let mut oracle_cfg = OracleConfig::default();
    oracle_cfg.bins = opts.count("bins")?.unwrap_or(oracle_cfg.bins);
    let seed = opts.seed()?;
    println!(
        "ooc: n = {n} ({} {:?}), budget {} B, {}+{} threads, oracle {} bin(s), seed {seed}{}",
        fmt_bytes(n as u64 * 16),
        cfg.dir,
        cfg.budget_bytes,
        cfg.p_d,
        cfg.p_c,
        oracle_cfg.bins,
        match &cfg.fault {
            Some(f) => format!(
                ", injected {:?} fault at stage {} iter {}",
                f.kind, f.stage, f.iter
            ),
            None => String::new(),
        }
    );
    let out = match &workspace {
        Some(dir) => {
            println!(
                "checkpoint: workspace {} ({})",
                dir.display(),
                if resume { "resuming journal" } else { "fresh journal" }
            );
            let run = CheckpointRun { dir, resume, keep };
            run_checkpointed(n, seed, &cfg, &oracle_cfg, &run).map_err(|e| {
                eprintln!(
                    "note: workspace kept at {}; rerun with --resume to continue",
                    dir.display()
                );
                CliError::Runtime(e.to_string())
            })?
        }
        None => bwfft::ooc::run_generated(n, seed, &cfg, &oracle_cfg)
            .map_err(runtime)?,
    };
    let p = &out.plan;
    let r = &out.report;
    println!(
        "plan: {} × {} split, {} elems/half buffer ({} of data resident), \
         strides {}/{} cols",
        p.n1,
        p.n2,
        p.half_elems,
        fmt_bytes(p.half_elems as u64 * 16),
        p.stride_cols_n1,
        p.stride_cols_n2
    );
    println!(
        "streamed {} read + {} written in {:.2?} ({:.2} GB/s storage), \
         retries={} serial_fallbacks={} faults_hit={}",
        fmt_bytes(r.bytes_read),
        fmt_bytes(r.bytes_written),
        Duration::from_nanos(r.wall_ns),
        r.storage_gbs(),
        r.retries,
        r.serial_fallbacks,
        r.faults_hit
    );
    if workspace.is_some() {
        // Machine-parseable for the kill/restart harness and verify.sh.
        println!(
            "resume: resumed={} skipped_blocks={} reverified_blocks={} \
             rework_blocks={} resumed_bytes={}",
            r.resumed, r.skipped_blocks, r.reverified_blocks, r.rework_blocks, r.resumed_bytes
        );
    }
    let o = &out.oracle;
    println!(
        "oracle: {} bin(s), max |Δ| {:.2e} (tol {:.2e}); Parseval rel err {:.2e}",
        o.bins_checked, o.max_abs_err, o.tol, o.parseval_rel_err
    );
    println!("ooc contract holds: sampled spot-check and streamed Parseval agree");
    Ok(())
}

fn random_real_field(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = signal::SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// `r2c`: a real-input transform through the packed half-spectrum path
/// (DESIGN.md §13). Runs r2c on a seeded real field, round-trips it
/// through the unnormalized c2r, checks the packed-Parseval identity,
/// and with `--verify` also matches the spectrum against the reference
/// tier bin by bin. The bytes summary states the real-path win over
/// the complex path for the same logical transform.
fn cmd_r2c(opts: &Opts) -> Result<(), CliError> {
    let plan = PlanFlags::parse(opts)?.real()?;
    let exec_cfg = exec_cfg(opts)?;
    let seed = opts.seed()?;
    let n = plan.real_elems();
    // Complex path for the same logical transform: N complex in + N
    // complex out. Real path: N doubles in, N/2+rows packed bins out.
    let packed_bytes = 8 * n as u64 + 16 * plan.spectrum_elems() as u64;
    let complex_bytes = 32 * n as u64;
    println!(
        "r2c {} — {} packed bins vs {} complex bins; {} vs {} moved \
         ({:.1} vs 32.0 bytes/elem)",
        plan.dims().label(),
        plan.spectrum_elems(),
        n,
        fmt_bytes(packed_bytes),
        fmt_bytes(complex_bytes),
        packed_bytes as f64 / n as f64
    );
    let x = random_real_field(n, seed);
    let mut work = vec![Complex64::ZERO; plan.packed_elems()];
    let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
    let t0 = std::time::Instant::now();
    if opts.has("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = plan.r2c_supervised(&sup, &x, &mut work, &mut spec, &exec_cfg).map_err(typed)?;
        print_recovery(&rep, "r2c");
    } else {
        plan.r2c_with(&x, &mut work, &mut spec, &exec_cfg).map_err(typed)?;
    }
    let dt = t0.elapsed();
    println!("forward r2c done in {dt:.2?}");

    // Packed Parseval: N·Σx² must equal the weighted spectrum energy.
    let e_x: f64 = x.iter().map(|v| v * v).sum();
    let e_p = packed_spectrum_energy(&spec, plan.rows());
    let parseval_rel = (e_p - n as f64 * e_x).abs() / (n as f64 * e_x);
    println!("packed Parseval rel err = {parseval_rel:.2e}");
    if parseval_rel > 1e-9 {
        return Err(CliError::Runtime("packed Parseval identity FAILED".into()));
    }

    // Round trip: c2r(r2c(x)) must be N·x.
    let mut back = vec![0.0; n];
    plan.c2r(&spec, &mut work, &mut back).map_err(typed)?;
    bwfft::real::normalize(&mut back);
    let roundtrip_err = max_abs_diff(&back, &x);
    println!("c2r round-trip max |Δ| = {roundtrip_err:.2e}");
    if roundtrip_err > 1e-10 {
        return Err(CliError::Runtime("c2r round-trip FAILED".into()));
    }

    if opts.has("verify") {
        let mut want = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c_reference(&x, &mut want).map_err(typed)?;
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        let max_err = max_abs_error(&spec, &want) / scale;
        println!("verification vs reference tier: rel max err = {max_err:.2e}");
        if max_err > 1e-11 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        println!("verification passed");
    }
    println!("r2c contract holds: Parseval and round-trip verified on the packed path");
    Ok(())
}

/// `conv`: the planned fused spectral convolution. The kernel is a
/// seeded random field, or with `--impulse` the unit impulse — whose
/// circular convolution must reproduce the input exactly. `--verify`
/// compares against the unfused reference-tier pipeline (and on sizes
/// ≤ 4096 elements also the direct O(n²) oracle).
fn cmd_conv(opts: &Opts) -> Result<(), CliError> {
    let plan = PlanFlags::parse(opts)?.real()?;
    let exec_cfg = exec_cfg(opts)?;
    let seed = opts.seed()?;
    let n = plan.real_elems();
    let impulse = opts.has("impulse");
    let kernel: Vec<f64> = if impulse {
        let mut g = vec![0.0; n];
        g[0] = 1.0;
        g
    } else {
        random_real_field(n, seed.wrapping_add(1))
    };
    let dims_label = plan.dims().label();
    // Fused path traffic: fold (8N read), half-width transform, the
    // in-place multiply-merge, and the unfold (8N write) — the packed
    // product spectrum is never materialized. The complex path would
    // run three full-length transforms.
    println!(
        "conv {} with {} kernel — fused spectral path, {} packed bins \
         (product spectrum never materialized)",
        dims_label,
        if impulse { "impulse" } else { "random" },
        plan.spectrum_elems()
    );
    let conv = SpectralConvPlan::new(plan, &kernel)
        .map_err(typed)?;
    let x = random_real_field(n, seed);
    let mut got = x.clone();
    let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
    let t0 = std::time::Instant::now();
    if opts.has("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = conv.convolve_supervised(&sup, &mut got, &mut work, &exec_cfg).map_err(typed)?;
        print_recovery(&rep.forward, "forward leg");
        print_recovery(&rep.inverse, "inverse leg");
        if rep.recovered() {
            println!(
                "recovered at the {} tier after {} attempt(s)",
                rep.worst_tier(),
                rep.attempts()
            );
        }
    } else {
        conv.convolve_with(&mut got, &mut work, &exec_cfg).map_err(typed)?;
    }
    let dt = t0.elapsed();
    println!("fused convolution done in {dt:.2?}");

    if impulse {
        // conv(x, δ) == x, exactly (to round-off).
        let max_err = max_abs_diff(&got, &x);
        println!("impulse identity max |Δ| = {max_err:.2e}");
        if max_err > 1e-10 {
            return Err(CliError::Runtime("impulse identity FAILED".into()));
        }
    }
    if opts.has("verify") {
        // Unfused reference pipeline: r2c both operands on the
        // reference tier, multiply the packed spectra, c2r, /N.
        let plan = conv.plan();
        let mut xs = vec![Complex64::ZERO; plan.spectrum_elems()];
        let mut gs = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c_reference(&x, &mut xs).map_err(typed)?;
        plan.r2c_reference(&kernel, &mut gs).map_err(typed)?;
        for (a, b) in xs.iter_mut().zip(&gs) {
            *a *= *b;
        }
        let mut want = vec![0.0; n];
        plan.c2r_reference(&xs, &mut want).map_err(typed)?;
        bwfft::real::normalize(&mut want);
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        let rel_err = max_abs_diff(&got, &want) / scale;
        println!("verification vs unfused reference pipeline: rel max err = {rel_err:.2e}");
        if rel_err > 1e-10 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        if n <= 4096 {
            let direct = conv_direct_nd(&x, &kernel, conv.plan().dims());
            let d_err = max_abs_diff(&got, &direct) / scale;
            println!("verification vs direct O(n²) oracle: rel max err = {d_err:.2e}");
            if d_err > 1e-9 {
                return Err(CliError::Runtime("direct-oracle verification FAILED".into()));
            }
        }
        println!("verification passed");
    }
    println!("conv contract holds: fused spectral convolution verified");
    Ok(())
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

/// Direct multidimensional circular convolution, the O(n²) oracle for
/// `conv --verify` on small sizes.
fn conv_direct_nd(x: &[f64], g: &[f64], dims: Dims) -> Vec<f64> {
    let shape: Vec<usize> = match dims {
        Dims::Two { n, m } => vec![n, m],
        Dims::Three { k, n, m } => vec![k, n, m],
    };
    let total: usize = shape.iter().product();
    let strides: Vec<usize> = {
        let mut s = vec![1usize; shape.len()];
        for i in (0..shape.len() - 1).rev() {
            s[i] = s[i + 1] * shape[i + 1];
        }
        s
    };
    let coords = |mut idx: usize| -> Vec<usize> {
        shape
            .iter()
            .zip(&strides)
            .map(|(_, &st)| {
                let c = idx / st;
                idx %= st;
                c
            })
            .collect()
    };
    let mut out = vec![0.0; total];
    for (i, o) in out.iter_mut().enumerate() {
        let ci = coords(i);
        for (j, xj) in x.iter().enumerate() {
            let cj = coords(j);
            let gi: usize = ci
                .iter()
                .zip(&cj)
                .zip(shape.iter().zip(&strides))
                .map(|((&a, &b), (&d, &st))| ((d + a - b) % d) * st)
                .sum();
            *o += xj * g[gi];
        }
    }
    out
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Parses `KIND,STAGE,ITER` (e.g. `read,1,0`) into a one-shot storage
/// fault for the ooc tier.
fn parse_io_fault(s: &str) -> Result<OocFault, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [kind, stage, iter] = parts[..] else {
        return Err("--inject-io-fault needs KIND,STAGE,ITER".into());
    };
    let kind = match kind {
        "read" => OocFaultKind::Read,
        "write" => OocFaultKind::Write,
        other => return Err(format!("bad fault kind `{other}` (read|write)")),
    };
    let stage: usize = stage.parse().map_err(|_| "bad fault stage".to_string())?;
    if stage >= bwfft::ooc::STAGE_NAMES.len() {
        return Err(format!(
            "fault stage {stage} out of range (0..{})",
            bwfft::ooc::STAGE_NAMES.len() - 1
        ));
    }
    let iter = iter.parse().map_err(|_| "bad fault iter".to_string())?;
    Ok(OocFault { stage, iter, kind })
}

/// Parses `sample:K` or `all` into a resume re-verification policy.
fn parse_resume_verify(s: &str) -> Result<ResumeVerify, String> {
    if s == "all" {
        return Ok(ResumeVerify::All);
    }
    if let Some(k) = s.strip_prefix("sample:") {
        let k: usize = k
            .parse()
            .map_err(|_| "bad --resume-verify sample count".to_string())?;
        if k == 0 {
            return Err("--resume-verify sample count must be at least 1".into());
        }
        return Ok(ResumeVerify::Sample(k));
    }
    Err(format!("bad --resume-verify `{s}` (sample:K|all)"))
}

/// Parses `STAGE,BLOCK` into an abort-mode crash point: the process
/// genuinely dies mid-stage, which is what the kill/restart drill and
/// the CI crash smoke need.
fn parse_crash_point(s: &str) -> Result<CrashPoint, String> {
    let (stage, block) = s.split_once(',').ok_or("--crash-at needs STAGE,BLOCK")?;
    let stage: usize = stage.parse().map_err(|_| "bad crash stage".to_string())?;
    if stage >= bwfft::ooc::STAGE_NAMES.len() {
        return Err(format!(
            "crash stage {stage} out of range (0..{})",
            bwfft::ooc::STAGE_NAMES.len() - 1
        ));
    }
    let block = block.parse().map_err(|_| "bad crash block".to_string())?;
    Ok(CrashPoint {
        stage,
        block,
        mode: CrashMode::Abort,
    })
}

/// `workspace gc`: sweep abandoned `bwfft-ooc-*` scratch directories
/// under `--dir` whose last write is older than the threshold. Named
/// checkpoint workspaces (kept on crash for resume) are never touched.
fn cmd_workspace_gc(opts: &Opts) -> Result<(), CliError> {
    let dir = PathBuf::from(opts.required("dir")?);
    let secs: u64 = opts.parse("older-than-secs")?.unwrap_or(24 * 3600);
    let removed = gc_stale(&dir, Duration::from_secs(secs)).map_err(runtime)?;
    for p in &removed {
        println!("removed {}", p.display());
    }
    println!(
        "workspace gc: {} stale workspace(s) removed under {} (threshold {secs}s)",
        removed.len(),
        dir.display()
    );
    Ok(())
}

/// Parses `ROLE,THREAD,ITER` (e.g. `compute,0,3`) into a fault plan.
fn parse_fault(s: &str) -> Result<FaultPlan, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [role, thread, iter] = parts[..] else {
        return Err("--inject-panic needs ROLE,THREAD,ITER".into());
    };
    let role = match role {
        "data" => Role::Data,
        "compute" => Role::Compute,
        other => return Err(format!("bad role `{other}` (data|compute)")),
    };
    let thread = thread.parse().map_err(|_| "bad fault thread".to_string())?;
    let iter = iter.parse().map_err(|_| "bad fault iter".to_string())?;
    Ok(FaultPlan::panic_at(role, thread, iter))
}


/// `tune`: search for the best plan for a shape, demonstrate the cache
/// hit on a repeated request, and optionally persist/reuse wisdom.
fn cmd_tune(opts: &Opts) -> Result<(), CliError> {
    let dims = parse_dims(opts.required("dims")?).map_err(usage)?;
    let dir = opts.direction();
    let profile = profile_mode(opts)?;
    let collector = profile.map(|_| Arc::new(TraceCollector::new()));
    let fp = HostFingerprint::detect();
    let mut tuner_opts = TunerOptions::for_host(&bwfft::core::HostProfile::detect());
    if opts.has("model-only") {
        tuner_opts.model_only = true;
    }
    if let Some(c) = &collector {
        tuner_opts.trace = Some(Arc::clone(c));
    }
    let cache = PlanCache::new(Tuner::new(tuner_opts), fp.clone());

    let wisdom_path = opts.get("wisdom").map(PathBuf::from);
    if let Some(path) = &wisdom_path {
        // Version/host mismatch and missing files are typed re-tune
        // reasons, not failures; only unreadable/corrupt files warn.
        match wisdom::load(path, &fp) {
            Ok(WisdomLoad::Usable(w)) => {
                let mut seeded = 0usize;
                for rec in &w.records {
                    match cache.seed(rec) {
                        Ok(()) => seeded += 1,
                        Err(e) => println!("warning: wisdom record skipped: {e}"),
                    }
                }
                println!("wisdom: loaded {seeded} tuned plan(s) from {}", path.display());
            }
            Ok(WisdomLoad::Retune(reason)) => {
                println!("wisdom: tuning from scratch ({reason})");
            }
            Err(e) => println!("warning: wisdom unusable, tuning from scratch: {e}"),
        }
    }

    let had_wisdom = cache.contains(dims, dir);
    let t0 = std::time::Instant::now();
    let _plan = cache
        .get_or_tune(dims, dir)
        .map_err(typed)?;
    if had_wisdom {
        println!("tuning skipped (wisdom hit) for {} {dir:?}", dims.label());
    } else {
        println!("tuned {} {dir:?} in {:.2?}", dims.label(), t0.elapsed());
    }
    // A second request for the same shape must be served from the
    // cache — this is what `--plan-stats` makes observable.
    let _again = cache
        .get_or_tune(dims, dir)
        .map_err(typed)?;
    if let Some(rec) = cache
        .export_records()
        .into_iter()
        .find(|r| r.dims == dims && r.dir == dir)
    {
        println!("best: {}", rec.describe());
    }
    if opts.has("plan-stats") {
        let s = cache.stats();
        println!(
            "plan cache: hits={} misses={} evictions={}",
            s.hits, s.misses, s.evictions
        );
    }
    if let Some(path) = &wisdom_path {
        let mut w = Wisdom::new(fp);
        w.records = cache.export_records();
        wisdom::save(path, &w).map_err(typed)?;
        println!("wisdom: saved {} plan(s) to {}", w.records.len(), path.display());
    }
    if let (Some(json), Some(collector)) = (profile, &collector) {
        // Tuning produces telemetry marks (one per timed trial plus
        // the winner), not stage spans; aggregate with empty stage
        // metadata so the report carries just the marks.
        let meta = bwfft::trace::RunMeta {
            label: dims.label(),
            executor: "tuner".to_string(),
            stream_gbs: None,
            stage_io: Vec::new(),
        };
        let rep = bwfft::trace::aggregate(&collector.take_events(), &meta);
        emit_profile(&rep, json);
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), CliError> {
    let dims = parse_dims(opts.required("dims")?).map_err(usage)?;
    let spec = machine_by_name(opts.required("machine")?).map_err(usage)?;
    let sockets: usize = opts.parse("sockets")?.unwrap_or(spec.sockets);
    let p = spec.total_threads() * sockets / spec.sockets;
    let plan = FftPlan::builder(dims)
        .buffer_elems(spec.default_buffer_elems())
        .threads(p / 2, p - p / 2)
        .sockets(sockets)
        .build()
        .map_err(typed)?;
    let r = simulate(&plan, &spec, &SimOptions::default())
        .map_err(typed)?;
    println!("{}", r.report);
    for s in &r.stages {
        println!(
            "  stage {}: {:.2} ms, {:.2} GB DRAM, {:.2} GB link",
            s.stage,
            s.time_ns / 1e6,
            s.dram_bytes / 1e9,
            s.link_bytes / 1e9
        );
    }
    if opts.has("baselines") {
        for kind in [BaselineKind::MklLike, BaselineKind::FftwLike, BaselineKind::SlabPencil] {
            let b = simulate_baseline(kind, dims, &spec);
            println!("{b}");
        }
    }
    Ok(())
}

/// `bench`: run the canonical statistical suite, write the versioned
/// `BENCH_*.json` record, and optionally gate against a baseline. With
/// both `--compare` and `--current` nothing is run — the two existing
/// files are compared directly (the CI gate's replay mode). `--suite
/// serve` routes through the open-loop driver instead of the executor
/// measurement loop; its single-row record's service columns carry
/// requests/sec, p50/p99 and the outcome counts, and the p99 tail is
/// threshold-gated like medians.
fn cmd_bench(opts: &Opts) -> Result<(), CliError> {
    let gate = GateConfig {
        threshold_pct: opts
            .parse("threshold")?
            .unwrap_or(GateConfig::default().threshold_pct),
        ..GateConfig::default()
    };
    let derate_factor: Option<f64> = opts.parse("derate")?;

    // Replay mode: compare two existing BENCH files, run nothing.
    if let Some(cur_path) = opts.get("current") {
        let replay = ["current", "compare", "threshold", "derate"];
        if let Some(f) = opts.cmd.flags().find(|f| opts.has(f.name) && !replay.contains(&f.name)) {
            return Err(usage(format!("--{} does not apply to a --current replay", f.name)));
        }
        let base_path = opts
            .get("compare")
            .ok_or_else(|| usage("--current requires --compare BASELINE"))?;
        let base = load_bench(base_path)?;
        let mut cur = load_bench(cur_path)?;
        if let Some(f) = derate_factor {
            derate(&mut cur, f);
        }
        return finish_compare(&base, &cur, &gate);
    }

    let serve = opts.get("suite") == Some("serve");
    let (suite_name, foreign) = if serve {
        ("serve", BENCH_EXECUTOR)
    } else {
        ("executor", SERVE_LOAD)
    };
    if let Some(f) = foreign.iter().find(|f| opts.has(f.name)) {
        return Err(usage(format!("--{} does not apply to the {suite_name} suite", f.name)));
    }
    let baseline_out = opts.get("baseline-out").map(PathBuf::from);
    let paired = baseline_out.is_some();
    let stats = StatsConfig::default();
    let (a, b) = if serve {
        let cfg = serve_bench_config(opts)?;
        println!(
            "bench: serve suite, {} open-loop request(s) of {}, {} worker(s), seed {}{}",
            cfg.requests,
            cfg.dims.label(),
            cfg.workers,
            cfg.seed,
            if paired { ", paired metrics-off/metrics-on runs" } else { "" }
        );
        run_serve_suite(&cfg, &stats, paired)
    } else {
        let kind = match opts.get("suite") {
            None => SuiteKind::Smoke,
            Some(s) => SuiteKind::parse(s)
                .ok_or_else(|| usage(format!("unknown --suite `{s}` (smoke|fast|full|serve)")))?,
        };
        let defaults = MeasureConfig::default();
        let mcfg = MeasureConfig {
            reps: opts.count("reps")?.unwrap_or(defaults.reps),
            warmup: opts.parse("warmup")?.unwrap_or(defaults.warmup),
            seed: opts.seed()?,
        };
        let anchor = opts.machine()?.unwrap_or_else(presets::kaby_lake_7700k);
        println!(
            "bench: {} suite, {} reps + {} warmup, seed {}, STREAM roofline {:.1} GB/s ({}){}",
            kind.label(),
            mcfg.reps,
            mcfg.warmup,
            mcfg.seed,
            anchor.total_dram_bw_gbs(),
            anchor.name,
            if paired { ", paired plain/guarded reps" } else { "" }
        );
        run_suite(kind, &mcfg, &stats, &anchor, paired, true)
    }
    .map_err(runtime)?;
    // A paired run's side A is the baseline half; side B is the record.
    let (mut report, baseline) = match b {
        Some(b) => (b, Some(a)),
        None => (a, None),
    };
    if let (Some(path), Some(base)) = (&baseline_out, &baseline) {
        write_file(path, base).map_err(runtime)?;
        println!("wrote {} (baseline half of the pair)", path.display());
    }
    if let Some(f) = derate_factor {
        derate(&mut report, f);
        println!("note: record derated {f}x (gate self-test)");
    }
    for s in &report.suites {
        if let Some(m) = &s.serve {
            println!(
                "  {:<34} {:.0} req/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
                 ({} completed, {} rejected, {} deadline-exceeded, {} failed)",
                s.key,
                m.requests_per_sec,
                m.p50_ns / 1e6,
                m.p99_ns / 1e6,
                m.completed,
                m.rejected,
                m.deadline_exceeded,
                m.failed
            );
        }
    }
    let out = opts
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(bench_filename(&report.git_rev)));
    write_file(&out, &report).map_err(runtime)?;
    println!("wrote {} ({} suites, rev {})", out.display(), report.suites.len(), report.git_rev);
    if let Some(base_path) = opts.get("compare") {
        return finish_compare(&load_bench(base_path)?, &report, &gate);
    }
    match baseline {
        // The serve pair gates medians only: the claim under test is
        // median overhead, and a single run's p99 is a point estimate
        // that would flake on scheduler outliers.
        Some(base) => finish_compare(
            &base,
            &report,
            &GateConfig {
                median_only: serve,
                ..gate
            },
        ),
        None => Ok(()),
    }
}

fn load_bench(path: &str) -> Result<BenchReport, CliError> {
    read_file(Path::new(path)).map_err(runtime)
}

/// Prints the human diff table, then the machine-readable verdict as
/// the last stdout line, and turns a failed gate into a nonzero exit
/// whose message names every regressed suite and stage.
fn finish_compare(
    base: &BenchReport,
    cur: &BenchReport,
    gate: &GateConfig,
) -> Result<(), CliError> {
    let cmp = compare(base, cur, gate);
    println!("{cmp}");
    println!("{}", verdict_json(&cmp));
    if cmp.gate_passes() {
        Ok(())
    } else {
        Err(CliError::Runtime(cmp.failure_summary()))
    }
}


fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Vec<usize> = s
        .split('x')
        .map(|p| p.parse().map_err(|_| format!("bad dimension `{p}`")))
        .collect::<Result<_, _>>()?;
    match parts[..] {
        [n, m] => Ok(Dims::d2(n, m)),
        [k, n, m] => Ok(Dims::d3(k, n, m)),
        _ => Err("dims must be NxM or KxNxM".into()),
    }
}

fn parse_pair(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s.split_once(',').ok_or("threads must be D,C")?;
    Ok((
        a.parse().map_err(|_| "bad thread count")?,
        b.parse().map_err(|_| "bad thread count")?,
    ))
}

fn machine_by_name(name: &str) -> Result<MachineSpec, String> {
    match name {
        "kabylake" => Ok(presets::kaby_lake_7700k()),
        "haswell4770" => Ok(presets::haswell_4770k()),
        "amdfx" => Ok(presets::amd_fx_8350()),
        "haswell2667" => Ok(presets::haswell_2667v3_2s()),
        "opteron6276" => Ok(presets::amd_opteron_6276_2s()),
        other => Err(format!("unknown machine `{other}` (see `bwfft-cli machines`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn is_usage(words: &[&str]) -> bool {
        matches!(run(&argv(words)), Err(CliError::Usage(_)))
    }

    #[allow(clippy::expect_used)]
    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("command in table")
    }

    #[test]
    fn dims_parse() {
        assert_eq!(parse_dims("64x32").unwrap(), Dims::d2(64, 32));
        assert_eq!(parse_dims("8x16x32").unwrap(), Dims::d3(8, 16, 32));
        assert!(parse_dims("8").is_err());
        assert!(parse_dims("axb").is_err());
    }

    #[test]
    fn flags_parse() {
        let args = argv(&["--dims", "8x8x8", "--verify", "--threads", "2,2"]);
        let f = parse_flags(command("run"), &args).unwrap();
        assert_eq!(f.get("dims"), Some("8x8x8"));
        assert!(f.has("verify"));
        assert!(!f.has("inverse"));
        assert_eq!(f.threads().unwrap(), Some((2, 2)));
        // A value flag at the end of the line has no value.
        assert!(parse_flags(command("run"), &argv(&["--dims"])).is_err());
        assert!(parse_flags(command("run"), &argv(&["8x8"])).is_err());
    }

    #[test]
    fn machine_lookup() {
        assert!(machine_by_name("kabylake").is_ok());
        assert!(machine_by_name("nonesuch").is_err());
    }

    #[test]
    fn run_command_executes_and_verifies() {
        run(&argv(&["run", "--dims", "8x8x16", "--threads", "1,1", "--verify"])).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run(&["frobnicate".to_string()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn adapted_run_degrades_instead_of_failing() {
        // On any host (including 1-CPU CI) --adapt must succeed; on a
        // weak host it falls back to the fused executor.
        run(&argv(&["run", "--dims", "8x8x8", "--threads", "2,2", "--adapt"])).unwrap();
    }

    #[test]
    fn injected_panic_is_a_runtime_error_not_a_crash() {
        let args = argv(&[
            "run", "--dims", "8x8x16", "--threads", "1,1",
            "--inject-panic", "compute,0,1", "--timeout-ms", "2000",
        ]);
        match run(&args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("panicked at block 1"), "{msg}");
            }
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn exit_code_discipline() {
        // The doc-comment table, asserted variant by variant: integrity
        // trips and allocation refusals are runtime faults (exit 1),
        // never usage errors (exit 2).
        use bwfft::core::PlanError;
        use bwfft::num::AllocError;
        use bwfft::pipeline::IntegrityKind;
        let e = CliError::from(BwfftError::Integrity {
            stage: 1,
            block: 3,
            kind: IntegrityKind::Checksum,
        });
        assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        let e = CliError::from(BwfftError::Allocation(AllocError {
            what: "double buffer",
            bytes: 1 << 40,
        }));
        assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        let e = CliError::from(BwfftError::Plan(PlanError::NotPow2("n", 12)));
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
    }

    #[test]
    fn recovering_run_survives_a_fault_that_kills_both_executors() {
        // compute thread 0 at block 1 bites the pipelined AND the fused
        // executor; --recover escalates to the reference tier and
        // --verify proves the answer is still right.
        run(&argv(&[
            "run", "--dims", "8x8x16", "--threads", "2,2",
            "--integrity", "--recover", "--verify",
            "--inject-panic", "compute,0,1", "--timeout-ms", "2000",
        ])).unwrap();
    }

    #[test]
    fn soak_subcommand_smoke() {
        run(&argv(&["soak", "--iters", "8", "--seed", "7"])).unwrap();
        // Bad iteration counts are usage errors.
        assert!(is_usage(&["soak", "--iters", "0"]));
    }

    #[test]
    fn soak_serve_matrix_smoke() {
        run(&argv(&[
            "soak", "--iters", "4", "--seed", "7", "--serve", "--serve-iters", "4",
        ])).unwrap();
        assert!(is_usage(&["soak", "--iters", "4", "--serve", "--serve-iters", "0"]));
    }

    #[test]
    fn serve_exit_code_discipline() {
        // The serve rows of the doc-comment table, variant by variant:
        // every load-shedding rejection is a runtime condition (exit
        // 1) when surfaced as an error; malformed descriptors are
        // usage (exit 2); a graceful drain is exit 0 (asserted by the
        // drain tests below).
        use bwfft::core::PlanError;
        use bwfft::num::AllocError;
        use bwfft::serve::RejectReason;
        let rejections = [
            RejectReason::QueueFull {
                depth: 4,
                capacity: 4,
            },
            RejectReason::ByteBudget(AllocError {
                what: "serve admission",
                bytes: 1 << 20,
            }),
            RejectReason::PoolExhausted(AllocError {
                what: "buffer pool",
                bytes: 1 << 20,
            }),
            RejectReason::BreakerOpen,
            RejectReason::ShuttingDown,
        ];
        for reason in rejections {
            let e = CliError::from(ServeError::Rejected { reason });
            assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        }
        let e = CliError::from(ServeError::InvalidRequest {
            error: PlanError::NotPow2("n", 12),
        });
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
        let e = CliError::from(ServeError::InputLength {
            expected: 512,
            got: 8,
        });
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
    }

    #[test]
    fn serve_subcommand_drains_cleanly() {
        run(&argv(&[
            "serve", "--requests", "8", "--dims", "16x32", "--buffer", "128",
            "--workers", "2", "--seed", "3",
        ])).unwrap();
    }

    #[test]
    fn serve_drains_to_exit_zero_even_when_every_deadline_expires() {
        // Deadline misses are typed outcomes of a working service, not
        // faults: the drained run exits 0.
        run(&argv(&[
            "serve", "--requests", "6", "--dims", "16x32", "--buffer", "128",
            "--deadline-ms", "0",
        ])).unwrap();
    }

    #[test]
    fn serve_drains_to_exit_zero_under_burst_shedding() {
        // A shallow queue under burst arrivals sheds load with typed
        // rejections; the drain still balances and exits 0.
        run(&argv(&[
            "serve", "--requests", "16", "--dims", "16x32", "--buffer", "128",
            "--workers", "1", "--queue-depth", "1",
        ])).unwrap();
    }

    #[test]
    fn serve_default_buffer_drains_64x64() {
        // The planner derives the buffer from the shape, so a shape
        // whose pencil batch exceeds any fixed default still plans.
        run(&argv(&["serve", "--requests", "4", "--dims", "64x64", "--workers", "1"])).unwrap();
    }

    #[test]
    fn serve_flag_validation() {
        for bad in [
            vec!["serve", "--requests", "0"],
            vec!["serve", "--requests", "4", "--workers", "0"],
            vec!["serve", "--requests", "4", "--queue-depth", "0"],
            // A non-power-of-two shape is a usage error (InvalidRequest
            // from plan validation), not load shedding.
            vec!["serve", "--requests", "1", "--dims", "12x10"],
        ] {
            assert!(is_usage(&bad), "{bad:?}");
        }
    }

    #[test]
    fn tune_command_runs_model_only() {
        run(&argv(&["tune", "--dims", "32x32", "--model-only", "--plan-stats"])).unwrap();
    }

    #[test]
    fn tune_wisdom_roundtrip_skips_second_search() {
        let dir = std::env::temp_dir().join("bwfft-cli-tune-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.wisdom");
        let _ = std::fs::remove_file(&path);
        let args = argv(&[
            "tune", "--dims", "32x32", "--model-only",
            "--wisdom", path.to_str().unwrap(),
        ]);
        // First run tunes and writes wisdom; second run must load it
        // and skip the search entirely.
        run(&args).unwrap();
        assert!(path.exists());
        run(&args).unwrap();
        let cache = PlanCache::new(
            Tuner::new(TunerOptions {
                model_only: true,
                ..TunerOptions::for_host(&bwfft::core::HostProfile::detect())
            }),
            HostFingerprint::detect(),
        );
        match wisdom::load(&path, cache.fingerprint()).unwrap() {
            WisdomLoad::Usable(w) => assert_eq!(w.records.len(), 1),
            other => panic!("saved wisdom must be usable on this host: {other:?}"),
        }
    }

    #[test]
    fn corrupt_wisdom_degrades_instead_of_failing() {
        let dir = std::env::temp_dir().join("bwfft-cli-tune-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.wisdom");
        std::fs::write(&path, "not a wisdom file\n").unwrap();
        let args = argv(&[
            "tune", "--dims", "32x32", "--model-only",
            "--wisdom", path.to_str().unwrap(),
        ]);
        // The corrupt file triggers a warning and a fresh tune, then is
        // overwritten with valid wisdom.
        run(&args).unwrap();
        match wisdom::load(&path, &HostFingerprint::detect()).unwrap() {
            WisdomLoad::Usable(w) => assert_eq!(w.records.len(), 1),
            other => panic!("expected rewritten wisdom, got {other:?}"),
        }
    }

    #[test]
    fn profile_flag_parses_both_forms() {
        let args = argv(&["--profile"]);
        let f = parse_flags(command("run"), &args).unwrap();
        assert_eq!(profile_mode(&f).unwrap(), Some(false));

        let args = argv(&["--profile=json"]);
        let f = parse_flags(command("run"), &args).unwrap();
        assert_eq!(profile_mode(&f).unwrap(), Some(true));

        let args = argv(&["--profile=yaml"]);
        let f = parse_flags(command("run"), &args).unwrap();
        assert!(matches!(profile_mode(&f), Err(CliError::Usage(_))));

        let none = parse_flags(command("run"), &[]).unwrap();
        assert_eq!(profile_mode(&none).unwrap(), None);
        // `=` on any other flag is rejected.
        let args = argv(&["--dims=8x8"]);
        assert!(parse_flags(command("run"), &args).is_err());
    }

    #[test]
    fn metrics_flag_parses_both_forms() {
        let args = argv(&["--metrics"]);
        let f = parse_flags(command("serve"), &args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(false), "bare = prometheus");

        let args = argv(&["--metrics=prom"]);
        let f = parse_flags(command("serve"), &args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(false));

        let args = argv(&["--metrics=json"]);
        let f = parse_flags(command("serve"), &args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(true));

        let args = argv(&["--metrics=xml"]);
        let f = parse_flags(command("serve"), &args).unwrap();
        assert!(matches!(metrics_mode(&f), Err(CliError::Usage(_))));

        let none = parse_flags(command("serve"), &[]).unwrap();
        assert_eq!(metrics_mode(&none).unwrap(), None);
    }

    #[test]
    fn metrics_every_ms_requires_metrics() {
        assert!(is_usage(&["serve", "--requests", "1", "--metrics-every-ms", "5"]));
    }

    #[test]
    fn retired_pair_flags_are_usage_errors() {
        // The suite decides its own A/B pair under --baseline-out; the
        // flags that used to pick it are gone.
        for bad in [
            vec!["bench", "--suite", "serve", "--metrics-overhead"],
            vec!["bench", "--integrity", "--baseline-out", "p.json"],
        ] {
            assert!(is_usage(&bad), "{bad:?}");
        }
    }

    #[test]
    fn undeclared_flags_are_usage_errors_for_every_subcommand() {
        // Every subcommand against a flag some other subcommand
        // declares but it does not. The flag comes first, so nothing
        // runs before the parser refuses it.
        let every: Vec<&Flag> = COMMANDS.iter().flat_map(|c| c.flags()).collect();
        for cmd in COMMANDS {
            let foreign = every
                .iter()
                .find(|f| cmd.flag(f.name).is_none())
                .map_or("no-such-flag", |f| f.name);
            let mut args: Vec<&str> = cmd.name.split(' ').collect();
            let flag = format!("--{foreign}");
            args.extend([flag.as_str(), "1"]);
            match run(&argv(&args)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(&flag), "{args:?}: {msg}"),
                other => panic!("{args:?} must be a usage error, got {other:?}"),
            }
        }
        // Flags that used to be accepted by every subcommand and then
        // silently did nothing.
        for bad in [
            vec!["ooc", "--n", "4096", "--inject-panic", "compute,0,0", "--recover"],
            vec!["bench", "--suite", "serve", "--crash-at", "0,0"],
            vec!["run", "--dims", "8x8", "--ooc-kill"],
            vec!["r2c", "--dims", "8x8", "--inverse"],
            vec!["workspace", "gc", "--dir", "/nonexistent", "--seed", "1"],
        ] {
            assert!(is_usage(&bad), "{bad:?}");
        }
    }

    #[test]
    fn usage_text_is_generated_from_the_tables() {
        let all = overview();
        for cmd in COMMANDS {
            assert!(all.contains(&synopsis(cmd)), "{}", cmd.name);
            let text = command_usage(cmd);
            assert!(text.contains(cmd.about), "{}", cmd.name);
            for f in cmd.flags() {
                assert!(text.contains(&flag_token(f)), "{}: {}", cmd.name, f.name);
                assert!(text.contains(f.help), "{}: {}", cmd.name, f.name);
            }
        }
        // A subcommand declares each flag once, shared groups included.
        for cmd in COMMANDS {
            let mut names: Vec<&str> = cmd.flags().map(|f| f.name).collect();
            names.sort_unstable();
            let n = names.len();
            names.dedup();
            assert_eq!(names.len(), n, "{} declares a flag twice", cmd.name);
        }
    }

    #[test]
    fn stat_requires_both_files() {
        assert!(is_usage(&["stat"]));
        // A present flag but unreadable file is a runtime error, not
        // a usage error.
        let args = argv(&["stat", "--from", "/nonexistent.json", "--to", "/n2.json"]);
        assert!(matches!(run(&args), Err(CliError::Runtime(_))));
    }

    #[test]
    fn served_metrics_run_emits_final_snapshot_semantics() {
        // The registry path end-to-end without stdout capture: arm a
        // registry exactly as cmd_serve does and check the snapshot
        // carries the request lifecycle.
        use bwfft::metrics::Registry;
        use bwfft::serve::{FftRequest, FftServer, ServeConfig};
        let reg = std::sync::Arc::new(Registry::new());
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            metrics: Some(reg.clone()),
            ..ServeConfig::default()
        });
        let dims = bwfft::core::Dims::d2(8, 16);
        let data = bwfft::num::signal::random_complex(dims.total(), 7);
        let t = server.submit(FftRequest::new(dims, data)).unwrap();
        let _ = t.wait();
        let _ = server.stats();
        server.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.completed"), Some(&1));
        let parsed = bwfft::metrics::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap, "snapshot JSON round-trips");
    }

    #[test]
    fn profiled_run_succeeds_and_verifies() {
        run(&argv(&[
            "run", "--dims", "16x16", "--threads", "1,1", "--verify", "--profile",
        ])).unwrap();
    }

    #[test]
    fn profiled_json_run_succeeds() {
        run(&argv(&[
            "run", "--dims", "8x8x8", "--threads", "1,1",
            "--profile=json", "--machine", "haswell4770",
        ])).unwrap();
    }

    #[test]
    fn profiled_tune_succeeds() {
        run(&argv(&["tune", "--dims", "32x32", "--model-only", "--profile"])).unwrap();
    }

    fn bench_args(extra: &[&str]) -> Vec<String> {
        ["bench", "--suite", "smoke", "--reps", "2", "--warmup", "1"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn bench_writes_versioned_record_and_gates_derated_rerun() {
        let dir = std::env::temp_dir().join("bwfft-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("BENCH_base.json");
        let current = dir.join("BENCH_cur.json");

        run(&bench_args(&["--out", baseline.to_str().unwrap()])).unwrap();
        let rep = read_file(&baseline).unwrap();
        assert_eq!(rep.schema, "bwfft-bench/1");
        assert_eq!(rep.suite_kind, "smoke");
        assert!(!rep.suites.is_empty());
        assert!(rep.suites.iter().all(|s| !s.stages.is_empty()));

        // Same suite derated 3× must trip the gate with a runtime error
        // naming the regressed suite and its worst stage.
        let args = bench_args(&[
            "--out", current.to_str().unwrap(),
            "--derate", "3",
            "--compare", baseline.to_str().unwrap(),
        ]);
        match run(&args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("regression"), "{msg}");
                assert!(msg.contains("fig9:64x64"), "{msg}");
                assert!(msg.contains("stage"), "{msg}");
            }
            other => panic!("derated compare must fail the gate, got {other:?}"),
        }

        // Replay mode: the two files compare without re-running, and an
        // un-derated self-compare passes.
        run(&argv(&[
            "bench",
            "--compare", baseline.to_str().unwrap(),
            "--current", baseline.to_str().unwrap(),
        ])).unwrap();
    }

    #[test]
    fn bench_serve_suite_records_metrics_and_gates_p99() {
        let dir = std::env::temp_dir().join("bwfft-cli-bench-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("BENCH_serve_base.json");

        // `--buffer 128` keeps the per-request work this self-test is
        // calibrated on. At the planner-derived buffer a 16x32 request
        // takes well under a millisecond in a debug build, and the
        // 8-sample p99 of two live runs can differ by more than the 3x
        // derate.
        let base_args = argv(&[
            "bench", "--suite", "serve", "--requests", "8", "--workers", "2", "--buffer", "128",
            "--seed", "5", "--out", baseline.to_str().unwrap(),
        ]);
        run(&base_args).unwrap();
        let rep = read_file(&baseline).unwrap();
        assert_eq!(rep.schema, "bwfft-bench/1");
        assert_eq!(rep.suite_kind, "serve");
        assert_eq!(rep.suites.len(), 1);
        let m = rep.suites[0].serve.as_ref().expect("serve metrics column");
        assert_eq!(m.submitted, m.completed + m.deadline_exceeded + m.failed);
        assert!(m.p99_ns >= m.p50_ns);

        // A derated rerun inflates the tail; the p99 threshold gate
        // must name it even without CI separation.
        let current = dir.join("BENCH_serve_cur.json");
        let cur_args = argv(&[
            "bench", "--suite", "serve", "--requests", "8", "--workers", "2", "--buffer", "128",
            "--seed", "5", "--derate", "3",
            "--out", current.to_str().unwrap(),
            "--compare", baseline.to_str().unwrap(),
        ]);
        match run(&cur_args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("regression"), "{msg}");
                assert!(msg.contains("p99"), "{msg}");
            }
            other => panic!("derated serve compare must fail the gate, got {other:?}"),
        }

        // Replay self-compare of the serve record passes the gate.
        run(&argv(&[
            "bench",
            "--compare", baseline.to_str().unwrap(),
            "--current", baseline.to_str().unwrap(),
        ])).unwrap();
    }

    #[test]
    fn bench_flag_validation() {
        assert!(is_usage(&["bench", "--suite", "warp"]));
        assert!(is_usage(&["bench", "--current", "x.json"]));
        // A replay runs nothing, so run flags are refused, not ignored.
        assert!(is_usage(&["bench", "--current", "a.json", "--compare", "b.json", "--reps", "9"]));
        assert!(is_usage(&["bench", "--reps", "0"]));
        // Each suite rejects the other suite's knobs.
        assert!(is_usage(&["bench", "--suite", "serve", "--reps", "3"]));
        assert!(is_usage(&["bench", "--suite", "fast", "--requests", "3"]));
    }

    #[test]
    fn ooc_subcommand_completes_with_injected_fault() {
        // A transform 4× the working budget, one injected read fault:
        // the ladder retries, the oracle passes, exit is clean.
        run(&argv(&[
            "ooc", "--n", "4096", "--budget", "16384", "--bins", "8",
            "--seed", "7", "--inject-io-fault", "read,1,0",
        ])).unwrap();
    }

    #[test]
    fn ooc_exit_code_discipline() {
        // Typed tier failures are runtime faults (exit 1)...
        for bad in [
            vec!["ooc", "--n", "1000"],            // not a power of two
            vec!["ooc", "--n", "2"],               // below the 4-elem floor
            vec!["ooc", "--n", "65536", "--budget", "1"], // infeasible budget
        ] {
            let args = argv(&bad);
            assert!(matches!(run(&args), Err(CliError::Runtime(_))), "{bad:?}");
        }
        // ...while malformed flags are usage errors (exit 2).
        for bad in [
            vec!["ooc"],                                   // --n required
            vec!["ooc", "--n", "banana"],
            vec!["ooc", "--n", "4096", "--budget", "0"],
            vec!["ooc", "--n", "4096", "--bins", "0"],
            vec!["ooc", "--n", "4096", "--threads", "0,2"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "read,9,0"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "rread,1,0"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "read,1"],
        ] {
            assert!(is_usage(&bad), "{bad:?}");
        }
    }

    #[test]
    fn io_fault_spec_parses() {
        let f = parse_io_fault("write,3,2").unwrap();
        assert_eq!(f.kind, OocFaultKind::Write);
        assert_eq!(f.stage, 3);
        assert_eq!(f.iter, 2);
        assert!(parse_io_fault("read,5,0").is_err());
        assert!(parse_io_fault("read").is_err());
    }

    #[test]
    fn fault_spec_parses() {
        let f = parse_fault("data,1,4").unwrap();
        assert_eq!(f, FaultPlan::panic_at(Role::Data, 1, 4));
        assert!(parse_fault("gpu,0,0").is_err());
        assert!(parse_fault("data,0").is_err());
    }
}

