//! `ooc1d`: closed loop, one caller, out-of-core forward 1D FFTs of
//! n = 2²² (64 MiB) under a 16 MiB working budget, in a workspace
//! inside the checkout. Timed operations run in cycles of plain
//! `ooc::exec::execute`, journaled `execute_resumable` on a fresh
//! `Journal::create`, and plain again.

use crate::host;
use crate::spans::Tracer;
use crate::util::{median, ms, pseudo_flops, secs, timed, Metrics, Verdict};
use crate::workload::{Ctx, Outcome};
use bwfft_num::signal::SplitMix64;
use bwfft_num::Complex64;
use bwfft_ooc::{
    execute, execute_resumable, fill_random_fingerprinted, gc_stale, plan, verify, Journal,
    JournalHeader, OocConfig, OocPlan, OocReport, OocStore, OracleConfig, Workspace,
};
use std::path::Path;
use std::time::Instant;

fn log2_n(smoke: bool) -> u32 {
    if smoke {
        16
    } else {
        22
    }
}

fn config(smoke: bool) -> OocConfig {
    OocConfig {
        budget_bytes: if smoke { 1 << 18 } else { 16 << 20 },
        ..OocConfig::default()
    }
}

/// A planned transform with its input and output stores.
struct Setup {
    plan: OocPlan,
    cfg: OocConfig,
    ws: Workspace,
    input: OocStore,
    output: OocStore,
    input_fp: u64,
}

/// Plan, workspace and stores; the input fill is the benchmark's own
/// input generation and is returned separately so it stays untimed.
fn create(
    smoke: bool,
    dir: &Path,
) -> Result<(OocPlan, OocConfig, Workspace, OocStore, OocStore), String> {
    let cfg = config(smoke);
    let p = plan(1 << log2_n(smoke), &cfg).map_err(|e| e.to_string())?;
    let ws = Workspace::create_under(dir).map_err(|e| e.to_string())?;
    let input = OocStore::create(&ws.path("input.bin"), p.n1, p.n2, p.stride_cols_n2)
        .map_err(|e| e.to_string())?;
    let output = OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1)
        .map_err(|e| e.to_string())?;
    Ok((p, cfg, ws, input, output))
}

/// One set-up: returns it with its timed wall (plan, workspace, store
/// creation and the first, warm-up transform; not the input fill).
fn setup(seed: u64, smoke: bool, dir: &Path) -> Result<(Setup, f64), String> {
    let (created, t_create) = timed(|| create(smoke, dir));
    let (p, cfg, ws, input, output) = created?;
    let input_fp = fill_random_fingerprinted(&input, seed).map_err(|e| e.to_string())?;
    let (r, t_warm) = timed(|| execute(&p, &cfg, &ws, &input, &output));
    r.map_err(|e| format!("warm-up transform: {e}"))?;
    Ok((
        Setup {
            plan: p,
            cfg,
            ws,
            input,
            output,
            input_fp,
        },
        t_create + t_warm,
    ))
}

/// The journaled transform: a fresh durable journal, then the
/// crash-safe executor writing one record per block.
fn journaled(s: &Setup, seed: u64, op: u64) -> Result<OocReport, String> {
    let path = s.ws.path(&format!("journal-{op}.jsonl"));
    let header = JournalHeader::for_plan(&s.plan, s.cfg.budget_bytes, seed, s.input_fp);
    let j = Journal::create(&path, &header).map_err(|e| e.to_string())?;
    let r = execute_resumable(&s.plan, &s.cfg, &s.ws, &s.input, &s.output, Some(&j), None);
    drop(j);
    let _ = std::fs::remove_file(&path);
    r.map_err(|e| e.to_string())
}

/// Adds one to the first bin the oracle samples, in the output store.
fn corrupt_sampled_bin(s: &Setup, oracle: &OracleConfig) -> std::io::Result<()> {
    let k = (SplitMix64::new(oracle.seed).next_u64() % s.plan.n as u64) as usize;
    let (row, col) = (k / s.plan.n1, k % s.plan.n1);
    let mut v = [Complex64::ZERO];
    s.output.read_row_segment(row, col, &mut v)?;
    v[0].re += 1.0;
    s.output.write_row_segment(row, col, &v)
}

fn store_dir(out_dir: &Path) -> std::path::PathBuf {
    out_dir.join("ooc")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = store_dir(&ctx.out_dir);
    // Workspaces left by a run that was killed (a live one is removed
    // when it drops).
    if let Ok(stale) = gc_stale(&dir, std::time::Duration::from_secs(600)) {
        if !stale.is_empty() {
            out.note("stale workspaces removed", stale.len());
        }
    }
    out.note("n", 1u64 << log2_n(ctx.smoke));
    out.note("budget_bytes", config(ctx.smoke).budget_bytes);
    out.note("workspace", dir.display());
    let mut s = None;
    for _ in 0..ctx.setup_reps.max(1) {
        drop(s.take());
        match setup(ctx.seed, ctx.smoke, &dir) {
            Ok((x, t)) => {
                out.setup_s.push(t);
                s = Some(x);
            }
            Err(e) => {
                out.verdict("ooc1d set-up", false, e);
                return out;
            }
        }
    }
    let mut s = s.expect("at least one set-up ran");
    let tr = &ctx.tracer;
    let flops = pseudo_flops(s.plan.n);
    let deadline = ctx.deadline();
    let t_loop = Instant::now();
    let mut op = 0u64;
    let mut retries = 0u32;
    let mut by_kind: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    while op == 0 || Instant::now() < deadline {
        // Whole cycles of plain, journaled, plain: the median sits in
        // the plain transforms and the slowest op is a journaled one.
        for journal in [false, true, false] {
            op += 1;
            let (cfg, hook) = traced_config(tr, &s.cfg);
            let saved = std::mem::replace(&mut s.cfg, cfg);
            let root = tr.enter("bench", "ooc1d.op", op, None);
            let t0 = Instant::now();
            let id = tr.enter(
                "ooc",
                if journal {
                    "exec::execute_resumable"
                } else {
                    "exec::execute"
                },
                op,
                root,
            );
            let r = if journal {
                journaled(&s, ctx.seed, op)
            } else {
                execute(&s.plan, &s.cfg, &s.ws, &s.input, &s.output).map_err(|e| e.to_string())
            };
            tr.exit(id);
            let dt = ms(t0);
            tr.exit(root);
            s.cfg = saved;
            if let Some(h) = hook {
                tr.absorb(&h, op, id, "storage");
            }
            out.attempted += 1;
            match r {
                Ok(rep) => {
                    retries += rep.retries;
                    out.op_ms.push(dt);
                    out.op_flops.push(flops);
                    by_kind[usize::from(journal)].push(dt);
                }
                Err(e) => out.verdict("ooc1d transform", false, e),
            }
        }
    }
    out.loop_s = secs(t_loop);
    out.note("retries", retries);
    for (kind, t) in ["plain", "journaled"].iter().zip(&by_kind) {
        out.note(
            &format!("{kind} p50 ms"),
            format!("{:.1} ({} ops)", median(t).unwrap_or(f64::NAN), t.len()),
        );
    }

    let oracle = OracleConfig::default();
    if ctx.corrupt {
        if let Err(e) = corrupt_sampled_bin(&s, &oracle) {
            out.note("corruption", e);
        }
    }
    match verify(&s.input, &s.output, &s.plan, &oracle) {
        Ok(r) => out.verdict(
            "ooc1d oracle::verify",
            true,
            format!(
                "{} bins, max err {:.2e} <= {:.2e}, Parseval {:.2e}",
                r.bins_checked, r.max_abs_err, r.tol, r.parseval_rel_err
            ),
        ),
        Err(e) => out.verdict("ooc1d oracle::verify", false, e.to_string()),
    }
    out
}

/// Arms the executor's existing trace hook for one traced call.
fn traced_config(tr: &Tracer, base: &OocConfig) -> (OocConfig, Option<crate::spans::PhaseHook>) {
    if !tr.enabled() {
        return (base.clone(), None);
    }
    let (exec_cfg, hook) = tr.exec_config();
    (
        OocConfig {
            trace: exec_cfg.trace,
            ..base.clone()
        },
        Some(hook),
    )
}

/// Per-layer probe on `ooc1d`'s shape: storage ceilings in the
/// workspace filesystem, one plain and one journaled transform with
/// their storage accounting, and the oracle's cost.
pub fn layers(seed: u64, smoke: bool, out_dir: &Path) -> (Metrics, Vec<Verdict>) {
    let mut m = Metrics::default();
    let dir = store_dir(out_dir);
    let (w, r) = host::disk_gbs(&dir).unwrap_or((f64::NAN, f64::NAN));
    m.put("host.disk_write_gbs", w, "GB/s");
    m.put("host.disk_read_gbs", r, "GB/s");
    let s = match setup(seed, smoke, &dir) {
        Ok((s, _)) => s,
        Err(e) => return (m, vec![Verdict::new("ooc probe set-up", false, e)]),
    };
    let (plain, t_plain) = timed(|| execute(&s.plan, &s.cfg, &s.ws, &s.input, &s.output));
    let (jr, t_journal) = timed(|| journaled(&s, seed, 0));
    let mut verdicts = Vec::new();
    match (plain, jr) {
        (Ok(p), Ok(j)) => {
            let moved = (p.bytes_read + p.bytes_written) as f64;
            m.put("ooc.plain_s", t_plain, "s");
            m.put("ooc.journaled_s", t_journal, "s");
            m.put("ooc.journal_overhead_ratio", t_journal / t_plain, "ratio");
            m.put("ooc.storage_gbs", p.storage_gbs(), "GB/s");
            // The device ceiling for this read/write mix.
            let ceiling = moved / (p.bytes_read as f64 / r + p.bytes_written as f64 / w);
            m.put("ooc.pct_disk_bw", 100.0 * p.storage_gbs() / ceiling, "%");
            m.put(
                "ooc.bytes_moved_ratio",
                moved / s.plan.data_bytes() as f64,
                "ratio",
            );
            m.put("ooc.retries", f64::from(p.retries + j.retries), "count");
        }
        (p, j) => {
            let e = p
                .err()
                .map(|e| e.to_string())
                .or(j.err())
                .unwrap_or_default();
            verdicts.push(Verdict::new("ooc probe transforms", false, e));
        }
    }
    let oracle = OracleConfig::default();
    let (v, t_verify) = timed(|| verify(&s.input, &s.output, &s.plan, &oracle));
    m.put("ooc.verify_s_per_bin", t_verify / oracle.bins as f64, "s");
    verdicts.push(Verdict::new(
        "ooc probe oracle::verify",
        v.is_ok(),
        v.map_or_else(|e| e.to_string(), |_| String::new()),
    ));
    (m, verdicts)
}
