//! The traced pass's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, layer, start, end, parent span and
//! the id of the operation the span belongs to. They stay in memory
//! and are written out once, when the run ends. A disabled recorder
//! never reads the clock.

use bwfft_trace::{Phase, TraceCollector, TraceEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// The executor's phase collector of one traced call, with the offset
/// from its clock to the span clock.
pub struct PhaseHook {
    col: Arc<TraceCollector>,
    offset_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds on the span clock.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `t` on the span clock.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records an already-timed span (times on the span clock) and
    /// returns its id (`None` when disabled).
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span and returns its id (`None` when disabled). Close it
    /// with [`exit`](Self::exit).
    pub fn enter(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.record(layer, name, op, parent, now, now)
    }

    pub fn exit(&self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.now_ns();
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans[i].end_ns = end;
        }
    }

    /// An `ExecConfig` with the executor's existing phase hook armed,
    /// and the hook re-based onto the span clock.
    pub fn exec_config(&self) -> (bwfft_core::ExecConfig, PhaseHook) {
        let col = Arc::new(TraceCollector::new());
        let offset_ns = self.now_ns().saturating_sub(col.now_ns());
        let cfg = bwfft_core::ExecConfig {
            trace: Some(Arc::clone(&col)),
            ..bwfft_core::ExecConfig::default()
        };
        (cfg, PhaseHook { col, offset_ns })
    }

    /// Records the executor's phase events as child spans of `parent`:
    /// compute is the kernels layer, barrier waits the pipeline layer,
    /// and loads and stores belong to `io_layer` (the kernels for the
    /// in-memory executors, storage for the out-of-core one).
    pub fn absorb(&self, hook: &PhaseHook, op: u64, parent: Option<usize>, io_layer: &'static str) {
        for ev in hook.col.take_events() {
            if let TraceEvent::Span(s) = ev {
                let (layer, name) = match s.phase {
                    Phase::Load => (io_layer, "load"),
                    Phase::Compute => ("kernels", "compute"),
                    Phase::Store => (io_layer, "store"),
                    Phase::BarrierData | Phase::BarrierGlobal => ("pipeline", "barrier"),
                };
                let (lo, hi) = (hook.offset_ns + s.start_ns, hook.offset_ns + s.end_ns);
                self.record(layer, name, op, parent, lo, hi);
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children may overlap each other,
/// so the covered part is a union).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cur_lo, mut cur_hi) = (0u64, 0u64, 0u64);
            let mut open = false;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(s.start_ns), hi.min(s.end_ns));
                if hi <= lo {
                    continue;
                }
                if open && lo <= cur_hi {
                    cur_hi = cur_hi.max(hi);
                } else {
                    if open {
                        covered += cur_hi - cur_lo;
                    }
                    (cur_lo, cur_hi, open) = (lo, hi, true);
                }
            }
            if open {
                covered += cur_hi - cur_lo;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per layer, in ms.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let selfs = self_times_ns(spans);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"hostbench-spans/1\",\"workload\":{},\"seed\":{seed},\"spans\":[",
        crate::util::json_str(workload)
    );
    for (i, (sp, st)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{st}}}",
            sp.name, sp.layer, sp.op, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(80, 90, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 30);
    }
}
