//! The metric names and units the benchmark definition
//! (`BENCHMARK.json` at the checkout root) promises, checked against
//! what a run emitted.

use crate::util::Metrics;
use bwfft_trace::value::{parse_document, Value};

#[derive(Clone, Copy)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// `(name, unit)` pairs the definition lists under `kind`.
fn declared(kind: Kind) -> Result<Vec<(String, String)>, String> {
    let key = match kind {
        Kind::EndToEnd => "end_to_end",
        Kind::PerLayer => "per_layer",
    };
    let src =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse_document(&src).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc
        .as_obj()
        .and_then(|o| o.get(key))
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let o = m.as_obj().ok_or("metric entry is not an object")?;
            let get = |k: &str| o.get(k).and_then(Value::as_str).map(str::to_string);
            Ok((
                get("name").ok_or("metric without name")?,
                get("unit").ok_or("metric without unit")?,
            ))
        })
        .collect::<Result<_, &str>>()
        .map_err(str::to_string)
}

/// Problems with `got` against the declared list: a missing metric, a
/// wrong unit, a non-finite value, or an undeclared extra.
pub fn missing(got: &Metrics, kind: Kind, workload: &str) -> Vec<String> {
    let want = match declared(kind) {
        Ok(w) => w,
        Err(e) => return vec![e],
    };
    let mut out = Vec::new();
    for (name, unit) in &want {
        match got.0.iter().find(|m| &m.name == name) {
            None => out.push(format!("{workload}: {name} not emitted")),
            Some(m) if m.unit != unit => out.push(format!(
                "{workload}: {name} in {} but declared in {unit}",
                m.unit
            )),
            Some(m) if !m.value.is_finite() => {
                out.push(format!("{workload}: {name} = {}", m.value))
            }
            Some(_) => {}
        }
    }
    for m in &got.0 {
        if !want.iter().any(|(n, _)| n == &m.name) {
            out.push(format!("{workload}: {} emitted but not declared", m.name));
        }
    }
    out
}
