//! `--compare a.json b.json`: do two result files of the same code
//! agree? Every end-to-end metric of `b` may be worse than `a` by at
//! most its bound, every workload in its own row, and neither run may
//! have failed operations.

use crate::json::{self, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(v: &Value) -> Result<&[Value], String> {
    v.get("workloads").and_then(Value::as_arr).ok_or_else(|| "no `workloads` array".to_string())
}

fn name(v: &Value) -> &str {
    v.get("workload").and_then(Value::as_str).unwrap_or("?")
}

/// Prints one row per workload and metric; `Ok(true)` if `b` agrees
/// with `a`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut agree = true;
    println!(
        "{:<10} {:<14} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for wa in workloads(&a)? {
        let Some(wb) = workloads(&b)?.iter().find(|w| name(w) == name(wa)) else {
            println!("{:<10} missing from {b_path}", name(wa));
            agree = false;
            continue;
        };
        for (side, w) in [("a", wa), ("b", wb)] {
            let failed = w.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                println!("{:<10} {side}: {failed} failed operations", name(w));
                agree = false;
            }
        }
        let metrics =
            |w: &'_ Value| w.get("metrics").and_then(Value::as_arr).map(<[Value]>::to_vec);
        let (ma, mb) = (metrics(wa).unwrap_or_default(), metrics(wb).unwrap_or_default());
        for m in &ma {
            // Per-layer metrics carry no bound: they explain, not gate.
            let Some(bound) = m.get("bound").and_then(Value::as_f64) else { continue };
            let metric = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let value = |m: &Value| m.get("value").and_then(Value::as_f64);
            let other = mb.iter().find(|x| x.get("name").and_then(Value::as_str) == Some(metric));
            let (Some(va), Some(vb)) = (value(m), other.and_then(value)) else {
                println!("{:<10} {metric:<14} missing from {b_path}", name(wa));
                agree = false;
                continue;
            };
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let worse = if lower { (vb - va) / va } else { (va - vb) / va };
            let ok = worse <= bound;
            agree &= ok;
            println!(
                "{:<10} {metric:<14} {va:>16.6} {vb:>16.6} {:>8.2}% {:>5.0}%  {}",
                name(wa),
                worse * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "WORSE" }
            );
        }
    }
    Ok(agree)
}
