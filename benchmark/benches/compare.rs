//! `--compare A.json B.json`: one row per workload × end-to-end metric
//! of two `result.json` files, A being the base of every ratio.

use std::path::Path;

use crate::json::Json;
use crate::{fail, Spec};

fn load(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
}

/// `ok`, `worse` or `unresolved` for B against A. "Worse" is measured
/// as a share of A in the metric's bad direction; a metric whose
/// run-to-run spread is wider than its bound cannot be called either.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> &'static str {
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Prints the table; the exit code is 1 when any row is `worse` or two
/// runs of one seed disagree on a `sim_digest`.
pub fn run(spec: &Spec, a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = (load(a_path), load(b_path));
    let same_seed = a.get("seed") == b.get("seed");
    println!(
        "{:<11} {:<21} {:>14} {:>14} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    let mut bad = 0;
    for w in &spec.workloads {
        let side = |root: &Json| root.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            fail(&format!("workload {w} is missing from one of the files"));
        };
        for m in &spec.end_to_end {
            let read = |side: &Json, key: &str| {
                side.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(|e| e.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (read(&wa, "value"), read(&wb, "value")) else {
                fail(&format!(
                    "{w}: metric {} is missing from one of the files",
                    m.name
                ));
            };
            let spread = read(&wa, "spread")
                .unwrap_or(0.0)
                .max(read(&wb, "spread").unwrap_or(0.0));
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, m.higher_is_better, bound, spread);
            bad += (v == "worse") as i32;
            println!(
                "{w:<11} {:<21} {va:>14.6} {vb:>14.6} {:>9.4} {bound:>6.3} {spread:>7.4}  {v}",
                m.name,
                vb / va
            );
        }
        let digest = |side: &Json| {
            side.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(&wa) != digest(&wb) {
            if same_seed {
                bad += 1;
            }
            println!(
                "{w:<11} sim_digest differs: {:?} vs {:?}{}",
                digest(&wa).unwrap_or_default(),
                digest(&wb).unwrap_or_default(),
                if same_seed {
                    "  (same seed: the simulation changed)"
                } else {
                    "  (different seeds)"
                }
            );
        }
    }
    (bad > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        assert_eq!(verdict(1.0, 1.07, false, 0.08, 0.01), "ok");
        assert_eq!(verdict(1.0, 1.09, false, 0.08, 0.01), "worse");
        assert_eq!(verdict(1.0, 0.5, false, 0.08, 0.01), "ok");
        assert_eq!(verdict(1.0, 0.9, true, 0.08, 0.0), "worse");
        assert_eq!(verdict(1.0, 1.5, true, 0.08, 0.0), "ok");
        assert_eq!(verdict(1.0, 1.0, false, 0.08, 0.2), "unresolved");
    }
}
