//! `--compare A.json B.json`: one row per (workload, bounded metric), both
//! medians, the bound, and a verdict. B is judged against A; every ratio is
//! given with its base (A's median).

use crate::spec::{Better, Bound, END_TO_END, GATED, WORKLOADS};
use crate::stats::{iqr, median};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs do not
    /// all read better than A's: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A bounded metric's values across a set's runs, read from the untraced
/// record: `end_to_end` for those metrics, `layers` for the gated ones.
fn values(set: &Value, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set["runs"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|run| run[workload]["untraced"][section][metric].as_f64())
        .collect()
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Option<(f64, f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    let allowance = bound.allowance(ma);
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let spread = iqr(a).max(iqr(b));
    let b_always_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if spread > allowance && !b_always_better && worse_by != 0.0 {
        Verdict::Unresolved
    } else if worse_by > allowance {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((ma, mb, verdict))
}

/// Prints the comparison; `Ok(true)` when every row is `ok`.
pub fn print(a: &Value, b: &Value) -> Result<bool, String> {
    for (label, set) in [("A", a), ("B", b)] {
        if set["schema"].as_str() != Some("pels-benchmark-set/1") {
            return Err(format!("set {label} is not a pels-benchmark-set/1 document"));
        }
        println!(
            "# {label}: commit {} seed {} {} s/workload, {} run(s), nproc {}, kernel {}",
            set["commit"].as_str().unwrap_or("?"),
            set["seed"],
            set["seconds"],
            set["runs"].as_array().map_or(0, Vec::len),
            set["nproc"],
            set["kernel"].as_str().unwrap_or("?"),
        );
    }
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>9} {:>10}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut all_ok = true;
    for workload in WORKLOADS.iter() {
        let e2e = END_TO_END
            .iter()
            .map(|e| ("end_to_end", e.metric.name, e.metric.better, e.compare_bound()));
        let gated = GATED.iter().filter(|g| g.stack.is_none_or(|s| s == workload.stack)).map(|g| {
            let better = crate::spec::per_layer(g.name).map_or(Better::Lower, |m| m.better);
            ("layers", g.name, better, g.bound)
        });
        for (section, metric, better, bound) in e2e.chain(gated) {
            let (va, vb) = (
                values(a, workload.name, section, metric),
                values(b, workload.name, section, metric),
            );
            let Some((ma, mb, verdict)) = judge(&va, &vb, better, bound) else {
                println!("{:<14} {:<30} missing from a set", workload.name, metric);
                all_ok = false;
                continue;
            };
            let change = if ma != 0.0 {
                format!("{:+.2} %", (mb - ma) / ma.abs() * 100.0)
            } else {
                format!("{:+.4}", mb - ma)
            };
            println!(
                "{:<14} {:<30} {:>16.6} {:>16.6} {:>9} {:>10}  {}",
                workload.name,
                metric,
                ma,
                mb,
                change,
                bound.label(),
                verdict.label()
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    println!(
        "# B vs A is relative to A's median; {}",
        match all_ok {
            true => "every row is ok",
            false => "not every row is ok",
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rel = Bound::Rel(0.05);
        // Within the bound.
        assert_eq!(judge(&[100.0], &[104.0], Better::Lower, rel).unwrap().2, Verdict::Ok);
        // Worse by more than the bound.
        assert_eq!(judge(&[100.0], &[106.0], Better::Lower, rel).unwrap().2, Verdict::Regressed);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&[100.0], &[94.0], Better::Higher, rel).unwrap().2, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[120.0], Better::Higher, rel).unwrap().2, Verdict::Ok);
        // Spread wider than the bound: cannot tell...
        let noisy = [90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(&noisy, &[101.0, 99.0], Better::Lower, rel).unwrap().2,
            Verdict::Unresolved
        );
        // ...unless every B run beats every A run.
        assert_eq!(judge(&noisy, &[80.0, 85.0], Better::Lower, rel).unwrap().2, Verdict::Ok);
        // An absolute zero bound tolerates no worsening at all.
        let zero = Bound::Abs(0.0);
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, zero).unwrap().2, Verdict::Ok);
        assert_eq!(judge(&[0.0], &[0.001], Better::Lower, zero).unwrap().2, Verdict::Regressed);
    }
}
