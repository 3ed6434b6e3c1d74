//! # pels-bench — the figure/ablation harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus ablation binaries. Every binary prints the series
//! the paper reports and writes a CSV copy under `results/`. Timing is not
//! measured here: `benchmark/run.sh` is the repo's one benchmark.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — expected useful packets, model vs simulation |
//! | `fig2`   | Fig. 2 — useful packets & utility vs frame size |
//! | `fig3`   | Fig. 3 — random vs ideal per-frame drop patterns |
//! | `fig5`   | Fig. 5 — γ(k) stability for σ = 0.5 vs σ = 3 |
//! | `fig7`   | Fig. 7 — γ evolution and red loss under two load levels |
//! | `fig8`   | Fig. 8 — green/yellow packet delays as flows join |
//! | `fig9`   | Fig. 9 — red delays; MKC convergence and fairness |
//! | `fig10`  | Fig. 10 — PSNR of Foreman at ~10% and ~19% loss |
//! | `ablation_*` | design-choice ablations (DESIGN.md §6) |
//! | `run_all` | runs everything above in sequence |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pels_netsim::stats::TimeSeries;
use std::fs;
use std::path::{Path, PathBuf};

/// The directory named by environment variable `var`, if set. Binaries
/// call this once in `main` (`PELS_RESULTS_DIR`) and pass the answer down;
/// nothing below `main` reads the environment, so tests choose their
/// directories by argument and never race on process state.
pub fn env_dir(var: &str) -> Option<PathBuf> {
    std::env::var_os(var).map(PathBuf::from)
}

/// The workspace root, anchored via this crate's `CARGO_MANIFEST_DIR` so
/// the answer does not depend on the process working directory. `None`
/// when the source tree is gone (e.g. an installed binary).
fn workspace_root() -> Option<&'static Path> {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).filter(|root| root.is_dir())
}

/// Directory where experiment outputs are written, created if needed:
/// `dir` when given, else `<workspace root>/results`, else `./results`.
pub fn results_dir(dir: Option<&Path>) -> PathBuf {
    let candidates =
        [dir.map(Path::to_path_buf), workspace_root().map(|root| root.join("results"))];
    for p in candidates.into_iter().flatten() {
        let _ = fs::create_dir_all(&p);
        if p.is_dir() {
            return p;
        }
    }
    let p = PathBuf::from("results");
    let _ = fs::create_dir_all(&p);
    p
}

/// Writes `content` to `<dir>/<name>` and reports the path on stdout.
pub fn write_result(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    match fs::write(&path, content) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}

/// Writes a set of time series as CSV to `<dir>/<name>`.
pub fn write_series(dir: &Path, name: &str, series: &[&TimeSeries]) {
    write_result(dir, name, &pels_netsim::stats::to_csv(series));
}

/// Renders a simple aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Downsamples a series to at most `n` evenly spaced points (for compact
/// stdout rendering; the CSV keeps everything).
pub fn downsample(series: &TimeSeries, n: usize) -> Vec<(f64, f64)> {
    if series.points.len() <= n {
        return series.points.clone();
    }
    let step = series.points.len() as f64 / n as f64;
    (0..n).map(|i| series.points[(i as f64 * step) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory unique to this process and test, removed on drop: two
    /// `cargo test` processes on one host never meet in a file.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(test: &str) -> Self {
            let name = format!("pels_bench_{test}_{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn downsample_preserves_endpoints_roughly() {
        let mut s = TimeSeries::new("x");
        for i in 0..1000 {
            s.push(i as f64, i as f64);
        }
        let d = downsample(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].0, 0.0);
        assert!(d[9].0 >= 900.0);
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn results_dir_is_cwd_independent_and_overridable() {
        let d = results_dir(None);
        assert!(d.is_dir());
        assert!(d.ends_with("results"));
        // Anchored at the workspace root, not the process CWD.
        assert!(d.parent().unwrap().join("Cargo.toml").is_file());

        let tmp = TestDir::new("results");
        let sub = tmp.0.join("made_on_demand");
        assert_eq!(results_dir(Some(&sub)), sub);
        assert!(sub.is_dir());
    }
}
