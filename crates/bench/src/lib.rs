//! # pels-bench — the figure/ablation harness
//!
//! One table, [`EXPERIMENTS`], with one row per table/figure of the paper's
//! evaluation (see DESIGN.md's experiment index) and per ablation. A row
//! builds its configs, runs them, and returns an [`Outcome`]: the files it
//! produces (the tracked copies live under `results/`) and its checks of
//! the paper's claims, each a measured value against its bound. `run_all
//! [--jobs N] [NAME…]` runs rows on threads and writes their files;
//! `tests/experiments.rs` runs every row and compares its files with
//! `results/`. Timing is not measured here: `benchmark/run.sh` is the
//! repo's one benchmark.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pels_core::scenario::{Scenario, ScenarioConfig};
use pels_fgs::gop::{decodable_fraction, GopConfig};
use pels_fgs::UtilityStats;
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimTime;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod ablations;
mod figures;

/// A row of [`EXPERIMENTS`]: its name and the function that runs it.
pub type Experiment = (&'static str, fn() -> Outcome);

/// Every experiment, by the name `run_all` takes, in the order it runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", figures::table1), // expected useful packets, model vs simulation
    ("fig1", figures::fig1),     // fixed vs R-D-driven FGS rate scaling
    ("fig2", figures::fig2),     // useful packets & utility vs frame size
    ("fig3", figures::fig3),     // random vs ideal per-frame drop patterns
    ("fig4", figures::fig4),     // frame coloring and the router's queue structure
    ("fig5", figures::fig5),     // γ(k) stability for σ = 0.5 vs σ = 3
    ("fig7", figures::fig7),     // γ evolution and red loss under two load levels
    ("fig8", figures::fig8),     // green/yellow packet delays as flows join
    ("fig9", figures::fig9),     // red delays; MKC convergence and fairness
    ("fig10", figures::fig10),   // PSNR of Foreman at ~10% and ~19% loss
    ("ablation_sigma", ablations::ablation_sigma),
    ("ablation_beta", ablations::ablation_beta),
    ("ablation_pthr", ablations::ablation_pthr),
    ("ablation_scheduler", ablations::ablation_scheduler),
    ("ablation_cc", ablations::ablation_cc),
    ("ablation_colors", ablations::ablation_colors),
    ("ablation_deadline", ablations::ablation_deadline),
    ("ablation_rd_scaling", ablations::ablation_rd_scaling),
    ("ablation_retransmission", ablations::ablation_retransmission),
    ("ablation_scale", ablations::ablation_scale),
    ("ablation_burstiness", ablations::ablation_burstiness),
    ("ablation_marking", ablations::ablation_marking),
];

/// What a row produces: its files and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The files, as `(name under the results directory, contents)`.
    pub files: Vec<(String, String)>,
    /// The checks, in the order the row made them.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Adds a file.
    pub fn file(&mut self, name: &str, contents: String) {
        self.files.push((name.to_string(), contents));
    }

    /// An outcome whose first file is the CSV `name`, started with its
    /// `header` line; [`Outcome::line`] adds rows.
    pub fn with_csv(name: &str, header: &str) -> Self {
        Outcome { files: vec![(name.to_string(), format!("{header}\n"))], checks: Vec::new() }
    }

    /// Appends `row` as a line to the file added last.
    pub fn line(&mut self, row: String) {
        let (_, contents) = self.files.last_mut().expect("a file to append to");
        contents.push_str(&row);
        contents.push('\n');
    }

    /// Adds a file holding `series` as CSV (`t,<name1>,<name2>,...`).
    pub fn series(&mut self, name: &str, series: &[&TimeSeries]) {
        self.file(name, pels_netsim::stats::to_csv(series));
    }

    /// Adds a check that `measured` lies within `bound`.
    pub fn check(&mut self, name: impl Into<String>, measured: f64, bound: Bound) {
        self.checks.push(Check { name: name.into(), measured, bound });
    }
}

/// One claim of a row: a measured value and the bound it must lie within.
#[derive(Debug)]
pub struct Check {
    /// What is measured.
    pub name: String,
    /// The measured value.
    pub measured: f64,
    /// The bound it must lie within.
    pub bound: Bound,
}

impl Check {
    /// Whether the measured value lies within the bound (never for NaN).
    pub fn ok(&self) -> bool {
        self.bound.judge(self.measured).1
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (bound, ok) = self.bound.judge(self.measured);
        let verdict = if ok { "ok" } else { "FAIL" };
        write!(f, "{:<56} {:>22} {bound:<24} {verdict}", self.name, self.measured)
    }
}

/// The bound a measured value must lie within.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Strictly below.
    Lt(f64),
    /// At most.
    Le(f64),
    /// Strictly above.
    Gt(f64),
    /// At least.
    Ge(f64),
    /// Exactly.
    Is(f64),
}

impl Bound {
    /// The bound as printed, and whether `v` lies within it.
    fn judge(self, v: f64) -> (String, bool) {
        match self {
            Bound::Lt(b) => (format!("< {b}"), v < b),
            Bound::Le(b) => (format!("<= {b}"), v <= b),
            Bound::Gt(b) => (format!("> {b}"), v > b),
            Bound::Ge(b) => (format!(">= {b}"), v >= b),
            Bound::Is(b) => (format!("== {b}"), v == b),
        }
    }
}

/// Runs `rows` on `jobs` threads and hands each outcome to `done` as its
/// row finishes, one at a time.
pub fn run_rows(rows: &[Experiment], jobs: usize, done: impl FnMut(&'static str, Outcome) + Send) {
    let (next, done) = (AtomicUsize::new(0), Mutex::new(done));
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, rows.len().max(1)) {
            scope.spawn(|| {
                while let Some(&(name, row)) = rows.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let outcome = row();
                    (done.lock().unwrap())(name, outcome);
                }
            });
        }
    });
}

/// Builds the scenario `cfg` describes and runs it for `secs` simulated seconds.
pub fn simulate(cfg: ScenarioConfig, secs: f64) -> Scenario {
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(secs));
    s
}

/// Steady-state decoding across every receiver, skipping the join
/// transient: the utility of frames `from` on, and the share of them that
/// still decodes after GOP loss propagation (paper Section 6.5: base loss
/// corrupts the rest of the GOP).
pub fn steady(s: &Scenario, from: u64) -> (UtilityStats, f64) {
    let mut u = UtilityStats::new();
    let (mut gop_num, mut gop_den) = (0.0, 0.0);
    for i in 0..s.config().flows.len() {
        let decoded: Vec<_> =
            s.receiver(i).decode_all().into_iter().filter(|d| d.frame >= from).collect();
        decoded.iter().for_each(|d| u.add(d));
        gop_num += decodable_fraction(&decoded, GopConfig::default()) * decoded.len() as f64;
        gop_den += decoded.len() as f64;
    }
    (u, gop_num / f64::max(gop_den, 1.0))
}

/// The workspace root, anchored via this crate's `CARGO_MANIFEST_DIR` so
/// the answer does not depend on the process working directory. `None`
/// when the source tree is gone (e.g. an installed binary).
fn workspace_root() -> Option<&'static Path> {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).filter(|root| root.is_dir())
}

/// Directory where experiment outputs are written, created if needed:
/// `dir` when given, else `<workspace root>/results`, else `./results`.
/// Fails, naming the path, when the directory cannot be created: a
/// directory that was asked for is never swapped for another one.
pub fn results_dir(dir: Option<&Path>) -> io::Result<PathBuf> {
    let p = match (dir, workspace_root()) {
        (Some(dir), _) => dir.to_path_buf(),
        (None, Some(root)) => root.join("results"),
        (None, None) => PathBuf::from("results"),
    };
    fs::create_dir_all(&p).map_err(|e| with_path(e, "cannot create", &p))?;
    Ok(p)
}

/// Writes `content` to `<dir>/<name>` and returns the path written; fails,
/// naming the path, when the file cannot be written.
pub fn write_result(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    fs::write(&path, content).map_err(|e| with_path(e, "cannot write", &path))?;
    Ok(path)
}

fn with_path(e: io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
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
    fn results_dir_is_cwd_independent_and_overridable() {
        let d = results_dir(None).unwrap();
        assert!(d.is_dir());
        assert!(d.ends_with("results"));
        // Anchored at the workspace root, not the process CWD.
        assert!(d.parent().unwrap().join("Cargo.toml").is_file());

        let tmp = TestDir::new("results");
        let sub = tmp.0.join("made_on_demand");
        assert_eq!(results_dir(Some(&sub)).unwrap(), sub);
        assert!(sub.is_dir());
    }

    #[test]
    fn results_dir_fails_rather_than_falling_back_to_the_tracked_tree() {
        let tmp = TestDir::new("not_a_dir");
        let file = tmp.0.join("plain_file");
        fs::write(&file, "x").unwrap();
        for asked in [file.clone(), file.join("below")] {
            let err = results_dir(Some(&asked)).expect_err("a regular file is no directory");
            assert!(err.to_string().contains(&*file.to_string_lossy()), "{err}");
        }
    }

    #[test]
    fn write_result_returns_the_path_or_the_error() {
        let tmp = TestDir::new("write");
        let path = write_result(&tmp.0, "a.csv", "x,y\n").unwrap();
        assert_eq!(path, tmp.0.join("a.csv"));
        assert_eq!(fs::read_to_string(&path).unwrap(), "x,y\n");
        let missing = tmp.0.join("missing");
        let err = write_result(&missing, "a.csv", "x").expect_err("no such directory");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn checks_hold_only_inside_their_bounds() {
        let c = |measured, bound| Check { name: "c".into(), measured, bound };
        assert!(c(1.0, Bound::Lt(2.0)).ok() && !c(2.0, Bound::Lt(2.0)).ok());
        assert!(c(2.0, Bound::Le(2.0)).ok() && !c(2.1, Bound::Le(2.0)).ok());
        assert!(c(3.0, Bound::Gt(2.0)).ok() && !c(2.0, Bound::Gt(2.0)).ok());
        assert!(c(2.0, Bound::Ge(2.0)).ok() && !c(1.9, Bound::Ge(2.0)).ok());
        assert!(c(0.0, Bound::Is(0.0)).ok() && !c(1.0, Bound::Is(0.0)).ok());
        assert!(!c(f64::NAN, Bound::Lt(1.0)).ok() && !c(f64::NAN, Bound::Ge(1.0)).ok());
        assert!(c(f64::NAN, Bound::Le(0.0)).to_string().ends_with("FAIL"));
    }

    #[test]
    fn run_rows_hands_every_row_back_once() {
        fn one() -> Outcome {
            let mut o = Outcome::default();
            o.file("one.csv", "1\n".into());
            o
        }
        fn two() -> Outcome {
            let mut o = Outcome::default();
            o.check("two", 2.0, Bound::Is(2.0));
            o
        }
        let rows: &[Experiment] = &[("one", one), ("two", two), ("one_again", one)];
        for jobs in [1, 2, 8] {
            let mut seen = Vec::new();
            run_rows(rows, jobs, |name, o| seen.push((name, o.files.len(), o.checks.len())));
            seen.sort();
            assert_eq!(seen, [("one", 1, 0), ("one_again", 1, 0), ("two", 0, 1)]);
        }
    }
}
