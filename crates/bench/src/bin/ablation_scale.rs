//! Ablation: scalability in the number of flows.
//!
//! PELS claims to be a *scalable* framework (no per-flow state in routers,
//! complexity pushed to end hosts). This sweep runs two regimes on the
//! fixed default dumbbell (in parallel worker threads — each simulation is
//! deterministic and single-threaded):
//!
//! * 1–12 flows, where the bottleneck can carry everyone's base layer:
//!   per-flow rates must track the Lemma-6 fixed point `C/N + α/β`,
//!   utility stays ≈ 1, and green delays stay flat as the flow count grows;
//! * 16–32 flows, past the base-layer admission limit: the degradation
//!   policy (DESIGN.md §11) must starve the excess rather than collapse —
//!   the admitted set keeps Lemma-6 rates for its own size and starved
//!   flows keep probing for readmission.
//!
//! Failures are collected and reported together (exit code 1) instead of
//! aborting at the first bad row, so one broken regime doesn't hide the
//! verdict on the other.

use pels_analysis::queueing::jain_index;
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::scenario::{lemma6_kbps_for, pels_flows, ScenarioConfig};
use pels_core::sweep::run_parallel;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: flow-count scalability (parallel sweep) ==\n");
    let nominal = [1usize, 2, 4, 6, 8, 10, 12];
    let overloaded = [16usize, 24, 32];
    let counts: Vec<usize> = nominal.iter().chain(&overloaded).copied().collect();
    // Staggered starts within one frame interval, like `proportional_config`:
    // synchronized t = 0 first-frame bursts are a measurement artifact, not a
    // steady-state property.
    let make_config = |n: usize| {
        let starts: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 / n as f64).collect();
        ScenarioConfig { flows: pels_flows(&starts), keep_series: false, ..Default::default() }
    };
    let configs: Vec<ScenarioConfig> = counts.iter().map(|&n| make_config(n)).collect();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let reports = run_parallel(configs, 30.0, threads);

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            failures.push(msg);
        }
    };
    let mut rows = Vec::new();
    let mut csv = String::from(
        "flows,admitted,lemma6_kbps,mean_rate_kbps,utility,jain,green_delay_ms,green_drops\n",
    );
    for (&n, report) in counts.iter().zip(&reports) {
        let admitted = report.admitted_flows;
        // Lemma 6 for the set actually sharing the link: all N flows in the
        // nominal regime, the admitted set once the policy starves excess.
        let lemma6 = report
            .lemma6_kbps
            .filter(|_| admitted == n)
            .or_else(|| lemma6_kbps_for(&make_config(n), admitted))
            .unwrap_or(f64::NAN);
        let active: Vec<&_> = report.flows.iter().filter(|f| !f.starved).collect();
        let mean_rate: f64 =
            active.iter().map(|f| f.final_rate_kbps).sum::<f64>() / active.len().max(1) as f64;
        let utility: f64 =
            active.iter().map(|f| f.utility).sum::<f64>() / active.len().max(1) as f64;
        let green_ms: f64 = active.iter().map(|f| f.mean_delay_s[0] * 1e3).sum::<f64>()
            / active.len().max(1) as f64;
        let shares: Vec<f64> = active.iter().map(|f| f.final_rate_kbps).collect();
        let jain = jain_index(&shares);
        let green_drops = report.bottleneck_drops_by_class[0];
        csv.push_str(&format!(
            "{n},{admitted},{lemma6:.1},{mean_rate:.1},{utility:.4},{jain:.4},{green_ms:.2},\
             {green_drops}\n"
        ));
        rows.push(vec![
            n.to_string(),
            admitted.to_string(),
            fmt(lemma6, 0),
            fmt(mean_rate, 0),
            fmt(utility, 3),
            fmt(jain, 4),
            fmt(green_ms, 1),
        ]);

        check(jain > 0.999, format!("{n} flows: Jain index {jain}"));
        check(
            (mean_rate - lemma6).abs() < 0.08 * lemma6,
            format!("{n} flows: admitted rate {mean_rate:.0} vs Lemma 6 {lemma6:.0}"),
        );
        check(
            admitted + report.starved_flows == n,
            format!("{n} flows: admitted {admitted} + starved {} != {n}", report.starved_flows),
        );
        if overloaded.contains(&n) {
            // Past the admission limit: graceful degradation, not collapse.
            check(admitted >= 1, format!("{n} flows: everyone starved"));
            check(
                report.starved_flows > 0,
                format!("{n} flows: overloaded link but nobody starved"),
            );
            for f in report.flows.iter().filter(|f| f.starved) {
                check(
                    f.probes_sent > 0,
                    format!("{n} flows: starved flow {} never probed", f.flow),
                );
            }
        } else {
            check(utility > 0.9, format!("{n} flows: utility {utility}"));
            check(green_ms < 60.0, format!("{n} flows: green delay {green_ms} ms"));
            check(green_drops == 0, format!("{n} flows: {green_drops} green drops"));
            check(report.starved_flows == 0, format!("{n} flows: starved at nominal load"));
        }
    }
    print_table(
        &[
            "flows",
            "admitted",
            "Lemma-6 kb/s",
            "measured kb/s",
            "utility",
            "Jain",
            "green delay ms",
        ],
        &rows,
    );
    write_result(&out, "ablation_scale.csv", &csv);
    if !failures.is_empty() {
        println!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            println!("  FAIL {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "\nrates track C/N + alpha/beta from 1 to 12 flows and the admission \
         policy sheds overload past the limit — utility and green service \
         are load-invariant with zero per-flow router state."
    );
    ExitCode::SUCCESS
}
