//! Ablation: the MKC gain β (Lemmas 5–6).
//!
//! Analytically scans the stability region (boundary at β = 2 under any
//! delays), verifies the Lemma-6 stationary rate is reached for a spread of
//! in-range gains in the packet simulator, and shows delay-independence of
//! the fixed point.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::mkc::MkcConfig;
use pels_core::scenario::{FlowSpec, Scenario, ScenarioConfig};
use pels_core::source::CcSpec;
use pels_netsim::time::{SimDuration, SimTime};

fn run_sim(beta: f64, access_delay_ms: u64) -> (f64, f64, f64) {
    let flow = FlowSpec {
        cc: CcSpec::Mkc(MkcConfig { beta, ..Default::default() }),
        ..Default::default()
    };
    let cfg = ScenarioConfig {
        flows: vec![flow; 2],
        access_delay: SimDuration::from_millis(access_delay_ms),
        ..Default::default()
    };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(30.0));
    let mean = s.source(0).rate_series.mean_after(20.0).unwrap_or(0.0);
    let (lo, hi) = s.source(0).rate_series.min_max_after(20.0).unwrap_or((0.0, 0.0));
    (mean, lo, hi)
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: MKC gain beta ==\n");

    println!("analytic stability scan (Eq. 8-9 iterated):");
    let betas = [0.25, 0.5, 1.0, 1.5, 1.9, 2.1, 3.0];
    let mut csv = String::from("beta,delays,stable\n");
    let mut rows = Vec::new();
    for delays in [vec![1usize, 1], vec![3, 9], vec![15, 2]] {
        let scan = pels_analysis::stability::mkc_stability_scan(&betas, &delays, 60_000);
        for (beta, stable) in &scan {
            csv.push_str(&format!("{beta},{delays:?},{stable}\n"));
            assert_eq!(*stable, *beta < 2.0, "Lemma 5 boundary (beta={beta}, delays={delays:?})");
        }
        rows.push(vec![
            format!("{delays:?}"),
            scan.iter()
                .map(|(b, st)| format!("{b}:{}", if *st { "S" } else { "U" }))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    print_table(&["delays", "beta:stable(S)/unstable(U)"], &rows);
    println!("boundary at beta = 2 for every delay mix (Lemma 5)\n");

    println!("packet-level simulation (2 flows; Lemma 6 target = C/N + alpha/beta):");
    let mut rows = Vec::new();
    for beta in [0.25, 0.5, 1.0, 1.5] {
        let target = 1_000.0 + 20.0 / beta;
        let (mean, lo, hi) = run_sim(beta, 1);
        csv.push_str(&format!("{beta},sim,{mean},{lo},{hi}\n"));
        rows.push(vec![fmt(beta, 2), fmt(target, 0), fmt(mean, 0), fmt(lo, 0), fmt(hi, 0)]);
        if beta <= 0.5 {
            assert!((mean - target).abs() < 0.05 * target, "beta={beta}: {mean} vs {target}");
            assert!((hi - lo) / mean < 0.1, "beta={beta}: steady");
        } else {
            // Reproduction finding: Lemma 5's delay-independent stability
            // assumes feedback computed from the *exact* delayed rates;
            // with windowed (T = 30 ms, EWMA-smoothed) measurement the
            // packet-level loop rings for beta >~ 1 even though the fluid
            // model is stable up to 2.
            assert!((hi - lo) / mean > 0.5, "beta={beta}: expected ringing");
        }
    }
    print_table(&["beta", "Lemma-6 target", "measured mean", "min", "max"], &rows);
    println!(
        "note: beta in (0, 2) is stable in the fluid model (Lemma 5), but the\n\
         packet-level loop with windowed loss measurement rings for beta >~ 1 —\n\
         the paper's own choice beta = 0.5 sits safely inside the practical region."
    );

    println!("\ndelay independence (beta = 0.5; target 1040 kb/s):");
    let mut rows = Vec::new();
    for delay_ms in [1u64, 10, 40] {
        let (mean, lo, hi) = run_sim(0.5, delay_ms);
        csv.push_str(&format!("0.5,delay{delay_ms}ms,{mean},{lo},{hi}\n"));
        assert!((mean - 1_040.0).abs() < 0.07 * 1_040.0, "delay {delay_ms} ms: {mean}");
        rows.push(vec![format!("{delay_ms} ms"), fmt(mean, 0), fmt((hi - lo) / mean * 100.0, 1)]);
    }
    print_table(&["access delay", "measured mean", "swing %"], &rows);
    write_result(&out, "ablation_beta.csv", &csv);
    println!("\nthe stationary rate does not depend on RTT (Lemma 6).");
}
