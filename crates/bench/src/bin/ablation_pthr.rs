//! Ablation: the red-loss target p_thr (paper Section 4.3).
//!
//! p_thr trades utility against robustness: optimistic targets (near 1)
//! maximize the Eq.-6 utility bound but leave no cushion for loss spikes;
//! pessimistic targets waste yellow-eligible bytes as red probes. The paper
//! recommends stabilizing p_thr between 0.70 and 0.90. This sweep measures
//! utility and yellow protection across the range and checks the Eq. 6
//! lower bound.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::gamma::GammaConfig;
use pels_core::scenario::{FlowSpec, Scenario, ScenarioConfig};
use pels_netsim::time::SimTime;

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: red-loss target p_thr ==\n");
    let mut rows = Vec::new();
    let mut csv = String::from("p_thr,fgs_loss,utility,eq6_bound,red_loss,yellow_loss\n");
    for p_thr in [0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95] {
        let flow =
            FlowSpec { gamma: GammaConfig { p_thr, ..Default::default() }, ..Default::default() };
        let cfg = ScenarioConfig { flows: vec![flow; 4], ..Default::default() };
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(40.0));

        // Steady-state utility (skip the join transient).
        let mut u = pels_fgs::UtilityStats::new();
        for i in 0..4 {
            for d in s.receiver(i).decode_all() {
                if d.frame >= 100 {
                    u.add(&d);
                }
            }
        }
        let p = s.router().fgs_loss_series.mean_after(20.0).unwrap_or(0.0);
        let bound = pels_analysis::useful::pels_utility_lower_bound(p.min(0.99), p_thr);
        let red = s.router().red_loss_series.mean_after(20.0).unwrap_or(0.0);
        let yellow = s.router().yellow_loss_series.mean_after(20.0).unwrap_or(0.0);
        csv.push_str(&format!(
            "{p_thr},{p:.4},{:.4},{bound:.4},{red:.4},{yellow:.4}\n",
            u.utility()
        ));
        rows.push(vec![
            fmt(p_thr, 2),
            fmt(p, 3),
            fmt(u.utility(), 3),
            fmt(bound, 3),
            fmt(red, 3),
            fmt(yellow, 4),
        ]);
        assert!(
            u.utility() >= bound - 0.05,
            "p_thr={p_thr}: measured utility {} violates the Eq. 6 bound {bound}",
            u.utility()
        );
        assert!((red - p_thr).abs() < 0.2, "p_thr={p_thr}: red loss {red} should track the target");
    }
    print_table(
        &["p_thr", "FGS loss p", "utility", "Eq.6 bound", "red loss", "yellow loss"],
        &rows,
    );
    write_result(&out, "ablation_pthr.csv", &csv);
    println!(
        "\nutility stays above the Eq. 6 bound everywhere; red loss tracks its \
         target; the paper's 0.70-0.90 range keeps yellow clean with a real cushion."
    );
}
