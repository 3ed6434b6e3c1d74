//! Table 1 of the paper: expected number of useful packets per FGS frame
//! under Bernoulli loss — closed form (Eq. 2) vs Monte-Carlo simulation.
//!
//! Paper values (H = 100): p = 1e-4 -> 99.49, p = 0.01 -> 62.76/62.78,
//! p = 0.1 -> 8.99.

use pels_analysis::montecarlo::simulate_useful_fixed;
use pels_analysis::useful::expected_useful_fixed;
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Table 1: expected number of useful packets (H = 100) ==\n");
    let h = 100;
    let trials = 200_000;
    let mut rows = Vec::new();
    let mut csv = String::from("H,p,simulated,model,paper_sim,paper_model\n");
    let paper = [(1e-4, 99.49, 99.49), (0.01, 62.78, 62.76), (0.1, 8.99, 8.99)];
    for (p, paper_sim, paper_model) in paper {
        let sim = simulate_useful_fixed(p, h, trials, 42);
        let model = expected_useful_fixed(p, h);
        rows.push(vec![
            h.to_string(),
            format!("{p}"),
            fmt(sim.mean, 2),
            fmt(model, 2),
            fmt(paper_sim, 2),
            fmt(paper_model, 2),
        ]);
        csv.push_str(&format!("{h},{p},{:.4},{:.4},{paper_sim},{paper_model}\n", sim.mean, model));
        assert!(
            (sim.mean - model).abs() < 5.0 * sim.std_error.max(0.01),
            "simulation must agree with Eq. 2"
        );
    }
    print_table(&["H", "p", "simulated", "model (2)", "paper sim", "paper model"], &rows);
    write_result(&out, "table1.csv", &csv);
    println!("\nSimulation and Eq. (2) agree; both match the paper's Table 1.");
}
