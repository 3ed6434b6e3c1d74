//! Fig. 5 of the paper: trajectories of the γ controller (Eq. 4) under
//! heavy stationary loss p = 0.5 with p_thr = 0.75 — stable for σ = 0.5
//! (converges to γ* = p/p_thr ≈ 0.67), unstable for σ = 3.

use pels_analysis::stability::{converged, diverged, gamma_trajectory};
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    let p = 0.5;
    let p_thr = 0.75;
    let steps = 40;
    println!("== Fig. 5: gamma(k) under p = {p}, p_thr = {p_thr} ==\n");

    let stable = gamma_trajectory(0.5, 0.5, p_thr, 1, steps, |_| p);
    let unstable = gamma_trajectory(0.5, 3.0, p_thr, 1, steps, |_| p);

    let mut rows = Vec::new();
    let mut csv = String::from("k,sigma_0.5,sigma_3\n");
    for k in 0..=steps {
        if k <= 12 || k % 4 == 0 {
            rows.push(vec![k.to_string(), fmt(stable[k], 5), fmt(unstable[k], 3)]);
        }
        csv.push_str(&format!("{k},{:.8},{:.6}\n", stable[k], unstable[k]));
    }
    print_table(&["k", "gamma (sigma=0.5)", "gamma (sigma=3)"], &rows);
    write_result(&out, "fig5.csv", &csv);

    let gamma_star = p / p_thr;
    assert!(converged(&stable, gamma_star, 1e-4), "sigma=0.5 converges");
    assert!(diverged(&unstable, 10.0), "sigma=3 diverges");
    println!(
        "\nsigma = 0.5 settles at gamma* = p/p_thr = {gamma_star:.4}; \
         sigma = 3 oscillates divergently (Lemma 2 boundary is sigma = 2)."
    );
}
