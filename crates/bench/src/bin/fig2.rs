//! Fig. 2 of the paper: the number of useful FGS packets per frame (left)
//! and the utility of received video (right), as functions of the frame
//! size H, for best-effort vs optimal preferential streaming at p = 0.1.
//!
//! Shape targets: best-effort useful packets saturate at (1-p)/p = 9 while
//! the optimal scheme grows as H(1-p); best-effort utility decays ~1/(Hp)
//! while optimal utility is identically 1.

use pels_analysis::useful::{
    best_effort_utility, expected_useful_fixed, optimal_useful, useful_saturation,
};
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    let p = 0.1;
    println!("== Fig. 2: useful packets (left) and utility (right) vs H, p = {p} ==\n");
    let hs: Vec<u32> = vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 3000];
    let mut rows = Vec::new();
    let mut csv =
        String::from("H,useful_best_effort,useful_optimal,utility_best_effort,utility_optimal\n");
    for &h in &hs {
        let ey = expected_useful_fixed(p, h);
        let opt = optimal_useful(p, h);
        let u = best_effort_utility(p, h);
        rows.push(vec![h.to_string(), fmt(ey, 3), fmt(opt, 1), fmt(u, 4), "1.0000".into()]);
        csv.push_str(&format!("{h},{ey:.6},{opt:.6},{u:.6},1.0\n"));
    }
    print_table(&["H", "E[Y] best-effort", "optimal H(1-p)", "U best-effort", "U optimal"], &rows);
    write_result(&out, "fig2.csv", &csv);

    // Shape assertions from Section 3.1.
    let sat = useful_saturation(p);
    assert!((expected_useful_fixed(p, 3000) - sat).abs() < 1e-6);
    assert!(best_effort_utility(p, 3000) < 0.005);
    println!(
        "\nbest-effort saturates at (1-p)/p = {sat}; utility -> 0 as H -> inf; \
         optimal stays at U = 1."
    );
}
