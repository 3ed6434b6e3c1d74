//! Ablation: fixed-fraction vs R-D-aware rate scaling (the paper's cited
//! future-work item — "quality fluctuation ... can be further reduced using
//! sophisticated R-D scaling methods [5] (not used in this work)",
//! Section 6.5).
//!
//! With the per-frame byte budget that PELS actually delivers at ~10%
//! loss, we compare allocating it uniformly (the paper's policy) against
//! equal-quality waterfilling over a sliding window of frames.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_fgs::psnr::{RdConfig, RdModel};
use pels_fgs::rd_scaling::{allocate_equal_quality, allocate_fixed, psnr_std_dev, FrameBudget};

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: fixed-fraction vs R-D-aware scaling ==\n");
    // A Foreman-like model with realistic scene variability.
    let cfg = RdConfig { slope_variation: 0.35, base_psnr_sd: 2.0, ..Default::default() };
    let model = RdModel::new(300, cfg, 42);
    let frames: Vec<FrameBudget> =
        (0..300).map(|frame| FrameBudget { frame, max_bytes: 12_000 }).collect();

    let mut rows = Vec::new();
    let mut csv = String::from("budget_per_frame,fixed_mean,fixed_sd,rd_mean,rd_sd\n");
    for per_frame in [2_000u64, 5_000, 9_000] {
        let budget = per_frame * 300;
        let fixed = allocate_fixed(&frames, budget);
        let rd = allocate_equal_quality(&model, &frames, budget);

        let mean = |alloc: &[u64]| {
            frames.iter().zip(alloc).map(|(fb, &b)| model.psnr(fb.frame, b, true)).sum::<f64>()
                / 300.0
        };
        let (fm, fsd) = (mean(&fixed), psnr_std_dev(&model, &frames, &fixed));
        let (rm, rsd) = (mean(&rd), psnr_std_dev(&model, &frames, &rd));
        csv.push_str(&format!("{per_frame},{fm:.3},{fsd:.3},{rm:.3},{rsd:.3}\n"));
        rows.push(vec![
            format!("{} kB", per_frame / 1000),
            fmt(fm, 2),
            fmt(fsd, 2),
            fmt(rm, 2),
            fmt(rsd, 2),
        ]);
        assert!(rsd < 0.6 * fsd, "waterfilling smooths: {rsd} vs {fsd}");
        assert!(rm > fm - 0.6, "mean quality roughly preserved: {rm} vs {fm}");
    }
    print_table(
        &["budget/frame", "fixed mean dB", "fixed sd dB", "R-D mean dB", "R-D sd dB"],
        &rows,
    );
    write_result(&out, "ablation_rd_scaling.csv", &csv);
    println!(
        "\nequal-quality waterfilling cuts PSNR fluctuation by >40% at the same \
         budget — quantifying the paper's deferred R-D-scaling refinement."
    );
}
