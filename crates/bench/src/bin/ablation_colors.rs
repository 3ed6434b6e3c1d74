//! Ablation: why *three* priority classes (paper Sections 2.1 and 4).
//!
//! Internet-2's QBSS — the closest deployed relative the paper cites —
//! supports only two priorities. With two classes (base protected,
//! enhancement undifferentiated) the congestion losses land wherever the
//! enhancement queue overflows, shredding the decodable prefix almost as
//! badly as uniform drops. The third (red) class is what converts losses
//! into *top-of-frame truncation*.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::router::QueueMode;
use pels_core::scenario::{wideband_config, Scenario};
use pels_core::source::SourceMode;
use pels_fgs::UtilityStats;
use pels_netsim::time::SimTime;

fn run(source_mode: SourceMode, queue_mode: QueueMode) -> (UtilityStats, f64) {
    let mut cfg = wideband_config(4, 0.10);
    cfg.aqm.mode = queue_mode;
    for f in &mut cfg.flows {
        f.mode = source_mode;
    }
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(40.0));
    let mut u = UtilityStats::new();
    for i in 0..4 {
        for d in s.receiver(i).decode_all() {
            if d.frame >= 100 {
                u.add(&d);
            }
        }
    }
    let yellow_loss = s.router().yellow_loss_series.mean_after(20.0).unwrap_or(0.0);
    (u, yellow_loss)
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: number of priority classes (same load, ~10% FGS loss) ==\n");
    // Three classes: PELS proper (gamma-partitioned red probes).
    let (three, three_yloss) = run(SourceMode::Pels, QueueMode::Pels);
    // Two classes: base green + ALL enhancement yellow, strict priority
    // (QBSS-style "one low-priority class"); losses are yellow tail drops.
    let (two, two_yloss) = run(SourceMode::BestEffort, QueueMode::Pels);
    // One class for enhancement with uniform random loss (Section 3 model).
    let (uniform, _) = run(SourceMode::BestEffort, QueueMode::BestEffortUniform);

    let rows = vec![
        vec![
            "3 classes (PELS, G/Y/R)".into(),
            fmt(three.utility(), 3),
            fmt(three.loss_rate() * 100.0, 1),
            fmt(three_yloss, 3),
        ],
        vec![
            "2 classes (QBSS-like, G/Y)".into(),
            fmt(two.utility(), 3),
            fmt(two.loss_rate() * 100.0, 1),
            fmt(two_yloss, 3),
        ],
        vec![
            "uniform drops (best effort)".into(),
            fmt(uniform.utility(), 3),
            fmt(uniform.loss_rate() * 100.0, 1),
            "-".into(),
        ],
    ];
    print_table(&["classes", "utility", "enh loss %", "yellow loss"], &rows);
    write_result(
        &out,
        "ablation_colors.csv",
        &format!(
            "scheme,utility,enh_loss\nthree,{:.4},{:.4}\ntwo,{:.4},{:.4}\nuniform,{:.4},{:.4}\n",
            three.utility(),
            three.loss_rate(),
            two.utility(),
            two.loss_rate(),
            uniform.utility(),
            uniform.loss_rate()
        ),
    );

    assert!(three.utility() > 0.9);
    assert!(
        three.utility() > 1.5 * two.utility(),
        "the red class is load-bearing: {} vs {}",
        three.utility(),
        two.utility()
    );
    assert!(two_yloss > three_yloss + 0.01, "two classes push loss into yellow");
    println!(
        "\ntwo priorities protect the base layer but not the prefix structure; \
         the red probing class is what makes losses land at the top of the frame."
    );
}
