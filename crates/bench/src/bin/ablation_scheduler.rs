//! Ablation: the bottleneck scheduling discipline (paper Section 4.1).
//!
//! Compares, under identical load and congestion control:
//!   * PELS strict-priority color queues (the paper's design),
//!   * uniform random enhancement drops with a protected base layer (the
//!     paper's best-effort comparator, i.e. the Section 3 Bernoulli model),
//!   * a plain drop-tail FIFO with no protection at all.
//!
//! This isolates *why* strict priority is required for U ~ 1: random drops
//! shred the decodable prefix, and a bare FIFO additionally corrupts base
//! layers with bursty tail drops.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::router::{AqmConfig, QueueMode};
use pels_core::scenario::{wideband_config, Scenario, ScenarioConfig};
use pels_core::source::SourceMode;
use pels_fgs::gop::{decodable_fraction, GopConfig};
use pels_netsim::time::SimTime;

struct Outcome {
    utility: f64,
    base_ok: f64,
    /// Decodable frames after GOP/motion-compensation loss propagation
    /// (paper Section 6.5: base loss corrupts the rest of the GOP).
    gop_ok: f64,
    enh_loss: f64,
    green_drops: u64,
}

fn run(mode: QueueMode) -> Outcome {
    let mut cfg: ScenarioConfig = wideband_config(4, 0.10);
    cfg.aqm = AqmConfig { mode, ..cfg.aqm };
    if mode != QueueMode::Pels {
        for f in &mut cfg.flows {
            f.mode = SourceMode::BestEffort;
        }
    }
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(40.0));
    let mut u = pels_fgs::UtilityStats::new();
    let mut gop_num = 0.0;
    let mut gop_den = 0.0;
    for i in 0..4 {
        let decoded: Vec<_> =
            s.receiver(i).decode_all().into_iter().filter(|d| d.frame >= 100).collect();
        for d in &decoded {
            u.add(d);
        }
        gop_num += decodable_fraction(&decoded, GopConfig::default()) * decoded.len() as f64;
        gop_den += decoded.len() as f64;
    }
    Outcome {
        utility: u.utility(),
        base_ok: u.base_ok_frames as f64 / u.frames as f64,
        gop_ok: gop_num / gop_den.max(1.0),
        enh_loss: u.loss_rate(),
        green_drops: s.router().port(0).stats.drops_by_class[0],
    }
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: bottleneck scheduler (same load, same MKC control) ==\n");
    let schemes = [
        ("strict priority (PELS)", QueueMode::Pels),
        ("uniform drops, base protected", QueueMode::BestEffortUniform),
        ("plain drop-tail FIFO", QueueMode::Fifo),
    ];
    let mut rows = Vec::new();
    let mut csv = String::from("scheme,utility,base_ok,gop_ok,enh_loss,green_drops\n");
    let mut results = Vec::new();
    for (name, mode) in schemes {
        let o = run(mode);
        csv.push_str(&format!(
            "{name},{:.4},{:.4},{:.4},{:.4},{}\n",
            o.utility, o.base_ok, o.gop_ok, o.enh_loss, o.green_drops
        ));
        rows.push(vec![
            name.to_string(),
            fmt(o.utility, 3),
            fmt(o.base_ok * 100.0, 1),
            fmt(o.gop_ok * 100.0, 1),
            fmt(o.enh_loss * 100.0, 1),
            o.green_drops.to_string(),
        ]);
        results.push(o);
    }
    print_table(
        &["scheduler", "utility", "base intact %", "GOP decodable %", "enh loss %", "green drops"],
        &rows,
    );
    write_result(&out, "ablation_scheduler.csv", &csv);

    assert!(results[0].utility > 0.9, "PELS keeps utility near 1");
    assert!(results[0].utility > 2.0 * results[1].utility, "strict priority is load-bearing");
    assert!(
        results[2].base_ok < results[1].base_ok,
        "an unprotected FIFO corrupts base layers that the comparator preserves"
    );
    assert_eq!(results[0].green_drops, 0, "PELS never drops green");
    // Section 6.5: with motion compensation, even a few percent of base
    // loss makes best-effort streaming "simply impossible" — GOP
    // propagation amplifies the FIFO's green drops into mass corruption.
    assert!((results[0].gop_ok - 1.0).abs() < 1e-9, "PELS: every GOP decodes");
    assert!(
        results[2].gop_ok < 0.5,
        "FIFO after GOP propagation should collapse: {}",
        results[2].gop_ok
    );
    println!(
        "\nstrict priority is what buys U ~ 1; random drops waste most received \
         bytes; a bare FIFO breaks base layers, and GOP propagation turns those \
         few percent into losing most of the video — the paper's Section 6.5 \
         rationale for protecting the base layer."
    );
}
