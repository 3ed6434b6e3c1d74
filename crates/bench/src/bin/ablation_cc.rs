//! Ablation: the congestion controller under PELS queues (paper Section 5).
//!
//! The paper claims PELS is independent of the congestion control employed,
//! and separately that AIMD's oscillation makes it a poor fit for video.
//! Running the same PELS AQM with MKC vs AIMD sources shows both: utility
//! stays near 1 under either controller, while AIMD's rate variance is an
//! order of magnitude larger.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::aimd::AimdConfig;
use pels_core::scenario::{FlowSpec, Scenario, ScenarioConfig};
use pels_core::source::CcSpec;
use pels_core::tfrc::TfrcConfig;
use pels_netsim::time::SimTime;

struct Outcome {
    utility: f64,
    mean_rate: f64,
    rate_cv: f64,
    yellow_loss: f64,
}

fn run(cc: CcSpec) -> Outcome {
    let flow = FlowSpec { cc, ..Default::default() };
    let cfg = ScenarioConfig { flows: vec![flow; 4], ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(60.0));
    let mut u = pels_fgs::UtilityStats::new();
    for i in 0..4 {
        for d in s.receiver(i).decode_all() {
            if d.frame >= 150 {
                u.add(&d);
            }
        }
    }
    let pts: Vec<f64> = s
        .source(0)
        .rate_series
        .points
        .iter()
        .filter(|&&(t, _)| t > 20.0)
        .map(|&(_, v)| v)
        .collect();
    let mean = pts.iter().sum::<f64>() / pts.len() as f64;
    let var = pts.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / pts.len() as f64;
    Outcome {
        utility: u.utility(),
        mean_rate: mean,
        rate_cv: var.sqrt() / mean,
        yellow_loss: s.router().yellow_loss_series.mean_after(20.0).unwrap_or(0.0),
    }
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: congestion control under PELS queues (4 flows) ==\n");
    let mkc = run(CcSpec::default());
    let aimd = run(CcSpec::Aimd(AimdConfig::default()));
    let tfrc = run(CcSpec::Tfrc(TfrcConfig::default()));

    let rows = vec![
        vec![
            "MKC".to_string(),
            fmt(mkc.utility, 3),
            fmt(mkc.mean_rate, 0),
            fmt(mkc.rate_cv * 100.0, 1),
            fmt(mkc.yellow_loss, 4),
        ],
        vec![
            "AIMD".to_string(),
            fmt(aimd.utility, 3),
            fmt(aimd.mean_rate, 0),
            fmt(aimd.rate_cv * 100.0, 1),
            fmt(aimd.yellow_loss, 4),
        ],
        vec![
            "TFRC".to_string(),
            fmt(tfrc.utility, 3),
            fmt(tfrc.mean_rate, 0),
            fmt(tfrc.rate_cv * 100.0, 1),
            fmt(tfrc.yellow_loss, 4),
        ],
    ];
    print_table(&["controller", "utility", "mean rate kb/s", "rate CV %", "yellow loss"], &rows);
    write_result(&out, "ablation_cc.csv",
        &format!(
            "controller,utility,mean_rate,rate_cv,yellow_loss\nMKC,{:.4},{:.1},{:.4},{:.4}\nAIMD,{:.4},{:.1},{:.4},{:.4}\nTFRC,{:.4},{:.1},{:.4},{:.4}\n",
            mkc.utility, mkc.mean_rate, mkc.rate_cv, mkc.yellow_loss,
            aimd.utility, aimd.mean_rate, aimd.rate_cv, aimd.yellow_loss,
            tfrc.utility, tfrc.mean_rate, tfrc.rate_cv, tfrc.yellow_loss
        ),
    );

    assert!(mkc.utility > 0.9, "PELS+MKC utility");
    assert!(aimd.utility > 0.8, "PELS keeps utility high under AIMD too");
    assert!(tfrc.utility > 0.8, "PELS keeps utility high under TFRC too");
    assert!(
        aimd.rate_cv > 3.0 * mkc.rate_cv,
        "AIMD oscillates ({:.3}) vs MKC ({:.3})",
        aimd.rate_cv,
        mkc.rate_cv
    );
    assert!(
        tfrc.rate_cv < aimd.rate_cv,
        "TFRC is smoother than AIMD ({:.3} vs {:.3})",
        tfrc.rate_cv,
        aimd.rate_cv
    );
    println!(
        "\nPELS is congestion-control independent (utility ~ 1 under MKC, AIMD \
         and TFRC); MKC's fixed point makes it the smoothest of the three, \
         which is why the paper pairs it with video."
    );
}
