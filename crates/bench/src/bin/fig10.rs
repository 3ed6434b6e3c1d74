//! Fig. 10 of the paper: PSNR of CIF Foreman reconstructed under ~10%
//! (left) and ~19% (right) FGS-layer packet loss — base layer only vs
//! best-effort streaming vs PELS.
//!
//! Shape targets (paper): at 10% loss best-effort improves base PSNR by
//! ~24% while PELS improves it by ~60%; at 19% loss the gains are ~16% and
//! ~55%; best-effort PSNR fluctuates by up to 15 dB while PELS stays
//! smooth.
//!
//! The paper decodes the real Foreman sequence offline; we substitute the
//! calibrated synthetic R-D model (DESIGN.md), applying the *exact*
//! per-frame loss maps produced by the packet simulation.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::scenario::{to_best_effort, wideband_config, Scenario};
use pels_fgs::psnr::RdModel;
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimTime;
use std::path::Path;

const WARMUP_FRAMES: u64 = 100;
const FRAMES: u64 = 300;

struct SchemeResult {
    psnr: TimeSeries,
    mean: f64,
    swing: f64,
    loss: f64,
}

fn psnr_of(scenario: &Scenario, model: &RdModel, name: &str) -> SchemeResult {
    let mut series = TimeSeries::new(name);
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut n = 0u64;
    for d in scenario.receiver(0).decode_all() {
        if d.frame < WARMUP_FRAMES || d.frame >= WARMUP_FRAMES + FRAMES {
            continue;
        }
        let v = model.psnr(d.frame, d.enh_useful_bytes, d.base_ok);
        series.push((d.frame - WARMUP_FRAMES) as f64, v);
        sum += v;
        min = min.min(v);
        max = max.max(v);
        n += 1;
    }
    let u = scenario.receiver(0).utility();
    SchemeResult { psnr: series, mean: sum / n as f64, swing: max - min, loss: u.loss_rate() }
}

fn base_only(model: &RdModel) -> SchemeResult {
    let mut series = TimeSeries::new("base");
    let mut sum = 0.0;
    for f in 0..FRAMES {
        let v = model.base_psnr(f + WARMUP_FRAMES);
        series.push(f as f64, v);
        sum += v;
    }
    SchemeResult { psnr: series, mean: sum / FRAMES as f64, swing: 0.0, loss: 1.0 }
}

fn run_side(out: &Path, target_loss: f64, label: &str, csv_name: &str) {
    println!("-- Fig. 10 ({label}): target FGS-layer loss ~{:.0}% --\n", target_loss * 100.0);
    let cfg = wideband_config(4, target_loss);
    let duration = SimTime::from_secs_f64(10.0 + (WARMUP_FRAMES + FRAMES) as f64 / 10.0);

    let mut pels = Scenario::build(cfg.clone());
    pels.run_until(duration);
    let mut be = Scenario::build(to_best_effort(cfg));
    be.run_until(duration);

    let model = RdModel::foreman_like(300, 42);
    let base = base_only(&model);
    let pels_r = psnr_of(&pels, &model, "pels");
    let be_r = psnr_of(&be, &model, "best_effort");

    let gain = |r: &SchemeResult| (r.mean / base.mean - 1.0) * 100.0;
    let rows = vec![
        vec!["base only".into(), fmt(base.mean, 2), "+0.0%".into(), fmt(base.swing, 1), "-".into()],
        vec![
            "best-effort".into(),
            fmt(be_r.mean, 2),
            format!("{:+.1}%", gain(&be_r)),
            fmt(be_r.swing, 1),
            fmt(be_r.loss * 100.0, 1),
        ],
        vec![
            "PELS".into(),
            fmt(pels_r.mean, 2),
            format!("{:+.1}%", gain(&pels_r)),
            fmt(pels_r.swing, 1),
            fmt(pels_r.loss * 100.0, 1),
        ],
    ];
    print_table(&["scheme", "mean PSNR (dB)", "gain", "swing (dB)", "enh loss %"], &rows);

    let mut csv = String::from("frame,base,best_effort,pels\n");
    for i in 0..FRAMES as usize {
        let g = |s: &TimeSeries| s.points.get(i).map(|&(_, v)| v).unwrap_or(f64::NAN);
        csv.push_str(&format!(
            "{i},{:.3},{:.3},{:.3}\n",
            g(&base.psnr),
            g(&be_r.psnr),
            g(&pels_r.psnr)
        ));
    }
    write_result(out, csv_name, &csv);

    // Shape assertions: PELS gain is a multiple of the best-effort gain and
    // PELS quality is much smoother.
    assert!(gain(&pels_r) > 1.7 * gain(&be_r), "PELS gain dominates");
    assert!(pels_r.swing < be_r.swing, "PELS PSNR is smoother");
    assert!(gain(&pels_r) > 40.0, "PELS gain is large (paper: 55-60%)");
    println!();
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Fig. 10: PSNR of reconstructed Foreman-like video ==\n");
    run_side(&out, 0.10, "left", "fig10_left.csv");
    run_side(&out, 0.19, "right", "fig10_right.csv");
    println!(
        "PELS improves base PSNR several times more than best-effort and keeps\n\
         quality fluctuation low — the paper's Fig. 10 comparison."
    );
}
