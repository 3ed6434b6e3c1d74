//! Ablation: who should mark the packets? (paper Section 2.1 / Section 4).
//!
//! PELS "leaves the decisions of how to mark packets to the end-user (i.e.,
//! pushes complexity outside the network)". The DiffServ alternative the
//! related work critiques marks at the ingress with a three-color marker
//! that sees only bytes and arrival times. Running both through the *same*
//! strict-priority queues isolates the value of application-side marking:
//! the srTCM hands green tokens to whatever arrives first in each burst —
//! including expendable enhancement tails — and lets base packets go red.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::scenario::{wideband_config, Scenario, ScenarioConfig};
use pels_core::source::SourceMode;
use pels_core::tcm::TcmConfig;
use pels_fgs::gop::{decodable_fraction, GopConfig};
use pels_fgs::UtilityStats;
use pels_netsim::time::{Rate, SimTime};

struct Outcome {
    utility: f64,
    base_ok: f64,
    gop_ok: f64,
    tcm_marked: Option<[u64; 3]>,
}

fn run(ingress_tcm: Option<TcmConfig>) -> Outcome {
    let mut cfg: ScenarioConfig = wideband_config(4, 0.10);
    if ingress_tcm.is_some() {
        cfg.aqm.ingress_tcm = ingress_tcm;
        // Sources stop discriminating: everything leaves as one class (the
        // marker overrides colors anyway, but this mirrors a DiffServ host).
        for f in &mut cfg.flows {
            f.mode = SourceMode::BestEffort;
        }
    }
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(40.0));
    let mut u = UtilityStats::new();
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
        tcm_marked: s.router().tcm_marked(),
    }
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: application-side marking vs DiffServ ingress srTCM ==\n");
    let app = run(None);
    // Give the marker a committed rate matching the aggregate base-layer
    // bitrate (4 flows x 128 kb/s) — the most favorable honest setting.
    let tcm = run(Some(TcmConfig { cir: Rate::from_kbps(512.0), cbs: 8_000, ebs: 64_000 }));

    let rows = vec![
        vec![
            "application marking (PELS)".into(),
            fmt(app.utility, 3),
            fmt(app.base_ok * 100.0, 1),
            fmt(app.gop_ok * 100.0, 1),
        ],
        vec![
            "ingress srTCM (DiffServ-style)".into(),
            fmt(tcm.utility, 3),
            fmt(tcm.base_ok * 100.0, 1),
            fmt(tcm.gop_ok * 100.0, 1),
        ],
    ];
    print_table(&["marking", "utility", "base intact %", "GOP decodable %"], &rows);
    if let Some(m) = tcm.tcm_marked {
        println!(
            "\nsrTCM colored {} green / {} yellow / {} red — blind to frame structure.",
            m[0], m[1], m[2]
        );
    }
    write_result(
        &out,
        "ablation_marking.csv",
        &format!(
            "marking,utility,base_ok,gop_ok\napp,{:.4},{:.4},{:.4}\ntcm,{:.4},{:.4},{:.4}\n",
            app.utility, app.base_ok, app.gop_ok, tcm.utility, tcm.base_ok, tcm.gop_ok
        ),
    );

    assert!(app.utility > 0.9);
    assert!(
        app.utility > 2.0 * tcm.utility,
        "app marking {} should dominate TCM {}",
        app.utility,
        tcm.utility
    );
    assert!(tcm.gop_ok < app.gop_ok, "TCM lets base packets go red");
    println!(
        "\nthe same queues with network-side marking lose most of the benefit: \
         only the application knows which bytes the decoder needs first \
         (the paper's Section 2.1 argument, measured)."
    );
}
