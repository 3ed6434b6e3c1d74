//! Chaos harness: run the fault-scenario matrix on the Fig. 6 dumbbell and
//! assert the recovery invariants from the robustness milestone:
//!
//! * MKC returns to within 10% of r* within 20 feedback epochs of the fault
//!   clearing,
//! * green (base-layer) delivery stays >= 0.99 in every case,
//! * the whole report is a pure function of the seed (the matrix runs twice
//!   and both serialized reports must match byte for byte).
//!
//! Usage: `chaos [--seed N] [--duration SECS] [--json]`

use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_core::chaos::{run_matrix, ChaosConfig};
use pels_netsim::time::SimDuration;

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    let mut cfg = ChaosConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().and_then(|s| s.parse::<u64>().ok());
                cfg.seed = v.unwrap_or_else(|| usage_exit("--seed needs an integer"));
            }
            "--duration" => {
                let v = args.next().and_then(|s| s.parse::<f64>().ok());
                let secs = v.unwrap_or_else(|| usage_exit("--duration needs seconds"));
                // Scale the fault window with the run so shorter runs still
                // leave room to measure recovery: onset at 1/3 of the run,
                // clearing 1/20 of the run later (30 s -> the 10-11.5 s
                // window of the default config).
                cfg.duration = SimDuration::from_secs_f64(secs);
                cfg.fault_from = SimDuration::from_secs_f64(secs / 3.0);
                cfg.fault_to = SimDuration::from_secs_f64(secs / 3.0 + secs / 20.0);
            }
            "--json" => json = true,
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }

    let report = match run_matrix(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos matrix failed: {e}");
            std::process::exit(1);
        }
    };
    let replay = run_matrix(&cfg).expect("replay of a valid config cannot fail");
    let a = serde_json::to_string_pretty(&report).expect("report serializes");
    let b = serde_json::to_string_pretty(&replay).expect("report serializes");
    let deterministic = a == b;

    if json {
        println!("{a}");
    } else {
        println!("== Chaos matrix: seed {} / {} s per case ==\n", report.seed, report.duration_s);
        let mut rows = Vec::new();
        for c in &report.cases {
            rows.push(vec![
                c.name.clone(),
                fmt(c.green_delivery, 4),
                c.recovery_epochs.map_or("-".into(), |e| e.to_string()),
                c.stale_decays.to_string(),
                c.faults_applied.to_string(),
                (c.control_dropped + c.control_duplicated + c.control_reordered).to_string(),
                if c.ok { "ok".into() } else { "FAIL".into() },
            ]);
        }
        print_table(
            &["case", "green", "recovery", "decays", "faults", "mangled", "verdict"],
            &rows,
        );
        println!("\ndeterministic replay: {}", if deterministic { "ok" } else { "MISMATCH" });
    }

    let mut csv =
        String::from("case,green_delivery,recovery_epochs,stale_decays,faults_applied,ok\n");
    for c in &report.cases {
        csv.push_str(&format!(
            "{},{:.4},{},{},{},{}\n",
            c.name,
            c.green_delivery,
            c.recovery_epochs.map_or(-1i64, |e| e as i64),
            c.stale_decays,
            c.faults_applied,
            c.ok
        ));
    }
    write_result(&out, "chaos.csv", &csv);
    write_result(&out, "chaos.json", &a);

    if !report.all_ok || !deterministic {
        eprintln!("chaos invariants violated");
        std::process::exit(1);
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\nusage: chaos [--seed N] [--duration SECS] [--json]");
    std::process::exit(2);
}
