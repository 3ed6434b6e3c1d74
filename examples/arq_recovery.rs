//! Retransmission-based recovery vs PELS: the ARQ comparator's ledger, in
//! total and for one flow.
//!
//! The paper argues (Section 1) that retransmission is the wrong tool for
//! congested video paths: recoveries ride the same congested queues and
//! miss their decoding deadlines. This example runs an ARQ comparator over
//! a FIFO bottleneck with a playout deadline, prints the recovery ledger,
//! and follows one flow from the NACKs its receiver sent to the frames it
//! decoded.
//!
//! Run with: `cargo run --release --example arq_recovery`

use pels_core::receiver::NackConfig;
use pels_core::router::QueueMode;
use pels_core::scenario::{wideband_config, Scenario};
use pels_core::source::{ArqConfig, SourceMode};
use pels_netsim::time::{SimDuration, SimTime};

fn main() {
    // ARQ over a short FIFO: recovery mostly works.
    let mut cfg = wideband_config(4, 0.10);
    cfg.aqm.mode = QueueMode::Fifo;
    cfg.aqm.best_effort_limit = 100;
    for f in &mut cfg.flows {
        f.mode = SourceMode::BestEffort;
        f.arq = Some(ArqConfig::default());
    }
    cfg.nack = Some(NackConfig::default());
    cfg.playout_deadline = Some(SimDuration::from_millis(300));

    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(20.0));

    println!("=== ARQ recovery over a congested FIFO (300 ms playout deadline) ===\n");
    let mut nacks = 0;
    let mut retx = 0;
    let mut on_time = 0;
    let mut late = 0;
    for i in 0..4 {
        nacks += s.receiver(i).nacks_sent();
        retx += s.source(i).retransmissions;
        on_time += s.receiver(i).recovered_on_time;
        late += s.receiver(i).recovered_late;
    }
    println!("NACKs sent:            {nacks}");
    println!("retransmissions:       {retx}");
    println!("recovered on time:     {on_time}");
    println!("recovered too late:    {late}");
    let u = s.total_utility();
    println!("utility with recovery: {:.3}", u.utility());
    assert!(retx > 0 && on_time > 0);

    // One flow, end to end: the NACKs its receiver sent, the repairs its
    // source answered with, and what the receiver decoded.
    let (rx, tx) = (s.receiver(0), s.source(0));
    let frames = rx.decode_all();
    let base_ok = frames.iter().filter(|f| f.base_ok).count();
    let complete =
        frames.iter().filter(|f| f.base_ok && f.enh_received_packets == f.enh_sent_packets).count();
    println!("\nflow 0:");
    println!("  NACKs sent:                 {}", rx.nacks_sent());
    println!("  retransmissions:            {}", tx.retransmissions);
    println!("  repairs on time / too late: {} / {}", rx.recovered_on_time, rx.recovered_late);
    println!("  frames seen:                {}", rx.frames_seen());
    println!("  frames with an intact base: {base_ok}");
    println!("  frames complete:            {complete}");
    assert!(
        tx.retransmissions > 0 && tx.retransmissions <= rx.nacks_sent(),
        "a repair answers a NACK"
    );
    assert!(
        rx.recovered_on_time + rx.recovered_late <= tx.retransmissions,
        "a repair is counted once"
    );
    assert!(complete <= base_ok && base_ok <= rx.frames_seen());

    println!(
        "\ncompare: `run_all ablation_retransmission` (crates/bench) shows the\n\
         same machinery over a bloated buffer, where 100% of recoveries miss the\n\
         deadline — the paper's argument for a retransmission-free design."
    );
}
