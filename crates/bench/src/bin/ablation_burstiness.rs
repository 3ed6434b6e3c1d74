//! Ablation: the loss-model assumption of Section 3.
//!
//! The paper models best-effort loss as i.i.d. Bernoulli ("exponential
//! tails of burst-length distributions ... rather than a heavy-tailed
//! model, which is commonly observed in FIFO queues"). This experiment
//! quantifies how the choice matters: at *equal average loss*, burstier
//! channels cluster their drops and therefore leave longer decodable
//! prefixes — so the Bernoulli assumption is the conservative
//! (worst-for-best-effort) case, and PELS's advantage is a lower bound.

use pels_analysis::lossmodel::{BernoulliChannel, BurstStats, GilbertElliott};
use pels_analysis::useful::expected_useful_fixed;
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};
use pels_fgs::decoder::UtilityStats;
use pels_fgs::packetize::FramePackets;
use pels_fgs::scaling::ScaledFrame;
use pels_fgs::FrameReception;

fn decode_with(mut lose: impl FnMut() -> bool, h: u32, frames: u64) -> (UtilityStats, BurstStats) {
    let mut stats = UtilityStats::new();
    let mut flags = Vec::new();
    let frame = ScaledFrame { base_bytes: 500, enhancement_bytes: h * 500 };
    // Every packet is a full 500 bytes, so the counts are the whole record.
    let plan = FramePackets::new(&frame, h * 500, 0, 500);
    for f in 0..frames {
        let mut rx = FrameReception::with_counts(f, plan.len(), plan.base_count(), 500);
        rx.mark_received(0);
        for pkt in plan.iter().skip(1) {
            let lost = lose();
            flags.push(lost);
            if !lost {
                rx.mark_received(pkt.index);
            }
        }
        stats.add(&rx.decode());
    }
    (stats, BurstStats::from_sequence(flags))
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Ablation: loss burstiness at equal average loss (H = 100, p = 0.1) ==\n");
    let h = 100;
    let frames = 30_000;
    let p = 0.1;

    let mut rows = Vec::new();
    let mut csv = String::from("channel,mean_burst,e_useful,utility\n");
    let mut results = Vec::new();

    let mut bern = BernoulliChannel::new(p, 5);
    let (s, b) = decode_with(|| bern.is_lost(), h, frames);
    rows.push(vec![
        "Bernoulli (paper's model)".into(),
        fmt(b.mean(), 2),
        fmt(s.mean_useful_per_frame(), 2),
        fmt(s.utility(), 3),
    ]);
    csv.push_str(&format!(
        "bernoulli,{:.3},{:.3},{:.4}\n",
        b.mean(),
        s.mean_useful_per_frame(),
        s.utility()
    ));
    results.push(s.mean_useful_per_frame());

    for mean_burst in [3.0, 8.0] {
        let mut ge = GilbertElliott::with_average_loss(p, mean_burst, 5);
        let (s, b) = decode_with(|| ge.is_lost(), h, frames);
        rows.push(vec![
            format!("Gilbert, mean burst {mean_burst}"),
            fmt(b.mean(), 2),
            fmt(s.mean_useful_per_frame(), 2),
            fmt(s.utility(), 3),
        ]);
        csv.push_str(&format!(
            "gilbert_{mean_burst},{:.3},{:.3},{:.4}\n",
            b.mean(),
            s.mean_useful_per_frame(),
            s.utility()
        ));
        results.push(s.mean_useful_per_frame());
    }
    print_table(&["channel", "measured burst", "E[useful]/frame", "utility"], &rows);
    write_result(&out, "ablation_burstiness.csv", &csv);

    let eq2 = expected_useful_fixed(p, h);
    assert!((results[0] - eq2).abs() < 0.3, "Bernoulli matches Eq. 2 ({eq2:.2})");
    assert!(results[1] > results[0] && results[2] > results[1], "burstier -> longer prefixes");
    println!(
        "\nat the same 10% loss, burstier channels leave longer decodable prefixes \
         — the paper's Bernoulli assumption is the conservative case for its \
         best-effort analysis, and PELS's measured advantage is a lower bound."
    );
}
