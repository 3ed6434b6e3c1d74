//! Fig. 4 of the paper: the PELS router queue structure (left) and the
//! partitioning/coloring of the FGS layer (right). The original is a
//! diagram; this binary demonstrates both executably: it colors a frame
//! with a real γ value, pushes an overload through the actual PELS
//! discipline, and shows the service order and drop placement.

use pels_bench::{env_dir, print_table, results_dir, write_result};
use pels_core::color::Color;
use pels_fgs::packetize::{FramePackets, Segment};
use pels_fgs::scaling::{partition_enhancement, scale_to_rate};
use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit, StrictPriority, Wrr};
use pels_netsim::event::PacketSlot;
use pels_netsim::time::SimTime;

fn pels_discipline() -> Wrr {
    let video = Box::new(StrictPriority::drop_tail_bands(3, QueueLimit::Packets(8)));
    let inet = Box::new(DropTail::new(QueueLimit::Packets(8)));
    Wrr::new(
        vec![(1, video as Box<dyn Discipline>), (1, inet as Box<dyn Discipline>)],
        |e: &QEntry| if e.class < 3 { 0 } else { 1 },
        500,
    )
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Fig. 4 (right): partitioning and coloring of one FGS frame ==\n");
    // 1.5 Mb/s at 10 fps with the paper trace; gamma = 0.25.
    let trace = pels_core::scenario::default_trace();
    let scaled = scale_to_rate(trace.frame(0), 1_500_000.0, trace.fps);
    let gamma = 0.25;
    let (yellow, red) = partition_enhancement(scaled.enhancement_bytes, gamma);
    let plan = FramePackets::new(&scaled, yellow, red, 500);
    let color_map: String = plan
        .iter()
        .map(|p| match Color::from(p.segment) {
            Color::Green => 'G',
            Color::Yellow => 'Y',
            Color::Red => 'R',
        })
        .collect();
    println!("x_i = {} enhancement bytes, gamma = {gamma}:", scaled.enhancement_bytes);
    println!("  {color_map}");
    println!(
        "  {} green (base), {} yellow ((1-gamma)x), {} red (gamma x)\n",
        plan.base_count(),
        plan.iter().filter(|p| p.segment == Segment::Yellow).count(),
        plan.iter().filter(|p| p.segment == Segment::Red).count(),
    );

    println!("== Fig. 4 (left): router queues — WRR{{strict priority[G,Y,R] | FIFO}} ==\n");
    // Push an interleaved burst (video colors + Internet) into the real
    // discipline and dequeue: service order shows strict priority inside
    // the PELS queue and WRR fairness against the Internet queue.
    let mut disc = pels_discipline();
    let mut dropped = Vec::new();
    let mk = |class: u8, seq: u64| QEntry::new(PacketSlot(seq as u32), 500, class);
    let input: Vec<u8> = vec![2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2];
    for (i, &c) in input.iter().enumerate() {
        disc.enqueue(mk(c, i as u64), SimTime::ZERO, &mut dropped);
    }
    let mut service = String::new();
    let mut order = Vec::new();
    while let Some(p) = disc.dequeue(SimTime::ZERO) {
        service.push(match p.class {
            0 => 'G',
            1 => 'Y',
            2 => 'R',
            _ => 'I',
        });
        order.push(p.class);
    }
    let input_str: String = input
        .iter()
        .map(|&c| match c {
            0 => 'G',
            1 => 'Y',
            2 => 'R',
            _ => 'I',
        })
        .collect();
    let rows = vec![
        vec!["arrival order".to_string(), input_str.clone()],
        vec!["service order".to_string(), service.clone()],
        vec!["dropped".to_string(), format!("{} red (band overflow)", dropped.len())],
    ];
    print_table(&["", "packets"], &rows);
    write_result(
        &out,
        "fig4.txt",
        &format!("frame coloring: {color_map}\narrivals: {input_str}\nservice:  {service}\n"),
    );

    // Invariants of the figure: greens precede yellows precede reds within
    // the video share; Internet packets interleave ~1:1 by WRR.
    let video_positions: Vec<u8> = order.iter().copied().filter(|&c| c < 3).collect();
    let first_y = video_positions.iter().position(|&c| c == 1).unwrap();
    let first_r = video_positions.iter().position(|&c| c == 2).unwrap();
    let last_g = video_positions.iter().rposition(|&c| c == 0).unwrap();
    assert!(last_g < first_y && first_y < first_r, "strict priority order");
    assert!(dropped.iter().all(|p| p.class == 2), "overflow lands on red");
    println!("\nstrict priority inside the PELS queue; WRR alternation with the Internet queue;\noverflow confined to red — the structure of the paper's Fig. 4.");
}
