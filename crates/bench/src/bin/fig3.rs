//! Fig. 3 of the paper: useful data in one enhancement frame under a
//! *random* loss pattern (left) vs the *ideal* preferential pattern (right)
//! with the same number of drops. Rendered as ASCII drop maps plus
//! aggregate statistics over many frames.

use pels_analysis::montecarlo::{ideal_drop_pattern, random_drop_pattern, received_in, useful_in};
use pels_bench::{env_dir, fmt, print_table, results_dir, write_result};

fn render(map: &[bool]) -> String {
    map.iter().map(|&lost| if lost { 'x' } else { '#' }).collect()
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    let h = 126; // the paper's packets-per-frame
    let p = 0.25;
    println!("== Fig. 3: random (left) vs ideal (right) loss in one frame ==");
    println!("   H = {h} packets, p = {p}   ('#' = received, 'x' = dropped)\n");

    let random = random_drop_pattern(p, h, 7);
    let drops = h - received_in(&random);
    let ideal = ideal_drop_pattern(drops, h);

    println!("random: {}", render(&random));
    println!("ideal:  {}\n", render(&ideal));
    let mut rows = vec![
        vec![
            "random".into(),
            received_in(&random).to_string(),
            useful_in(&random).to_string(),
            fmt(useful_in(&random) as f64 / received_in(&random) as f64, 3),
        ],
        vec![
            "ideal".into(),
            received_in(&ideal).to_string(),
            useful_in(&ideal).to_string(),
            fmt(useful_in(&ideal) as f64 / received_in(&ideal) as f64, 3),
        ],
    ];

    // Aggregate over many frames: the single-frame picture generalizes.
    let frames = 10_000;
    let mut rnd_useful = 0u64;
    let mut rnd_received = 0u64;
    let mut ideal_useful = 0u64;
    for seed in 0..frames {
        let map = random_drop_pattern(p, h, 1000 + seed);
        rnd_useful += useful_in(&map) as u64;
        rnd_received += received_in(&map) as u64;
        ideal_useful += (h - (h - received_in(&map))) as u64; // all received useful
    }
    rows.push(vec![
        format!("random x{frames}"),
        fmt(rnd_received as f64 / frames as f64, 2),
        fmt(rnd_useful as f64 / frames as f64, 2),
        fmt(rnd_useful as f64 / rnd_received as f64, 3),
    ]);
    rows.push(vec![
        format!("ideal x{frames}"),
        fmt(ideal_useful as f64 / frames as f64, 2),
        fmt(ideal_useful as f64 / frames as f64, 2),
        "1.000".into(),
    ]);
    print_table(&["pattern", "received", "useful", "utility"], &rows);

    let mut csv = String::from("position,random_lost,ideal_lost\n");
    for i in 0..h as usize {
        csv.push_str(&format!("{i},{},{}\n", random[i] as u8, ideal[i] as u8));
    }
    write_result(&out, "fig3.csv", &csv);

    let mean_useful_random = rnd_useful as f64 / frames as f64;
    let expect = pels_analysis::useful::expected_useful_fixed(p, h);
    assert!((mean_useful_random - expect).abs() < 0.1, "matches Eq. 2");
    println!(
        "\nunder random loss only the prefix before the first gap decodes \
         (E[Y] = {expect:.2}); the ideal pattern keeps every received packet useful."
    );
}
