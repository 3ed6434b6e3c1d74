//! Watch a multi-bottleneck parking lot converge toward the stationary
//! reference: the binding segment reaches Lemma 6 within seconds, while the
//! leftover-capacity cross flow (low bottleneck price, low loop gain) needs
//! tens of seconds to settle on the quadratic fixed point.
//!
//! Run with: `cargo run -p pels-topo --example convergence`

use pels_netsim::time::SimTime;
use pels_topo::scenario::TopoScenario;
use pels_topo::spec::TopoSpec;

fn main() {
    let spec = TopoSpec::from_shorthand("parkinglot:segments=2,cross=1,flows=3").unwrap();
    let mut sc = TopoScenario::try_build(spec).unwrap();
    for t in [2.0, 4.0, 8.0, 15.0, 25.0, 40.0] {
        sc.run_until(SimTime::from_secs_f64(t));
        let r = sc.report();
        let rows: Vec<String> = r
            .bottlenecks
            .iter()
            .map(|b| {
                format!(
                    "seg {}->{}: pred {:.0} meas {:.0} dev {:.1}%",
                    b.router, b.next_hop, b.predicted_kbps, b.measured_kbps, b.deviation_pct
                )
            })
            .collect();
        println!("t={t:>4}s  {}", rows.join(" | "));
    }
}
