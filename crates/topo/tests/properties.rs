//! Property-based tests for the topology generators and the sharded
//! execution of generated scenarios. (Simulation-backed cases run short
//! horizons, so case counts are kept deliberately small, matching the
//! workspace-level property suites.)

use pels_netsim::shard::Partition;
use pels_netsim::time::SimTime;
use pels_topo::model::{compile, validate, TopoModel, TrafficKind};
use pels_topo::scenario::TopoScenario;
use pels_topo::spec::{FlashCrowdSpec, GeneratorSpec, TopoSpec};
use proptest::prelude::*;

/// Union-find connectivity over the router links.
fn router_graph_connected(model: &TopoModel) -> bool {
    let mut parent: Vec<usize> = (0..model.n_routers).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for l in &model.links {
        let (a, b) = (find(&mut parent, l.a), find(&mut parent, l.b));
        parent[a] = b;
    }
    let root = find(&mut parent, 0);
    (1..model.n_routers).all(|r| find(&mut parent, r) == root)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Waxman graphs are connected, zero-delay-free, structurally valid,
    /// and identical when regenerated from the same seed.
    #[test]
    fn waxman_connected_valid_and_seed_deterministic(
        routers in 4usize..40,
        flows in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let mut spec = TopoSpec::new(GeneratorSpec::Waxman { routers, alpha: None, beta: None });
        spec.flows = Some(flows);
        spec.seed = Some(seed);
        let model = pels_topo::gen::generate(&spec).unwrap();
        prop_assert!(router_graph_connected(&model));
        prop_assert!(model.links.iter().all(|l| !l.delay.is_zero()));
        prop_assert!(validate(&model).is_ok());

        let again = pels_topo::gen::generate(&spec).unwrap();
        prop_assert_eq!(model.links.len(), again.links.len());
        for (x, y) in model.links.iter().zip(&again.links) {
            prop_assert_eq!((x.a, x.b, x.queue, x.delay), (y.a, y.b, y.queue, y.delay));
            prop_assert_eq!((x.aqm_ab, x.aqm_ba, x.rate_ab, x.rate_ba), (y.aqm_ab, y.aqm_ba, y.rate_ab, y.rate_ba));
        }
        let pa: Vec<_> = model.pairs.iter().map(|p| p.path.clone()).collect();
        let pb: Vec<_> = again.pairs.iter().map(|p| p.path.clone()).collect();
        prop_assert_eq!(pa, pb);
    }

    /// Fat trees have the Clos size, one designated uplink per edge and per
    /// aggregation switch, 5-hop cross-pod paths, and ACK paths that avoid
    /// every designated egress.
    #[test]
    fn fat_tree_arity_and_size_invariants(
        half in 2usize..5,
        flows in 1usize..16,
    ) {
        let k = 2 * half;
        let mut spec = TopoSpec::new(GeneratorSpec::FatTree { k });
        spec.flows = Some(flows.min(k * k * k / 8));
        let model = pels_topo::gen::generate(&spec).unwrap();
        prop_assert_eq!(model.n_routers, half * half + k * k);
        prop_assert_eq!(model.links.len(), k * 2 * half * half);
        prop_assert!(router_graph_connected(&model));
        let designated: usize = model
            .links
            .iter()
            .map(|l| usize::from(l.aqm_ab) + usize::from(l.aqm_ba))
            .sum();
        prop_assert_eq!(designated, 2 * k * half, "one per edge + one per agg switch");
        for pair in &model.pairs {
            if matches!(pair.kind, TrafficKind::Video { .. }) {
                prop_assert_eq!(pair.path.len(), 5, "cross-pod paths are edge-agg-core-agg-edge");
                let ack = pair.ack_path.as_ref().expect("fat-tree video pairs carry ack paths");
                for w in ack.windows(2) {
                    let designated = model.links.iter().any(|l| {
                        (l.a, l.b, l.aqm_ab) == (w[0], w[1], true)
                            || (l.b, l.a, l.aqm_ba) == (w[0], w[1], true)
                    });
                    prop_assert!(!designated, "ack hop {:?} designated", w);
                }
            }
        }
    }

    /// Any multi-shard partition of a generated topology has strictly
    /// positive lookahead: generators never emit a zero-delay link, so the
    /// cut never degenerates.
    #[test]
    fn partitions_of_generated_graphs_have_positive_lookahead(
        routers in 6usize..32,
        seed in 0u64..1_000,
        family in 0usize..2,
    ) {
        let mut spec = if family == 0 {
            TopoSpec::new(GeneratorSpec::FatTree { k: 4 })
        } else {
            TopoSpec::new(GeneratorSpec::Waxman { routers, alpha: None, beta: None })
        };
        spec.seed = Some(seed);
        spec.flows = Some(6);
        let model = pels_topo::gen::generate(&spec).unwrap();
        let compiled = compile(&model, &spec).unwrap();
        let partition = Partition::auto(&compiled.graph);
        if partition.n_shards > 1 {
            let la = partition.lookahead.expect("multi-shard cut must window");
            prop_assert!(!la.is_zero(), "zero lookahead would stall the conservative engine");
        }
    }

    /// Flash-crowd schedules keep every start inside the wave envelope and
    /// mark exactly the requested departure fraction.
    #[test]
    fn flash_crowd_schedule_is_well_formed(
        flows in 2usize..20,
        waves in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        let mut spec = TopoSpec::new(GeneratorSpec::ParkingLot {
            segments: 1,
            cross_per_segment: Some(0),
        });
        spec.flows = Some(flows);
        spec.tcp_per_path = Some(0);
        spec.flash_crowd = Some(FlashCrowdSpec {
            waves,
            wave_gap_s: Some(2.0),
            depart_fraction: Some(frac),
            depart_at_s: Some(30.0),
        });
        let model = pels_topo::gen::generate(&spec).unwrap();
        let mut departing = 0;
        for pair in &model.pairs {
            let TrafficKind::Video { start, stop, .. } = pair.kind else { continue };
            prop_assert!(start.as_secs_f64() <= 0.1 + 2.0 * waves as f64);
            if stop.is_some() {
                departing += 1;
            }
        }
        prop_assert_eq!(departing, (frac * flows as f64).ceil() as usize);
    }
}

proptest! {
    // Each case runs three full simulations; keep the count tiny.
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    /// A generated Waxman scenario produces byte-identical reports at
    /// workers 1, 2, and 8 — the partition, not the thread pool, fixes the
    /// schedule.
    #[test]
    fn waxman_reports_identical_at_workers_1_2_8(seed in 0u64..100) {
        let mut spec = TopoSpec::new(GeneratorSpec::Waxman { routers: 12, alpha: None, beta: None });
        spec.seed = Some(seed);
        spec.flows = Some(4);
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let mut sc = TopoScenario::try_build(spec.clone()).unwrap();
                sc.set_workers(w);
                sc.run_until(SimTime::from_secs_f64(4.0));
                serde_json::to_string(&sc.report()).unwrap()
            })
            .collect();
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
    }
}
