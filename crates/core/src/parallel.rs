//! The former sharded front-end's name. `benchmark/src/sim.rs` imports this
//! path and calls `build`, `set_workers`, `run_until`, `report`,
//! `router_ids` and `.sim` on it; nothing inside the workspace does.
pub use crate::scenario::Scenario as ParallelScenario;
