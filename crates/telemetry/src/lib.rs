//! Unified telemetry for the PELS simulation and wire stacks.
//!
//! One lightweight handle, [`Telemetry`], is threaded through the hot paths
//! of the simulator, the controllers, and the live UDP agents. It is
//! **zero-cost when disabled**: the default handle holds no allocation and
//! every recording call is a single `Option` check. When enabled, metrics
//! accumulate in a registry of:
//!
//! - **counters** — monotone event counts (`counter_add`),
//! - **gauges** — last-value metrics with update counts (`gauge_set`),
//! - **stats** — streaming distributions: Welford moments + log-bucket
//!   histogram (`observe`),
//! - **series** — named `(t, v)` sample scopes (`sample`).
//!
//! Metric names are dotted scopes: `flow0.rate_kbps`, `router.p_red`,
//! `wire.rx.decode_errors`. See DESIGN.md §10 for the full naming scheme.
//!
//! Snapshots of the registry ([`Snapshot`]) merge associatively and
//! order-insensitively, so parallel runs can be folded in any order.
//! Pluggable sinks ([`Sink`]) receive cumulative snapshots on
//! [`Telemetry::flush`]: JSON-lines for `--telemetry <path>`, CSV via the
//! shared `stats::to_csv`, or in-memory for tests.
//!
//! # Examples
//!
//! ```
//! use pels_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! tel.counter_add("router.drops.red", 1);
//! tel.gauge_set("flow0.gamma", 0.8);
//! tel.observe("flow0.rate_kbps", 1040.0);
//! tel.sample("router.p", 1.0, 0.02);
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.counters["router.drops.red"], 1);
//!
//! // Disabled handles record nothing and cost one branch per call.
//! let off = Telemetry::disabled();
//! off.counter_add("router.drops.red", 1);
//! assert!(off.snapshot().is_empty());
//! ```

pub mod sink;
pub mod snapshot;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use pels_netsim::stats::TimeSeries;

pub use sink::{parse_snapshot_lines, CsvSink, JsonLinesSink, MemorySink, Sink, SnapshotLine};
pub use snapshot::{Gauge, Snapshot, Stat};

/// Live metric state behind an enabled handle.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    stats: BTreeMap<String, Stat>,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

struct Inner {
    registry: Mutex<Registry>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

/// A cloneable telemetry handle. Clones share one registry.
///
/// The default handle is disabled: it holds no allocation and every
/// recording method returns after one branch, so instrumented hot paths pay
/// nothing when telemetry is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Recovers the guard even if a panic poisoned the lock — telemetry must
/// never be the thing that takes a run down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Telemetry {
    /// Creates an enabled handle with an empty registry and no sinks.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::default()),
                sinks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Creates a disabled handle (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = lock(&inner.registry);
        match reg.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                reg.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = lock(&inner.registry);
        match reg.gauges.get_mut(name) {
            Some(g) => {
                g.updates += 1;
                g.value = v;
            }
            None => {
                reg.gauges.insert(name.to_owned(), Gauge { updates: 1, value: v });
            }
        }
    }

    /// Records `v` into the streaming distribution `name`.
    pub fn observe(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = lock(&inner.registry);
        match reg.stats.get_mut(name) {
            Some(s) => s.record(v),
            None => {
                let mut s = Stat::default();
                s.record(v);
                reg.stats.insert(name.to_owned(), s);
            }
        }
    }

    /// Appends `(t, v)` to the time-series scope `scope`.
    pub fn sample(&self, scope: &str, t: f64, v: f64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = lock(&inner.registry);
        match reg.series.get_mut(scope) {
            Some(pts) => pts.push((t, v)),
            None => {
                reg.series.insert(scope.to_owned(), vec![(t, v)]);
            }
        }
    }

    /// Current value of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(&inner.registry).counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        lock(&inner.registry).gauges.get(name).map(|g| g.value)
    }

    /// A copy of the series scope `name`, as a plottable [`TimeSeries`].
    pub fn series(&self, name: &str) -> Option<TimeSeries> {
        let inner = self.inner.as_ref()?;
        lock(&inner.registry)
            .series
            .get(name)
            .map(|pts| TimeSeries { name: name.to_owned(), points: pts.clone() })
    }

    /// A point-in-time copy of every metric (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let reg = lock(&inner.registry);
        Snapshot {
            counters: reg.counters.clone(),
            gauges: reg.gauges.clone(),
            stats: reg.stats.clone(),
            series: reg.series.clone(),
        }
    }

    /// Attaches a sink; it receives every subsequent [`Telemetry::flush`].
    /// No-op on a disabled handle.
    pub fn attach_sink(&self, sink: Box<dyn Sink>) {
        let Some(inner) = &self.inner else { return };
        lock(&inner.sinks).push(sink);
    }

    /// Emits the cumulative snapshot (stamped with time `t`, in seconds) to
    /// every attached sink.
    pub fn flush(&self, t: f64) {
        let Some(inner) = &self.inner else { return };
        let snap = self.snapshot();
        for sink in lock(&inner.sinks).iter_mut() {
            sink.emit(t, &snap);
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory unique to this process and test, removed on drop: two
    /// `cargo test` processes on one host never meet in a file.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(test: &str) -> Self {
            let name = format!("pels_telemetry_{test}_{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.counter_add("c", 5);
        tel.gauge_set("g", 1.0);
        tel.observe("s", 2.0);
        tel.sample("ts", 0.0, 3.0);
        tel.flush(1.0);
        assert!(!tel.is_enabled());
        assert!(tel.snapshot().is_empty());
        assert_eq!(tel.counter("c"), 0);
        assert_eq!(tel.gauge("g"), None);
        assert!(tel.series("ts").is_none());
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::new();
        let other = tel.clone();
        tel.counter_add("c", 2);
        other.counter_add("c", 3);
        assert_eq!(tel.counter("c"), 5);
    }

    #[test]
    fn registry_round_trip() {
        let tel = Telemetry::new();
        tel.counter_add("wire.rx.decode_errors", 2);
        tel.gauge_set("flow0.gamma", 0.7);
        tel.gauge_set("flow0.gamma", 0.9);
        for v in [1.0, 2.0, 3.0] {
            tel.observe("flow0.rate_kbps", v * 100.0);
        }
        tel.sample("router.p", 0.5, 0.01);
        tel.sample("router.p", 1.0, 0.02);

        let snap = tel.snapshot();
        assert_eq!(snap.counters["wire.rx.decode_errors"], 2);
        assert_eq!(snap.gauges["flow0.gamma"], Gauge { updates: 2, value: 0.9 });
        assert_eq!(snap.stats["flow0.rate_kbps"].summary.count(), 3);
        assert_eq!(snap.series["router.p"].len(), 2);
        let series = tel.series("router.p").unwrap();
        assert_eq!(series.name, "router.p");
        assert_eq!(series.last_value(), Some(0.02));
    }

    #[test]
    fn memory_sink_sees_cumulative_snapshots() {
        let tel = Telemetry::new();
        let mem = MemorySink::new();
        tel.attach_sink(Box::new(mem.clone()));
        tel.counter_add("c", 1);
        tel.flush(1.0);
        tel.counter_add("c", 1);
        tel.flush(2.0);
        let snaps = mem.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].1.counters["c"], 1);
        assert_eq!(snaps[1].1.counters["c"], 2);
        assert_eq!(mem.last().unwrap().0, 2.0);
    }

    #[test]
    fn snapshot_serializes_to_json_lines_and_back() {
        let tel = Telemetry::new();
        tel.counter_add("c", 7);
        tel.gauge_set("g", 2.5);
        tel.observe("o", 0.125);
        tel.sample("ts", 0.0, 1.0);
        let line = SnapshotLine { t: 3.0, snapshot: tel.snapshot() };
        let json = serde_json::to_string(&line).unwrap();
        let parsed = parse_snapshot_lines(&format!("{json}\n{json}\n")).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].t, 3.0);
        assert_eq!(parsed[1].snapshot.counters["c"], 7);
        assert_eq!(parsed[1].snapshot.gauges["g"].value, 2.5);
        assert_eq!(parsed[1].snapshot.stats["o"].summary.count(), 1);
        assert_eq!(parsed[1].snapshot.series["ts"], vec![(0.0, 1.0)]);
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let dir = TestDir::new("jsonl");
        let path = dir.0.join("stream.jsonl");
        let tel = Telemetry::new();
        tel.attach_sink(Box::new(JsonLinesSink::create(&path).unwrap()));
        tel.counter_add("c", 1);
        tel.flush(0.5);
        tel.counter_add("c", 1);
        tel.flush(1.5);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = parse_snapshot_lines(&text).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].snapshot.counters["c"], 2);
    }

    #[test]
    fn csv_sink_rewrites_series_csv() {
        let dir = TestDir::new("csv");
        let path = dir.0.join("series.csv");
        let tel = Telemetry::new();
        tel.attach_sink(Box::new(CsvSink::new(&path)));
        tel.sample("a", 0.0, 1.0);
        tel.sample("b", 0.5, 2.0);
        tel.flush(1.0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t,a,b");
        assert_eq!(lines.len(), 3);
    }
}
