//! Telemetry for the PELS simulation and wire stacks: a registry that is
//! filled by scrapes.
//!
//! The engines record every value once, in their own state — plain
//! counters, [`Summary`](pels_netsim::stats::Summary)s, histograms and
//! [`TimeSeries`](pels_netsim::stats::TimeSeries) — and never see a
//! telemetry handle. Whoever drives a run holds the [`Telemetry`] handle and
//! *scrapes*: it reads the engines' state into a [`Snapshot`] and
//! [`Telemetry::publish`]es it, once a second and at exit. Between scrapes
//! telemetry costs nothing, and because a snapshot is a function of engine
//! state alone it is as deterministic as the run. The two scrapes are
//! `pels_core::roles::RoleIds::scrape` (simulator) and
//! `pels_wire::serve::ServeLoop::scrape` (wire; a one-flow session adds its
//! receiver and fault counters).
//!
//! A snapshot holds four kinds of metric:
//!
//! - **counters** — monotone event counts,
//! - **gauges** — last-value metrics,
//! - **stats** — distributions: Welford moments, plus a log-bucket
//!   histogram on a full scrape,
//! - **series** — named `(t, v)` sample streams, on a full scrape only.
//!
//! Metric names are dotted scopes: `sim.flow0.rate_kbps`, `sim.router3.p`,
//! `wire.rx.decode_errors`. See DESIGN.md §10 for the full naming scheme.
//!
//! Pluggable sinks ([`Sink`]) receive every published snapshot: JSON-lines
//! for `--telemetry <path>`, or in-memory for tests.
//!
//! # Examples
//!
//! ```
//! use pels_telemetry::{MemorySink, Snapshot, Telemetry};
//!
//! let tel = Telemetry::new();
//! let mem = MemorySink::default();
//! tel.attach_sink(Box::new(mem.clone()));
//!
//! let mut snap = Snapshot::default();
//! snap.counters.insert("sim.router0.drops.red".into(), 7);
//! snap.set_gauge("sim.events", 1e6);
//! tel.publish(1.0, snap);
//!
//! assert_eq!(tel.counter("sim.router0.drops.red"), 7);
//! assert_eq!(mem.snapshots()[0].0, 1.0);
//!
//! // A disabled handle keeps nothing and reaches no sink.
//! let off = Telemetry::disabled();
//! off.publish(1.0, Snapshot::default());
//! assert!(!off.is_enabled());
//! ```

pub mod sink;
pub mod snapshot;

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

pub use sink::{parse_snapshot_lines, JsonLinesSink, MemorySink, Sink, SnapshotLine};
pub use snapshot::{Gauge, Snapshot, Stat};

struct Inner {
    /// The latest published snapshot.
    registry: Mutex<Snapshot>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

/// A cloneable telemetry handle. Clones share one registry.
///
/// The default handle is disabled: it holds no allocation, keeps nothing
/// and reaches no sink.
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
                registry: Mutex::new(Snapshot::default()),
                sinks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Creates an enabled handle whose snapshots go to a [`JsonLinesSink`]
    /// on `path`, created or truncated.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the file.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        let tel = Telemetry::new();
        tel.attach_sink(Box::new(JsonLinesSink::create(path)?));
        Ok(tel)
    }

    /// Creates a disabled handle (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle keeps anything. Check it before a scrape: a
    /// disabled handle would drop the snapshot unread.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name` — the one direct write, for a caller
    /// with no state of its own to scrape. The engines do not call it.
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

    /// Makes `snap` — one scrape of the engines' state as of time `t`, in
    /// seconds — the registry's content and hands it to every attached sink.
    pub fn publish(&self, t: f64, snap: Snapshot) {
        let Some(inner) = &self.inner else { return };
        for sink in lock(&inner.sinks).iter_mut() {
            sink.emit(t, &snap);
        }
        *lock(&inner.registry) = snap;
    }

    /// Current value of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(&inner.registry).counters.get(name).copied().unwrap_or(0)
    }

    /// A copy of the latest published snapshot (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        lock(&inner.registry).clone()
    }

    /// Attaches a sink; it receives every subsequent [`Telemetry::publish`].
    /// No-op on a disabled handle.
    pub fn attach_sink(&self, sink: Box<dyn Sink>) {
        let Some(inner) = &self.inner else { return };
        lock(&inner.sinks).push(sink);
    }

    /// Snapshots the attached sinks failed to deliver (0 when disabled).
    pub fn sink_errors(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        lock(&inner.sinks).iter().map(|sink| sink.errors()).sum()
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
    use pels_netsim::hist::Histogram;
    use pels_netsim::stats::{Summary, TimeSeries};

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

    fn counters(c: u64) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("c".into(), c);
        snap
    }

    #[test]
    fn disabled_handle_keeps_nothing() {
        let tel = Telemetry::disabled();
        tel.counter_add("c", 5);
        tel.publish(1.0, counters(5));
        assert!(!tel.is_enabled());
        assert!(tel.snapshot().is_empty());
        assert_eq!(tel.counter("c"), 0);
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
    fn a_publish_replaces_the_registry_and_reaches_every_sink() {
        let tel = Telemetry::new();
        let mem = MemorySink::default();
        tel.attach_sink(Box::new(mem.clone()));
        tel.publish(1.0, counters(1));
        let mut second = counters(2);
        second.set_gauge("g", 0.5);
        tel.publish(2.0, second);
        let snaps = mem.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].1.counters["c"], 1);
        assert!(snaps[0].1.gauges.is_empty());
        assert_eq!(snaps[1].1.counters["c"], 2);
        assert_eq!(snaps[1].0, 2.0);
        // A scrape is the engines' whole state, not an increment.
        assert_eq!(tel.counter("c"), 2);
        assert_eq!(tel.snapshot().gauges["g"].value, 0.5);
    }

    #[test]
    fn snapshot_serializes_to_json_lines_and_back() {
        let mut summary = Summary::new();
        summary.record(0.125);
        let mut hist = Histogram::for_delays();
        hist.record(0.125);
        let mut ts = TimeSeries::new("ts");
        ts.push(0.0, 1.0);
        let mut snap = counters(7);
        snap.set_gauge("g", 2.5);
        snap.set_stat("periodic", &summary, None);
        snap.set_stat("full", &summary, Some(&hist));
        snap.set_stat("never observed", &Summary::new(), None);
        snap.set_series("ts", &ts);
        snap.set_series("never sampled", &TimeSeries::new("empty"));
        let line = SnapshotLine { t: 3.0, snapshot: snap };
        let json = serde_json::to_string(&line).unwrap();
        let parsed = parse_snapshot_lines(&format!("{json}\n{json}\n")).unwrap();
        assert_eq!(parsed.len(), 2);
        let s = &parsed[1].snapshot;
        assert_eq!(parsed[1].t, 3.0);
        assert_eq!(s.counters["c"], 7);
        assert_eq!(s.gauges["g"].value, 2.5);
        assert_eq!(s.stats.len(), 2, "an empty distribution is no row");
        assert_eq!(s.stats["periodic"].summary.count(), 1);
        assert!(s.stats["periodic"].hist.is_none());
        assert_eq!(s.stats["full"].hist, Some(hist));
        assert_eq!(s.series.len(), 1, "an empty series is no row");
        assert_eq!(s.series["ts"], vec![(0.0, 1.0)]);
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let dir = TestDir::new("jsonl");
        let path = dir.0.join("stream.jsonl");
        let tel = Telemetry::new();
        tel.attach_sink(Box::new(JsonLinesSink::create(&path).unwrap()));
        tel.publish(0.5, counters(1));
        tel.publish(1.5, counters(2));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = parse_snapshot_lines(&text).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].snapshot.counters["c"], 2);
    }
}
