//! Snapshot sinks: where published telemetry goes.
//!
//! Sinks receive every published snapshot. File sinks are best-effort: I/O
//! errors after a successful open are counted, not raised, so a full disk
//! can never take down a live streaming session; the run reads the count
//! at its end ([`crate::Telemetry::sink_errors`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::snapshot::Snapshot;

/// A destination for published snapshots.
pub trait Sink: Send {
    /// Receives the snapshot scraped at time `t` (seconds).
    fn emit(&mut self, t: f64, snap: &Snapshot);

    /// Snapshots this sink failed to deliver.
    fn errors(&self) -> u64 {
        0
    }
}

/// One line of a JSON-lines telemetry stream: the scrape time plus the
/// snapshot scraped then. Periodic lines carry counters, gauges and stat
/// summaries; the last line of a run adds histograms and series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotLine {
    /// Scrape time in seconds (sim time or wall-clock run time).
    pub t: f64,
    /// The engines' state at `t`.
    pub snapshot: Snapshot,
}

/// Parses a JSON-lines telemetry stream (blank lines ignored).
pub fn parse_snapshot_lines(text: &str) -> Result<Vec<SnapshotLine>, serde::Error> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(serde_json::from_str).collect()
}

/// Appends one JSON object per published snapshot to a file — the `--telemetry <path>`
/// format. Each line is a self-contained [`SnapshotLine`].
pub struct JsonLinesSink {
    w: BufWriter<File>,
    /// Snapshots that failed to serialize or write.
    errors: u64,
}

impl JsonLinesSink {
    /// Creates (truncates) the output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSink { w: BufWriter::new(File::create(path)?), errors: 0 })
    }
}

impl Sink for JsonLinesSink {
    fn emit(&mut self, t: f64, snap: &Snapshot) {
        let line = SnapshotLine { t, snapshot: snap.clone() };
        match serde_json::to_string(&line) {
            Ok(json) => {
                let ok = writeln!(self.w, "{json}").is_ok() && self.w.flush().is_ok();
                if !ok {
                    self.errors += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }

    fn errors(&self) -> u64 {
        self.errors
    }
}

/// Retains every published snapshot in memory; clone the sink to keep a
/// reading handle after attaching it.
#[derive(Clone, Default)]
pub struct MemorySink {
    store: Arc<Mutex<Vec<(f64, Snapshot)>>>,
}

impl MemorySink {
    /// All `(t, snapshot)` pairs published so far.
    pub fn snapshots(&self) -> Vec<(f64, Snapshot)> {
        self.store.lock().map(|g| g.clone()).unwrap_or_default()
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, t: f64, snap: &Snapshot) {
        if let Ok(mut g) = self.store.lock() {
            g.push((t, snap.clone()));
        }
    }
}
