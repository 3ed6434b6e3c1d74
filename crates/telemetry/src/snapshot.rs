//! Point-in-time snapshots of engine state.
//!
//! A [`Snapshot`] is a plain value: a scrape builds one from the state an
//! engine already keeps, and it can be serialized to JSON and shipped
//! between processes.

use std::collections::BTreeMap;

use pels_netsim::hist::Histogram;
use pels_netsim::stats::{Summary, TimeSeries};
use serde::{Deserialize, Serialize};

/// Last-written value of a gauge, with a monotone update counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    /// How many times the gauge has been set.
    pub updates: u64,
    /// Most recently set value.
    pub value: f64,
}

/// Distribution of an observed metric: Welford moments, and on a full
/// scrape the log-bucket histogram quantiles are read from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stat {
    /// Count / mean / variance / extrema.
    pub summary: Summary,
    /// Log-bucket histogram; `None` in a periodic scrape, which a few
    /// hundred histograms a second would otherwise dominate.
    pub hist: Option<Histogram>,
}

/// A point-in-time copy of every metric one scrape read.
///
/// Counters, gauges and stat summaries are cumulative: each snapshot holds
/// their state since the start of the run, so a JSON-lines stream of
/// snapshots can be truncated at any line and the last surviving line still
/// summarizes the run so far. Histograms and series are in a full scrape —
/// the last of a run — only.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-value metrics.
    pub gauges: BTreeMap<String, Gauge>,
    /// Observed distributions.
    pub stats: BTreeMap<String, Stat>,
    /// Named `(t, v)` sample streams.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Snapshot {
    /// Sets gauge `name` to `v` (one update: a scrape reads a gauge once).
    pub fn set_gauge(&mut self, name: impl Into<String>, v: f64) {
        self.gauges.insert(name.into(), Gauge { updates: 1, value: v });
    }

    /// Publishes a distribution an engine keeps as stat `name`, with its
    /// histogram on a full scrape. One that has seen no observation is no
    /// row.
    pub fn set_stat(
        &mut self,
        name: impl Into<String>,
        summary: &Summary,
        hist: Option<&Histogram>,
    ) {
        if summary.count() > 0 {
            self.stats.insert(name.into(), Stat { summary: summary.clone(), hist: hist.cloned() });
        }
    }

    /// Publishes the points of a series an engine keeps under `name`. An
    /// empty one (never sampled, or not kept) is no row.
    pub fn set_series(&mut self, name: impl Into<String>, series: &TimeSeries) {
        if !series.is_empty() {
            self.series.insert(name.into(), series.points.clone());
        }
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.stats.is_empty()
            && self.series.is_empty()
    }
}
