//! Point-in-time snapshots of engine state, and their merge law.
//!
//! A [`Snapshot`] is a plain value: a scrape builds one from the state an
//! engine already keeps, and it can be serialized to JSON, shipped between
//! processes, and combined with [`Snapshot::merge`]. Merging is designed to
//! be associative and order-insensitive (up to floating-point rounding in
//! the Welford summary combine), so snapshots taken from parallel runs can
//! be folded in any order.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use pels_netsim::hist::Histogram;
use pels_netsim::stats::{Summary, TimeSeries};
use serde::{Deserialize, Serialize};

/// Last-written value of a gauge, with a monotone update counter.
///
/// The counter makes gauge merging well defined: combining two snapshots
/// keeps the gauge that has seen more updates (ties broken by the larger
/// value), which is associative and commutative — unlike "last writer wins",
/// which depends on merge order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    /// How many times the gauge has been set.
    pub updates: u64,
    /// Most recently set value.
    pub value: f64,
}

impl Gauge {
    /// The gauge that survives a merge: more updates wins, ties broken by
    /// the larger value under IEEE total order.
    pub fn merged(self, other: Gauge) -> Gauge {
        match self.updates.cmp(&other.updates).then_with(|| self.value.total_cmp(&other.value)) {
            Ordering::Less => other,
            _ => self,
        }
    }
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
    /// Monotone event counts, merged by summation.
    pub counters: BTreeMap<String, u64>,
    /// Last-value metrics, merged by [`Gauge::merged`].
    pub gauges: BTreeMap<String, Gauge>,
    /// Observed distributions, merged by parallel Welford + histogram add.
    pub stats: BTreeMap<String, Stat>,
    /// Named `(t, v)` sample streams, merged by union + sort on `(t, v)`.
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

    /// Folds `other` into `self`.
    ///
    /// Counters add, gauges keep the most-updated writer, stats combine
    /// exactly (histograms) or to within floating-point rounding (Welford
    /// moments), and series take the sorted union of samples. The operation
    /// is associative and commutative up to float rounding, so any merge
    /// tree over the same set of snapshots yields the same result.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            self.gauges.entry(k.clone()).and_modify(|mine| *mine = mine.merged(*g)).or_insert(*g);
        }
        for (k, s) in &other.stats {
            match self.stats.get_mut(k) {
                Some(mine) => {
                    mine.summary.merge(&s.summary);
                    match (&mut mine.hist, &s.hist) {
                        // Stats of one name share histogram parameters; a
                        // foreign snapshot with different ones keeps ours.
                        (Some(h), Some(other)) => {
                            let _ = h.try_merge(other);
                        }
                        (None, Some(other)) => mine.hist = Some(other.clone()),
                        (_, None) => {}
                    }
                }
                None => {
                    self.stats.insert(k.clone(), s.clone());
                }
            }
        }
        for (k, pts) in &other.series {
            let mine = self.series.entry(k.clone()).or_default();
            mine.extend_from_slice(pts);
            mine.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
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

/// A stat as a full scrape would publish it after observing `vals`.
#[cfg(test)]
fn stat_of(vals: &[f64]) -> Stat {
    let (mut summary, mut hist) = (Summary::new(), Histogram::for_delays());
    for &v in vals {
        summary.record(v);
        hist.record(v);
    }
    Stat { summary, hist: Some(hist) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_keep_most_updated() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), 3);
        a.gauges.insert("g".into(), Gauge { updates: 5, value: 1.0 });
        let mut b = Snapshot::default();
        b.counters.insert("c".into(), 4);
        b.gauges.insert("g".into(), Gauge { updates: 2, value: 9.0 });
        a.merge(&b);
        assert_eq!(a.counters["c"], 7);
        assert_eq!(a.gauges["g"], Gauge { updates: 5, value: 1.0 });
    }

    #[test]
    fn merge_unions_series_sorted_by_time() {
        let mut a = Snapshot::default();
        a.series.insert("s".into(), vec![(2.0, 1.0), (0.0, 0.0)]);
        let mut b = Snapshot::default();
        b.series.insert("s".into(), vec![(1.0, 0.5)]);
        a.merge(&b);
        assert_eq!(a.series["s"], vec![(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn merge_combines_stats_exactly_on_counts() {
        let mut a = Snapshot::default();
        a.stats.insert("d".into(), stat_of(&[1.0, 3.0]));
        let mut b = Snapshot::default();
        b.stats.insert("d".into(), stat_of(&[2.0]));
        a.merge(&b);
        let s = &a.stats["d"];
        assert_eq!(s.summary.count(), 3);
        assert!((s.summary.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.hist.as_ref().map(Histogram::count), Some(3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const KEYS: [&str; 4] = ["a", "b", "c", "d"];

    /// Builds a snapshot the way a registry would: replaying randomly keyed
    /// events, so duplicate keys genuinely collide during merges.
    #[allow(clippy::type_complexity)]
    fn build(
        counters: Vec<(u8, u64)>,
        gauges: Vec<(u8, f64)>,
        stats: Vec<(u8, Vec<f64>)>,
        series: Vec<(u8, f64, f64)>,
    ) -> Snapshot {
        let mut snap = Snapshot::default();
        for (k, v) in counters {
            *snap.counters.entry(KEYS[k as usize].into()).or_insert(0) += v;
        }
        for (k, v) in gauges {
            let g = snap
                .gauges
                .entry(KEYS[k as usize].into())
                .or_insert(Gauge { updates: 0, value: 0.0 });
            g.updates += 1;
            g.value = v;
        }
        let mut observed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, vals) in stats {
            observed.entry(KEYS[k as usize]).or_default().extend(vals);
        }
        for (k, vals) in observed {
            snap.stats.insert(k.into(), stat_of(&vals));
        }
        for (k, t, v) in series {
            snap.series.entry(KEYS[k as usize].into()).or_default().push((t, v));
        }
        snap
    }

    fn snapshot_strategy() -> impl Strategy<Value = Snapshot> {
        (
            collection::vec((0u8..4, 0u64..50), 0..6),
            collection::vec((0u8..4, -1e3f64..1e3), 0..6),
            collection::vec((0u8..4, collection::vec(1e-3f64..1e3, 1..8)), 0..4),
            collection::vec((0u8..4, 0.0f64..100.0, -10.0f64..10.0), 0..8),
        )
            .prop_map(|(c, g, s, ts)| build(c, g, s, ts))
    }

    /// Everything but Welford means/variances must agree exactly; the
    /// moments agree to floating-point rounding.
    /// Series are multisets of samples: merge order may leave untouched
    /// keys in push order, so compare them sorted.
    fn sorted_series(s: &Snapshot) -> Vec<(&String, Vec<(f64, f64)>)> {
        s.series
            .iter()
            .map(|(k, pts)| {
                let mut pts = pts.clone();
                pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                (k, pts)
            })
            .collect()
    }

    fn assert_equivalent(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(sorted_series(a), sorted_series(b));
        let a_keys: Vec<&String> = a.stats.keys().collect();
        let b_keys: Vec<&String> = b.stats.keys().collect();
        assert_eq!(a_keys, b_keys);
        for (k, sa) in &a.stats {
            let sb = &b.stats[k];
            assert_eq!(sa.summary.count(), sb.summary.count(), "stat {k} count");
            assert_eq!(sa.summary.min(), sb.summary.min(), "stat {k} min");
            assert_eq!(sa.summary.max(), sb.summary.max(), "stat {k} max");
            let (ma, mb) = (sa.summary.mean(), sb.summary.mean());
            assert!((ma - mb).abs() <= 1e-9 * (1.0 + ma.abs()), "stat {k} mean {ma} vs {mb}");
            let (va, vb) = (sa.summary.variance(), sb.summary.variance());
            assert!((va - vb).abs() <= 1e-6 * (1.0 + va.abs()), "stat {k} var {va} vs {vb}");
            assert_eq!(sa.hist, sb.hist, "stat {k} histogram");
        }
    }

    proptest! {
        /// a ⊕ b == b ⊕ a: merging is order-insensitive.
        #[test]
        fn merge_is_commutative(a in snapshot_strategy(), b in snapshot_strategy()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_equivalent(&ab, &ba);
        }

        /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): any merge tree yields one result.
        #[test]
        fn merge_is_associative(
            a in snapshot_strategy(),
            b in snapshot_strategy(),
            c in snapshot_strategy(),
        ) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_equivalent(&left, &right);
        }

        /// The empty snapshot is the merge identity.
        #[test]
        fn empty_is_identity(a in snapshot_strategy()) {
            let mut with_empty = a.clone();
            with_empty.merge(&Snapshot::default());
            assert_equivalent(&with_empty, &a);
            let mut from_empty = Snapshot::default();
            from_empty.merge(&a);
            assert_equivalent(&from_empty, &a);
        }
    }
}
