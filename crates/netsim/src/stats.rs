//! Measurement helpers: time series, running summaries, and delay recorders.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};

/// A `(time, value)` series sampled during a simulation run.
///
/// # Examples
///
/// ```
/// use pels_netsim::stats::TimeSeries;
///
/// let mut s = TimeSeries::new("rate");
/// s.push(0.0, 128.0);
/// s.push(1.0, 256.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.mean_after(0.5), Some(256.0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Series name (used as a CSV column header).
    pub name: String,
    /// `(time seconds, value)` samples in push order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), points: Vec::new() }
    }

    /// Appends a sample.
    pub fn push(&mut self, t: f64, v: f64) {
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values sampled at `t >= from`.
    pub fn mean_after(&self, from: f64) -> Option<f64> {
        let vals: Vec<f64> =
            self.points.iter().filter(|&&(t, _)| t >= from).map(|&(_, v)| v).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Minimum and maximum value over samples at `t >= from`.
    pub fn min_max_after(&self, from: f64) -> Option<(f64, f64)> {
        let mut it = self.points.iter().filter(|&&(t, _)| t >= from).map(|&(_, v)| v);
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }

    /// Iterates over the `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = &(f64, f64)> {
        self.points.iter()
    }
}

/// Streaming summary statistics (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use pels_netsim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] { s.record(v); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// assert_eq!(Summary::new().min(), None);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation, or `None` when empty (the internal `+inf`
    /// sentinel must never leak into reports or CSV output).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-class delay statistics (classes 0..=3), plus a time series of
/// individual delays for plotting.
#[derive(Debug, Clone, Default)]
pub struct DelayRecorder {
    /// Aggregate per class.
    pub by_class: [Summary; 4],
    /// Log-bucket histograms per class (for quantiles).
    pub hist_by_class: [Option<Histogram>; 4],
    /// Raw `(arrival time s, delay s)` samples per class, for figures.
    pub series: [TimeSeries; 4],
    /// Whether raw samples are kept (aggregates always are).
    pub keep_series: bool,
}

impl DelayRecorder {
    /// Creates a recorder; `keep_series` retains raw samples for plotting.
    pub fn new(keep_series: bool) -> Self {
        DelayRecorder {
            by_class: Default::default(),
            hist_by_class: [
                Some(Histogram::for_delays()),
                Some(Histogram::for_delays()),
                Some(Histogram::for_delays()),
                Some(Histogram::for_delays()),
            ],
            series: [
                TimeSeries::new("class0"),
                TimeSeries::new("class1"),
                TimeSeries::new("class2"),
                TimeSeries::new("class3"),
            ],
            keep_series,
        }
    }

    /// Records a one-way delay observation for `class` at time `now_s`.
    pub fn record(&mut self, class: u8, now_s: f64, delay_s: f64) {
        let c = class.min(3) as usize;
        self.by_class[c].record(delay_s);
        if let Some(h) = &mut self.hist_by_class[c] {
            h.record(delay_s);
        }
        if self.keep_series {
            self.series[c].push(now_s, delay_s);
        }
    }

    /// Delay quantile `q` for `class`, when any samples exist.
    pub fn quantile(&self, class: u8, q: f64) -> Option<f64> {
        self.hist_by_class[class.min(3) as usize].as_ref().and_then(|h| h.quantile(q))
    }
}

/// Writes series as CSV text: `t,<name1>,<name2>,...` with rows merged on
/// sample time, so series sampled at different cadences stay aligned on a
/// single shared time column. Cells are blank where a series has no sample
/// at that time. Duplicate timestamps within one series are preserved: each
/// row consumes at most one sample per series, so a time recorded twice
/// yields two rows (pairing with other series' duplicates in push order).
pub fn to_csv(series: &[&TimeSeries]) -> String {
    let mut out = String::new();
    out.push('t');
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    // Sort each series by time (stable, so same-time samples keep push
    // order), then k-way merge: every row takes the smallest pending time
    // and the head sample of each series stamped with exactly that time.
    let streams: Vec<Vec<(f64, f64)>> = series
        .iter()
        .map(|s| {
            let mut pts = s.points.clone();
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            pts
        })
        .collect();
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let next = streams
            .iter()
            .zip(&cursors)
            .filter_map(|(pts, &i)| pts.get(i).map(|&(t, _)| t))
            .min_by(f64::total_cmp);
        let Some(row_t) = next else { break };
        out.push_str(&format!("{row_t:.6}"));
        for (pts, cur) in streams.iter().zip(cursors.iter_mut()) {
            match pts.get(*cur) {
                Some(&(t, v)) if t.total_cmp(&row_t).is_eq() => {
                    out.push_str(&format!(",{v:.6}"));
                    *cur += 1;
                }
                _ => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_has_no_extrema() {
        let s = Summary::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &v in &data {
            whole.record(v);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &v in &data[..37] {
            a.record(v);
        }
        for &v in &data[37..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn timeseries_queries() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(i as f64, (i * i) as f64);
        }
        assert_eq!(s.mean_after(8.0), Some((64.0 + 81.0) / 2.0));
        assert_eq!(s.min_max_after(5.0), Some((25.0, 81.0)));
        assert_eq!(s.mean_after(100.0), None);
    }

    #[test]
    fn delay_recorder_aggregates_and_series() {
        let mut r = DelayRecorder::new(true);
        r.record(0, 1.0, 0.016);
        r.record(0, 2.0, 0.018);
        r.record(2, 1.5, 0.4);
        assert_eq!(r.by_class[0].count(), 2);
        assert!((r.by_class[0].mean() - 0.017).abs() < 1e-12);
        assert_eq!(r.series[2].len(), 1);
        // Class out of range folds into 3.
        r.record(200, 0.0, 0.1);
        assert_eq!(r.by_class[3].count(), 1);
    }

    #[test]
    fn csv_output_shape() {
        let mut a = TimeSeries::new("a");
        a.push(0.0, 1.0);
        a.push(1.0, 2.0);
        let mut b = TimeSeries::new("b");
        b.push(0.5, 9.0);
        let csv = to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + one row per distinct time
        assert_eq!(lines[0], "t,a,b");
        assert_eq!(lines[1], "0.000000,1.000000,");
        assert_eq!(lines[2], "0.500000,,9.000000");
        assert_eq!(lines[3], "1.000000,2.000000,");
    }

    #[test]
    fn csv_merges_unequal_cadences_on_time() {
        // One series every second, one every 0.4 s: every row's time column
        // must be the actual sample time of each value on that row.
        let mut slow = TimeSeries::new("slow");
        let mut fast = TimeSeries::new("fast");
        for i in 0..3 {
            slow.push(i as f64, 10.0 + i as f64);
        }
        for i in 0..5 {
            fast.push(i as f64 * 0.4, i as f64);
        }
        let csv = to_csv(&[&slow, &fast]);
        let lines: Vec<&str> = csv.lines().collect();
        // Times: 0 (both), 0.4, 0.8, 1.2, 1.6 (fast), 1, 2 (slow) = 7 rows.
        assert_eq!(lines.len(), 8);
        let mut prev_t = f64::NEG_INFINITY;
        for line in &lines[1..] {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 3);
            let t: f64 = cells[0].parse().unwrap();
            assert!(t >= prev_t, "time column must be non-decreasing");
            prev_t = t;
        }
        assert_eq!(lines[1], "0.000000,10.000000,0.000000");
        assert_eq!(lines[2], "0.400000,,1.000000");
        assert_eq!(lines[4], "1.000000,11.000000,");
    }

    #[test]
    fn csv_preserves_duplicate_timestamps() {
        let mut s = TimeSeries::new("d");
        s.push(1.0, 5.0);
        s.push(1.0, 6.0);
        let csv = to_csv(&[&s]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "same-time samples must each get a row");
        assert_eq!(lines[1], "1.000000,5.000000");
        assert_eq!(lines[2], "1.000000,6.000000");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Merging summaries in any split is equivalent to one stream.
        #[test]
        fn merge_invariance(data in proptest::collection::vec(-1e6f64..1e6, 2..200), split in 0usize..200) {
            let split = split % data.len();
            let mut whole = Summary::new();
            for &v in &data { whole.record(v); }
            let mut a = Summary::new();
            let mut b = Summary::new();
            for &v in &data[..split] { a.record(v); }
            for &v in &data[split..] { b.record(v); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
            prop_assert!((a.min().unwrap() - whole.min().unwrap()).abs() < 1e-12);
            prop_assert!((a.max().unwrap() - whole.max().unwrap()).abs() < 1e-12);
        }
    }
}
