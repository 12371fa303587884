//! Lock-free metrics registry: counters, gauges, log₂ histograms.
//!
//! Registration (naming a metric, getting a handle) takes a lock once;
//! after that every operation on the returned handle is a relaxed
//! atomic — no locks, no allocation — so handles are safe to use from
//! the zero-alloc ingest hot path. [`MetricsRegistry::render_text`]
//! walks the registry and emits a Prometheus-style text exposition.

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket 0 holds value 0, bucket `k`
/// (1..=64) holds values whose highest set bit is bit `k-1`, i.e.
/// `2^(k-1) <= v < 2^k`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: 0 for 0, else `64 - leading_zeros`,
/// so exact powers of two `2^k` land deterministically in bucket `k + 1`
/// (the half-open range `[2^k, 2^(k+1))`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket, used as the deterministic
/// quantile estimate: bucket 0 → 0, bucket `k` → `2^k - 1`.
#[inline]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle (f64 bits in an atomic). Cloning shares the
/// underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add a delta (read-modify-write loop; gauges are not hot-path).
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed histogram handle for non-negative integer samples
/// (conventionally nanoseconds). Cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample. Pure relaxed atomics; zero-alloc.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy of the bucket array and summary
    /// stats. (Buckets are read individually; under concurrent writers
    /// the snapshot is approximate, which is fine for exposition.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time histogram readout.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Deterministic quantile estimate: the inclusive upper bound of the
    /// first bucket whose cumulative count reaches `q * count`. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The max is a tighter bound than the top bucket's edge.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value, 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Escape one raw label value for Prometheus text exposition:
/// `\` → `\\`, `"` → `\"`, newline → `\n`. The registry stores values
/// raw; [`MetricsRegistry::render_text`] applies this at exposition
/// time, and renderers that format label values themselves (the query
/// front-end, the self-telemetry bridge) should do the same.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape the inside of a rendered `{...}` label section. Values were
/// stored raw, so a `"` is a closing delimiter only when followed by
/// `,` or the end of the section; everything else inside a value is
/// content and gets escaped.
fn escape_label_section(inner: &str) -> String {
    let chars: Vec<char> = inner.chars().collect();
    let mut out = String::with_capacity(inner.len());
    let mut in_value = false;
    for (i, &c) in chars.iter().enumerate() {
        if !in_value {
            out.push(c);
            if c == '"' {
                in_value = true;
            }
            continue;
        }
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => match chars.get(i + 1) {
                None | Some(',') => {
                    out.push('"');
                    in_value = false;
                }
                _ => out.push_str("\\\""),
            },
            _ => out.push(c),
        }
    }
    out
}

/// A stored metric name split for exposition: the base name and the
/// inside of its `{...}` label section with values escaped (empty for a
/// bare name).
fn split_name(name: &str) -> (&str, String) {
    match name.find('{') {
        Some(open) if name.ends_with('}') => (
            &name[..open],
            escape_label_section(&name[open + 1..name.len() - 1]),
        ),
        _ => (name, String::new()),
    }
}

/// A sample's label set: the metric name's own labels, then `extra`
/// (the histogram bucket's `le`), braced; empty when there are none.
fn label_set(labels: &str, extra: &str) -> String {
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (false, true) => format!("{{{labels}}}"),
        (true, false) => format!("{{{extra}}}"),
        (false, false) => format!("{{{labels},{extra}}}"),
    }
}

/// Federation-wide rollup: sum every *counter* across the given rack
/// registries, keyed by metric name, in sorted name order. Counters are
/// the only kind whose site-level value is the plain sum of the rack
/// values, which makes the rollup deterministic — gauges and histogram
/// quantiles stay per-rack.
pub fn rollup_counters<'a>(
    registries: impl IntoIterator<Item = &'a MetricsRegistry>,
) -> Vec<(String, u64)> {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for r in registries {
        let g = r.inner.read();
        for (name, m) in &g.by_name {
            if let Metric::Counter(c) = m {
                *sums.entry(name.clone()).or_insert(0) += c.get();
            }
        }
    }
    sums.into_iter().collect()
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Default)]
struct Inner {
    by_name: HashMap<String, Metric>,
}

/// Registry of named metrics. Registration is idempotent: asking for an
/// existing name returns a handle to the same cells (panics if the kind
/// differs — that is a wiring bug).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.write();
        match g
            .by_name
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.write();
        match g
            .by_name
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.write();
        match g
            .by_name
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram(Arc::new(HistogramCore::new()))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Look up an already-registered histogram without creating it.
    pub fn find_histogram(&self, name: &str) -> Option<Histogram> {
        match self.inner.read().by_name.get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Look up an already-registered counter without creating it.
    pub fn find_counter(&self, name: &str) -> Option<Counter> {
        match self.inner.read().by_name.get(name) {
            Some(Metric::Counter(c)) => Some(c.clone()),
            _ => None,
        }
    }

    /// Visit every metric as flat `(series_name, value)` samples, in
    /// sorted name order — the feed for the self-telemetry bridge.
    /// Histograms expand to `_count`/`_sum`/`_max`/`_p50`/`_p95`/`_p99`.
    pub fn visit_samples(&self, mut f: impl FnMut(&str, f64)) {
        let g = self.inner.read();
        let mut names: Vec<&String> = g.by_name.keys().collect();
        names.sort();
        let mut scratch = String::new();
        for name in names {
            match &g.by_name[name.as_str()] {
                Metric::Counter(c) => f(name, c.get() as f64),
                Metric::Gauge(gg) => f(name, gg.get()),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    for (suffix, v) in [
                        ("_count", s.count as f64),
                        ("_sum", s.sum as f64),
                        ("_max", s.max as f64),
                        ("_p50", s.quantile(0.50) as f64),
                        ("_p95", s.quantile(0.95) as f64),
                        ("_p99", s.quantile(0.99) as f64),
                    ] {
                        scratch.clear();
                        scratch.push_str(name);
                        scratch.push_str(suffix);
                        f(&scratch, v);
                    }
                }
            }
        }
    }

    /// Prometheus-style text exposition. Metrics are emitted in sorted
    /// name order; `# TYPE` lines are emitted once per base name (the
    /// part before any `{label}` suffix), so per-topic gauge families
    /// share one TYPE line. Every sample carries its metric's labels, a
    /// histogram's series included, so the members of a labelled
    /// histogram family stay distinct.
    pub fn render_text(&self) -> String {
        let g = self.inner.read();
        let mut names: Vec<&String> = g.by_name.keys().collect();
        names.sort();
        let mut out = String::new();
        let mut last_base = String::new();
        for name in names {
            let (base, labels) = split_name(name);
            let metric = &g.by_name[name.as_str()];
            if base != last_base {
                let ty = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {base} {ty}\n"));
                last_base = base.to_string();
            }
            let own = label_set(&labels, "");
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{base}{own} {}\n", c.get())),
                Metric::Gauge(gg) => out.push_str(&format!("{base}{own} {}\n", gg.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &b) in s.buckets.iter().enumerate() {
                        if b == 0 {
                            continue;
                        }
                        cum += b;
                        let le = format!("le=\"{}\"", bucket_upper_bound(i));
                        let set = label_set(&labels, &le);
                        out.push_str(&format!("{base}_bucket{set} {cum}\n"));
                    }
                    let set = label_set(&labels, "le=\"+Inf\"");
                    out.push_str(&format!("{base}_bucket{set} {}\n", s.count));
                    out.push_str(&format!("{base}_sum{own} {}\n", s.sum));
                    out.push_str(&format!("{base}_count{own} {}\n", s.count));
                    out.push_str(&format!("{base}_max{own} {}\n", s.max));
                    for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        out.push_str(&format!("{base}_{label}{own} {}\n", s.quantile(q)));
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.inner.read().by_name.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("frames_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same cell.
        assert_eq!(r.counter("frames_total").get(), 5);

        let g = r.gauge("cap_w");
        g.set(9000.0);
        g.add(-500.0);
        assert_eq!(g.get(), 8500.0);
    }

    /// Satellite test: exact powers of two land in a deterministic
    /// bucket — `2^k` goes to bucket `k + 1`, the low edge of
    /// `[2^k, 2^(k+1))`, and `2^k - 1` stays in bucket `k`.
    #[test]
    fn histogram_power_of_two_boundaries() {
        assert_eq!(bucket_index(0), 0);
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k} bucket");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "2^{k}-1 bucket");
            }
            assert_eq!(bucket_index(v + (v >> 1)), k as usize + 1, "1.5*2^{k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);

        // And the recorded histogram reflects exactly those buckets.
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_ns");
        h.record(0);
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 1024);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let r = MetricsRegistry::new();
        let h = r.histogram("q");
        for _ in 0..99 {
            h.record(100); // bucket 7, upper bound 127
        }
        h.record(1_000_000); // bucket 20, upper bound 1048575
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 127);
        assert_eq!(s.quantile(0.99), 127);
        // The single outlier is the max, which tightens the top bucket.
        assert_eq!(s.quantile(1.0), 1_000_000);
        assert_eq!(s.max, 1_000_000);
        assert!(s.mean() > 100.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let r = MetricsRegistry::new();
        let h = r.histogram("empty");
        assert_eq!(h.snapshot().quantile(0.99), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn render_text_dedupes_type_lines_per_base_name() {
        let r = MetricsRegistry::new();
        r.counter("mqtt_topic_published{topic=\"a\"}").inc();
        r.counter("mqtt_topic_published{topic=\"b\"}").add(2);
        r.gauge("speed").set(0.5);
        let text = r.render_text();
        assert_eq!(
            text.matches("# TYPE mqtt_topic_published counter").count(),
            1
        );
        assert!(text.contains("mqtt_topic_published{topic=\"a\"} 1\n"));
        assert!(text.contains("mqtt_topic_published{topic=\"b\"} 2\n"));
        assert!(text.contains("# TYPE speed gauge\n"));
        assert!(text.contains("speed 0.5\n"));
    }

    /// Satellite regression: label values holding `"`, `\n` or `\` must
    /// render escaped (Prometheus text-format conformance) — a raw
    /// newline would split the sample line, a raw quote would truncate
    /// the value.
    #[test]
    fn render_text_escapes_label_values() {
        let r = MetricsRegistry::new();
        r.counter("mqtt_topic_published{topic=\"a\"b\"}").inc();
        r.counter("mqtt_topic_published{topic=\"line\nbreak\"}")
            .inc();
        r.gauge("speed{node=\"back\\slash\"}").set(0.5);
        let text = r.render_text();
        assert!(
            text.contains("mqtt_topic_published{topic=\"a\\\"b\"} 1\n"),
            "quote must escape: {text}"
        );
        assert!(
            text.contains("mqtt_topic_published{topic=\"line\\nbreak\"} 1\n"),
            "newline must escape: {text}"
        );
        assert!(
            text.contains("speed{node=\"back\\\\slash\"} 0.5\n"),
            "backslash must escape: {text}"
        );
        // Every sample stays on exactly one line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert_eq!(text.matches('\n').count(), text.lines().count());
        // Clean names render unchanged (borrowed path).
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\nc\\d"), "a\\\"b\\nc\\\\d");
    }

    /// Regression: the members of a labelled histogram family render as
    /// distinct series, each sample carrying its metric's labels
    /// (escaped) ahead of the bucket's `le`.
    #[test]
    fn render_text_keeps_labelled_histograms_distinct() {
        let r = MetricsRegistry::new();
        r.histogram("stage_ns{from=\"a\",to=\"b\"}").record(3);
        r.histogram("stage_ns{from=\"b\",to=\"c\\d\"}").record(5);
        r.histogram("bare_ns").record(1);
        let text = r.render_text();
        assert_eq!(text.matches("# TYPE stage_ns histogram\n").count(), 1);
        for line in [
            "stage_ns_bucket{from=\"a\",to=\"b\",le=\"3\"} 1\n",
            "stage_ns_bucket{from=\"a\",to=\"b\",le=\"+Inf\"} 1\n",
            "stage_ns_sum{from=\"a\",to=\"b\"} 3\n",
            "stage_ns_count{from=\"a\",to=\"b\"} 1\n",
            "stage_ns_p99{from=\"a\",to=\"b\"} 3\n",
            "stage_ns_bucket{from=\"b\",to=\"c\\\\d\",le=\"7\"} 1\n",
            "stage_ns_sum{from=\"b\",to=\"c\\\\d\"} 5\n",
            "bare_ns_bucket{le=\"1\"} 1\n",
            "bare_ns_sum 1\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // No sample line of a labelled family is unlabelled.
        assert!(!text.lines().any(|l| l.starts_with("stage_ns_sum ")));
    }

    #[test]
    fn rollup_counters_sums_across_registries_sorted() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("jobs_total").add(3);
        b.counter("jobs_total").add(4);
        b.counter("aborts_total").inc();
        a.gauge("cap_w").set(9000.0); // gauges never roll up
        let rolled = rollup_counters([&a, &b]);
        assert_eq!(
            rolled,
            vec![
                ("aborts_total".to_string(), 1),
                ("jobs_total".to_string(), 7)
            ]
        );
    }

    #[test]
    fn visit_samples_expands_histograms() {
        let r = MetricsRegistry::new();
        r.counter("c").inc();
        let h = r.histogram("h");
        h.record(8);
        let mut seen = Vec::new();
        r.visit_samples(|name, v| seen.push((name.to_string(), v)));
        let names: Vec<&str> = seen.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["c", "h_count", "h_sum", "h_max", "h_p50", "h_p95", "h_p99"]
        );
        assert_eq!(seen[0].1, 1.0);
        assert_eq!(seen[1].1, 1.0); // count
        assert_eq!(seen[2].1, 8.0); // sum
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }
}
