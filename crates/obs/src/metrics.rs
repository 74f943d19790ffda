//! Lock-free metric primitives and a registry that renders them in the
//! Prometheus text exposition format.
//!
//! Design: the `Registry` holds a `Mutex`, but it is only taken when a
//! metric is *registered* (get-or-create by family name + label set) or when
//! the registry is *rendered* for a scrape. Callers cache the returned
//! handles — `Counter`, `Gauge`, `Histogram` are cheap `Arc` wrappers around
//! atomics — so the instrumentation hot path is a single relaxed atomic
//! add with no lock and no allocation.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of power-of-two histogram buckets. Bucket `i` covers values in
/// `(2^i, 2^(i+1)]` microseconds-or-whatever-unit, with bucket 0 also
/// absorbing 0 and 1, and the top bucket absorbing everything larger.
pub(crate) const POW2_BUCKETS: usize = 32;

/// Index of the power-of-two bucket for `value`: `floor(log2(value))`,
/// clamped to the top bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros() as usize).min(POW2_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= POW2_BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// Monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Counter detached from any registry (for tests or scratch use).
    pub(crate) fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, versions, sizes).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Gauge detached from any registry (for tests or scratch use).
    pub(crate) fn detached() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous floating-point value (scores, ratios). Stored as the
/// `f64` bit pattern in an `AtomicU64`, so reads and writes stay a single
/// relaxed atomic op — same hot-path cost as [`Gauge`].
#[derive(Clone)]
pub struct FloatGauge(Arc<AtomicU64>);

impl FloatGauge {
    /// Gauge detached from any registry (for tests or scratch use).
    pub(crate) fn detached() -> Self {
        FloatGauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared storage behind a [`Histogram`] handle.
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; POW2_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Power-of-two bucketed histogram; `observe` is two relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Histogram detached from any registry (for tests or scratch use).
    pub(crate) fn detached() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(bucket) = self.0.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the current bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; POW2_BUCKETS];
        for (count, b) in counts.iter_mut().zip(self.0.buckets.iter()) {
            *count = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts, sum: self.0.sum.load(Ordering::Relaxed) }
    }
}

/// Point-in-time copy of a histogram. Quantiles are conservative: they
/// report the upper bound of the bucket holding the quantile observation,
/// so a true pXX is never understated, and overstated by at most the 2×
/// bucket resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; POW2_BUCKETS],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (0 when the histogram is empty).
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(POW2_BUCKETS - 1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    FloatGauge(FloatGauge),
    Histogram(Histogram),
}

struct Series {
    /// Rendered label block, e.g. `{stage="embed"}`, or empty.
    labels: String,
    metric: Metric,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A scrape-time closure that appends exposition text to the page.
/// `Arc` rather than `Box` so a scrape can snapshot the collector list and
/// run it *after* releasing the registry lock (collectors sample live
/// structures with locks of their own, which must never nest under ours).
type Collector = Arc<dyn Fn(&mut String) + Send + Sync>;

#[derive(Default)]
struct Inner {
    families: Vec<Family>,
    /// name -> index into `families`.
    by_name: HashMap<String, usize>,
    /// Closures that append extra exposition text at scrape time, for
    /// families whose values are sampled from live structures (e.g. the
    /// snapshot registry's per-version lease counts).
    collectors: Vec<Collector>,
}

/// A set of metric families, rendered together as one Prometheus text page.
///
/// Each serving stack owns its own `Registry` (so concurrently running
/// services — common under `cargo test` — do not pollute each other);
/// process-wide instrumentation (fit path, GEMM counters) lives in
/// [`global()`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(
            name,
            help,
            Kind::Counter,
            labels,
            || Metric::Counter(Counter::detached()),
        ) {
            Metric::Counter(c) => c,
            // goggles-lint: allow(panic): type confusion at registration is a programming error, caught at spawn not per-request
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get-or-create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            // goggles-lint: allow(panic): type confusion at registration is a programming error, caught at spawn not per-request
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get-or-create the floating-point gauge `name{labels}` (rendered as
    /// a Prometheus `gauge`). A family is either integer- or float-valued:
    /// mixing [`Registry::gauge`] and [`Registry::float_gauge`] series on
    /// one name panics at registration.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatGauge {
        match self
            .series(name, help, Kind::Gauge, labels, || Metric::FloatGauge(FloatGauge::detached()))
        {
            Metric::FloatGauge(g) => g,
            // goggles-lint: allow(panic): type confusion at registration is a programming error, caught at spawn not per-request
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get-or-create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Histogram::detached())
        }) {
            Metric::Histogram(h) => h,
            // goggles-lint: allow(panic): type confusion at registration is a programming error, caught at spawn not per-request
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Register a closure that appends raw exposition text on every render.
    /// The closure is responsible for its own `# HELP` / `# TYPE` lines and
    /// must not reuse a family name already registered directly.
    pub fn register_collector(&self, f: impl Fn(&mut String) + Send + Sync + 'static) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).collectors.push(Arc::new(f));
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let label_block = render_labels(labels);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = match inner.by_name.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = inner.families.len();
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                inner.by_name.insert(name.to_string(), idx);
                idx
            }
        };
        let Some(family) = inner.families.get_mut(idx) else {
            // `by_name` only ever points at pushed families; if that breaks,
            // hand back a working detached metric instead of panicking.
            return make();
        };
        assert!(
            family.kind == kind,
            "metric {name} already registered as {}",
            family.kind.as_str()
        );
        if let Some(series) = family.series.iter().find(|s| s.labels == label_block) {
            return clone_metric(&series.metric);
        }
        let metric = make();
        let cloned = clone_metric(&metric);
        family.series.push(Series { labels: label_block, metric });
        cloned
    }

    /// Render every family (and collector) as Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.render_into(&mut out);
        out
    }

    /// Append the exposition text to `out` (used to concatenate registries).
    pub fn render_into(&self, out: &mut String) {
        // Render the families under the lock, but only *snapshot* the
        // collector list: collectors take other subsystems' locks (e.g. the
        // snapshot registry state) and run after ours is released, so no
        // lock ever nests under the registry's.
        let collectors = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            self.render_families(&inner, out);
            inner.collectors.clone()
        };
        for collector in &collectors {
            collector(out);
        }
    }

    fn render_families(&self, inner: &Inner, out: &mut String) {
        for family in &inner.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, g.get());
                    }
                    Metric::FloatGauge(g) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, g.get());
                    }
                    Metric::Histogram(h) => {
                        render_histogram(out, &family.name, &series.labels, &h.snapshot());
                    }
                }
            }
        }
    }
}

fn clone_metric(metric: &Metric) -> Metric {
    match metric {
        Metric::Counter(c) => Metric::Counter(c.clone()),
        Metric::Gauge(g) => Metric::Gauge(g.clone()),
        Metric::FloatGauge(g) => Metric::FloatGauge(g.clone()),
        Metric::Histogram(h) => Metric::Histogram(h.clone()),
    }
}

/// Render `[("stage", "embed")]` as `{stage="embed"}` (empty slice -> "").
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escape a label value per the exposition format (backslash, quote, newline).
pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Render one histogram series as cumulative `_bucket` lines + `_sum`/`_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    // Merge the `le` label into an existing label block if present.
    let with_le = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{},le=\"{le}\"}}", labels.strip_suffix('}').unwrap_or(labels))
        }
    };
    let mut cumulative = 0u64;
    // Scratch for the numeric `le` value, hoisted out of the bucket loop so
    // rendering a populated histogram does not allocate per bucket.
    let mut upper = String::new();
    for (i, &c) in snap.counts.iter().enumerate() {
        cumulative += c;
        // Skip interior empty buckets to keep scrapes small, but always
        // emit buckets that carry counts plus the +Inf terminator. The top
        // bucket is unbounded and is covered by the +Inf line itself.
        if c > 0 && i + 1 < POW2_BUCKETS {
            upper.clear();
            let _ = write!(upper, "{}", bucket_upper(i));
            let _ = writeln!(out, "{name}_bucket{} {cumulative}", with_le(&upper));
        }
    }
    let _ = writeln!(out, "{name}_bucket{} {cumulative}", with_le("+Inf"));
    let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum);
    let _ = writeln!(out, "{name}_count{labels} {cumulative}");
}

/// Process-wide registry for instrumentation that has no service to hang
/// off: the fit path's EM loops and the GEMM kernel counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), POW2_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 2);
        assert_eq!(bucket_upper(1), 4);
        assert_eq!(bucket_upper(10), 2048);
        assert_eq!(bucket_upper(POW2_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn get_or_create_returns_the_same_underlying_series() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "help", &[("k", "v")]);
        let b = reg.counter("x_total", "help", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
        // Different label set -> independent series under one family.
        let c = reg.counter("x_total", "help", &[("k", "w")]);
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(a.get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "help", &[]);
        let _ = reg.gauge("x_total", "help", &[]);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let reg = Registry::new();
        reg.counter("g_requests_total", "requests", &[("result", "ok")]).add(5);
        reg.gauge("g_depth", "queue depth", &[]).set(-2);
        let h = reg.histogram("g_lat_us", "latency", &[("stage", "embed")]);
        h.observe(3); // bucket 1, upper 4
        h.observe(100); // bucket 6, upper 128
        let text = reg.render();
        assert!(text.contains("# HELP g_requests_total requests"));
        assert!(text.contains("# TYPE g_requests_total counter"));
        assert!(text.contains("g_requests_total{result=\"ok\"} 5"));
        assert!(text.contains("# TYPE g_depth gauge"));
        assert!(text.contains("g_depth -2"));
        assert!(text.contains("# TYPE g_lat_us histogram"));
        assert!(text.contains("g_lat_us_bucket{stage=\"embed\",le=\"4\"} 1"));
        assert!(text.contains("g_lat_us_bucket{stage=\"embed\",le=\"128\"} 2"));
        assert!(text.contains("g_lat_us_bucket{stage=\"embed\",le=\"+Inf\"} 2"));
        assert!(text.contains("g_lat_us_sum{stage=\"embed\"} 103"));
        assert!(text.contains("g_lat_us_count{stage=\"embed\"} 2"));
    }

    #[test]
    fn float_gauges_round_trip_and_render() {
        let reg = Registry::new();
        let g = reg.float_gauge("g_score", "dev score", &[]);
        g.set(0.8125);
        assert_eq!(g.get(), 0.8125);
        let again = reg.float_gauge("g_score", "dev score", &[]);
        assert_eq!(again.get(), 0.8125);
        let text = reg.render();
        assert!(text.contains("# TYPE g_score gauge"));
        assert!(text.contains("g_score 0.8125"));
        g.set(-1.5);
        assert_eq!(again.get(), -1.5);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn float_and_integer_gauges_do_not_mix() {
        let reg = Registry::new();
        let _ = reg.gauge("g_mixed", "help", &[]);
        let _ = reg.float_gauge("g_mixed", "help", &[]);
    }

    #[test]
    fn collectors_append_on_render() {
        let reg = Registry::new();
        reg.register_collector(|out| out.push_str("g_custom 7\n"));
        assert!(reg.render().contains("g_custom 7"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn snapshot_quantiles_are_conservative_upper_bounds() {
        let h = Histogram::detached();
        for v in [1u64, 1, 1, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 4);
        assert_eq!(snap.quantile_upper(0.5), 2); // bucket of the 1s
        assert_eq!(snap.quantile_upper(0.99), 1024); // bucket of 1000
        assert_eq!(HistogramSnapshot::default().quantile_upper(0.5), 0, "empty histogram");

        // 98 fast requests (~100 µs), 2 slow ones (~100 ms): p50 must stay
        // in the fast bucket, p99 must reach the slow one.
        let h = Histogram::detached();
        for _ in 0..98 {
            h.observe(100);
        }
        h.observe(100_000);
        h.observe(100_000);
        let snap = h.snapshot();
        assert_eq!(snap.total(), 100);
        assert_eq!(snap.sum, 98 * 100 + 2 * 100_000);
        assert_eq!(snap.quantile_upper(0.50), 128);
        assert_eq!(snap.quantile_upper(0.98), 128);
        assert_eq!(snap.quantile_upper(0.99), 131_072);
        assert_eq!(snap.quantile_upper(1.0), 131_072);
    }
}
