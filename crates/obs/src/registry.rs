//! The process-global metrics registry.
//!
//! Series are interned by `&'static str` name on first use and live for
//! the process lifetime (the cells are leaked once, never per call).
//! Counters and span stats are sharded over [`SHARDS`]
//! cache-line-padded atomic cells indexed by the calling thread's worker
//! slot, so concurrent shards never contend on one line; a [`crate::snapshot`] merges
//! the shards, and because addition commutes the merged totals do not
//! depend on which thread recorded what.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Duration;

/// Counter/span shard count.  A power of two; worker slots beyond it wrap
/// (sharing a line again, which is merely slower, never wrong).
pub const SHARDS: usize = 16;

/// Histogram bucket count: bucket 0 counts zero values, bucket `i >= 1`
/// counts values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

thread_local! {
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

pub(crate) fn set_worker_slot(slot: usize) {
    WORKER_SLOT.with(|cell| cell.set(slot & (SHARDS - 1)));
}

#[inline]
fn shard_index() -> usize {
    WORKER_SLOT.with(|cell| cell.get())
}

/// One cache line holding one shard's total.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Sharded monotonic total (counters, span counts, span nanoseconds).
#[derive(Default)]
struct ShardedTotal {
    shards: [PaddedCell; SHARDS],
}

impl ShardedTotal {
    #[inline]
    fn add(&self, value: u64) {
        self.shards[shard_index()]
            .0
            .fetch_add(value, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for cell in &self.shards {
            cell.0.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
pub(crate) struct CounterCell {
    total: ShardedTotal,
}

#[derive(Default)]
pub(crate) struct GaugeCell {
    value: AtomicU64,
}

pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Default)]
pub(crate) struct SpanCell {
    count: ShardedTotal,
    total_ns: ShardedTotal,
}

impl SpanCell {
    #[inline]
    pub(crate) fn record(&self, elapsed: Duration) {
        self.count.add(1);
        self.total_ns.add(elapsed.as_nanos() as u64);
    }
}

/// The registry: one entry per (kind, name), in registration order.
#[derive(Default)]
struct Registry {
    counters: Vec<(&'static str, &'static CounterCell)>,
    gauges: Vec<(&'static str, &'static GaugeCell)>,
    histograms: Vec<(&'static str, &'static HistogramCell)>,
    spans: Vec<(&'static str, &'static SpanCell)>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|poison| poison.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

fn intern<C: Default>(
    entries: impl FnOnce(&mut Registry) -> &mut Vec<(&'static str, &'static C)>,
    name: &'static str,
) -> &'static C {
    with_registry(|registry| {
        let entries = entries(registry);
        if let Some((_, cell)) = entries.iter().find(|(existing, _)| *existing == name) {
            cell
        } else {
            let cell: &'static C = Box::leak(Box::default());
            entries.push((name, cell));
            cell
        }
    })
}

/// A named monotonic counter.  Declare as a `static`; the registry entry
/// is interned on first recorded increment.  Two handles with the same
/// name (even across crates) share one total.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static CounterCell>,
}

impl Counter {
    /// A handle on the counter called `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static CounterCell {
        self.cell
            .get_or_init(|| intern(|r| &mut r.counters, self.name))
    }

    /// Adds `value` when telemetry is enabled; a single relaxed load
    /// otherwise.
    #[inline]
    pub fn add(&self, value: u64) {
        if crate::enabled() && value != 0 {
            self.cell().total.add(value);
        }
    }

    /// Increments by one (gated like [`add`](Counter::add)).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The merged total so far (readable regardless of mode).
    pub fn value(&self) -> u64 {
        self.cell().total.sum()
    }
}

/// A named last-write-wins gauge.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static GaugeCell>,
}

impl Gauge {
    /// A handle on the gauge called `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static GaugeCell {
        self.cell
            .get_or_init(|| intern(|r| &mut r.gauges, self.name))
    }

    /// Stores `value` when telemetry is enabled.
    #[inline]
    pub fn set(&self, value: u64) {
        if crate::enabled() {
            self.cell().value.store(value, Ordering::Relaxed);
        }
    }

    /// The last stored value.
    pub fn value(&self) -> u64 {
        self.cell().value.load(Ordering::Relaxed)
    }
}

/// A named power-of-two histogram: bucket 0 counts zeros, bucket `i`
/// counts values in `[2^(i-1), 2^i)`.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    /// A handle on the histogram called `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistogramCell {
        self.cell
            .get_or_init(|| intern(|r| &mut r.histograms, self.name))
    }

    /// The bucket index of `value`.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation when telemetry is enabled.
    #[inline]
    pub fn observe(&self, value: u64) {
        if crate::enabled() {
            self.cell().buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total observation count so far.
    pub fn count(&self) -> u64 {
        self.cell()
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .sum()
    }
}

pub(crate) fn span_cell(name: &'static str) -> &'static SpanCell {
    intern(|r| &mut r.spans, name)
}

/// The merged statistics of one span name: how many times it ran and the
/// total wall time across all runs (summed over every recording thread,
/// so nested parallel phases can exceed their parent's wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed runs of the span.
    pub count: u64,
    /// Total nanoseconds across all runs and threads.
    pub total_ns: u64,
}

/// A deterministic, name-sorted copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, merged total)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, nonzero buckets as (bucket index, count))`, sorted by name.
    pub histograms: Vec<(String, Vec<(u32, u64)>)>,
    /// `(name, stat)`, sorted by name.
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// The counter total under `name`, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(entry, _)| entry == name)
            .map(|(_, value)| *value)
            .unwrap_or(0)
    }

    /// The span stat under `name`, zeros when absent.
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans
            .iter()
            .find(|(entry, _)| entry == name)
            .map(|(_, stat)| *stat)
            .unwrap_or_default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, value)| *value == 0)
            && self.gauges.is_empty()
            && self
                .histograms
                .iter()
                .all(|(_, buckets)| buckets.is_empty())
            && self.spans.iter().all(|(_, stat)| stat.count == 0)
    }

    /// What happened between `earlier` and `self`: counter/histogram/span
    /// entries with a nonzero difference (gauges report their current
    /// value).  Series absent from `earlier` count from zero.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let earlier_counters: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, value)| {
                let diff = value.saturating_sub(*earlier_counters.get(name.as_str()).unwrap_or(&0));
                (diff != 0).then(|| (name.clone(), diff))
            })
            .collect();
        let earlier_spans: BTreeMap<&str, SpanStat> = earlier
            .spans
            .iter()
            .map(|(name, stat)| (name.as_str(), *stat))
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|(name, stat)| {
                let base = earlier_spans
                    .get(name.as_str())
                    .copied()
                    .unwrap_or_default();
                let diff = SpanStat {
                    count: stat.count.saturating_sub(base.count),
                    total_ns: stat.total_ns.saturating_sub(base.total_ns),
                };
                (diff.count != 0 || diff.total_ns != 0).then(|| (name.clone(), diff))
            })
            .collect();
        let earlier_histograms: BTreeMap<&str, &Vec<(u32, u64)>> = earlier
            .histograms
            .iter()
            .map(|(name, buckets)| (name.as_str(), buckets))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, buckets)| {
                let base: BTreeMap<u32, u64> = earlier_histograms
                    .get(name.as_str())
                    .map(|buckets| buckets.iter().copied().collect())
                    .unwrap_or_default();
                let diff: Vec<(u32, u64)> = buckets
                    .iter()
                    .filter_map(|(bucket, count)| {
                        let diff = count.saturating_sub(*base.get(bucket).unwrap_or(&0));
                        (diff != 0).then_some((*bucket, diff))
                    })
                    .collect();
                (!diff.is_empty()).then(|| (name.clone(), diff))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            spans,
        }
    }
}

pub(crate) fn snapshot() -> Snapshot {
    let mut snapshot = with_registry(|registry| Snapshot {
        counters: registry
            .counters
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.total.sum()))
            .collect(),
        gauges: registry
            .gauges
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.value.load(Ordering::Relaxed)))
            .collect(),
        histograms: registry
            .histograms
            .iter()
            .map(|(name, cell)| {
                let buckets = cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(index, bucket)| {
                        let count = bucket.load(Ordering::Relaxed);
                        (count != 0).then_some((index as u32, count))
                    })
                    .collect();
                (name.to_string(), buckets)
            })
            .collect(),
        spans: registry
            .spans
            .iter()
            .map(|(name, cell)| {
                (
                    name.to_string(),
                    SpanStat {
                        count: cell.count.sum(),
                        total_ns: cell.total_ns.sum(),
                    },
                )
            })
            .collect(),
    });
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.spans.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot
}

pub(crate) fn reset() {
    with_registry(|registry| {
        for (_, cell) in &registry.counters {
            cell.total.reset();
        }
        for (_, cell) in &registry.gauges {
            cell.value.store(0, Ordering::Relaxed);
        }
        for (_, cell) in &registry.histograms {
            for bucket in &cell.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
        }
        for (_, cell) in &registry.spans {
            cell.count.reset();
            cell.total_ns.reset();
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MetricsMode;

    /// Tests in this binary share the process-global mode flag, so every
    /// test that enables recording serializes on this lock and restores
    /// `Off` before releasing it.
    pub(crate) static MODE_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn recording<T>(f: impl FnOnce() -> T) -> T {
        let _guard = MODE_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        crate::set_mode(MetricsMode::Json);
        let result = f();
        crate::set_mode(MetricsMode::Off);
        result
    }

    #[test]
    fn disabled_mode_records_nothing() {
        static IGNORED: Counter = Counter::new("test.registry.disabled");
        let _guard = MODE_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        crate::set_mode(MetricsMode::Off);
        IGNORED.add(41);
        IGNORED.incr();
        assert_eq!(IGNORED.value(), 0);
    }

    #[test]
    fn counters_merge_across_shards_and_threads() {
        static TOTAL: Counter = Counter::new("test.registry.sharded");
        recording(|| {
            std::thread::scope(|scope| {
                for slot in 0..4 {
                    scope.spawn(move || {
                        crate::set_worker_slot(slot);
                        for _ in 0..1000 {
                            TOTAL.incr();
                        }
                    });
                }
            });
            assert_eq!(TOTAL.value(), 4000);
        });
    }

    #[test]
    fn same_name_handles_share_one_total() {
        static A: Counter = Counter::new("test.registry.shared");
        static B: Counter = Counter::new("test.registry.shared");
        recording(|| {
            A.add(2);
            B.add(3);
            assert_eq!(A.value(), B.value());
            assert!(A.value() >= 5);
        });
    }

    #[test]
    fn gauges_store_the_last_value() {
        static WORKERS: Gauge = Gauge::new("test.registry.gauge");
        recording(|| {
            WORKERS.set(8);
            WORKERS.set(3);
            assert_eq!(WORKERS.value(), 3);
        });
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        static LATENCY: Histogram = Histogram::new("test.registry.histogram");
        recording(|| {
            for value in [0, 1, 2, 3, 900] {
                LATENCY.observe(value);
            }
            assert_eq!(LATENCY.count(), 5);
        });
    }

    #[test]
    fn snapshot_is_sorted_and_deltas_subtract() {
        static FIRST: Counter = Counter::new("test.snapshot.alpha");
        static SECOND: Counter = Counter::new("test.snapshot.beta");
        recording(|| {
            FIRST.incr();
            let before = crate::snapshot();
            SECOND.add(7);
            FIRST.add(2);
            let after = crate::snapshot();
            let names: Vec<&String> = after.counters.iter().map(|(name, _)| name).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
            let delta = after.delta_since(&before);
            assert_eq!(delta.counter("test.snapshot.alpha"), 2);
            assert_eq!(delta.counter("test.snapshot.beta"), 7);
            assert!(delta.counters.iter().all(|(_, value)| *value != 0));
        });
    }
}
