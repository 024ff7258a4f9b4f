//! The fork-join every parallel stage runs on.
//!
//! [`ExecutionContext`] is a worker count, nothing more: it starts no
//! thread.  The parallel stages hand their item count to [`shard_map`],
//! which cuts the items into one contiguous shard per worker
//! ([`shard_count`]), runs the first shard on the calling thread and each
//! other shard on a thread of its own inside one `std::thread::scope`, and
//! returns the shards' results in range order.
//!
//! A stage's shards are coarse (hundreds of chips or faults each) and a
//! pass forks only a handful of times, so spawning a shard's thread per
//! call costs little next to the shard's work.  Because every fork is a
//! `std::thread::scope`, a shard may borrow from the caller's stack frame,
//! and nested `shard_map` calls on one context simply spawn more threads.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

use crate::config::RunConfig;
use lsiq_obs::{Counter, Gauge};

/// Fork-joins that spawned shards (a single-shard call spawns nothing and
/// is not counted).
static SCOPES: Counter = Counter::new("pool.scopes");
/// Shards run by those fork-joins, the caller's own included.  Shard counts
/// are a property of the workload and the worker count, not of the
/// schedule.
static JOBS: Counter = Counter::new("pool.jobs");
/// Nanoseconds callers spent waiting for the other shards after finishing
/// their own.
static JOIN_WAIT_NS: Counter = Counter::new("pool.join_wait_ns");
/// Worker count of the most recently forking context.
static WORKERS: Gauge = Gauge::new("pool.workers");

/// How many workers the parallel stages may split their items across.
///
/// Construct one per session ([`ExecutionContext::new`] /
/// [`ExecutionContext::from_config`]) and pass it to the parallel stages; a
/// stage given no context runs on the calling thread.  The context starts
/// no thread: each [`shard_map`] call spawns the threads of its own shards
/// and joins them before it returns.
///
/// ```
/// use lsiq_exec::{shard_map, ExecutionContext};
///
/// let context = ExecutionContext::new(4);
/// let values = [3u64, 1, 4, 1, 5, 9, 2, 6];
/// // One contiguous shard per worker, results in range order.
/// let doubled: Vec<u64> = shard_map(Some(&context), values.len(), 1, |range| {
///     values[range].iter().map(|value| value * 2).collect::<Vec<_>>()
/// })
/// .concat();
/// assert_eq!(doubled, [6, 2, 8, 2, 10, 18, 4, 12]);
/// assert_eq!(context.workers(), 4);
/// ```
#[derive(Debug)]
pub struct ExecutionContext {
    workers: usize,
}

impl ExecutionContext {
    /// Creates a context with `workers` execution lanes (`0` means the
    /// available hardware parallelism).  No thread is started.
    pub fn new(workers: usize) -> ExecutionContext {
        let workers = if workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        ExecutionContext { workers }
    }

    /// Creates a context sized by a [`RunConfig`] (its explicit worker
    /// override, or the available hardware parallelism).
    pub fn from_config(config: &RunConfig) -> ExecutionContext {
        ExecutionContext::new(config.workers().unwrap_or(0))
    }

    /// Execution lanes of this context: the most shards a [`shard_map`]
    /// call splits its items into, the calling thread's shard included.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// The number of shards [`shard_map`] splits `len` work items into: one per
/// worker of `context` (one without a context), but never so many that a
/// shard holds fewer than `min_per_shard` items.  Always at least 1.
pub fn shard_count(context: Option<&ExecutionContext>, len: usize, min_per_shard: usize) -> usize {
    context
        .map_or(1, ExecutionContext::workers)
        .min(len.div_ceil(min_per_shard.max(1)))
        .max(1)
}

/// Splits the work items `0..len` into contiguous ranges of
/// `len.div_ceil(shard_count(..))` items (the last may be shorter, so there
/// can be fewer ranges than shards), maps every range through `work`, and
/// returns one result per range in range order, whichever thread ran it.
///
/// The first range runs on the calling thread and every other range on a
/// scoped thread of its own; a range whose thread cannot be spawned runs on
/// the calling thread instead.  A single shard runs on the calling thread
/// without spawning anything.  If shards panic, the first panicking
/// range's payload is re-raised here once every shard has joined.
///
/// This is the one place a stage's work is split across workers; the
/// parallel stages differ only in `min_per_shard`, the fewest items that
/// repay handing a shard to a worker.
///
/// ```
/// use lsiq_exec::{shard_map, ExecutionContext};
///
/// let context = ExecutionContext::new(3);
/// let ranges = shard_map(Some(&context), 10, 1, |range| range);
/// assert_eq!(ranges, [0..4, 4..8, 8..10]);
/// // Without a context, or below the minimum shard size, one inline shard.
/// assert_eq!(shard_map(None, 10, 1, |range| range.len()), [10]);
/// assert_eq!(shard_map(Some(&context), 10, 64, |range| range.len()), [10]);
/// ```
pub fn shard_map<T, F>(
    context: Option<&ExecutionContext>,
    len: usize,
    min_per_shard: usize,
    work: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let shards = shard_count(context, len, min_per_shard);
    let context = match context {
        Some(context) if shards > 1 => context,
        _ => return vec![work(0..len)],
    };
    let shard_len = len.div_ceil(shards);
    let mut ranges = (0..len)
        .step_by(shard_len)
        .map(|start| start..(start + shard_len).min(len));
    let first = ranges.next().expect("a fork-join has at least two ranges");
    let work = &work;
    let results = thread::scope(|scope| {
        let spawned: Vec<_> = ranges
            .enumerate()
            .map(|(index, range)| {
                let shard = range.clone();
                thread::Builder::new()
                    .name(format!("lsiq-exec-{}", index + 1))
                    .spawn_scoped(scope, move || work(shard))
                    .map_err(|_| range)
            })
            .collect();
        let mut results = vec![panic::catch_unwind(AssertUnwindSafe(|| work(first)))];
        let waited = lsiq_obs::enabled().then(Instant::now);
        results.extend(spawned.into_iter().map(|shard| match shard {
            Ok(handle) => handle.join(),
            // Out of threads: the caller runs the shard itself.
            Err(range) => panic::catch_unwind(AssertUnwindSafe(|| work(range))),
        }));
        if let Some(waited) = waited {
            JOIN_WAIT_NS.add(waited.elapsed().as_nanos() as u64);
        }
        results
    });
    SCOPES.incr();
    JOBS.add(results.len() as u64);
    WORKERS.set(context.workers as u64);
    results
        .into_iter()
        .map(|result| result.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn nested_scopes_complete_even_on_a_single_worker() {
        for workers in [1, 2, 3] {
            let context = ExecutionContext::new(workers);
            let totals: Vec<u64> = shard_map(Some(&context), 6, 1, |outer| {
                outer
                    .map(|index| {
                        let parts = shard_map(Some(&context), 4, 1, |inner| {
                            inner.map(|part| (index * 10 + part) as u64).sum::<u64>()
                        });
                        parts.iter().sum()
                    })
                    .collect::<Vec<u64>>()
            })
            .concat();
            let expected: Vec<u64> = (0..6).map(|index| (index * 40 + 6) as u64).collect();
            assert_eq!(totals, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_panics_propagate_and_do_not_poison_the_pool() {
        let context = ExecutionContext::new(3);
        let started = Barrier::new(3);
        let finished = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            shard_map(Some(&context), 3, 1, |range| {
                // No shard finishes or panics before all three are running.
                started.wait();
                if range.start == 1 {
                    panic!("shard exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the shard's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard exploded"));
        assert_eq!(finished.into_inner(), 2, "every other shard joined");

        // The context serves the next call as before.
        let starts = shard_map(Some(&context), 3, 1, |range| range.start);
        assert_eq!(starts, [0, 1, 2]);
    }

    #[test]
    fn shard_count_scales_down_for_tiny_inputs() {
        let context = ExecutionContext::new(4);
        for (len, shards) in [(46, 1), (0, 1), (256, 4), (1_024, 4), (65, 2)] {
            assert_eq!(shard_count(Some(&context), len, 64), shards, "len = {len}");
        }
        // Without a context every stage runs as one shard.
        for len in [0, 1, 10_000] {
            assert_eq!(shard_count(None, len, 64), 1);
        }
    }

    #[test]
    fn shard_map_returns_every_index_once_in_order() {
        for workers in [1, 2, 3, 5] {
            let context = ExecutionContext::new(workers);
            for len in [0, 1, 7, 64, 129, 1_000] {
                let shards = shard_map(Some(&context), len, 1, |range| range.collect::<Vec<_>>());
                assert!(shards.len() <= shard_count(Some(&context), len, 1));
                let indices: Vec<usize> = shards.into_iter().flatten().collect();
                assert_eq!(
                    indices,
                    (0..len).collect::<Vec<_>>(),
                    "{workers} workers, len {len}"
                );
            }
        }
    }

    #[test]
    fn from_config_respects_the_override() {
        let config = RunConfig::default().with_workers(3);
        assert_eq!(ExecutionContext::from_config(&config).workers(), 3);
        assert!(ExecutionContext::from_config(&RunConfig::default()).workers() >= 1);
    }
}
