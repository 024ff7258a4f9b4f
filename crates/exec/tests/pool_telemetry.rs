//! Fork-join telemetry in a test binary of its own.  The metrics mode and
//! the counters are process-global, and a shard another test runs just as
//! the mode flips to `off` can still record — so no other test of this
//! process may fork while this one runs.

use lsiq_exec::{shard_map, ExecutionContext};
use lsiq_obs::MetricsMode;

fn counter(name: &str) -> u64 {
    lsiq_obs::snapshot().counter(name)
}

#[test]
fn telemetry_counts_scopes_and_spawned_jobs() {
    lsiq_obs::set_mode(MetricsMode::Json);
    let scopes_before = counter("pool.scopes");
    let jobs_before = counter("pool.jobs");
    let context = ExecutionContext::new(5);
    let ranges = shard_map(Some(&context), 5, 1, |range| range);
    // One fork-join of five shards, the caller's own shard included.
    assert_eq!(counter("pool.scopes"), scopes_before + 1);
    assert_eq!(counter("pool.jobs"), jobs_before + 5);
    lsiq_obs::set_mode(MetricsMode::Off);
    assert_eq!(ranges, [0..1, 1..2, 2..3, 3..4, 4..5]);

    // Disabled mode records nothing further.
    let (scopes_frozen, jobs_frozen) = (counter("pool.scopes"), counter("pool.jobs"));
    shard_map(Some(&context), 5, 1, |range| range);
    assert_eq!(counter("pool.scopes"), scopes_frozen);
    assert_eq!(counter("pool.jobs"), jobs_frozen);
}
