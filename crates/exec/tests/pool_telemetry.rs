//! Pool telemetry in a test binary of its own.  The metrics mode and the
//! counters are process-global, and a job another test spawns just as the
//! mode flips to `off` can still record — so no other test of this process
//! may spawn jobs while this one runs.

use lsiq_exec::ExecutionContext;
use lsiq_obs::MetricsMode;

fn counter(name: &str) -> u64 {
    lsiq_obs::snapshot().counter(name)
}

#[test]
fn telemetry_counts_scopes_and_spawned_jobs() {
    lsiq_obs::set_mode(MetricsMode::Json);
    let scopes_before = counter("pool.scopes");
    let jobs_before = counter("pool.jobs");
    let context = ExecutionContext::new(2);
    let mut slots = vec![0u8; 5];
    context.scope(|scope| {
        for slot in slots.iter_mut() {
            scope.spawn(move || *slot = 1);
        }
    });
    assert_eq!(counter("pool.scopes"), scopes_before + 1);
    assert_eq!(counter("pool.jobs"), jobs_before + 5);
    lsiq_obs::set_mode(MetricsMode::Off);
    assert_eq!(slots, [1, 1, 1, 1, 1]);

    // Disabled mode records nothing further.
    let jobs_frozen = counter("pool.jobs");
    context.scope(|scope| scope.spawn(|| {}));
    assert_eq!(counter("pool.jobs"), jobs_frozen);
}
