//! The traced run's work counters are exact functions of the seed: two
//! runs with one seed agree on every one of them, on every workload.

use atlas_perfbench::workloads::{work_counters, Workload};

/// Jobs per workload: the whole batch round, two sweep points, and the
/// start of a serve stream (long enough for cache misses and hits).
fn jobs(w: Workload) -> usize {
    match w {
        Workload::Batch => 4,
        Workload::Serve => 60,
        Workload::Sweep => 2,
    }
}

#[test]
fn work_counters_repeat_exactly_for_one_seed() {
    for w in Workload::ALL {
        let a = work_counters(w, 7, jobs(w)).unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
        let b = work_counters(w, 7, jobs(w)).unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
        assert_eq!(a, b, "{}: work counters differ between two runs", w.name());
        assert!(a.staging_stages > 0 && a.kernels > 0, "{}: {a:?}", w.name());
        assert!(a.fusion_ops + a.shm_parts > 0, "{}: {a:?}", w.name());
        assert!(a.model_s > 0.0, "{}: {a:?}", w.name());
    }
}

#[test]
fn reshuffles_happen_on_the_batch_and_never_on_the_sweep() {
    let batch = work_counters(Workload::Batch, 3, 1).expect("batch job runs");
    assert!(
        batch.reshuffles > 0 && batch.reshuffle_bytes > 0,
        "{batch:?}"
    );
    let sweep = work_counters(Workload::Sweep, 3, 1).expect("sweep point runs");
    assert_eq!(
        (sweep.reshuffles, sweep.reshuffle_bytes),
        (0, 0),
        "{sweep:?}"
    );
}
