//! Durable churn acceptance suite: the crash-recovery replay must be
//! thread-count invariant and converge to the in-memory oracle.
//!
//! A lifecycle trace with 3 injected crash-recovery pairs is replayed
//! with Expelliarmus and Mirage running over `xpl-persist` durable
//! backends. The pinned properties:
//!
//! 1. the oracle reports **zero violations** — every recovery (WAL
//!    replay over the manifest, torn tails dropped) converged to the
//!    uncrashed in-memory state, with all recovered content
//!    re-validated;
//! 2. the serialized report is **byte-identical at 1 and 4 threads**
//!    (each replica owns its durable medium and replays it in trace
//!    order);
//! 3. the end-of-replay CAS fingerprints equal the purely in-memory
//!    replay's — durability changes nothing about the logical state.

use expelliarmus::bench::churn::{run_churn, ChurnConfig, DurableCfg};

const SEED: u64 = 0xD17A;
const OPS: usize = 300;

fn durable_cfg() -> ChurnConfig {
    ChurnConfig::small(SEED, OPS).with_durable(DurableCfg {
        crashes: 3,
        crash_seed: 42,
    })
}

#[test]
fn three_crash_trace_is_byte_identical_at_1_and_4_threads() {
    let reports: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let report = rayon::with_num_threads(threads, || run_churn(&durable_cfg(), None));
            assert!(
                report.violations.is_empty(),
                "violations at {threads} threads:\n{}",
                report.violations.join("\n")
            );
            assert_eq!(report.crashes, 3);
            serde_json::to_string_pretty(&report).expect("serialize")
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 4 threads diverged");
}

#[test]
fn durable_replay_converges_to_the_in_memory_oracle() {
    let durable = run_churn(&durable_cfg(), None);
    assert!(
        durable.violations.is_empty(),
        "violations:\n{}",
        durable.violations.join("\n")
    );
    let mem = run_churn(&ChurnConfig::small(SEED, OPS), None);
    assert!(mem.violations.is_empty());

    // Same logical end state: store summaries and CAS fingerprints.
    assert_eq!(durable.stores.len(), mem.stores.len());
    for (a, b) in durable.stores.iter().zip(&mem.stores) {
        assert_eq!(a.store, b.store);
        assert_eq!(a.final_repo_bytes, b.final_repo_bytes, "{}", a.store);
        assert_eq!(a.bytes_added_total, b.bytes_added_total, "{}", a.store);
        assert_eq!(a.bytes_freed_total, b.bytes_freed_total, "{}", a.store);
    }
    assert!(!durable.cas_fingerprints.is_empty());
    assert_eq!(durable.cas_fingerprints.len(), mem.cas_fingerprints.len());
    for (a, b) in durable.cas_fingerprints.iter().zip(&mem.cas_fingerprints) {
        assert_eq!(
            (&a.store, &a.section, &a.fingerprint),
            (&b.store, &b.section, &b.fingerprint),
        );
    }

    // The durable run actually did durable work: 3 injected recoveries
    // plus the closing one, torn tails dropped at each, and a WAL
    // record for every write-through mutation.
    let summaries = durable.durable.expect("durable summaries present");
    assert_eq!(summaries.len(), 2, "Mirage + Expelliarmus ran durable");
    for s in &summaries {
        assert_eq!(s.recoveries, 4, "{}: 3 injected + 1 final", s.store);
        assert!(
            s.torn_tails >= s.recoveries * s.sections as u64,
            "{}: every recovery dropped its torn WAL tails",
            s.store
        );
        assert!(s.wal_appends > 0, "{}", s.store);
        assert!(s.wal_records_replayed > 0, "{}", s.store);
    }
    assert!(
        mem.durable.is_none(),
        "in-memory replay reports no durable leg"
    );
}
