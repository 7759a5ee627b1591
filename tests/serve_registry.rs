//! Registry serving acceptance suite: the multi-tenant front end over a
//! real store must be deterministic and byte-faithful.
//!
//! Pinned properties:
//!
//! 1. **Thread-count invariance** — every virtual-time field of the
//!    serve report (request-log fingerprint, schedule, payload-digest
//!    table, latency percentiles, fairness, admission counts) is
//!    byte-identical with the replay pool at 1, 2 and 8 threads; only
//!    wall-clock throughput may differ.
//! 2. **Coalescing is invisible in the payloads** — a coalesced run
//!    makes strictly fewer store hits than an uncoalesced one, yet both
//!    replays pass the differential digest oracle and their
//!    key→payload-digest tables are identical: coalescing changes who
//!    pays for a store hit, never what bytes a tenant receives.
//! 3. **Admission control fails loud** — under a queue bound too small
//!    for the offered load, requests are rejected with the typed
//!    overload outcome (never dropped silently): per tenant,
//!    `submitted == admitted + rejected` and `served == admitted`.
//! 4. **The wire is invisible in the payloads** — serving the same
//!    schedule through the `xpl-net` front end (threaded server, frame
//!    codec, admission gate, retrying clients) assembles a
//!    key→payload-digest table byte-identical to the in-process one,
//!    with a clean transport and under a seeded fault storm alike.

use expelliarmus::bench::serve::{run_serve, ServeReport, ServeRunConfig};
use expelliarmus::bench::serve_net::{run_serve_net, NetServeConfig, NetTransportKind};

fn small_cfg(seed: u64) -> ServeRunConfig {
    let mut cfg = ServeRunConfig::small(seed);
    cfg.requests = 160;
    cfg.tenants = 4;
    cfg
}

/// The deterministic (virtual-time) projection of a serve report.
fn virtual_fields(r: &ServeReport) -> (String, String, String, u64, u64, u64, u64, u64, u64) {
    (
        r.request_log_sha256.clone(),
        r.schedule_sha256.clone(),
        r.key_digests_sha256.clone(),
        r.served,
        r.rejected,
        r.store_hits,
        r.coalesced_hits,
        r.p50_latency_ms.to_bits(),
        r.p99_latency_ms.to_bits(),
    )
}

#[test]
fn serve_report_is_byte_identical_across_thread_counts() {
    let cfg = small_cfg(0xC0FFEE);
    let runs: Vec<ServeReport> = [1usize, 2, 8]
        .iter()
        .map(|&t| rayon::with_num_threads(t, || run_serve(&cfg, None)))
        .collect();
    for r in &runs {
        assert!(r.violations.is_empty(), "oracle: {:?}", r.violations);
        assert!(r.sustained_ops_per_s > 0.0);
    }
    let want = virtual_fields(&runs[0]);
    for r in &runs[1..] {
        assert_eq!(
            virtual_fields(r),
            want,
            "virtual-time fields must not depend on the replay pool size"
        );
    }
    assert_eq!(
        runs[0].fairness_max_min_served.to_bits(),
        runs[1].fairness_max_min_served.to_bits()
    );
}

#[test]
fn coalesced_and_uncoalesced_runs_serve_identical_bytes() {
    let mut cfg = small_cfg(0xFA1);
    let on = run_serve(&cfg, None);
    cfg.coalesce = false;
    let off = run_serve(&cfg, None);

    // The saturated Zipf load must actually trigger coalescing, and it
    // must save store hits.
    assert!(on.coalesced_hits > 0, "no coalescing under Zipf load");
    assert!(on.store_hits < off.store_hits);
    assert_eq!(off.coalesced_hits, 0);
    assert_eq!(
        on.served, off.served,
        "coalescing must not change who is served"
    );

    // The differential oracle: both replays byte-clean against the
    // memoized digests, and the payload identity tables are equal.
    assert!(on.violations.is_empty(), "coalesced: {:?}", on.violations);
    assert!(
        off.violations.is_empty(),
        "uncoalesced: {:?}",
        off.violations
    );
    assert_eq!(on.key_digests_sha256, off.key_digests_sha256);
}

#[test]
fn overload_rejections_are_typed_and_accounted() {
    let mut cfg = small_cfg(0xBEEF);
    cfg.servers = 1;
    cfg.queue_depth = 2;
    let r = run_serve(&cfg, None);
    assert!(
        r.rejected > 0,
        "a depth-2 queue over one server must overload under saturation"
    );
    assert_eq!(r.served + r.rejected, r.requests as u64);
    for t in &r.per_tenant {
        assert_eq!(t.submitted, t.admitted + t.rejected, "tenant {}", t.tenant);
        assert_eq!(
            t.served, t.admitted,
            "tenant {}: everything admitted is served",
            t.tenant
        );
    }
    // Rejections cost no store work and appear in the fingerprinted log.
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    let rerun = run_serve(&cfg, None);
    assert_eq!(r.request_log_sha256, rerun.request_log_sha256);
    assert_eq!(r.rejected, rerun.rejected);
}

#[test]
fn wire_serve_matches_in_process_digest_table() {
    let cfg = small_cfg(0x41E7);
    let in_process = run_serve(&cfg, None);
    let net = NetServeConfig {
        transport: NetTransportKind::Mem,
        fault_rate: 0,
        net_seed: 1,
        conns_per_tenant: 2,
    };
    let wire = run_serve_net(&cfg, &net, None);
    assert!(wire.violations.is_empty(), "{:?}", wire.violations);
    assert_eq!(wire.served, cfg.requests as u64);
    assert_eq!(wire.key_digests_sha256, in_process.key_digests_sha256);
    assert_eq!(wire.wire_key_digests_sha256, in_process.key_digests_sha256);
}

#[test]
fn wire_serve_survives_a_fault_storm_byte_identically() {
    let cfg = small_cfg(0x41E8);
    let clean = NetServeConfig {
        transport: NetTransportKind::Mem,
        fault_rate: 0,
        net_seed: 3,
        conns_per_tenant: 2,
    };
    let stormy = NetServeConfig {
        fault_rate: 32,
        ..clean
    };
    let a = run_serve_net(&cfg, &clean, None);
    let b = run_serve_net(&cfg, &stormy, None);
    assert!(a.violations.is_empty(), "clean: {:?}", a.violations);
    assert!(b.violations.is_empty(), "storm: {:?}", b.violations);
    assert_eq!(b.wire_key_digests_sha256, a.wire_key_digests_sha256);
    assert_eq!(b.key_digests_sha256, a.key_digests_sha256);
    let injected = b.faults_resets + b.faults_torn_writes + b.faults_short_reads;
    assert!(injected > 0, "the storm never fired");
    assert!(b.retries > 0, "a 32/256 storm must force retries");
}
