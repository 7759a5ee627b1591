//! Trace-driven churn replay with a differential oracle.
//!
//! [`run_churn`] generates a deterministic lifecycle trace over a
//! [`ScaledWorld`] and replays it against all five evaluated stores
//! (Qcow2, Qcow2+Gzip, Mirage, Hemera, Expelliarmus), each replaying the
//! whole trace. After **every** operation the oracle checks:
//!
//! 1. **Differential retrieval** — the semantic fingerprint (files sans
//!    junk/status + installed package set) of every retrieved image is
//!    identical across all stores *and* to the image as published;
//!    snapshot stores additionally reproduce the full fingerprint
//!    byte-for-byte, and repeated retrievals (bursts) are stable.
//! 2. **Refcount integrity** — each store's `check_integrity` audit:
//!    CAS/DB refcounts equal the live references its manifests imply
//!    (no leaks from the delete / upgrade-republish paths, no orphans).
//! 3. **Size ledger** — `repo_bytes` evolves exactly as the report
//!    stream claims (`after == before + bytes_added - bytes_freed` on
//!    publish, `after == before - bytes_freed` on delete, unchanged by
//!    retrieval, shifted by exactly `bytes_delta` on a maintenance
//!    sweep), and deleted images are `NotFound` on monolithic
//!    stores. Qcow2/Gzip/Mirage/Hemera derive their report numbers from
//!    gross content movements, so the check is independent of
//!    `repo_bytes`; Expelliarmus reports net deltas (its DB payload
//!    moves both ways within one publish), where the refcount audit is
//!    the independent witness.
//!
//! Violations are collected, not panicked, so a single run reports every
//! divergence; callers (the `repro churn` subcommand, CI, the
//! integration suite) assert the list is empty.
//!
//! # One driver, two passes
//!
//! * **Plan.** On the coordinator, in trace order, every published
//!   image is built and fingerprinted once, and every retrieve, burst,
//!   range and delete is resolved to the image live at that point of the
//!   trace. Retrievals of an already-deleted image are recorded as
//!   violations here, once per retrieval.
//! * **Replay.** Each of the five store replicas replays the whole plan
//!   in trace order with the full per-op oracle — including the strict
//!   range byte-accounting check — and a `check_integrity` audit after
//!   every op, then closes with a deep audit (every CAS blob re-hashed).
//!   The replicas run in parallel on the ambient rayon pool.
//!
//! Each replica owns its simulated environment, so its per-op reports,
//! ledgers and byte accounting are exactly those of a lone sequential
//! replay, whatever the pool size. Violations are concatenated in replica
//! order, so the [`ChurnReport`] is **byte-identical for any thread
//! count** — pinned by tests at 1, 2 and 8 threads. To pin the pool,
//! wrap the call in `rayon::with_num_threads`.
//!
//! A new [`TraceOp`] needs one arm in the plan pass (resolve its payload
//! into an `Action`) and one in the replay pass (apply it to a replica).
//!
//! Concurrent retrievals of distinct images from one store through its
//! shared-access (`&self`) interface are covered by the store
//! equivalence suite, not by this replay.
//!
//! # Durable replay with crash-recovery churn
//!
//! With [`ChurnConfig::with_durable`], Expelliarmus and Mirage run over
//! `xpl-persist` write-through backends on fault-injecting in-memory
//! media, and the trace gains seeded `Crash`/`Recover` pairs. A `Crash`
//! power-cuts the replica's medium and tears each WAL tail with
//! garbage; `Recover` reopens every durable section (manifest load +
//! WAL replay, torn tail dropped), re-validates every recovered blob
//! (magic, digest, CRC-32), and requires the recovered state to
//! **converge** to the uncrashed in-memory CAS — fingerprint equality
//! over blobs, refcounts and the size ledger. A final power-cut +
//! recovery closes every durable replay. Each replica owns its medium,
//! so reports stay byte-identical at any thread count, and the
//! end-of-replay [`ChurnReport::cas_fingerprints`] are identical
//! between durable and purely in-memory replays of the same trace (what
//! CI diffs).
//!
//! # Codec tiers
//!
//! Every tiered store replica runs under [`ChurnConfig::tier`]
//! (default: the mixed hot/cold policy). The trace's `Maintain` ops
//! trigger temperature-driven recompression mid-replay, so the oracle
//! continuously audits mixed-codec states. Because CAS ledgers and
//! fingerprints are *logical* bytes, the end-of-replay
//! [`ChurnReport::cas_fingerprints`] must be identical across every
//! tier policy of the same trace — the repository-level proof that
//! `recompress` pins uncompressed digests (what the CI codec-ablation
//! smoke diffs against the all-DEFLATE replay).

use std::sync::Arc;

use crate::serve::StoreKind;
use rayon::prelude::*;
use serde::Serialize;
use xpl_baselines::MirageStore;
use xpl_core::ExpelliarmusRepo;
use xpl_persist::{DurableConfig, DurableContentStore, MemFs};
use xpl_simio::SimEnv;
use xpl_store::{oracle, ImageStore, RetrieveRequest, StoreError, TierPolicy};
use xpl_util::{Digest, FxHashMap};
use xpl_workloads::{ScaleConfig, ScaledWorld, Trace, TraceConfig, TraceOp};

/// Durable-replay parameters: how many crash-recovery pairs to inject
/// and the seed that places them.
#[derive(Clone, Copy, Debug)]
pub struct DurableCfg {
    pub crashes: usize,
    pub crash_seed: u64,
}

impl Default for DurableCfg {
    fn default() -> Self {
        DurableCfg {
            crashes: 3,
            crash_seed: 42,
        }
    }
}

/// Replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    pub seed: u64,
    /// Trace length (a burst is one entry; injected crash-recovery
    /// pairs come on top).
    pub ops: usize,
    pub scale: ScaleConfig,
    /// `Some` runs Expelliarmus and Mirage over durable write-through
    /// backends and injects crash-recovery churn.
    pub durable: Option<DurableCfg>,
    /// Codec tier policy applied to every tiered store replica (Gzip,
    /// Mirage, Hemera, Expelliarmus; Qcow2 has no representation to
    /// tier). CAS ledgers and fingerprints are logical bytes, so every
    /// policy must replay to identical fingerprints — the oracle's
    /// proof that recompression pins digests.
    pub tier: TierPolicy,
}

impl ChurnConfig {
    /// Test-friendly scale (debug builds replay ~500 ops in seconds).
    pub fn small(seed: u64, ops: usize) -> ChurnConfig {
        ChurnConfig {
            seed,
            ops,
            scale: ScaleConfig::small(seed),
            durable: None,
            tier: TierPolicy::mixed(),
        }
    }

    /// Release-mode stress scale.
    pub fn standard(seed: u64, ops: usize) -> ChurnConfig {
        ChurnConfig {
            seed,
            ops,
            scale: ScaleConfig::standard(seed),
            durable: None,
            tier: TierPolicy::mixed(),
        }
    }

    /// Same replay, on durable backends with injected crashes.
    pub fn with_durable(mut self, durable: DurableCfg) -> ChurnConfig {
        self.durable = Some(durable);
        self
    }

    /// Same replay, with every tiered store on `tier`.
    pub fn with_tier(mut self, tier: TierPolicy) -> ChurnConfig {
        self.tier = tier;
        self
    }
}

/// Per-store outcome summary.
#[derive(Clone, Debug, Serialize)]
pub struct StoreSummary {
    pub store: String,
    pub final_repo_bytes: u64,
    pub final_images: usize,
    pub bytes_added_total: u64,
    pub bytes_freed_total: u64,
    pub sim_seconds: f64,
}

/// Canonical fingerprint of one CAS section of one store at the end of
/// the replay. Identical between the in-memory and durable replays of
/// the same trace — the field CI diffs across the two modes.
#[derive(Clone, Debug, Serialize)]
pub struct CasFingerprint {
    pub store: String,
    pub section: String,
    pub fingerprint: String,
}

/// Per-store durable-replay summary (deterministic: identical for any
/// thread count).
#[derive(Clone, Debug, Serialize)]
pub struct DurableStoreSummary {
    pub store: String,
    pub sections: usize,
    /// Crash-recovery cycles (injected + the closing reopen).
    pub recoveries: u64,
    pub wal_records_replayed: u64,
    /// Torn WAL tails dropped cleanly during recovery.
    pub torn_tails: u64,
    /// Blobs alive across all recoveries (summed per recovery).
    pub recovered_blobs: u64,
    /// Total WAL records logged by write-through over the whole replay.
    pub wal_appends: u64,
    pub checkpoints: u64,
}

/// The JSON-serialized replay outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ChurnReport {
    pub seed: u64,
    pub ops: usize,
    pub publishes: usize,
    pub retrieves: usize,
    pub range_retrieves: usize,
    pub upgrades: usize,
    pub deletes: usize,
    pub bursts: usize,
    pub burst_retrieves: usize,
    pub maintains: usize,
    pub crashes: usize,
    pub oracle_checks: u64,
    /// Canonical name of the tier policy every tiered replica ran under.
    pub tier: String,
    pub trace_sha256: String,
    pub stores: Vec<StoreSummary>,
    pub cas_fingerprints: Vec<CasFingerprint>,
    pub durable: Option<Vec<DurableStoreSummary>>,
    pub violations: Vec<String>,
}

/// What the oracle remembers about a live image.
#[derive(Clone)]
struct LiveImage {
    request: RetrieveRequest,
    semantic_fp: Digest,
    full_fp: Digest,
}

/// The durable media and backends of one replica, plus deterministic
/// recovery accounting.
struct DurableAttachment {
    vfs: Arc<MemFs>,
    /// `(section, handle)` in the same order as the store's
    /// `cas_fingerprints()`.
    sections: Vec<(String, Arc<DurableContentStore>)>,
    recoveries: u64,
    wal_records_replayed: u64,
    torn_tails: u64,
    recovered_blobs: u64,
}

impl DurableAttachment {
    fn new(vfs: Arc<MemFs>, sections: Vec<(String, Arc<DurableContentStore>)>) -> Self {
        DurableAttachment {
            vfs,
            sections,
            recoveries: 0,
            wal_records_replayed: 0,
            torn_tails: 0,
            recovered_blobs: 0,
        }
    }
}

struct Replica {
    store: Box<dyn ImageStore>,
    expected_bytes: u64,
    added_total: u64,
    freed_total: u64,
    sim_seconds: f64,
    durable: Option<DurableAttachment>,
}

/// Durable backend geometry for the churn replay: small segments and a
/// sub-trace checkpoint cadence so a standard run exercises segment
/// rolling, manifest swaps *and* WAL replay.
fn churn_durable_config(section: &str) -> DurableConfig {
    DurableConfig {
        prefix: section.to_string(),
        segment_target_bytes: 1024 * 1024,
        checkpoint_every_ops: 512,
    }
}

fn durable_section(vfs: &Arc<MemFs>, section: &str) -> (String, Arc<DurableContentStore>) {
    let (store, report) = DurableContentStore::open(
        Arc::clone(vfs) as Arc<dyn xpl_persist::Vfs>,
        churn_durable_config(section),
    )
    .expect("fresh durable store");
    assert_eq!(report.blobs, 0, "fresh medium must be empty");
    (section.to_string(), Arc::new(store))
}

/// The five evaluated stores over fresh simulated environments, in
/// [`StoreKind::ALL`] order, every tiered one (all but raw Qcow2) on
/// `tier`.
pub fn five_stores(env: impl Fn() -> SimEnv, tier: TierPolicy) -> Vec<Box<dyn ImageStore>> {
    StoreKind::ALL
        .iter()
        .map(|kind| kind.make(env(), tier))
        .collect()
}

fn replica(store: Box<dyn ImageStore>, durable: Option<DurableAttachment>) -> Replica {
    Replica {
        store,
        expected_bytes: 0,
        added_total: 0,
        freed_total: 0,
        sim_seconds: 0.0,
        durable,
    }
}

/// The five replicas; with `durable`, Mirage and Expelliarmus write
/// through to log-structured backends over fault-injecting in-memory
/// media (each replica owns its medium).
fn fresh_replicas(durable: bool, tier: TierPolicy) -> Vec<Replica> {
    StoreKind::ALL
        .iter()
        .map(|&kind| match kind {
            StoreKind::Mirage if durable => {
                let vfs = Arc::new(MemFs::new());
                let files = durable_section(&vfs, "files");
                replica(
                    Box::new(
                        MirageStore::new_durable(SimEnv::testbed(), Arc::clone(&files.1))
                            .with_tier(tier),
                    ),
                    Some(DurableAttachment::new(vfs, vec![files])),
                )
            }
            StoreKind::Expelliarmus if durable => {
                let vfs = Arc::new(MemFs::new());
                let packages = durable_section(&vfs, "packages");
                let data = durable_section(&vfs, "data");
                replica(
                    Box::new(
                        ExpelliarmusRepo::new_durable(
                            SimEnv::testbed(),
                            Arc::clone(&packages.1),
                            Arc::clone(&data.1),
                        )
                        .with_tier(tier),
                    ),
                    Some(DurableAttachment::new(vfs, vec![packages, data])),
                )
            }
            _ => replica(kind.make(SimEnv::testbed(), tier), None),
        })
        .collect()
}

/// Generate the trace for a config (exposed so tests can assert
/// reproducibility without replaying). Durable configs additionally
/// inject crash-recovery pairs at seeded positions.
pub fn churn_trace(cfg: &ChurnConfig) -> (ScaledWorld, Trace) {
    let world = ScaledWorld::generate(&cfg.scale);
    let mut trace = Trace::generate(
        &world.image_names(),
        &TraceConfig {
            seed: cfg.seed,
            ops: cfg.ops,
        },
    );
    if let Some(durable) = &cfg.durable {
        trace.inject_crashes(durable.crash_seed, durable.crashes);
    }
    (world, trace)
}

/// Deterministic garbage appended to each WAL at a crash: a torn
/// sector that recovery must drop cleanly.
const TORN_TAIL_GARBAGE: [u8; 13] = [0xA5; 13];

/// Power-cut one replica's durable medium and tear its WAL tails. A
/// no-op for replicas without an attachment.
fn apply_crash(r: &mut Replica) {
    if let Some(att) = &mut r.durable {
        att.vfs.power_cut();
        for (_, handle) in &att.sections {
            att.vfs
                .inject_torn_tail(&handle.wal_file(), &TORN_TAIL_GARBAGE);
        }
    }
}

/// Reopen one replica's durable sections from the medium and check the
/// recovered state converges to the live in-memory CAS: same blobs,
/// refcounts and size ledger (fingerprint equality), with every
/// recovered blob's content re-validated (magic, digest, CRC-32).
fn apply_recover(r: &mut Replica, ctx: &str, violations: &mut Vec<String>, checks: &mut u64) {
    let Replica { store, durable, .. } = r;
    let Some(att) = durable else { return };
    let live = store.cas_fingerprints();
    for (i, (section, handle)) in att.sections.iter().enumerate() {
        match handle.reopen_in_place() {
            Ok(rep) => {
                *checks += 1;
                att.wal_records_replayed += rep.wal_records_replayed;
                att.torn_tails += rep.torn_wal_tail as u64;
                att.recovered_blobs += rep.blobs as u64;
                if let Err(e) = handle.deep_verify() {
                    violations.push(format!(
                        "{ctx} {}: {section} recovery content sweep: {e}",
                        store.name()
                    ));
                }
                match live.get(i) {
                    Some((live_section, live_fp)) if live_section == section => {
                        if handle.state_fingerprint() != *live_fp {
                            violations.push(format!(
                                "{ctx} {}: recovered {section} diverged from \
                                 the in-memory state",
                                store.name()
                            ));
                        }
                    }
                    _ => violations.push(format!(
                        "{ctx} {}: no live fingerprint for section {section}",
                        store.name()
                    )),
                }
            }
            Err(e) => violations.push(format!(
                "{ctx} {}: recovery of {section} failed: {e}",
                store.name()
            )),
        }
    }
    att.recoveries += 1;
}

/// End-of-replay fingerprints of every store's CAS sections.
fn collect_fingerprints(replicas: &[Replica]) -> Vec<CasFingerprint> {
    let mut out = Vec::new();
    for r in replicas {
        for (section, fingerprint) in r.store.cas_fingerprints() {
            out.push(CasFingerprint {
                store: r.store.name().to_string(),
                section,
                fingerprint,
            });
        }
    }
    out
}

/// Durable summaries (None when the replay ran purely in memory).
fn collect_durable_summaries(replicas: &[Replica]) -> Option<Vec<DurableStoreSummary>> {
    let summaries: Vec<DurableStoreSummary> = replicas
        .iter()
        .filter_map(|r| {
            r.durable.as_ref().map(|att| DurableStoreSummary {
                store: r.store.name().to_string(),
                sections: att.sections.len(),
                recoveries: att.recoveries,
                wal_records_replayed: att.wal_records_replayed,
                torn_tails: att.torn_tails,
                recovered_blobs: att.recovered_blobs,
                wal_appends: att.sections.iter().map(|(_, h)| h.wal_appends()).sum(),
                checkpoints: att.sections.iter().map(|(_, h)| h.checkpoints()).sum(),
            })
        })
        .collect();
    if summaries.is_empty() {
        None
    } else {
        Some(summaries)
    }
}

/// Apply one publish/upgrade to one replica with the full per-op oracle
/// (cost, ledger).
fn apply_publish(
    r: &mut Replica,
    world: &ScaledWorld,
    vmi: &xpl_guestfs::Vmi,
    image: &str,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    match r.store.publish(&world.catalog, vmi) {
        Ok(report) => {
            *checks += 1;
            if report.duration.as_nanos() == 0 {
                violations.push(format!(
                    "step {step} {}: publish {image} cost nothing",
                    r.store.name()
                ));
            }
            r.added_total += report.bytes_added;
            r.freed_total += report.bytes_freed;
            r.sim_seconds += report.duration.as_secs_f64();
            let want =
                r.expected_bytes as i128 + report.bytes_added as i128 - report.bytes_freed as i128;
            let actual = r.store.repo_bytes();
            if want != actual as i128 {
                violations.push(format!(
                    "step {step} {}: publish {image} ledger: want {want}, \
                     have {actual} (added {}, freed {})",
                    r.store.name(),
                    report.bytes_added,
                    report.bytes_freed
                ));
            }
            r.expected_bytes = actual;
        }
        Err(e) => violations.push(format!(
            "step {step} {}: publish {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Apply one delete to one replica with the full per-op oracle (ledger,
/// deleted-name probe on monolithic stores).
fn apply_delete(
    r: &mut Replica,
    world: &ScaledWorld,
    image: &str,
    probe: &RetrieveRequest,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    match r.store.delete(image) {
        Ok(report) => {
            *checks += 1;
            r.freed_total += report.bytes_freed;
            r.sim_seconds += report.duration.as_secs_f64();
            let after = r.store.repo_bytes();
            if before.saturating_sub(report.bytes_freed) != after {
                violations.push(format!(
                    "step {step} {}: delete {image} freed {} but {before} -> {after}",
                    r.store.name(),
                    report.bytes_freed
                ));
            }
            r.expected_bytes = after;
            // Deleted names must be unretrievable from monolithic stores
            // (Expelliarmus may still assemble functionally — the paper's
            // point).
            if r.store.name() != "Expelliarmus" {
                match r.store.retrieve(&world.catalog, probe) {
                    Err(StoreError::NotFound(_)) => {}
                    Ok(_) => violations.push(format!(
                        "step {step} {}: retrieved deleted {image}",
                        r.store.name()
                    )),
                    Err(e) => violations.push(format!(
                        "step {step} {}: deleted {image} gave {e}, want NotFound",
                        r.store.name()
                    )),
                }
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: delete {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Apply one maintenance sweep to one replica with its ledger oracle:
/// the store re-encodes blobs per its tier policy, content stays pinned
/// (the deep audit and every later retrieval witness that), and
/// `repo_bytes` must move by *exactly* the reported `bytes_delta` —
/// nonzero only for physically-sized stores (Gzip), zero for the CAS
/// stores whose ledger is logical and therefore codec-invariant.
fn apply_maintain(r: &mut Replica, step: usize, violations: &mut Vec<String>, checks: &mut u64) {
    let before = r.store.repo_bytes();
    let report = r.store.maintain();
    *checks += 1;
    let after = r.store.repo_bytes();
    if after as i128 != before as i128 + i128::from(report.bytes_delta) {
        violations.push(format!(
            "step {step} {}: maintain reported delta {} but moved repo \
             {before} -> {after}",
            r.store.name(),
            report.bytes_delta
        ));
    }
    if report.promoted + report.demoted > report.scanned {
        violations.push(format!(
            "step {step} {}: maintain re-encoded more entries than it scanned",
            r.store.name()
        ));
    }
    r.expected_bytes = after;
    r.sim_seconds += report.duration.as_secs_f64();
}

/// Retrieve one image from one replica and run the differential checks.
fn check_retrieve(
    r: &Replica,
    world: &ScaledWorld,
    expect: &LiveImage,
    image: &str,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    match r.store.retrieve(&world.catalog, &expect.request) {
        Ok((vmi, report)) => {
            *checks += 1;
            let semantic = oracle::semantic_fingerprint(&world.catalog, &vmi);
            if semantic != expect.semantic_fp {
                violations.push(format!(
                    "step {step} {}: {image} semantic fingerprint diverged",
                    r.store.name()
                ));
            }
            if r.store.name() != "Expelliarmus" {
                let full = oracle::full_fingerprint(&world.catalog, &vmi);
                if full != expect.full_fp {
                    violations.push(format!(
                        "step {step} {}: {image} full fingerprint diverged",
                        r.store.name()
                    ));
                }
            }
            if report.bytes_read == 0 || report.duration.as_nanos() == 0 {
                violations.push(format!(
                    "step {step} {}: free retrieval of {image}",
                    r.store.name()
                ));
            }
            if r.store.repo_bytes() != before {
                violations.push(format!(
                    "step {step} {}: retrieval of {image} changed repo size",
                    r.store.name()
                ));
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: retrieve {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// Retrieve a byte range from one replica and run the differential
/// oracle: the ranged bytes must equal the same store's full-retrieval
/// disk slice, and the repository must not move more bytes for the
/// range than it would for the whole image. Per-op reports read the
/// replica's own device counters, so the byte comparison is exact: no
/// other op runs against this replica meanwhile.
#[allow(clippy::too_many_arguments)]
fn check_retrieve_range(
    r: &Replica,
    world: &ScaledWorld,
    expect: &LiveImage,
    image: &str,
    start_frac: u32,
    len: u32,
    step: usize,
    violations: &mut Vec<String>,
    checks: &mut u64,
) {
    let before = r.store.repo_bytes();
    let (vmi, full) = match r.store.retrieve(&world.catalog, &expect.request) {
        Ok(x) => x,
        Err(e) => {
            violations.push(format!(
                "step {step} {}: range oracle retrieve {image} failed: {e}",
                r.store.name()
            ));
            return;
        }
    };
    let size = vmi.disk.virtual_size();
    let start = size * u64::from(start_frac) / 256;
    let end = start.saturating_add(u64::from(len)).min(size);
    let want = match vmi.disk.read_at(start, (end - start) as usize) {
        Ok(b) => b,
        Err(e) => {
            violations.push(format!(
                "step {step} {}: range oracle slice of {image} failed: {e}",
                r.store.name()
            ));
            return;
        }
    };
    match r
        .store
        .retrieve_range(&world.catalog, &expect.request, start, u64::from(len))
    {
        Ok((bytes, report)) => {
            *checks += 1;
            if bytes != want {
                violations.push(format!(
                    "step {step} {}: range ({start}, {len}) of {image} diverges from \
                     the full-retrieval slice",
                    r.store.name()
                ));
            }
            if report.bytes_read > full.bytes_read {
                violations.push(format!(
                    "step {step} {}: range ({start}, {len}) of {image} read {} repo \
                     bytes, more than the full retrieval's {}",
                    r.store.name(),
                    report.bytes_read,
                    full.bytes_read
                ));
            }
            if r.store.repo_bytes() != before {
                violations.push(format!(
                    "step {step} {}: range retrieval of {image} changed repo size",
                    r.store.name()
                ));
            }
        }
        Err(e) => violations.push(format!(
            "step {step} {}: range ({start}, {len}) of {image} failed: {e}",
            r.store.name()
        )),
    }
}

/// An image as published by the trace: the built VM image every replica
/// publishes, and what the oracle expects back from any retrieval of it.
struct Published {
    name: String,
    vmi: xpl_guestfs::Vmi,
    expect: LiveImage,
}

/// One trace op resolved on the coordinator. Image payloads index the
/// plan's [`Published`] list.
enum Action {
    Publish(usize),
    /// A retrieval, or a burst of `times` back-to-back retrievals.
    Retrieve {
        image: usize,
        times: u32,
    },
    Range {
        image: usize,
        start_frac: u32,
        len: u32,
    },
    Delete(usize),
    Maintain,
    Crash,
    Recover,
    /// A retrieval of an image the trace had already deleted: recorded
    /// as a violation at plan time, no store op.
    Dead,
}

struct PlannedOp<'t> {
    step: usize,
    op: &'t TraceOp,
    action: Action,
}

/// The plan pass's output: every op resolved, every published image,
/// the trace-mix counters, and the number of images live at the end.
#[derive(Default)]
struct Plan<'t> {
    ops: Vec<PlannedOp<'t>>,
    published: Vec<Published>,
    live_images: usize,
    publishes: usize,
    retrieves: usize,
    range_retrieves: usize,
    upgrades: usize,
    deletes: usize,
    bursts: usize,
    burst_retrieves: usize,
    maintains: usize,
    violations: Vec<String>,
}

/// The plan pass: walk the trace in order, build and fingerprint every
/// published image once, and resolve each retrieval or delete against
/// the image that is live at that point of the trace.
fn plan_trace<'t>(world: &ScaledWorld, trace: &'t Trace) -> Plan<'t> {
    let mut plan = Plan::default();
    let mut live: FxHashMap<&'t str, usize> = FxHashMap::default();
    for (step, op) in trace.ops.iter().enumerate() {
        let action = match op {
            TraceOp::Publish { image, generation } | TraceOp::Upgrade { image, generation } => {
                if matches!(op, TraceOp::Publish { .. }) {
                    plan.publishes += 1;
                } else {
                    plan.upgrades += 1;
                }
                let vmi = world.build(image, *generation);
                let expect = LiveImage {
                    request: RetrieveRequest::for_image(&vmi, &world.catalog),
                    semantic_fp: oracle::semantic_fingerprint(&world.catalog, &vmi),
                    full_fp: oracle::full_fingerprint(&world.catalog, &vmi),
                };
                let idx = plan.published.len();
                plan.published.push(Published {
                    name: image.clone(),
                    vmi,
                    expect,
                });
                live.insert(image, idx);
                Action::Publish(idx)
            }
            TraceOp::Retrieve { image } | TraceOp::Burst { image, .. } => {
                let times = match op {
                    TraceOp::Burst { count, .. } => {
                        plan.bursts += 1;
                        plan.burst_retrieves += *count as usize;
                        *count
                    }
                    _ => {
                        plan.retrieves += 1;
                        1
                    }
                };
                match live.get(image.as_str()) {
                    Some(&image) => Action::Retrieve { image, times },
                    None => {
                        for _ in 0..times {
                            plan.violations
                                .push(format!("step {step}: trace retrieved dead image {image}"));
                        }
                        Action::Dead
                    }
                }
            }
            TraceOp::RetrieveRange {
                image,
                start_frac,
                len,
            } => {
                plan.range_retrieves += 1;
                match live.get(image.as_str()) {
                    Some(&image) => Action::Range {
                        image,
                        start_frac: *start_frac,
                        len: *len,
                    },
                    None => {
                        plan.violations.push(format!(
                            "step {step}: trace range-retrieved dead image {image}"
                        ));
                        Action::Dead
                    }
                }
            }
            TraceOp::Delete { image } => {
                plan.deletes += 1;
                Action::Delete(
                    live.remove(image.as_str())
                        .expect("trace only deletes live"),
                )
            }
            TraceOp::Maintain => {
                plan.maintains += 1;
                Action::Maintain
            }
            TraceOp::Crash => Action::Crash,
            TraceOp::Recover => Action::Recover,
        };
        plan.ops.push(PlannedOp { step, op, action });
    }
    plan.live_images = live.len();
    plan
}

/// The replay pass for one replica: every planned op in trace order
/// with its full per-op oracle, an integrity audit after each, then the
/// closing power-cut + recovery and deep audit.
fn replay(r: &mut Replica, world: &ScaledWorld, plan: &Plan) -> (Vec<String>, u64) {
    let mut violations = Vec::new();
    let mut checks = 0u64;
    let (v, c) = (&mut violations, &mut checks);
    for p in &plan.ops {
        let step = p.step;
        match p.action {
            Action::Publish(i) => {
                let img = &plan.published[i];
                apply_publish(r, world, &img.vmi, &img.name, step, v, c);
            }
            Action::Retrieve { image, times } => {
                let img = &plan.published[image];
                for _ in 0..times {
                    check_retrieve(r, world, &img.expect, &img.name, step, v, c);
                }
            }
            Action::Range {
                image,
                start_frac,
                len,
            } => {
                let img = &plan.published[image];
                check_retrieve_range(
                    r,
                    world,
                    &img.expect,
                    &img.name,
                    start_frac,
                    len,
                    step,
                    v,
                    c,
                );
            }
            Action::Delete(i) => {
                let img = &plan.published[i];
                apply_delete(r, world, &img.name, &img.expect.request, step, v, c);
            }
            Action::Maintain => apply_maintain(r, step, v, c),
            Action::Crash => apply_crash(r),
            Action::Recover => apply_recover(r, &format!("step {step}"), v, c),
            Action::Dead => {}
        }
        // Refcount / bookkeeping audit after every op.
        *c += 1;
        if let Err(e) = r.store.check_integrity() {
            v.push(format!(
                "step {step} {}: integrity after {}: {e}",
                r.store.name(),
                p.op.render()
            ));
        }
    }

    // Closing durability check: one last power-cut + recovery must
    // converge to the final in-memory state.
    apply_crash(r);
    apply_recover(r, "final", v, c);

    // Closing deep audit: every CAS blob re-hashed.
    *c += 1;
    if let Err(e) = r.store.check_integrity_deep() {
        v.push(format!("final {}: deep integrity: {e}", r.store.name()));
    }
    (violations, checks)
}

/// Replay `cfg` against the five stores and return the oracle's report.
///
/// With `registry`, every replica reports into it. Attachment never
/// changes the report, and the registry's `det` section is derived
/// purely from the executed op multiset, so both are byte-identical at
/// any pool size (see the module docs).
pub fn run_churn(cfg: &ChurnConfig, registry: Option<&Arc<xpl_obs::Registry>>) -> ChurnReport {
    let (world, trace) = churn_trace(cfg);
    let mut plan = plan_trace(&world, &trace);
    let mut replicas = fresh_replicas(cfg.durable.is_some(), cfg.tier);
    if let Some(reg) = registry {
        for r in &replicas {
            r.store.attach_obs(reg);
        }
    }
    let results: Vec<(Vec<String>, u64)> = replicas
        .iter_mut()
        .collect::<Vec<&mut Replica>>()
        .into_par_iter()
        .map(|r| replay(r, &world, &plan))
        .collect();
    let mut violations = std::mem::take(&mut plan.violations);
    let mut checks = 0u64;
    for (v, c) in results {
        violations.extend(v);
        checks += c;
    }

    ChurnReport {
        seed: cfg.seed,
        ops: trace.ops.len(),
        publishes: plan.publishes,
        retrieves: plan.retrieves,
        range_retrieves: plan.range_retrieves,
        upgrades: plan.upgrades,
        deletes: plan.deletes,
        bursts: plan.bursts,
        burst_retrieves: plan.burst_retrieves,
        maintains: plan.maintains,
        crashes: trace.crashes(),
        oracle_checks: checks,
        tier: cfg.tier.describe().to_string(),
        trace_sha256: trace.digest_hex(),
        stores: replicas
            .iter()
            .map(|r| StoreSummary {
                store: r.store.name().to_string(),
                final_repo_bytes: r.store.repo_bytes(),
                final_images: plan.live_images,
                bytes_added_total: r.added_total,
                bytes_freed_total: r.freed_total,
                sim_seconds: r.sim_seconds,
            })
            .collect(),
        cas_fingerprints: collect_fingerprints(&replicas),
        durable: collect_durable_summaries(&replicas),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Short smoke at unit level; the ≥500-op acceptance run lives in the
    // facade's integration suite (tests/churn_oracle.rs).
    #[test]
    fn short_churn_is_clean() {
        let report = run_churn(&ChurnConfig::small(0xBEEF, 60), None);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.ops, 60);
        assert!(report.publishes > 0 && report.retrieves > 0);
        assert_eq!(report.stores.len(), 5);
    }

    #[test]
    fn tier_policies_replay_to_identical_cas_fingerprints() {
        // The repository-level digest-preservation proof: a mixed-tier
        // replay (DEFLATE base, LZ4 promotions, live recompression at
        // every Maintain op) must end on exactly the CAS fingerprints
        // of the all-DEFLATE and all-LZ4 replays of the same trace.
        let base = ChurnConfig::small(0xC0DEC, 80);
        let mixed = run_churn(&base, None);
        assert_eq!(mixed.tier, "mixed");
        assert!(mixed.maintains > 0, "trace never swept the tiers");
        assert!(mixed.violations.is_empty(), "{:#?}", mixed.violations);
        for tier in [TierPolicy::dense(), TierPolicy::fast(), TierPolicy::raw()] {
            let other = run_churn(&base.with_tier(tier), None);
            assert!(other.violations.is_empty(), "{:#?}", other.violations);
            assert_eq!(mixed.cas_fingerprints.len(), other.cas_fingerprints.len());
            for (a, b) in mixed.cas_fingerprints.iter().zip(&other.cas_fingerprints) {
                assert_eq!(a.store, b.store);
                assert_eq!(a.section, b.section);
                assert_eq!(
                    a.fingerprint,
                    b.fingerprint,
                    "{}/{} diverged between mixed and {}",
                    a.store,
                    a.section,
                    tier.describe()
                );
            }
        }
    }

    #[test]
    fn trace_generation_is_reproducible() {
        let cfg = ChurnConfig::small(42, 120);
        let (_, a) = churn_trace(&cfg);
        let (_, b) = churn_trace(&cfg);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn durable_short_churn_recovers_cleanly() {
        let cfg = ChurnConfig::small(0xBEEF, 60).with_durable(DurableCfg {
            crashes: 2,
            crash_seed: 7,
        });
        let report = run_churn(&cfg, None);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.crashes, 2);
        let durable = report.durable.as_ref().expect("durable summaries");
        assert_eq!(durable.len(), 2, "Mirage + Expelliarmus");
        for d in durable {
            assert_eq!(d.recoveries, 3, "{}: 2 injected + 1 final", d.store);
            assert!(d.torn_tails >= 3, "{}: every crash tears WALs", d.store);
            assert!(d.wal_appends > 0, "{}: write-through logged ops", d.store);
        }
        // Durable replay converges to the same end-state fingerprints
        // as the purely in-memory replay of the same base trace.
        let mem = run_churn(&ChurnConfig::small(0xBEEF, 60), None);
        assert!(mem.durable.is_none());
        assert_eq!(mem.cas_fingerprints.len(), report.cas_fingerprints.len());
        for (a, b) in mem.cas_fingerprints.iter().zip(&report.cas_fingerprints) {
            assert_eq!(a.store, b.store);
            assert_eq!(a.section, b.section);
            assert_eq!(a.fingerprint, b.fingerprint, "{}/{}", a.store, a.section);
        }
    }

    #[test]
    fn det_metrics_are_thread_count_invariant() {
        // The registry's deterministic section is a pure function of the
        // executed op multiset, so its fingerprint must be byte-identical
        // at 1, 2, and 8 pool threads.
        let cfg = ChurnConfig::small(0x0B5EED, 60);
        let fp_at = |threads: usize| {
            let registry = xpl_obs::Registry::new();
            let r = rayon::with_num_threads(threads, || run_churn(&cfg, Some(&registry)));
            assert!(r.violations.is_empty(), "{:#?}", r.violations);
            let snap = registry.snapshot();
            (
                snap.det_fingerprint(),
                snap.render_section_json(xpl_obs::Section::Det),
            )
        };
        let (fp1, det1) = fp_at(1);
        let (fp2, det2) = fp_at(2);
        let (fp8, det8) = fp_at(8);
        assert_eq!(det1, det2, "det section diverged between 1 and 2 threads");
        assert_eq!(det1, det8, "det section diverged between 1 and 8 threads");
        assert_eq!(fp1, fp2);
        assert_eq!(fp1, fp8);
    }

    #[test]
    fn attaching_metrics_never_changes_the_report() {
        // The zero-interference pin: the churn report (fingerprints,
        // ledgers, violations — everything) is byte-identical whether
        // or not a registry was attached.
        let cfg = ChurnConfig::small(0xFACADE, 60);
        let render = |r: &ChurnReport| serde_json::to_string_pretty(r).unwrap();

        let plain = run_churn(&cfg, None);
        let registry = xpl_obs::Registry::new();
        let with = run_churn(&cfg, Some(&registry));
        assert_eq!(render(&plain), render(&with));
        assert!(
            registry.snapshot().det_fingerprint()
                != xpl_obs::Registry::new().snapshot().det_fingerprint(),
            "the attached registry must actually have counted something"
        );
    }
}
