//! `lifecycle-durable`: the seeded lifecycle trace replayed against a
//! durable repository, with the program's own flush policy (a sync per
//! logged op, a checkpoint every 1024 ops). Each of the `nproc` client
//! threads replays traces against repositories of its own.
//!
//! Both CAS sections live on the program's in-memory medium (`MemFs`):
//! every append, sync, checkpoint and recovery runs the real persist
//! code, but a sync costs no device wait. On the file system of a shared
//! 2-vCPU Xeon VM the same pass's summed fsync time moved from 1.75 s to
//! 0.67 s over four consecutive runs, far beyond any bound the benchmark could
//! hold; the real-file-system cost is measured per layer instead, by
//! the persist replay of the in-memory workloads.

use crate::metrics::{self, Kind, Ops};
use crate::serve::{self, Target};
use crate::{layers, Config, Outcome, Traced};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xpl_core::ExpelliarmusRepo;
use xpl_persist::{MemFs, Vfs};
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest, TierPolicy};
use xpl_util::{Digest, SplitMix64};
use xpl_workloads::{ScaledWorld, Trace, TraceConfig, TraceOp};

/// Trace entries per pass; every pass replays one trace from an empty
/// medium and is one measurement window. At 2500 entries each series'
/// sample count sits well inside one band of the tail rule (publish
/// ~825: p95, retrieve ~2500: p99, range ~150: p90).
const OPS_PER_PASS: usize = 2500;
const TINY_OPS_PER_PASS: usize = 200;

/// Traces per run, all drawn from the seed; window `w` replays trace
/// `w % TRACES`. The op mix and which images are live move the per-op
/// cost, so with one trace per run the seed, not the program, was the
/// largest source of spread.
const TRACES: usize = 8;

pub struct Inputs {
    world: Arc<ScaledWorld>,
    traces: Vec<Trace>,
    /// Oracle: the semantic fingerprint of every `(image, generation)`
    /// the traces publish, from an independent build.
    expect: HashMap<(String, u32), Digest>,
}

fn trace_of(window: u32) -> usize {
    window as usize % TRACES
}

pub fn setup(cfg: &Config) -> Inputs {
    let world = Arc::new(ScaledWorld::generate(&serve::scale(cfg)));
    let ops = if cfg.tiny {
        TINY_OPS_PER_PASS
    } else {
        OPS_PER_PASS
    };
    let names = world.image_names();
    let mut seeds = SplitMix64::new(cfg.seed).derive("lifecycle-traces");
    let traces: Vec<Trace> = (0..TRACES)
        .map(|_| {
            let seed = seeds.next_u64();
            Trace::generate(&names, &TraceConfig { seed, ops })
        })
        .collect();
    let mut published: Vec<(String, u32)> = traces
        .iter()
        .flat_map(|t| &t.ops)
        .filter_map(|op| match op {
            TraceOp::Publish { image, generation } | TraceOp::Upgrade { image, generation } => {
                Some((image.clone(), *generation))
            }
            _ => None,
        })
        .collect();
    published.sort();
    published.dedup();
    let fps = crate::par_map(&published, |(image, generation)| {
        semantic_fingerprint(&world.catalog, &world.build(image, *generation))
    });
    let expect = published.into_iter().zip(fps).collect();
    Inputs {
        world,
        traces,
        expect,
    }
}

/// A live image: oracle fingerprint, request, built size.
struct Live {
    fp: Digest,
    request: RetrieveRequest,
    disk_size: u64,
}

fn retrieve_checked(
    store: &dyn ImageStore,
    world: &ScaledWorld,
    image: &str,
    live: &HashMap<String, Live>,
    ops: &mut Ops,
) {
    let Some(l) = live.get(image) else {
        return ops.check(Err(format!("trace retrieves dead image {image}")));
    };
    let r = ops.time(Kind::Retrieve, || {
        store.retrieve(&world.catalog, &l.request)
    });
    let outcome = match r {
        Ok((vmi, _)) => (semantic_fingerprint(&world.catalog, &vmi) == l.fp)
            .then_some(())
            .ok_or_else(|| format!("retrieve {image}: wrong image")),
        Err(e) => Err(format!("retrieve {image}: {e}")),
    };
    ops.check(outcome);
}

/// One replay of the window's trace on a fresh medium, then the reopen
/// check.
pub fn pass(inp: &Inputs, cfg: &Config, ops: &mut Ops, traced: Option<&Traced>) {
    let world = &inp.world;
    let trace = trace_of(ops.window);
    let medium: Arc<dyn Vfs> = Arc::new(MemFs::new());
    let sections = layers::open_section(&medium, "packages", traced)
        .and_then(|p| Ok((p, layers::open_section(&medium, "data", traced)?)));
    let (packages, data) = match sections {
        Ok(s) => s,
        Err(e) => return ops.check(Err(format!("durable set-up: {e}"))),
    };
    let repo = Arc::new(
        ExpelliarmusRepo::new_durable(
            xpl_simio::SimEnv::testbed(),
            Arc::clone(&packages),
            Arc::clone(&data),
        )
        .with_tier(TierPolicy::mixed()),
    );
    let store = crate::store_for(&repo, traced);
    let mut live: HashMap<String, Live> = HashMap::new();
    let mut corrupt_fp = cfg.corrupt;
    let mut corrupt_range = cfg.corrupt;
    for op in &inp.traces[trace].ops {
        match op {
            TraceOp::Publish { image, generation } | TraceOp::Upgrade { image, generation } => {
                let vmi = world.build(image, *generation);
                let mut fp = inp.expect[&(image.clone(), *generation)];
                if std::mem::take(&mut corrupt_fp) {
                    fp.0[0] ^= 0xFF;
                }
                let r = ops.time(Kind::Publish, || store.publish(&world.catalog, &vmi));
                ops.add_publish_bytes(vmi.disk.virtual_size());
                crate::record_publish(ops, r, image);
                live.insert(
                    image.clone(),
                    Live {
                        fp,
                        request: RetrieveRequest::for_image(&vmi, &world.catalog),
                        disk_size: vmi.disk.virtual_size(),
                    },
                );
            }
            TraceOp::Retrieve { image } => retrieve_checked(&*store, world, image, &live, ops),
            TraceOp::Burst { image, count } => {
                for _ in 0..*count {
                    retrieve_checked(&*store, world, image, &live, ops);
                }
            }
            TraceOp::RetrieveRange {
                image,
                start_frac,
                len,
            } => {
                let Some(l) = live.get(image) else {
                    ops.check(Err(format!("trace reads dead image {image}")));
                    continue;
                };
                // Oracle: the same bytes sliced from a full retrieve,
                // made untimed and around the wrappers.
                let want = repo.retrieve(&world.catalog, &l.request).map(|(full, _)| {
                    let size = full.disk.virtual_size();
                    let start = size * u64::from(*start_frac) / 256;
                    let end = (start + u64::from(*len)).min(size);
                    (start, full.disk.read_at(start, (end - start) as usize))
                });
                let (start, mut want) = match want {
                    Ok((start, Ok(bytes))) => (start, bytes),
                    Ok((_, Err(e))) => {
                        ops.check(Err(format!("range oracle {image}: {e}")));
                        continue;
                    }
                    Err(e) => {
                        ops.check(Err(format!("range oracle {image}: {e}")));
                        continue;
                    }
                };
                if std::mem::take(&mut corrupt_range) {
                    crate::corrupt_bytes(&mut want);
                }
                let r = ops.time(Kind::Range, || {
                    store.retrieve_range(&world.catalog, &l.request, start, u64::from(*len))
                });
                let outcome = match r {
                    Ok((bytes, _)) => (bytes == want)
                        .then_some(())
                        .ok_or_else(|| format!("range {image} @{start}: bytes differ")),
                    Err(e) => Err(format!("range {image} @{start}: {e}")),
                };
                ops.check(outcome);
            }
            TraceOp::Delete { image } => {
                let r = ops.time(Kind::Delete, || store.delete(image));
                ops.check(r.map(|_| ()).map_err(|e| format!("delete {image}: {e}")));
                live.remove(image);
            }
            TraceOp::Maintain => {
                ops.time(Kind::Other, || store.maintain());
            }
            TraceOp::Crash | TraceOp::Recover => {}
        }
    }
    // The space ratios come from trace 0, which every run replays, so
    // they are the same at a fixed seed however many passes fit.
    if trace == 0 {
        let live_disk: u64 = live.values().map(|l| l.disk_size).sum();
        ops.repo_bytes_ratio = repo.repo_bytes() as f64 / live_disk as f64;
        ops.medium_bytes_ratio =
            Some(layers::medium_bytes(&*medium) as f64 / repo.repo_bytes() as f64);
    }
    // Reopen both sections from the directory: the recovered state must
    // equal the live store's, in memory and on the medium, and every
    // blob must re-verify.
    let in_memory: HashMap<String, String> = repo.cas_fingerprints().into_iter().collect();
    for (prefix, handle) in [("packages", &packages), ("data", &data)] {
        let live_fp = handle.state_fingerprint();
        ops.check(
            (in_memory.get(prefix) == Some(&live_fp))
                .then_some(())
                .ok_or_else(|| format!("{prefix}: durable state differs from the in-memory CAS")),
        );
        ops.check(layers::reopen_check(&medium, prefix, &live_fp, traced));
    }
}

/// The layer replays, after the traced passes so that no client is
/// timing operations beside them: trace 0's writes again on a plain
/// in-memory repository with the semantic-graph replay after each
/// publish; then the images live at the end served once over loopback
/// TCP and replayed through guestfs, vdisk and the codecs.
fn replays(inp: &Inputs, t: &Traced, ops: &mut Ops) {
    let world = &inp.world;
    let repo = Arc::new(
        ExpelliarmusRepo::new(xpl_simio::SimEnv::testbed()).with_tier(TierPolicy::mixed()),
    );
    let mut live: BTreeMap<String, u32> = BTreeMap::new();
    for op in &inp.traces[0].ops {
        match op {
            TraceOp::Publish { image, generation } | TraceOp::Upgrade { image, generation } => {
                let vmi = world.build(image, *generation);
                crate::record_publish(ops, repo.publish(&world.catalog, &vmi), image);
                layers::replay_semgraph(&world.catalog, &vmi, &repo, t);
                live.insert(image.clone(), *generation);
            }
            TraceOp::Delete { image } => {
                let r = repo.delete(image);
                ops.check(r.map(|_| ()).map_err(|e| format!("delete {image}: {e}")));
                live.remove(image);
            }
            _ => {}
        }
    }
    let mut targets = HashMap::new();
    let mut expect = HashMap::new();
    let mut keys = Vec::new();
    let mut images = Vec::new();
    for (name, &generation) in &live {
        let vmi = world.build(name, generation);
        let key = format!("retrieve {name}");
        expect.insert(
            key.clone(),
            inp.expect[&(name.clone(), generation)].to_hex(),
        );
        keys.push(key);
        targets.insert(
            name.clone(),
            Target {
                request: RetrieveRequest::for_image(&vmi, &world.catalog),
                disk_size: vmi.disk.virtual_size(),
            },
        );
        images.push(vmi);
    }
    let mut scratch = Ops::default();
    serve::drive(
        world,
        crate::store_for(&repo, Some(t)),
        &Arc::new(targets),
        &keys,
        &expect,
        1,
        None,
        0,
        &mut scratch,
        Some(t),
    );
    ops.attempted += scratch.attempted;
    ops.failures.extend(scratch.failures);
    for vmi in &images {
        let size = vmi.disk.virtual_size();
        layers::replay_image(&world.catalog, vmi, &[(size / 3, 4096)], t);
    }
    layers::replay_codecs(&layers::workload_blobs(&world.catalog, &images), t);
}

fn passes(inp: &Inputs, cfg: &Config, ops: &mut Ops, traced: Option<&Traced>) {
    crate::client_passes(cfg, ops, traced, |local| pass(inp, cfg, local, traced));
}

pub fn run(cfg: &Config) -> Outcome {
    let (inp, setup_s) = crate::setups(cfg, 16, |_| setup(cfg));
    let mut ops = Ops::default();
    passes(&inp, cfg, &mut ops, None);
    let medium = ops.medium_bytes_ratio.unwrap_or(0.0).to_string();
    if !cfg.trace {
        return Outcome {
            attempted: ops.attempted,
            values: metrics::end_to_end(&ops, &setup_s),
            failures: ops.failures,
            extra: vec![("medium_bytes_ratio".into(), medium)],
        };
    }
    let t = Traced::new();
    let mut traced = Ops::default();
    passes(&inp, cfg, &mut traced, Some(&t));
    t.pass_sync_ns
        .store(t.vfs.sync_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    // Against the untraced windows that replayed the same traces.
    let replayed: BTreeSet<usize> = traced.windows.keys().map(|&w| trace_of(w)).collect();
    let overhead =
        traced.mean_op_s(|_| true) / ops.mean_op_s(|w| replayed.contains(&trace_of(w))) - 1.0;
    replays(&inp, &t, &mut traced);
    let counters = t.counters();
    t.add_logical(counters.get("cas.put.logical_bytes").copied().unwrap_or(0));
    t.set_count(
        "persist.medium_bytes_ratio",
        traced.medium_bytes_ratio.unwrap_or(0.0),
    );
    let values = crate::finish_traced(cfg, &t, &mut traced, overhead, &counters);
    traced.failures.extend(ops.failures);
    Outcome {
        attempted: traced.attempted + ops.attempted,
        failures: traced.failures,
        values,
        extra: vec![("medium_bytes_ratio".into(), medium)],
    }
}
