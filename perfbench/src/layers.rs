//! Per-layer numbers of the traced run: timed replays of public layer
//! functions on the workload's own images and blobs, and the assembly
//! of every `PER_LAYER` value from spans, seam counters, the `xpl-obs`
//! registry and the replays.
//!
//! Replays run after the traced pass, outside every timed wall.

use crate::metrics::{self, put, Ops, Values};
use crate::seams::TimingVfs;
use crate::{stats, trace, Traced};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xpl_core::ExpelliarmusRepo;
use xpl_guestfs::{GuestHandle, Vmi};
use xpl_persist::{DurableConfig, DurableContentStore, StdFs, Vfs};
use xpl_pkg::{Catalog, PackageId};
use xpl_semgraph::SemanticGraph;
use xpl_simio::SimEnv;
use xpl_util::{Crc32, Sha256, SplitMix64};

fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Manually installed packages that are not primaries: the base
/// install's roots, as the semantic analyzer takes them.
fn base_roots(vmi: &Vmi) -> Vec<PackageId> {
    vmi.pkgdb
        .manual_ids()
        .into_iter()
        .filter(|id| !vmi.primary.contains(id))
        .collect()
}

/// Packages of `vmi` outside its base install: what publish exports.
pub fn non_base_packages(catalog: &Catalog, vmi: &Vmi) -> Vec<PackageId> {
    let base: std::collections::HashSet<PackageId> = catalog
        .install_closure(&base_roots(vmi), vmi.base.arch)
        .map(|ids| ids.into_iter().collect())
        .unwrap_or_default();
    vmi.pkgdb
        .installed_ids()
        .into_iter()
        .filter(|id| !base.contains(id))
        .collect()
}

/// Semantic graph of a just-published image and its similarity against
/// every master graph the repository now holds.
pub fn replay_semgraph(catalog: &Catalog, vmi: &Vmi, repo: &ExpelliarmusRepo, t: &Traced) {
    let base_roots = base_roots(vmi);
    let installed = vmi.pkgdb.installed_ids();
    let (graph, of_image) = ms(|| {
        SemanticGraph::of_image(
            catalog,
            &vmi.name,
            vmi.base.clone(),
            &installed,
            &vmi.primary,
            &base_roots,
        )
    });
    let masters = repo.masters();
    let (_, similarity) = ms(|| {
        masters
            .iter()
            .map(|m| std::hint::black_box(m.similarity_to(&graph)))
            .sum::<f64>()
    });
    t.sample("semgraph.of_image_ms", of_image);
    t.sample("semgraph.similarity_ms", similarity);
    let vertices: usize = masters
        .iter()
        .map(|m| m.package_count() + m.base_vertices.len())
        .sum();
    t.set_count("semgraph.master_vertices", vertices as f64);
}

/// The guest-side steps of publish and retrieve on a copy of `vmi`:
/// export of every non-base package, removal of the primaries,
/// autoremove, sysprep reset and the `mkfs` disk rebuild; then the
/// virtual disk's serialization and `ranges` reads on its disk.
pub fn replay_image(catalog: &Catalog, vmi: &Vmi, ranges: &[(u64, u64)], t: &Traced) {
    let env = SimEnv::testbed();
    let mut work = vmi.clone();
    {
        let mut handle = GuestHandle::launch(&env, &mut work);
        for id in non_base_packages(catalog, vmi) {
            let (deb, d) = ms(|| handle.export_deb(catalog, id));
            std::hint::black_box(deb);
            t.sample("guestfs.export_deb_ms", d);
        }
        let primaries: Vec<_> = vmi.primary.iter().map(|&id| catalog.get(id).name).collect();
        for name in primaries {
            let (_, d) = ms(|| handle.remove_package(catalog, name));
            t.sample("guestfs.remove_package_ms", d);
        }
        let (_, d) = ms(|| handle.autoremove(catalog));
        t.sample("guestfs.autoremove_ms", d);
        let (_, d) = ms(|| handle.sysprep_reset());
        t.sample("guestfs.sysprep_reset_ms", d);
    }
    work.refresh_status_file(catalog);
    let (_, d) = ms(|| work.rebuild_disk());
    t.sample("guestfs.mkfs_ms", d);
    let (packed, d) = ms(|| vmi.disk.serialize());
    std::hint::black_box(packed);
    t.sample("vdisk.serialize_ms", d);
    let size = vmi.disk.virtual_size();
    for &(start, len) in ranges {
        let start = start.min(size);
        let len = len.min(size - start) as usize;
        let (bytes, d) = ms(|| vmi.disk.read_at(start, len));
        std::hint::black_box(bytes.ok());
        t.sample("vdisk.read_at_ms", d);
    }
}

/// Median MiB/s of three timed runs of `f` over `bytes` input bytes.
fn rate(bytes: usize, mut f: impl FnMut()) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            stats::mib_s(bytes as u64, t.elapsed().as_secs_f64())
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Codec kernels on the workload's own package blobs (up to 4 MiB).
pub fn replay_codecs(blobs: &[Vec<u8>], t: &Traced) {
    let mut input = Vec::new();
    for b in blobs {
        if input.len() >= 4 << 20 {
            break;
        }
        input.extend_from_slice(b);
    }
    let n = input.len();
    let deflated = xpl_compress::deflate(&input);
    let lz4 = xpl_compress::lz4_compress(&input);
    t.set_count(
        "compress.deflate_mib_s",
        rate(n, || {
            std::hint::black_box(xpl_compress::deflate(&input));
        }),
    );
    t.set_count(
        "compress.inflate_mib_s",
        rate(n, || {
            std::hint::black_box(xpl_compress::inflate(&deflated).expect("own deflate stream"));
        }),
    );
    t.set_count(
        "compress.lz4_decode_mib_s",
        rate(n, || {
            std::hint::black_box(
                xpl_compress::lz4_decompress(&lz4, n as u64).expect("own lz4 stream"),
            );
        }),
    );
}

/// The host-speed calibration kernels: SHA-256 and CRC-32 over a fixed
/// 8 MiB input (the same bytes on every host and seed).
pub fn calibration() -> (f64, f64) {
    let mut input = vec![0u8; 8 << 20];
    SplitMix64::new(0xCA11B).fill_bytes(&mut input);
    let sha = rate(input.len(), || {
        std::hint::black_box(Sha256::digest(&input));
    });
    let crc = rate(input.len(), || {
        std::hint::black_box(Crc32::checksum(&input));
    });
    (sha, crc)
}

/// Σ file lengths on a medium.
pub fn medium_bytes(medium: &dyn Vfs) -> u64 {
    medium
        .list()
        .iter()
        .filter_map(|name| medium.file_len(name).ok())
        .sum()
}

/// Open a durable section on `medium`, through the timing wrapper when
/// traced, with the program's own flush policy.
pub fn open_section(
    medium: &Arc<dyn Vfs>,
    prefix: &str,
    traced: Option<&Traced>,
) -> Result<Arc<DurableContentStore>, String> {
    let vfs: Arc<dyn Vfs> = match traced {
        Some(t) => Arc::new(TimingVfs {
            inner: Arc::clone(medium),
            tracer: Arc::clone(&t.tracer),
            stats: Arc::clone(&t.vfs),
        }),
        None => Arc::clone(medium),
    };
    DurableContentStore::open(vfs, DurableConfig::named(prefix))
        .map(|(s, _)| Arc::new(s))
        .map_err(|e| format!("open {prefix}: {e}"))
}

/// Reopen `prefix` from `medium` (timed) and check it against the live
/// section: same state fingerprint, and a clean deep verify.
pub fn reopen_check(
    medium: &Arc<dyn Vfs>,
    prefix: &str,
    live_fingerprint: &str,
    t: Option<&Traced>,
) -> Result<(), String> {
    let start = Instant::now();
    let reopened = open_section(medium, prefix, None)?;
    if let Some(t) = t {
        t.sample("persist.reopen_s", start.elapsed().as_secs_f64());
    }
    if reopened.state_fingerprint() != live_fingerprint {
        return Err(format!(
            "reopened {prefix} section differs from the live store"
        ));
    }
    reopened
        .deep_verify()
        .map(|_| ())
        .map_err(|e| format!("reopened {prefix} section: deep verify: {e}"))
}

/// What persisting this workload's content would cost: every blob into
/// a fresh durable section on the real file system (the program's own
/// flush policy), then a timed reopen. For the in-memory workloads.
pub fn replay_persist(blobs: &[Vec<u8>], dir: &Path, t: &Traced, ops: &mut Ops) {
    let _ = std::fs::remove_dir_all(dir);
    let medium: Arc<dyn Vfs> = match StdFs::new(dir) {
        Ok(fs) => Arc::new(fs),
        Err(e) => return ops.check(Err(format!("persist replay: {e}"))),
    };
    let store = match open_section(&medium, "replay", Some(t)) {
        Ok(s) => s,
        Err(e) => return ops.check(Err(format!("persist replay: {e}"))),
    };
    store.attach_obs(&t.registry);
    let mut logical = 0u64;
    for b in blobs {
        let _span = t.tracer.span("persist.replay_put", None);
        match store.put(b) {
            Ok((_, true)) => logical += b.len() as u64,
            Ok((_, false)) => {}
            Err(e) => return ops.check(Err(format!("persist replay put: {e}"))),
        }
    }
    t.add_logical(logical);
    t.set_count(
        "persist.medium_bytes_ratio",
        stats::ratio(medium_bytes(&*medium) as f64, store.unique_bytes() as f64),
    );
    ops.check(reopen_check(
        &medium,
        "replay",
        &store.state_fingerprint(),
        Some(t),
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// The workload's own content: the `.deb` of every distinct non-base
/// package of `images`, then their user-data files, up to 64 MiB.
pub fn workload_blobs<'a>(
    catalog: &Catalog,
    images: impl IntoIterator<Item = &'a Vmi>,
) -> Vec<Vec<u8>> {
    const CAP: usize = 64 << 20;
    let images: Vec<&Vmi> = images.into_iter().collect();
    let mut seen = std::collections::HashSet::new();
    let mut blobs = Vec::new();
    let mut total = 0usize;
    for vmi in &images {
        for id in non_base_packages(catalog, vmi) {
            if total < CAP && seen.insert(id) {
                let deb = xpl_pkg::deb::build_deb(catalog, id).bytes;
                total += deb.len();
                blobs.push(deb);
            }
        }
    }
    for vmi in &images {
        for f in vmi.user_data_files() {
            if total < CAP {
                let content = f.content();
                total += content.len();
                blobs.push(content);
            }
        }
    }
    blobs
}

fn mean(v: &[f64]) -> f64 {
    stats::ratio(v.iter().sum(), v.len() as f64)
}

fn load(a: &AtomicU64) -> f64 {
    a.load(Ordering::Relaxed) as f64
}

/// Every `PER_LAYER` value, plus the requests that fail the nesting
/// check. `traced` is the traced pass's operations, `overhead` its wall
/// against the untraced pass's.
pub fn per_layer(
    t: &Traced,
    traced: &Ops,
    overhead: f64,
    counters: &BTreeMap<String, u64>,
) -> (Values, Vec<String>) {
    let mut v = Values::new();
    put(&mut v, "trace_overhead_frac", overhead);
    let spans = t.tracer.spans();
    let analysis = trace::analyze(&spans);
    let named =
        |name: &str| -> Vec<&trace::Span> { spans.iter().filter(|s| s.name == name).collect() };

    // net: server-side service spans, joined to client calls by id.
    let service: Vec<&trace::Span> = named("net.service");
    let service_ms: Vec<f64> = service.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let one_window: Vec<(u32, f64)> = service_ms.iter().map(|&ms| (0, ms)).collect();
    metrics::put_latency(
        &mut v,
        "net.service_ms_p50",
        "net.service_ms_tail",
        &one_window,
    );
    let service_by_req: BTreeMap<u64, u64> = service.iter().map(|s| (s.req, s.dur_ns())).collect();
    let outside: Vec<f64> = named("wire.call")
        .iter()
        .filter_map(|c| {
            service_by_req
                .get(&c.req)
                .map(|&svc| c.dur_ns().saturating_sub(svc) as f64 / 1e6)
        })
        .collect();
    put(
        &mut v,
        "net.outside_service_ms_p50",
        stats::median(&outside),
    );
    put(
        &mut v,
        "net.service_busy_s",
        service_ms.iter().sum::<f64>() / 1e3,
    );
    put(&mut v, "net.request_bytes", load(&t.wire_bytes.sent));
    put(&mut v, "net.response_bytes", load(&t.wire_bytes.received));
    {
        let n = t.net.lock().expect("net counts poisoned");
        put(&mut v, "net.retries", n.retries as f64);
        put(&mut v, "net.reconnects", n.reconnects as f64);
        put(&mut v, "net.overloads_seen", n.overloads_seen as f64);
        put(&mut v, "net.srv_overloads", n.srv_overloads as f64);
        put(&mut v, "net.srv_evictions", n.srv_evictions as f64);
        put(&mut v, "net.srv_frame_errors", n.srv_frame_errors as f64);
    }

    // core: publish self time (the op minus its persist child spans).
    let publish_self: Vec<f64> = named("core.publish")
        .iter()
        .map(|s| analysis.self_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e6)
        .collect();
    put(
        &mut v,
        "core.publish_self_ms_p50",
        stats::median(&publish_self),
    );
    let deletes: Vec<f64> = traced.delete_ms.iter().map(|&(_, ms)| ms).collect();
    put(&mut v, "core.delete_ms_p50", stats::median(&deletes));
    put(
        &mut v,
        "core.packages_exported",
        load(&t.core.packages_exported),
    );
    put(&mut v, "core.bytes_added", load(&t.core.bytes_added));
    put(
        &mut v,
        "core.retrieve_bytes_read",
        load(&t.core.retrieve_bytes_read),
    );
    put(
        &mut v,
        "core.range_read_amp",
        stats::ratio(load(&t.core.range_bytes_read), load(&t.core.range_len)),
    );

    // Replays: mean per call.
    let samples = t.samples.lock().expect("samples poisoned");
    for name in [
        "guestfs.remove_package_ms",
        "guestfs.autoremove_ms",
        "guestfs.export_deb_ms",
        "guestfs.sysprep_reset_ms",
        "guestfs.mkfs_ms",
        "vdisk.serialize_ms",
        "vdisk.read_at_ms",
        "semgraph.of_image_ms",
        "semgraph.similarity_ms",
    ] {
        put(
            &mut v,
            name,
            mean(samples.get(name).map_or(&[][..], Vec::as_slice)),
        );
    }
    let reopen: f64 = samples
        .get("persist.reopen_s")
        .map_or(0.0, |r| r.iter().sum());
    drop(samples);
    let counts = t.counts.lock().expect("counts poisoned");
    for name in [
        "semgraph.master_vertices",
        "compress.deflate_mib_s",
        "compress.inflate_mib_s",
        "compress.lz4_decode_mib_s",
        "util.sha256_mib_s",
        "util.crc32_mib_s",
        "persist.medium_bytes_ratio",
    ] {
        put(&mut v, name, counts.get(name).copied().unwrap_or(0.0));
    }
    drop(counts);

    // store: the registry's deterministic counters.
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "cas.put.new",
        "cas.put.dedup",
        "cas.put.logical_bytes",
        "cas.put.encoded_bytes",
        "cas.get.bytes",
        "cas.range.bytes",
        "cas.release.freed_bytes",
        "cas.recompress.ops",
        "cas.maintain.promoted",
        "persist.wal.appends",
        "persist.checkpoints",
    ] {
        put(&mut v, name, c(name));
    }
    put(
        &mut v,
        "cas.dedup_ratio",
        stats::ratio(c("cas.put.dedup"), c("cas.put.dedup") + c("cas.put.new")),
    );

    // persist: the timing medium.
    let vs = &t.vfs;
    put(&mut v, "persist.vfs.append_calls", load(&vs.append_calls));
    put(&mut v, "persist.vfs.append_bytes", load(&vs.append_bytes));
    put(&mut v, "persist.vfs.append_ms", load(&vs.append_ns) / 1e6);
    put(&mut v, "persist.vfs.sync_calls", load(&vs.sync_calls));
    put(&mut v, "persist.vfs.sync_ms", load(&vs.sync_ns) / 1e6);
    put(
        &mut v,
        "persist.vfs.sync_ms_p50",
        stats::median(&vs.sync_ms.lock().expect("sync samples poisoned")),
    );
    put(
        &mut v,
        "persist.vfs.write_atomic_calls",
        load(&vs.write_atomic_calls),
    );
    put(
        &mut v,
        "persist.write_amp",
        stats::ratio(load(&vs.append_bytes), load(&t.logical)),
    );
    put(
        &mut v,
        "persist.sync_share",
        stats::ratio(load(&t.pass_sync_ns) / 1e9, traced.write_wall_s),
    );
    put(&mut v, "persist.reopen_s", reopen);
    (v, analysis.violations)
}
