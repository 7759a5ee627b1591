//! `serve-wire`: the Zipf multi-tenant serving schedule over loopback
//! TCP, closed loop, one connection per client thread.

use crate::metrics::{self, Kind, Ops};
use crate::seams::CountingTransport;
use crate::trace::Tracer;
use crate::{layers, Config, Outcome, Traced};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xpl_core::ExpelliarmusRepo;
use xpl_net::{BackoffPolicy, ClientStats, NetClient, NetServer, TcpTransport, WireConfig};
use xpl_pkg::Catalog;
use xpl_registry::RequestKey;
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest, TierPolicy};
use xpl_util::{Sha256, SplitMix64};
use xpl_workloads::{ScaleConfig, ScaledWorld, ServeConfig, ServeSchedule};

/// How to ask the store for one published image.
pub struct Target {
    pub request: RetrieveRequest,
    /// Virtual disk size of the image as built (range offsets are
    /// fractions of it, the schedule's convention).
    pub disk_size: u64,
}

/// Execute one request key against `store`; reply with the payload
/// digest: the semantic fingerprint of a full retrieve, SHA-256 of the
/// bytes of a range read.
pub fn execute(
    store: &dyn ImageStore,
    catalog: &Catalog,
    targets: &HashMap<String, Target>,
    key: &RequestKey,
) -> Result<String, String> {
    let image = match key {
        RequestKey::Image { image } | RequestKey::Range { image, .. } => image,
    };
    let target = targets
        .get(image)
        .ok_or_else(|| format!("unknown image {image:?}"))?;
    match key {
        RequestKey::Image { .. } => store
            .retrieve(catalog, &target.request)
            .map(|(vmi, _)| semantic_fingerprint(catalog, &vmi).to_hex())
            .map_err(|e| e.to_string()),
        RequestKey::Range {
            start_frac,
            len_bytes,
            ..
        } => {
            let start = target.disk_size * u64::from(*start_frac) / 256;
            store
                .retrieve_range(catalog, &target.request, start, u64::from(*len_bytes))
                .map(|(bytes, _)| Sha256::digest(&bytes).to_hex())
                .map_err(|e| e.to_string())
        }
    }
}

/// The benchmark's wire service. The request body is
/// `"<request id> <request key>"`: the id lets the server-side span
/// join the client's span of the same request.
pub struct BenchService {
    pub world: Arc<ScaledWorld>,
    pub store: Arc<dyn ImageStore>,
    pub targets: Arc<HashMap<String, Target>>,
    pub tracer: Option<Arc<Tracer>>,
}

impl xpl_net::WireService for BenchService {
    fn call(&self, _tenant: u32, body: &[u8]) -> Result<Vec<u8>, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        let (id, key) = text
            .split_once(' ')
            .ok_or_else(|| format!("body without request id: {text:?}"))?;
        let id: u64 = id.parse().map_err(|_| format!("bad request id {id:?}"))?;
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span("net.service", Some(id)));
        let key = RequestKey::parse(key).ok_or_else(|| format!("unparseable key {key:?}"))?;
        execute(&*self.store, &self.world.catalog, &self.targets, &key).map(String::into_bytes)
    }
}

/// Schedules per run and requests per schedule (8 × 500: the key
/// stream the clients cycle through).
const SCHEDULES: usize = 8;
const REQUESTS_PER_SCHEDULE: usize = 500;

/// Requests per measurement window of the wire run. Windows are cut by
/// request count, not time, so every window holds the same mix and the
/// tail rule picks the same percentile on any host (~600 range reads:
/// p95; ~4400 full retrieves: p99).
const WINDOW_REQUESTS: u64 = 5000;

fn wire_config() -> WireConfig {
    WireConfig {
        read_deadline: Duration::from_secs(30),
        write_deadline: Duration::from_secs(30),
        ..WireConfig::default()
    }
}

/// What one closed-loop wire run saw.
pub struct WireRun {
    pub completed: u64,
    pub wall_s: f64,
}

/// Drive `keys` through a fresh loopback server with `clients`
/// closed-loop connections: cycled for `seconds`, or each key once
/// when `seconds` is `None`. Every reply is checked
/// against `expect`. With `traced`, client calls and server-side
/// service calls are spans, and client transports count bytes.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    world: &Arc<ScaledWorld>,
    store: Arc<dyn ImageStore>,
    targets: &Arc<HashMap<String, Target>>,
    keys: &[String],
    expect: &HashMap<String, String>,
    clients: usize,
    seconds: Option<f64>,
    seed: u64,
    ops: &mut Ops,
    traced: Option<&Traced>,
) -> WireRun {
    let svc = Arc::new(BenchService {
        world: Arc::clone(world),
        store,
        targets: Arc::clone(targets),
        tracer: traced.map(|t| Arc::clone(&t.tracer)),
    });
    let cfg = wire_config();
    let server = match NetServer::bind("127.0.0.1:0", svc, cfg) {
        Ok(s) => s,
        Err(e) => {
            ops.check(Err(format!("wire: bind: {e}")));
            return WireRun {
                completed: 0,
                wall_s: 0.0,
            };
        }
    };
    let addr = server.local_addr();
    let seq = AtomicU64::new(0);
    let merged: Mutex<(Ops, ClientStats)> = Mutex::new((Ops::default(), ClientStats::default()));
    // Per window: first request start and last reply, seconds from t0.
    let spans: Mutex<BTreeMap<u32, (f64, f64)>> = Mutex::new(BTreeMap::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (seq, merged, spans) = (&seq, &merged, &spans);
            let wire_bytes = traced.map(|t| Arc::clone(&t.wire_bytes));
            let tracer = traced.map(|t| Arc::clone(&t.tracer));
            scope.spawn(move || {
                let connector: xpl_net::Connector = Box::new(move || {
                    let tcp = TcpTransport::connect(&addr)?;
                    Ok(match &wire_bytes {
                        Some(bytes) => Box::new(CountingTransport {
                            inner: Box::new(tcp),
                            bytes: Arc::clone(bytes),
                        }),
                        None => Box::new(tcp),
                    })
                });
                let mut client = NetClient::new(
                    c as u32,
                    cfg,
                    BackoffPolicy::default(),
                    seed ^ ((c as u64) << 20),
                    connector,
                );
                let mut local = Ops::default();
                let mut local_spans: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
                let mut i = c;
                let mut started = t0.elapsed().as_secs_f64();
                while match seconds {
                    Some(s) => started < s,
                    None => i < keys.len(),
                } {
                    let n = seq.fetch_add(1, Ordering::Relaxed);
                    local.window = (n / WINDOW_REQUESTS) as u32;
                    let key = &keys[i % keys.len()];
                    i += clients;
                    // Traced ids come from the tracer, so they never
                    // collide with the ids of other requests' spans.
                    let id = match &tracer {
                        Some(t) => t.next_req(),
                        None => n + 1,
                    };
                    let body = format!("{id} {key}");
                    let kind = if key.starts_with("range ") {
                        Kind::Range
                    } else {
                        Kind::Retrieve
                    };
                    let reply = local.time(kind, || {
                        let _span = tracer.as_ref().map(|t| t.span("wire.call", Some(id)));
                        client.call(body.as_bytes())
                    });
                    local.check(match reply {
                        Ok(r) if expect.get(key).map(String::as_bytes) == Some(&r[..]) => Ok(()),
                        Ok(r) => Err(format!(
                            "wire {key}: reply {} != expected {:?}",
                            String::from_utf8_lossy(&r),
                            expect.get(key)
                        )),
                        Err(e) => Err(format!("wire {key}: {e}")),
                    });
                    let done = t0.elapsed().as_secs_f64();
                    let span = local_spans.entry(local.window).or_insert((started, done));
                    span.1 = done;
                    started = done;
                }
                client.close();
                let mut all = spans.lock().expect("window spans poisoned");
                for (w, (s, e)) in local_spans {
                    let span = all.entry(w).or_insert((s, e));
                    span.0 = span.0.min(s);
                    span.1 = span.1.max(e);
                }
                drop(all);
                let mut m = merged.lock().expect("merge lock poisoned");
                m.0.merge(local);
                let s = &mut m.1;
                s.retries += client.stats.retries;
                s.reconnects += client.stats.reconnects;
                s.overloads_seen += client.stats.overloads_seen;
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let srv = server.drain();
    let (mut local, client_stats) = merged.into_inner().expect("merge lock poisoned");
    let completed = local.total_ops();
    // A window's rate is its completions over the wall from its first
    // request to its last reply (the closed loop keeps every client
    // busy), not over summed latencies. A last window cut short by the
    // deadline is dropped.
    let spans = spans.into_inner().expect("window spans poisoned");
    for (id, w) in local.windows.iter_mut() {
        w.wall_s = spans.get(id).map_or(0.0, |(s, e)| e - s);
    }
    if local.windows.values().any(|w| w.ops >= WINDOW_REQUESTS / 2) {
        local.retain_windows(|w| w.ops >= WINDOW_REQUESTS / 2);
    }
    ops.merge(local);
    if let Some(t) = traced {
        let mut n = t.net.lock().expect("net counts poisoned");
        n.retries += client_stats.retries;
        n.reconnects += client_stats.reconnects;
        n.overloads_seen += client_stats.overloads_seen;
        n.srv_overloads += srv.overloads;
        n.srv_evictions += srv.evictions;
        n.srv_frame_errors += srv.frame_errors;
    }
    WireRun { completed, wall_s }
}

/// Client-side retry and server-side refusal counts.
#[derive(Default)]
pub struct NetCounts {
    pub retries: u64,
    pub reconnects: u64,
    pub overloads_seen: u64,
    pub srv_overloads: u64,
    pub srv_evictions: u64,
    pub srv_frame_errors: u64,
}

/// Set-up state: the published repository, the schedule's key stream,
/// and the memoized digest of every distinct key.
pub struct Inputs {
    pub world: Arc<ScaledWorld>,
    pub repo: Arc<ExpelliarmusRepo>,
    pub targets: Arc<HashMap<String, Target>>,
    pub keys: Vec<String>,
    pub memo: HashMap<String, String>,
}

/// The 120-image world of `lifecycle-durable` and `serve-wire`. It is
/// the same for every seed; the seed draws the trace and the schedule,
/// so runs at different seeds measure the same images.
pub fn scale(cfg: &Config) -> ScaleConfig {
    const WORLD_SEED: u64 = 1;
    if cfg.tiny {
        ScaleConfig::small(WORLD_SEED)
    } else {
        ScaleConfig::standard(WORLD_SEED)
    }
}

/// World build, pre-publish (timed: the workload's publish series),
/// schedule, memo pass checked against independent oracles, and one
/// warm-up `maintain()` sweep.
pub fn setup(cfg: &Config, ops: &mut Ops, traced: Option<&Traced>) -> Inputs {
    ops.outside_loop = true;
    let world = Arc::new(ScaledWorld::generate(&scale(cfg)));
    let names = world.image_names();
    let repo = Arc::new(
        ExpelliarmusRepo::new(xpl_simio::SimEnv::testbed()).with_tier(TierPolicy::mixed()),
    );
    let store = crate::store_for(&repo, traced);
    let mut targets = HashMap::new();
    let mut fps = HashMap::new();
    let mut disk_total = 0u64;
    for name in &names {
        let vmi = world.build(name, 0);
        let size = vmi.disk.virtual_size();
        let r = ops.time(Kind::Publish, || store.publish(&world.catalog, &vmi));
        ops.add_publish_bytes(size);
        disk_total += size;
        crate::record_publish(ops, r, name);
        if let Some(t) = traced {
            crate::layers::replay_semgraph(&world.catalog, &vmi, &repo, t);
        }
        fps.insert(
            name.clone(),
            semantic_fingerprint(&world.catalog, &vmi).to_hex(),
        );
        targets.insert(
            name.clone(),
            Target {
                request: RetrieveRequest::for_image(&vmi, &world.catalog),
                disk_size: size,
            },
        );
    }
    ops.repo_bytes_ratio = repo.repo_bytes() as f64 / disk_total as f64;

    // Several schedules, each with its own seeded popularity order: which
    // images are hot moves the per-request cost, so one schedule per run
    // would make the seed, not the program, the largest source of spread.
    let mut seeds = SplitMix64::new(cfg.seed).derive("serve-schedules");
    let mut specs = Vec::new();
    for _ in 0..SCHEDULES {
        let mut serve_cfg = ServeConfig::new(seeds.next_u64());
        serve_cfg.requests = REQUESTS_PER_SCHEDULE;
        if cfg.tiny {
            serve_cfg.tenants = 4;
            serve_cfg.requests = 100;
        }
        specs.extend(ServeSchedule::generate(&names, &serve_cfg).requests);
    }
    let keys: Vec<String> = specs
        .iter()
        .map(|spec| match spec.range {
            None => RequestKey::Image {
                image: spec.image.clone(),
            },
            Some((start_frac, len_bytes)) => RequestKey::Range {
                image: spec.image.clone(),
                start_frac,
                len_bytes,
            },
        })
        .map(|k| k.render())
        .collect();

    // Memo pass: every distinct key once, in process, each checked
    // against an oracle that does not use the memoized path — the
    // independently built image's fingerprint for a full retrieve, the
    // full retrieve's disk slice for a range read.
    let mut memo: HashMap<String, String> = HashMap::new();
    let mut full_disks: HashMap<String, xpl_vdisk::QcowImage> = HashMap::new();
    let mut corrupt_range = cfg.corrupt;
    for rendered in &keys {
        if memo.contains_key(rendered) {
            continue;
        }
        let key = RequestKey::parse(rendered).expect("rendered keys parse");
        let got = execute(&*repo, &world.catalog, &targets, &key);
        let outcome = got
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|digest| match &key {
                RequestKey::Image { image } => (fps.get(image) == Some(digest))
                    .then_some(())
                    .ok_or_else(|| {
                        format!("memo {rendered}: fingerprint differs from the built image")
                    }),
                RequestKey::Range {
                    image,
                    start_frac,
                    len_bytes,
                } => {
                    let t = &targets[image];
                    if !full_disks.contains_key(image) {
                        let (full, _) = repo
                            .retrieve(&world.catalog, &t.request)
                            .map_err(|e| format!("memo oracle {rendered}: {e}"))?;
                        full_disks.insert(image.clone(), full.disk);
                    }
                    let disk = &full_disks[image];
                    let size = disk.virtual_size();
                    let start = (t.disk_size * u64::from(*start_frac) / 256).min(size);
                    let end = (start + u64::from(*len_bytes)).min(size);
                    let mut want = disk
                        .read_at(start, (end - start) as usize)
                        .map_err(|e| format!("memo oracle {rendered}: {e}"))?;
                    if std::mem::take(&mut corrupt_range) {
                        crate::corrupt_bytes(&mut want);
                    }
                    (Sha256::digest(&want).to_hex() == *digest)
                        .then_some(())
                        .ok_or_else(|| {
                            format!("memo {rendered}: range bytes differ from the full retrieve")
                        })
                }
            });
        ops.check(outcome);
        memo.insert(rendered.clone(), got.unwrap_or_default());
    }
    if cfg.corrupt {
        if let Some(first_image) = keys.iter().find(|k| k.starts_with("retrieve ")) {
            let d = memo.get_mut(first_image).expect("memoized");
            *d = crate::corrupt_hex(d);
        }
    }
    store.maintain();
    ops.outside_loop = false;
    Inputs {
        world,
        repo,
        targets: Arc::new(targets),
        keys,
        memo,
    }
}

/// The measured part: the closed-loop wire run for `--seconds`.
pub fn pass(inp: &Inputs, cfg: &Config, ops: &mut Ops, traced: Option<&Traced>) -> WireRun {
    let store = crate::store_for(&inp.repo, traced);
    drive(
        &inp.world,
        store,
        &inp.targets,
        &inp.keys,
        &inp.memo,
        crate::clients(),
        Some(cfg.seconds),
        cfg.seed,
        ops,
        traced,
    )
}

/// Delete every image (timed per call, for `core.delete_ms_p50`); the
/// last use of the traced run's repository.
pub fn teardown(inp: &Inputs, ops: &mut Ops) {
    ops.outside_loop = true;
    let mut names: Vec<&String> = inp.targets.keys().collect();
    names.sort();
    for name in names {
        let r = ops.time(Kind::Delete, || inp.repo.delete(name));
        ops.check(r.map(|_| ()).map_err(|e| format!("delete {name}: {e}")));
    }
}

/// Set-ups per untraced run, each a window of 120 publishes. They run
/// `nproc` at a time, so every CPU is busy as in the wire run; alone, a
/// ~0.3-s set-up is too short to outlast the host's speed swings.
const SETUPS: u32 = 32;

pub fn run(cfg: &Config) -> Outcome {
    let mut ops = Ops::default();
    if !cfg.trace {
        let threads = crate::clients() as u32;
        let mut setup_s = Vec::new();
        let mut inp: Option<Inputs> = None;
        for round in 0..SETUPS.div_ceil(threads) {
            let done: Vec<(Inputs, Ops, f64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut local = Ops {
                                window: round * threads + c,
                                ..Ops::default()
                            };
                            let t = Instant::now();
                            let i = setup(cfg, &mut local, None);
                            (i, local, t.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("set-up thread panicked"))
                    .collect()
            });
            for (i, local, secs) in done {
                ops.merge(local);
                setup_s.push(secs);
                inp = Some(i);
            }
        }
        let inp = inp.expect("at least one set-up");
        ops.window = 0;
        pass(&inp, cfg, &mut ops, None);
        return Outcome {
            attempted: ops.attempted,
            values: metrics::end_to_end(&ops, &setup_s),
            failures: ops.failures,
            extra: vec![],
        };
    }
    let t = Traced::new();
    let inp = setup(cfg, &mut ops, Some(&t));
    // The untraced baseline shares the repository (and so its registry);
    // its counter deltas are taken back out below.
    let before = t.counters();
    let mut baseline = Ops::default();
    let base = pass(&inp, cfg, &mut baseline, None);
    let after = t.counters();
    let traced = pass(&inp, cfg, &mut ops, Some(&t));
    let overhead =
        (base.completed as f64 / base.wall_s) / (traced.completed as f64 / traced.wall_s) - 1.0;

    let images: Vec<xpl_guestfs::Vmi> = {
        let mut names: Vec<&String> = inp.targets.keys().collect();
        names.sort();
        names.into_iter().map(|n| inp.world.build(n, 0)).collect()
    };
    for vmi in &images {
        let ranges: Vec<(u64, u64)> = inp
            .keys
            .iter()
            .filter_map(|k| match RequestKey::parse(k) {
                Some(RequestKey::Range {
                    image,
                    start_frac,
                    len_bytes,
                }) if image == vmi.name => Some((
                    vmi.disk.virtual_size() * u64::from(start_frac) / 256,
                    u64::from(len_bytes),
                )),
                _ => None,
            })
            .collect();
        layers::replay_image(&inp.world.catalog, vmi, &ranges, &t);
    }
    let blobs = layers::workload_blobs(&inp.world.catalog, &images);
    layers::replay_codecs(&blobs, &t);
    layers::replay_persist(
        &blobs,
        &crate::run_dir().join("persist-replay"),
        &t,
        &mut ops,
    );
    teardown(&inp, &mut ops);
    let counters: std::collections::BTreeMap<String, u64> = t
        .counters()
        .into_iter()
        .map(|(name, v)| {
            let baseline =
                after.get(&name).copied().unwrap_or(0) - before.get(&name).copied().unwrap_or(0);
            (name, v - baseline)
        })
        .collect();
    let values = crate::finish_traced(cfg, &t, &mut ops, overhead, &counters);
    ops.attempted += baseline.attempted;
    ops.failures.extend(baseline.failures);
    Outcome {
        attempted: ops.attempted,
        failures: ops.failures,
        values,
        extra: vec![],
    }
}
