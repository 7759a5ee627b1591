//! The repository benchmark: wall-clock end-to-end metrics of the real
//! `ExpelliarmusRepo` on two seeded workloads, and a traced run that
//! splits them by layer. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <lifecycle-durable|serve-wire>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the host fingerprint and a readable report. Any wrong answer
//! makes the run exit nonzero.

mod layers;
mod lifecycle;
mod metrics;
mod seams;
mod serve;
mod stats;
mod trace;

use metrics::{Ops, Values};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xpl_core::ExpelliarmusRepo;
use xpl_store::{ImageStore, PublishReport, StoreError};

pub const WORKLOADS: [&str; 2] = ["lifecycle-durable", "serve-wire"];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Miniature worlds (the crate's own tests).
    pub tiny: bool,
    /// Corrupt one expected digest and one expected range byte in the
    /// oracle (the crate's own tests: the checks must bite).
    pub corrupt: bool,
}

/// Sinks of the traced run.
pub struct Traced {
    pub tracer: Arc<trace::Tracer>,
    pub registry: Arc<xpl_obs::Registry>,
    pub vfs: Arc<seams::VfsStats>,
    pub wire_bytes: Arc<seams::WireBytes>,
    pub core: Arc<seams::CoreCounts>,
    pub net: Mutex<serve::NetCounts>,
    /// Replay samples by metric name.
    pub samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    /// Single-valued replay results by metric name.
    pub counts: Mutex<BTreeMap<&'static str, f64>>,
    /// New logical bytes written to a durable medium (write-amp base).
    pub logical: AtomicU64,
    /// Sync time inside the measured pass (sync-share numerator).
    pub pass_sync_ns: AtomicU64,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            tracer: trace::Tracer::new(),
            registry: xpl_obs::Registry::new(),
            vfs: Arc::default(),
            wire_bytes: Arc::default(),
            core: Arc::default(),
            net: Mutex::default(),
            samples: Mutex::default(),
            counts: Mutex::default(),
            logical: AtomicU64::new(0),
            pass_sync_ns: AtomicU64::new(0),
        }
    }

    pub fn sample(&self, name: &'static str, v: f64) {
        self.samples
            .lock()
            .expect("samples poisoned")
            .entry(name)
            .or_default()
            .push(v);
    }

    pub fn set_count(&self, name: &'static str, v: f64) {
        self.counts.lock().expect("counts poisoned").insert(name, v);
    }

    pub fn add_logical(&self, n: u64) {
        self.logical.fetch_add(n, Ordering::Relaxed);
    }

    /// The registry's counters by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.registry
            .snapshot()
            .counters
            .into_iter()
            .map(|(name, _, v)| (name, v))
            .collect()
    }
}

/// The store the workload calls: the repository itself, or (traced)
/// the span-opening wrapper around it with the registry attached.
pub fn store_for(repo: &Arc<ExpelliarmusRepo>, traced: Option<&Traced>) -> Arc<dyn ImageStore> {
    match traced {
        Some(t) => {
            repo.attach_obs(&t.registry);
            Arc::new(seams::TimedStore {
                inner: Arc::clone(repo) as Arc<dyn ImageStore>,
                tracer: Arc::clone(&t.tracer),
                counts: Arc::clone(&t.core),
            })
        }
        None => Arc::clone(repo) as Arc<dyn ImageStore>,
    }
}

/// Check a publish outcome.
pub fn record_publish(ops: &mut Ops, r: Result<PublishReport, StoreError>, name: &str) {
    ops.check(r.map(|_| ()).map_err(|e| format!("publish {name}: {e}")));
}

/// Flip the first byte (or add one to an empty slice).
pub fn corrupt_bytes(b: &mut Vec<u8>) {
    match b.first_mut() {
        Some(x) => *x ^= 0xFF,
        None => b.push(0),
    }
}

/// Change the first hex digit of a digest.
pub fn corrupt_hex(d: &str) -> String {
    let flipped = if d.starts_with('0') { '1' } else { '0' };
    format!("{flipped}{}", d.get(1..).unwrap_or(""))
}

/// Closed-loop clients / connections: one per CPU.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, usize::from)
}

/// `f` over `items` on `nproc` threads, results in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = clients();
    let f = &f;
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Scratch space of a run, inside the working directory (the checkout).
pub fn run_dir() -> PathBuf {
    PathBuf::from(".perfbench-run")
}

/// What a workload run hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub values: Values,
    /// Printed, not emitted as metrics.
    pub extra: Vec<(String, String)>,
}

/// Time `reps` set-ups (one when traced) and keep the last one;
/// `setup_s` is the median of their times.
pub fn setups<T>(cfg: &Config, reps: u32, mut f: impl FnMut(u32) -> T) -> (T, Vec<f64>) {
    let reps = if cfg.trace { 1 } else { reps };
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(f(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Run passes on `nproc` client threads, each against state of its own,
/// until `--seconds` are up (one pass per client when traced). Each
/// client's pass is a window, numbered `pass × clients + client`, which
/// `pass` gets. Keeping every CPU busy makes the shared host's speed
/// swings hit all windows alike.
pub fn client_passes(
    cfg: &Config,
    ops: &mut Ops,
    traced: Option<&Traced>,
    pass: impl Fn(&mut Ops) + Sync,
) {
    let clients = clients() as u32;
    let t0 = std::time::Instant::now();
    let pass = &pass;
    let done: Vec<Ops> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut local = Ops::default();
                    let mut n = 0;
                    while n == 0 || (traced.is_none() && t0.elapsed().as_secs_f64() < cfg.seconds) {
                        local.window = n * clients + c;
                        pass(&mut local);
                        n += 1;
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for d in done {
        ops.merge(d);
    }
}

/// Finish a traced run: calibration kernels, nesting check, values,
/// spans written to the run directory.
pub fn finish_traced(
    cfg: &Config,
    t: &Traced,
    traced_ops: &mut Ops,
    overhead: f64,
    counters: &BTreeMap<String, u64>,
) -> Values {
    let (sha, crc) = layers::calibration();
    t.set_count("util.sha256_mib_s", sha);
    t.set_count("util.crc32_mib_s", crc);
    let (values, nesting) = layers::per_layer(t, traced_ops, overhead, counters);
    for v in nesting.iter().take(5) {
        eprintln!("perfbench: nesting check: {v}");
    }
    traced_ops.check(if nesting.is_empty() {
        Ok(())
    } else {
        Err(format!("{} requests fail the nesting check", nesting.len()))
    });
    let dir = run_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{}-seed{}.spans.tsv", cfg.workload, cfg.seed));
        if let Err(e) = t.tracer.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    values
}

fn host_fingerprint(cfg: &Config) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    let (sha, _) = layers::calibration();
    format!(
        "{{\"nproc\":{},\"cpu\":{:?},\"rustc\":{:?},\"commit\":{:?},\"workload\":{:?},\
         \"seed\":{},\"util.sha256_mib_s\":{sha:.1}}}",
        clients(),
        cpu,
        env!("PERFBENCH_RUSTC"),
        commit,
        cfg.workload,
        cfg.seed
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported tree).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tiny" => cfg.tiny = true,
            "--corrupt-oracle" => cfg.corrupt = true,
            _ => {
                let value = args.next().unwrap_or_else(|| usage());
                match flag.as_str() {
                    "--workload" => cfg.workload = value,
                    "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
                    "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
                    "--trace" => {
                        cfg.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => usage(),
                        }
                    }
                    _ => usage(),
                }
            }
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) || cfg.seconds <= 0.0 {
        usage();
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    println!("host {}", host_fingerprint(&cfg));
    let out = match cfg.workload.as_str() {
        "lifecycle-durable" => lifecycle::run(&cfg),
        _ => serve::run(&cfg),
    };
    let names = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(1);
    println!(
        "workload {} seed {} trace {}",
        cfg.workload, cfg.seed, cfg.trace as u8
    );
    let mut json = String::new();
    for (name, unit) in names {
        let v = out
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not produced"));
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", v.note)
        };
        println!("  {name} = {} {unit}{note}", v.value);
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if v.value.is_finite() { v.value } else { 0.0 }
        ));
    }
    for (k, v) in &out.extra {
        println!("  {k} = {v}");
    }
    println!(
        "  failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}
