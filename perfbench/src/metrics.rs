//! Metric names, units, and the per-run sample collector.
//!
//! The two name tables are the benchmark's contract: `--trace 0` emits
//! exactly [`END_TO_END`], `--trace 1` exactly [`PER_LAYER`], in every
//! workload (BENCHMARK.json lists the same names and units, and the
//! crate's test checks they agree).

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("publish_mib_s", "MiB/s"),
    ("publish_ms_p50", "ms"),
    ("publish_ms_tail", "ms"),
    ("retrieve_ms_p50", "ms"),
    ("retrieve_ms_tail", "ms"),
    ("range_ms_p50", "ms"),
    ("range_ms_tail", "ms"),
    ("ops_s", "1/s"),
    ("repo_bytes_ratio", "ratio"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_frac", "ratio"),
    ("net.service_ms_p50", "ms"),
    ("net.service_ms_tail", "ms"),
    ("net.outside_service_ms_p50", "ms"),
    ("net.service_busy_s", "s"),
    ("net.request_bytes", "bytes"),
    ("net.response_bytes", "bytes"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.overloads_seen", "count"),
    ("net.srv_overloads", "count"),
    ("net.srv_evictions", "count"),
    ("net.srv_frame_errors", "count"),
    ("core.publish_self_ms_p50", "ms"),
    ("core.delete_ms_p50", "ms"),
    ("core.packages_exported", "count"),
    ("core.bytes_added", "bytes"),
    ("core.retrieve_bytes_read", "bytes"),
    ("core.range_read_amp", "ratio"),
    ("guestfs.remove_package_ms", "ms"),
    ("guestfs.autoremove_ms", "ms"),
    ("guestfs.export_deb_ms", "ms"),
    ("guestfs.sysprep_reset_ms", "ms"),
    ("guestfs.mkfs_ms", "ms"),
    ("vdisk.serialize_ms", "ms"),
    ("vdisk.read_at_ms", "ms"),
    ("semgraph.of_image_ms", "ms"),
    ("semgraph.similarity_ms", "ms"),
    ("semgraph.master_vertices", "count"),
    ("cas.put.new", "count"),
    ("cas.put.dedup", "count"),
    ("cas.dedup_ratio", "ratio"),
    ("cas.put.logical_bytes", "bytes"),
    ("cas.put.encoded_bytes", "bytes"),
    ("cas.get.bytes", "bytes"),
    ("cas.range.bytes", "bytes"),
    ("cas.release.freed_bytes", "bytes"),
    ("cas.recompress.ops", "count"),
    ("cas.maintain.promoted", "count"),
    ("compress.deflate_mib_s", "MiB/s"),
    ("compress.inflate_mib_s", "MiB/s"),
    ("compress.lz4_decode_mib_s", "MiB/s"),
    ("util.sha256_mib_s", "MiB/s"),
    ("util.crc32_mib_s", "MiB/s"),
    ("persist.vfs.append_calls", "count"),
    ("persist.vfs.append_bytes", "bytes"),
    ("persist.vfs.append_ms", "ms"),
    ("persist.vfs.sync_calls", "count"),
    ("persist.vfs.sync_ms", "ms"),
    ("persist.vfs.sync_ms_p50", "ms"),
    ("persist.vfs.write_atomic_calls", "count"),
    ("persist.wal.appends", "count"),
    ("persist.checkpoints", "count"),
    ("persist.write_amp", "ratio"),
    ("persist.sync_share", "ratio"),
    ("persist.reopen_s", "s"),
    ("persist.medium_bytes_ratio", "ratio"),
];

/// Work and wall of one measurement window.
#[derive(Default, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    /// The wall the window's operations ran in.
    pub wall_s: f64,
    pub publish_bytes: u64,
    pub publish_s: f64,
}

/// Everything one workload's measured passes produce. Samples are
/// tagged with the window they ran in. A window holds a fixed amount of
/// work, so its sample count, and with it the tail percentile, does not
/// depend on host speed; every end-to-end value pools all windows.
#[derive(Default)]
pub struct Ops {
    /// The window the next operations land in.
    pub window: u32,
    /// Operations outside the measured loop (serve-wire's set-up
    /// publishes and teardown deletes): latency series only, no `ops_s`.
    pub outside_loop: bool,
    pub windows: BTreeMap<u32, Window>,
    pub publish_ms: Vec<(u32, f64)>,
    pub retrieve_ms: Vec<(u32, f64)>,
    pub range_ms: Vec<(u32, f64)>,
    pub delete_ms: Vec<(u32, f64)>,
    /// Publish + upgrade + delete wall (the base of `persist.sync_share`).
    pub write_wall_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub repo_bytes_ratio: f64,
    /// Σ file lengths on the durable medium / `repo_bytes()`, where the
    /// workload keeps its repository on one.
    pub medium_bytes_ratio: Option<f64>,
}

/// Operation kinds with their own latency series.
#[derive(Clone, Copy)]
pub enum Kind {
    Publish,
    Retrieve,
    Range,
    Delete,
    Other,
}

impl Ops {
    /// Run and time one operation. Its wall counts toward its window's
    /// `ops_s` and, for its kind, toward that latency series.
    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        let w = self.windows.entry(self.window).or_default();
        if !self.outside_loop {
            w.ops += 1;
            w.wall_s += s;
        }
        let sample = (self.window, s * 1e3);
        match kind {
            Kind::Publish => {
                w.publish_s += s;
                self.publish_ms.push(sample);
                self.write_wall_s += s;
            }
            Kind::Retrieve => self.retrieve_ms.push(sample),
            Kind::Range => self.range_ms.push(sample),
            Kind::Delete => {
                self.delete_ms.push(sample);
                self.write_wall_s += s;
            }
            Kind::Other => {}
        }
        out
    }

    pub fn add_publish_bytes(&mut self, n: u64) {
        self.windows.entry(self.window).or_default().publish_bytes += n;
    }

    pub fn total_ops(&self) -> u64 {
        self.windows.values().map(|w| w.ops).sum()
    }

    /// Mean wall per operation over the windows `keep` accepts.
    pub fn mean_op_s(&self, keep: impl Fn(u32) -> bool) -> f64 {
        let kept = || self.windows.iter().filter(|(id, _)| keep(**id));
        stats::ratio(
            kept().map(|(_, w)| w.wall_s).sum(),
            kept().map(|(_, w)| w.ops).sum::<u64>() as f64,
        )
    }

    /// Keep only the windows `keep` accepts, with their samples.
    pub fn retain_windows(&mut self, keep: impl Fn(&Window) -> bool) {
        self.windows.retain(|_, w| keep(w));
        let windows = &self.windows;
        for series in [
            &mut self.publish_ms,
            &mut self.retrieve_ms,
            &mut self.range_ms,
            &mut self.delete_ms,
        ] {
            series.retain(|(w, _)| windows.contains_key(w));
        }
    }

    /// Fold `other` (another thread's share of the same windows) in.
    pub fn merge(&mut self, other: Ops) {
        for (id, w) in other.windows {
            let mine = self.windows.entry(id).or_default();
            mine.ops += w.ops;
            mine.wall_s += w.wall_s;
            mine.publish_bytes += w.publish_bytes;
            mine.publish_s += w.publish_s;
        }
        self.publish_ms.extend(other.publish_ms);
        self.retrieve_ms.extend(other.retrieve_ms);
        self.range_ms.extend(other.range_ms);
        self.delete_ms.extend(other.delete_ms);
        self.write_wall_s += other.write_wall_s;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        if other.repo_bytes_ratio > 0.0 {
            self.repo_bytes_ratio = other.repo_bytes_ratio;
        }
        self.medium_bytes_ratio = other.medium_bytes_ratio.or(self.medium_bytes_ratio);
    }

    /// Record a checked outcome: `Err` is a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            if self.failures.len() < 20 {
                eprintln!("perfbench: FAILED: {e}");
            }
            self.failures.push(e);
        }
    }
}

/// One metric value with the note that explains it (tail percentile
/// and sample count).
pub struct Value {
    pub value: f64,
    pub note: String,
}

pub type Values = BTreeMap<&'static str, Value>;

pub fn put(values: &mut Values, name: &'static str, value: f64) {
    values.insert(
        name,
        Value {
            value,
            note: String::new(),
        },
    );
}

fn put_noted(values: &mut Values, name: &'static str, value: f64, note: String) {
    values.insert(name, Value { value, note });
}

fn by_window(series: &[(u32, f64)]) -> BTreeMap<u32, Vec<f64>> {
    let mut out: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(w, v) in series {
        out.entry(w).or_default().push(v);
    }
    out
}

/// Median and tail of one latency series, under `<base>_p50` and
/// `<base>_tail`, over the samples of all windows. The tail percentile
/// is the rule's pick for the median window's sample count, so it is
/// the same on any host and however many windows fit in the run.
pub fn put_latency(
    values: &mut Values,
    p50: &'static str,
    tail: &'static str,
    series: &[(u32, f64)],
) {
    let windows = by_window(series);
    let counts: Vec<f64> = windows.values().map(|v| v.len() as f64).collect();
    let n = stats::mid(&counts) as usize;
    let p = stats::tail_pct(n);
    let all: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
    let (total, w) = (all.len(), windows.len());
    put_noted(
        values,
        p50,
        stats::percentile(&all, 50.0),
        format!("p50 of {total} samples in {w} windows"),
    );
    put_noted(
        values,
        tail,
        stats::percentile(&all, p),
        format!("p{p} of {total} samples in {w} windows; n~{n} per window"),
    );
}

/// The end-to-end values of a run.
pub fn end_to_end(ops: &Ops, setup_s: &[f64]) -> Values {
    let mut v = Values::new();
    put_noted(
        &mut v,
        "setup_s",
        stats::mid(setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    let sum = |f: fn(&Window) -> f64| -> f64 { ops.windows.values().map(f).sum() };
    put_noted(
        &mut v,
        "publish_mib_s",
        stats::mib_s(sum(|w| w.publish_bytes as f64) as u64, sum(|w| w.publish_s)),
        format!("over {} windows", ops.windows.len()),
    );
    put_latency(&mut v, "publish_ms_p50", "publish_ms_tail", &ops.publish_ms);
    put_latency(
        &mut v,
        "retrieve_ms_p50",
        "retrieve_ms_tail",
        &ops.retrieve_ms,
    );
    put_latency(&mut v, "range_ms_p50", "range_ms_tail", &ops.range_ms);
    put_noted(
        &mut v,
        "ops_s",
        stats::ratio(sum(|w| w.ops as f64), sum(|w| w.wall_s)),
        format!("{} ops in {} windows", ops.total_ops(), ops.windows.len()),
    );
    put(&mut v, "repo_bytes_ratio", ops.repo_bytes_ratio);
    v
}
