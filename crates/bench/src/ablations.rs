//! Ablation studies beyond the paper's headline figures.
//!
//! * [`chunk_size_sweep`] — Jin & Miller's chunk-size question: dedup
//!   factor of fixed-size vs. content-defined chunking across block
//!   sizes, on the four-image workload.
//! * [`master_graph_speedup`] — the design claim behind §III-H: similarity
//!   against one master graph vs. pairwise against every stored image
//!   graph (real CPU time, not simulated).
//! * [`codec_ablation_sweep`] — the hot/cold tier trade-off table: size
//!   ratio, compress/decompress throughput, and range-read latency of
//!   each storage codec (raw, blocked DEFLATE, blocked LZ4) over the
//!   same synthetic image payload (`repro ablate-codec`).

use crate::microbench::time_median;
use serde::Serialize;
use xpl_baselines::{CdcDedupStore, FixedBlockDedupStore};
use xpl_compress::{
    blocked_compress, blocked_decompress_parallel, read_range, InnerCodec, DEFAULT_BLOCK_SIZE,
};
use xpl_semgraph::{sim_g, MasterGraph, SemanticGraph};
use xpl_store::ImageStore;
use xpl_workloads::World;

/// One row of the chunk-size sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ChunkSweepRow {
    /// Block size in nominal KB.
    pub block_nominal_kb: u64,
    pub fixed_dedup_factor: f64,
    pub cdc_dedup_factor: f64,
    pub fixed_repo_gb: f64,
    pub cdc_repo_gb: f64,
}

/// Sweep block sizes over a set of images.
pub fn chunk_size_sweep(
    world: &World,
    image_names: &[&str],
    blocks_real: &[usize],
) -> Vec<ChunkSweepRow> {
    let mut rows = Vec::new();
    for &block in blocks_real {
        let fixed = FixedBlockDedupStore::new(world.env(), block);
        let cdc = CdcDedupStore::new(world.env(), block.next_power_of_two());
        for name in image_names {
            let vmi = world.build_image(name);
            fixed.publish(&world.catalog, &vmi).expect("fixed");
            cdc.publish(&world.catalog, &vmi).expect("cdc");
        }
        rows.push(ChunkSweepRow {
            block_nominal_kb: (block as u64 * xpl_util::SCALE_FACTOR) / 1024,
            fixed_dedup_factor: fixed.dedup_factor(),
            cdc_dedup_factor: cdc.dedup_factor(),
            fixed_repo_gb: xpl_util::bytesize::nominal_gb(fixed.repo_bytes()),
            cdc_repo_gb: xpl_util::bytesize::nominal_gb(cdc.repo_bytes()),
        });
    }
    rows
}

/// Master-graph vs. pairwise similarity timing.
#[derive(Clone, Debug, Serialize)]
pub struct MasterSpeedup {
    pub stored_images: usize,
    pub pairwise_ms: f64,
    pub master_ms: f64,
    pub speedup: f64,
}

/// Measure real CPU time of similarity computation for a new image against
/// `n` stored image graphs, pairwise vs. one merged master graph.
pub fn master_graph_speedup(world: &World, n: usize) -> MasterSpeedup {
    // Build n stored graphs by cycling the world's recipes.
    let names = world.image_names();
    let graphs: Vec<SemanticGraph> = (0..n)
        .map(|i| {
            let vmi = world.build_image(names[i % names.len()]);
            image_graph(world, &vmi)
        })
        .collect();
    let probe = image_graph(world, &world.build_image(names[names.len() - 1]));

    let t = std::time::Instant::now();
    let mut best = 0.0f64;
    for g in &graphs {
        best = best.max(sim_g(&probe, g));
    }
    let pairwise_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut master = MasterGraph::create(&graphs[0]);
    for g in &graphs[1..] {
        master.absorb(g);
    }
    let t = std::time::Instant::now();
    let s = master.similarity_to(&probe);
    let master_ms = t.elapsed().as_secs_f64() * 1e3;
    // Keep both results alive so the measurement isn't optimized away.
    let _ = (best, s);

    MasterSpeedup {
        stored_images: n,
        pairwise_ms,
        master_ms,
        speedup: if master_ms > 0.0 {
            pairwise_ms / master_ms
        } else {
            f64::INFINITY
        },
    }
}

/// One row of the codec ablation: a storage codec measured over the
/// shared synthetic payload.
#[derive(Clone, Debug, Serialize)]
pub struct CodecAblationRow {
    /// Codec label: `raw`, `blocked-deflate`, or `blocked-lz4`.
    pub codec: String,
    pub input_bytes: u64,
    pub encoded_bytes: u64,
    /// `encoded / input`; 1.0 for the raw tier.
    pub ratio: f64,
    pub compress_mib_per_s: f64,
    pub decompress_mib_per_s: f64,
    /// A 64 KiB (or payload-bounded) read out of the middle of the
    /// encoded form — the page-serving path the hot tier exists for.
    pub range_read_mib_per_s: f64,
}

/// Sweep the three storage codecs over one seeded payload: the table
/// behind `repro ablate-codec`. Raw is the memcpy floor; the blocked
/// codecs go through the full container path (compress, whole-stream
/// decode via magic dispatch, seekable range read). Every row is
/// round-trip-verified before it is timed.
pub fn codec_ablation_sweep(payload_len: usize, budget_s: f64) -> Vec<CodecAblationRow> {
    assert!(payload_len > 0, "payload must be non-empty");
    let data = xpl_pkg::content::generate(42, payload_len);
    let range_len = (64 * 1024).min(payload_len) as u64;
    let range_start = (payload_len as u64 / 2).min(payload_len as u64 - range_len);
    let mib = |bytes: u64, secs: f64| bytes as f64 / (1024.0 * 1024.0) / secs;

    let mut rows = Vec::new();

    // Raw tier: encode and decode are both memcpy; the range read is a
    // slice copy. This is the throughput ceiling the codecs trade away.
    let encoded = data.clone();
    assert_eq!(encoded, data);
    let (_, t_enc) = time_median(budget_s, || {
        std::hint::black_box(data.clone());
    });
    let (_, t_dec) = time_median(budget_s, || {
        std::hint::black_box(encoded.clone());
    });
    let (_, t_rng) = time_median(budget_s, || {
        let s = range_start as usize;
        std::hint::black_box(encoded[s..s + range_len as usize].to_vec());
    });
    rows.push(CodecAblationRow {
        codec: "raw".into(),
        input_bytes: data.len() as u64,
        encoded_bytes: encoded.len() as u64,
        ratio: 1.0,
        compress_mib_per_s: mib(data.len() as u64, t_enc),
        decompress_mib_per_s: mib(data.len() as u64, t_dec),
        range_read_mib_per_s: mib(range_len, t_rng),
    });

    for codec in [InnerCodec::Deflate, InnerCodec::Lz4] {
        let encoded = blocked_compress(&data, DEFAULT_BLOCK_SIZE, codec);
        assert_eq!(
            blocked_decompress_parallel(&encoded).expect("container decodes"),
            data,
            "{} round trip",
            codec.name()
        );
        assert_eq!(
            read_range(&encoded, range_start, range_len).expect("range decodes"),
            &data[range_start as usize..(range_start + range_len) as usize],
            "{} range read",
            codec.name()
        );
        let (_, t_enc) = time_median(budget_s, || {
            std::hint::black_box(blocked_compress(&data, DEFAULT_BLOCK_SIZE, codec));
        });
        let (_, t_dec) = time_median(budget_s, || {
            std::hint::black_box(blocked_decompress_parallel(&encoded).expect("container decodes"));
        });
        let (_, t_rng) = time_median(budget_s, || {
            std::hint::black_box(read_range(&encoded, range_start, range_len).expect("range"));
        });
        rows.push(CodecAblationRow {
            codec: codec.name().into(),
            input_bytes: data.len() as u64,
            encoded_bytes: encoded.len() as u64,
            ratio: encoded.len() as f64 / data.len() as f64,
            compress_mib_per_s: mib(data.len() as u64, t_enc),
            decompress_mib_per_s: mib(data.len() as u64, t_dec),
            range_read_mib_per_s: mib(range_len, t_rng),
        });
    }
    rows
}

fn image_graph(world: &World, vmi: &xpl_guestfs::Vmi) -> SemanticGraph {
    let installed = vmi.pkgdb.installed_ids();
    let primary_set: std::collections::HashSet<_> = vmi.primary.iter().copied().collect();
    let base_roots: Vec<_> = vmi
        .pkgdb
        .manual_ids()
        .into_iter()
        .filter(|id| !primary_set.contains(id))
        .collect();
    SemanticGraph::of_image(
        &world.catalog,
        &vmi.name,
        vmi.base.clone(),
        &installed,
        &vmi.primary,
        &base_roots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sweep_runs_small() {
        let w = World::small();
        let rows = chunk_size_sweep(&w, &["mini", "redis"], &[128, 512]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.fixed_dedup_factor >= 1.0);
            assert!(r.cdc_dedup_factor >= 1.0);
        }
    }

    #[test]
    fn codec_ablation_covers_all_three_tiers() {
        let rows = codec_ablation_sweep(256 * 1024, 0.02);
        let names: Vec<&str> = rows.iter().map(|r| r.codec.as_str()).collect();
        assert_eq!(names, ["raw", "blocked-deflate", "blocked-lz4"]);
        for r in &rows {
            assert_eq!(r.input_bytes, 256 * 1024);
            assert!(r.compress_mib_per_s > 0.0, "{}: compress", r.codec);
            assert!(r.decompress_mib_per_s > 0.0, "{}: decompress", r.codec);
            assert!(r.range_read_mib_per_s > 0.0, "{}: range read", r.codec);
        }
        assert!((rows[0].ratio - 1.0).abs() < f64::EPSILON, "raw stores 1:1");
        // Both real codecs must actually shrink the synthetic payload;
        // DEFLATE stays the denser of the two.
        assert!(rows[1].ratio < 1.0 && rows[2].ratio < 1.0);
        assert!(rows[1].ratio < rows[2].ratio, "DEFLATE is the dense tier");
    }

    #[test]
    fn master_speedup_positive() {
        let w = World::small();
        let s = master_graph_speedup(&w, 4);
        assert_eq!(s.stored_images, 4);
        assert!(s.pairwise_ms >= 0.0 && s.master_ms >= 0.0);
    }
}
