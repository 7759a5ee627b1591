//! Blocked-container property tests: round-trips at adversarial sizes,
//! `read_range` differential-checked against full-inflate slicing, and
//! a corruption/truncation sweep over every byte of the index + footer
//! region — typed errors always, panics never.

use proptest::prelude::*;
use xpl_compress::{
    blocked_compress, blocked_decompress, blocked_decompress_parallel, gzip_compress_parallel,
    read_range, BlockedError, BlockedReader, InnerCodec, DEFAULT_BLOCK_SIZE,
};
use xpl_util::SplitMix64;

fn junk(seed: u64, n: usize) -> Vec<u8> {
    // Incompressible: raw SplitMix64 output.
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

fn texty(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let words = [
        b"usr/".as_slice(),
        b"share/".as_slice(),
        b"deb\n".as_slice(),
    ];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.extend_from_slice(words[(rng.next_u64() % 3) as usize]);
    }
    out.truncate(n);
    out
}

fn roundtrip_all_paths(data: &[u8], block_size: usize) {
    let c = blocked_compress(data, block_size, InnerCodec::Deflate);
    assert_eq!(blocked_decompress(&c).expect("sequential"), data);
    assert_eq!(blocked_decompress_parallel(&c).expect("parallel"), data);
    assert_eq!(read_range(&c, 0, data.len() as u64).expect("range"), data);
}

// ------------------------------------------------------ boundary shapes

#[test]
fn boundary_sizes_roundtrip() {
    let b = DEFAULT_BLOCK_SIZE;
    for n in [0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1] {
        roundtrip_all_paths(&texty(9, n), b);
        roundtrip_all_paths(&junk(10, n), b);
    }
}

#[test]
fn byte_identical_across_thread_counts() {
    // The acceptance pin: blocked round-trips are byte-identical at
    // 1 / 2 / 8 threads, both compressing and decompressing.
    let data = texty(123, 5 * DEFAULT_BLOCK_SIZE + 777);
    let reference = blocked_compress(&data, DEFAULT_BLOCK_SIZE, InnerCodec::Deflate);
    for threads in [1usize, 2, 8] {
        let (c, out) = rayon::with_num_threads(threads, || {
            let c = blocked_compress(&data, DEFAULT_BLOCK_SIZE, InnerCodec::Deflate);
            let out = blocked_decompress_parallel(&c).expect("inflate");
            (c, out)
        });
        assert_eq!(c, reference, "compressed bytes differ at {threads} threads");
        assert_eq!(out, data, "payload differs at {threads} threads");
    }
}

// ---------------------------------------------------- random properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_payloads_roundtrip(
        seed in any::<u64>(),
        len in 0usize..300_000,
        block_shift in 9u32..17, // block sizes 512 B .. 64 KiB
    ) {
        let block = 1usize << block_shift;
        roundtrip_all_paths(&junk(seed, len), block);
        roundtrip_all_paths(&texty(seed, len), block);
    }

    #[test]
    fn read_range_matches_full_inflate_slice(
        seed in any::<u64>(),
        len in 1usize..200_000,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let data = texty(seed, len);
        let c = blocked_compress(&data, 4096, InnerCodec::Deflate);
        // Differential oracle: read_range == inflate-everything-then-slice,
        // including out-of-bounds starts and over-long lengths.
        let start = a % (len as u64 * 2);
        let span = b % (len as u64 / 2 + 2);
        let got = read_range(&c, start, span).expect("range");
        let end = (start + span).min(len as u64) as usize;
        let expect: &[u8] = if start as usize >= len { &[] } else { &data[start as usize..end] };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn truncation_never_panics(
        cut in 0usize..2_000,
    ) {
        let data = texty(4, 40_000);
        let c = blocked_compress(&data, 4096, InnerCodec::Deflate);
        let cut = cut % c.len();
        // Every prefix decodes to a typed error (or, for cut=0 … never:
        // an empty prefix is Truncated too), never a panic or success.
        let err = blocked_decompress(&c[..cut]).expect_err("prefix must fail");
        prop_assert!(matches!(
            err,
            BlockedError::Truncated { .. }
                | BlockedError::BadMagic
                | BlockedError::CorruptIndex(_)
        ), "{:?}", err);
    }
}

// ----------------------------------------------- exhaustive index sweep

#[test]
fn corruption_at_every_index_byte_is_typed() {
    // Flip each byte of the trailing index+footer region in turn; every
    // flip must surface as a typed error from one of the decode paths —
    // never a panic, and never a silently wrong payload.
    let data = texty(21, 10 * 4096 + 123);
    let c = blocked_compress(&data, 4096, InnerCodec::Deflate);
    let index_region = 4096usize.min(c.len()); // 11 entries * 12 + 20 < 4096
    for i in (c.len() - index_region)..c.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = c.clone();
            bad[i] ^= bit;
            match blocked_decompress(&bad) {
                Ok(out) => assert_eq!(
                    out, data,
                    "flip at {i} changed the payload without an error"
                ),
                Err(
                    BlockedError::BadMagic
                    | BlockedError::Truncated { .. }
                    | BlockedError::CorruptIndex(_)
                    | BlockedError::BlockCrcMismatch { .. }
                    | BlockedError::BlockLenMismatch { .. }
                    | BlockedError::Inflate { .. }
                    | BlockedError::Lz4 { .. },
                ) => {}
            }
        }
    }
}

#[test]
fn truncation_at_every_tail_byte_is_typed() {
    let data = texty(22, 6 * 4096);
    let c = blocked_compress(&data, 4096, InnerCodec::Deflate);
    // Cut at every boundary in the last 256 bytes (covers the whole
    // index + footer) and at a spread of earlier offsets.
    let cuts: Vec<usize> = (c.len().saturating_sub(256)..c.len())
        .chain((0..c.len()).step_by(97))
        .collect();
    for cut in cuts {
        let err = blocked_decompress(&c[..cut]).expect_err("truncated must fail");
        assert!(
            matches!(
                err,
                BlockedError::Truncated { .. }
                    | BlockedError::BadMagic
                    | BlockedError::CorruptIndex(_)
            ),
            "cut at {cut}: {err:?}"
        );
    }
}

// ------------------------------------------------------- perf-shape pins

#[test]
fn range_read_of_8mib_blob_touches_under_an_eighth() {
    // The acceptance criterion: a 64 KiB span of an 8 MiB blob must
    // decompress fewer than 1/8 of the blocks.
    let data = texty(33, 8 * 1024 * 1024);
    let c = blocked_compress(&data, DEFAULT_BLOCK_SIZE, InnerCodec::Deflate);
    let mut r = BlockedReader::new(&c).expect("parse");
    let total_blocks = r.index().entries.len();
    assert_eq!(total_blocks, 128);
    let got = r.read_at(3_000_000, 64 * 1024).expect("range");
    assert_eq!(&got[..], &data[3_000_000..3_000_000 + 64 * 1024]);
    assert!(
        r.blocks_inflated() < total_blocks / 8,
        "{} of {total_blocks} blocks inflated",
        r.blocks_inflated()
    );
    assert!(r.compressed_bytes_touched() < c.len() as u64 / 8);
}

#[test]
fn blocked_ratio_comparable_to_gzip() {
    // Per-block deflate loses a little ratio at the seams plus 12 B/block
    // of index; on texty content it must stay within a few percent of the
    // multi-member gzip the stores used before.
    let data = texty(44, 2 * 1024 * 1024);
    let blocked = blocked_compress(&data, DEFAULT_BLOCK_SIZE, InnerCodec::Deflate);
    let gz = gzip_compress_parallel(&data);
    assert!(
        (blocked.len() as f64) < gz.len() as f64 * 1.05,
        "blocked {} vs gzip {}",
        blocked.len(),
        gz.len()
    );
}
