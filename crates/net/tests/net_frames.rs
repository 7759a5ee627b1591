//! Frame-codec property tests, all through the production reader
//! `read_frame`: round-trips at size boundaries, an every-byte
//! truncation sweep, and an every-byte corruption sweep over header,
//! payload, and trailer — typed errors always, panics never, and a
//! forged length field is refused before any allocation.

use proptest::prelude::*;
use xpl_net::frame::{encode, read_frame, write_frame, FrameKind};
use xpl_net::{mem_pair, Frame, NetError, Transport, DEFAULT_MAX_FRAME, HEADER_LEN, TRAILER_LEN};
use xpl_util::{Crc32, SplitMix64};

fn junk(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

/// Send `bytes` over a fresh in-memory pipe, hang up, and read one frame
/// back with `read_frame`. A frame that decodes must have consumed
/// exactly its encoding: the next read is a clean close.
fn read_one(bytes: &[u8], max_frame: u32) -> Result<Frame, NetError> {
    let (mut a, mut b) = mem_pair();
    a.send(bytes).unwrap();
    a.shutdown();
    let frame = read_frame(&mut b, max_frame)?.expect("a frame, not a clean close");
    assert_eq!(
        read_frame(&mut b, max_frame),
        Ok(None),
        "bytes trail the frame"
    );
    Ok(frame)
}

// ------------------------------------------------------ boundary shapes

#[test]
fn roundtrip() {
    for payload in [&b""[..], b"x", b"hello wire", &[0u8; 4096]] {
        let frame = read_one(&encode(FrameKind::Request, payload), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.payload, payload);
    }
}

#[test]
fn boundary_sizes_roundtrip() {
    let max = 4096u32;
    for n in [0usize, 1, 2, 255, 256, 257, 4095, 4096] {
        let payload = junk(n as u64 + 1, n);
        for kind in [FrameKind::Hello, FrameKind::Request, FrameKind::Response] {
            let bytes = encode(kind, &payload);
            assert_eq!(bytes.len(), HEADER_LEN + n + TRAILER_LEN);
            let frame = read_one(&bytes, max).expect("boundary roundtrip");
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }
}

#[test]
fn one_past_max_is_rejected_before_allocation() {
    let bytes = encode(FrameKind::Request, &junk(7, 4097));
    assert_eq!(
        read_one(&bytes, 4096),
        Err(NetError::FrameTooLarge {
            len: 4097,
            max: 4096
        })
    );
}

#[test]
fn exact_default_max_roundtrips() {
    let payload = junk(9, DEFAULT_MAX_FRAME as usize);
    let bytes = encode(FrameKind::Response, &payload);
    let frame = read_one(&bytes, DEFAULT_MAX_FRAME).expect("1 MiB payload");
    assert_eq!(frame.payload, payload);
}

// ----------------------------------------------- exhaustive byte sweeps

#[test]
fn truncation_at_every_byte_over_the_wire_is_typed() {
    // Same sweep through a real transport: the peer sends a prefix then
    // vanishes. A zero-byte prefix is a clean close (Ok(None)); any
    // other prefix is a typed mid-frame truncation.
    let bytes = encode(FrameKind::Request, &junk(5, 48));
    for cut in 0..bytes.len() {
        let (mut a, mut b) = mem_pair();
        if cut > 0 {
            a.send(&bytes[..cut]).unwrap();
        }
        a.shutdown();
        match read_frame(&mut b, DEFAULT_MAX_FRAME) {
            Ok(None) if cut == 0 => {}
            Err(NetError::Truncated { .. }) if cut > 0 => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
}

#[test]
fn corruption_at_every_header_byte_is_typed() {
    let bytes = encode(FrameKind::Request, &junk(11, 64));
    for i in 0..HEADER_LEN {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            match read_one(&bad, DEFAULT_MAX_FRAME) {
                Err(
                    NetError::BadMagic(_)
                    | NetError::BadHeaderCrc { .. }
                    | NetError::BadKind(_)
                    | NetError::FrameTooLarge { .. },
                ) => {}
                other => panic!("header flip at byte {i} bit {bit:#x}: {other:?}"),
            }
        }
    }
}

#[test]
fn corruption_at_every_payload_and_trailer_byte_is_typed() {
    let bytes = encode(FrameKind::Request, &junk(13, 64));
    for i in HEADER_LEN..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            match read_one(&bad, DEFAULT_MAX_FRAME) {
                Err(NetError::BadPayloadCrc { .. }) => {}
                other => panic!("payload flip at byte {i} bit {bit:#x}: {other:?}"),
            }
        }
    }
}

#[test]
fn forged_gigabyte_length_over_the_wire_is_typed() {
    // A hostile peer sends a header claiming 3 GiB with a *valid*
    // header CRC. The reader must refuse it typed (no allocation, no
    // hang waiting for gigabytes that will never come).
    let mut bytes = encode(FrameKind::Request, b"innocent");
    bytes[5..9].copy_from_slice(&(3u32 << 30).to_le_bytes());
    let hcrc = Crc32::checksum(&bytes[..9]);
    bytes[9..13].copy_from_slice(&hcrc.to_le_bytes());
    let (mut a, mut b) = mem_pair();
    a.send(&bytes).unwrap();
    assert_eq!(
        read_frame(&mut b, DEFAULT_MAX_FRAME),
        Err(NetError::FrameTooLarge {
            len: 3 << 30,
            max: DEFAULT_MAX_FRAME
        })
    );
}

#[test]
fn forged_length_without_crc_is_caught_by_header_crc() {
    let mut bytes = encode(FrameKind::Request, b"small");
    bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_one(&bytes, DEFAULT_MAX_FRAME),
        Err(NetError::BadHeaderCrc { .. })
    ));
}

#[test]
fn bad_kind_and_magic_are_typed() {
    let mut bytes = encode(FrameKind::Hello, b"t");
    bytes[0] ^= 0xFF;
    assert!(matches!(read_one(&bytes, 1024), Err(NetError::BadMagic(_))));

    let mut bytes = encode(FrameKind::Hello, b"t");
    bytes[4] = 0x7F;
    let hcrc = Crc32::checksum(&bytes[..9]);
    bytes[9..13].copy_from_slice(&hcrc.to_le_bytes());
    assert_eq!(read_one(&bytes, 1024), Err(NetError::BadKind(0x7F)));
}

// ---------------------------------------------------- random properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_payloads_roundtrip(seed in any::<u64>(), len in 0usize..40_000) {
        let payload = junk(seed, len);
        let bytes = encode(FrameKind::Request, &payload);
        let frame = read_one(&bytes, DEFAULT_MAX_FRAME).expect("roundtrip");
        prop_assert_eq!(frame.payload, payload);
    }

    #[test]
    fn any_single_bit_flip_is_a_typed_error(
        seed in any::<u64>(),
        len in 1usize..2_000,
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        // CRC-32 catches every single-bit error, so a flip anywhere in
        // the frame must decode to a typed error — never a panic, and
        // never a silently different payload.
        let payload = junk(seed, len);
        let mut bytes = encode(FrameKind::Request, &payload);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(read_one(&bytes, DEFAULT_MAX_FRAME).is_err(), "flip at {} survived", pos);
    }

    #[test]
    fn streams_of_frames_roundtrip_over_a_pipe(seed in any::<u64>(), count in 1usize..12) {
        let (mut a, mut b) = mem_pair();
        let frames: Vec<Vec<u8>> = (0..count).map(|i| junk(seed ^ i as u64, (i * 97) % 1500)).collect();
        for payload in &frames {
            write_frame(&mut a, FrameKind::Request, payload).unwrap();
        }
        a.shutdown();
        for payload in &frames {
            let f = read_frame(&mut b, DEFAULT_MAX_FRAME).unwrap().expect("frame");
            prop_assert_eq!(&f.payload, payload);
        }
        prop_assert!(read_frame(&mut b, DEFAULT_MAX_FRAME).unwrap().is_none());
    }
}
