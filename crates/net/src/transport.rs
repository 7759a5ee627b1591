//! Byte-stream transports: real TCP sockets and a deterministic
//! fault-injecting in-memory pipe.
//!
//! The [`Transport`] trait is the seam the whole wire layer hangs off:
//! the frame codec, the server's connection loop, and the retrying
//! client all speak to it, so a test can swap real sockets for
//! [`MemTransport`] pipes — optionally wrapped in [`FaultTransport`],
//! which injects seeded connection resets, torn (prefix-only) writes,
//! byte-level short reads, and micro-delays, in the spirit of the
//! persist crate's fault-injecting `Vfs`.

use crate::NetError;
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xpl_obs::{Counter, Registry, Section};
use xpl_util::SplitMix64;

/// A bidirectional byte stream with deadlines. All errors are typed;
/// implementations never panic on peer misbehavior.
pub trait Transport: Send {
    /// Write all of `bytes` (or fail typed — a peer-closed socket is
    /// [`NetError::PeerClosed`], never a panic or silent loss).
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError>;

    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer closed its
    /// writing end cleanly.
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError>;

    /// Deadline for each subsequent `recv` (None = block forever).
    fn set_read_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError>;

    /// Deadline for each subsequent `send` (None = block forever).
    fn set_write_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError>;

    /// Close both directions; subsequent peer reads see EOF/reset.
    fn shutdown(&mut self);
}

// ------------------------------------------------------------------ TCP

/// [`Transport`] over a real `std::net::TcpStream`.
///
/// SIGPIPE note: the Rust runtime ignores SIGPIPE on unix, so writing
/// to a socket the peer already closed returns `EPIPE`/`ECONNRESET` as
/// an `io::Error`, which [`NetError::from_io`] maps to
/// [`NetError::PeerClosed`] / [`NetError::Reset`] — the process never
/// dies from a vanished client.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    pub fn new(stream: TcpStream) -> TcpTransport {
        // Request/response frames are small and latency-bound.
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }

    /// Dial a listening address.
    pub fn connect(addr: &std::net::SocketAddr) -> Result<TcpTransport, NetError> {
        TcpStream::connect(addr)
            .map(TcpTransport::new)
            .map_err(NetError::from_io)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes).map_err(NetError::from_io)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.stream.read(buf).map_err(NetError::from_io)
    }

    fn set_read_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(d).map_err(NetError::from_io)
    }

    fn set_write_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_write_timeout(d).map_err(NetError::from_io)
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ------------------------------------------------------------- MemPipe

/// One direction of an in-memory duplex pipe.
struct PipeBuf {
    data: VecDeque<u8>,
    /// Writer hung up: readers drain what's left, then see EOF.
    tx_closed: bool,
    /// Reader hung up: writers get [`NetError::PeerClosed`].
    rx_closed: bool,
}

struct PipeDir {
    buf: Mutex<PipeBuf>,
    cond: Condvar,
}

impl PipeDir {
    fn new() -> Arc<PipeDir> {
        Arc::new(PipeDir {
            buf: Mutex::new(PipeBuf {
                data: VecDeque::new(),
                tx_closed: false,
                rx_closed: false,
            }),
            cond: Condvar::new(),
        })
    }

    fn write(&self, bytes: &[u8]) -> Result<(), NetError> {
        let mut b = self.buf.lock().unwrap();
        if b.rx_closed {
            return Err(NetError::PeerClosed);
        }
        if b.tx_closed {
            return Err(NetError::Reset);
        }
        b.data.extend(bytes);
        self.cond.notify_all();
        Ok(())
    }

    fn read(&self, buf: &mut [u8], deadline: Option<Duration>) -> Result<usize, NetError> {
        let start = Instant::now();
        let mut b = self.buf.lock().unwrap();
        loop {
            if !b.data.is_empty() {
                let n = buf.len().min(b.data.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = b.data.pop_front().unwrap();
                }
                return Ok(n);
            }
            if b.tx_closed {
                return Ok(0); // clean EOF
            }
            match deadline {
                None => b = self.cond.wait(b).unwrap(),
                Some(d) => {
                    let elapsed = start.elapsed();
                    if elapsed >= d {
                        return Err(NetError::Timeout);
                    }
                    let (guard, _) = self.cond.wait_timeout(b, d - elapsed).unwrap();
                    b = guard;
                }
            }
        }
    }

    fn close(&self) {
        let mut b = self.buf.lock().unwrap();
        b.tx_closed = true;
        b.rx_closed = true;
        self.cond.notify_all();
    }
}

/// In-memory [`Transport`] endpoint; see [`mem_pair`].
pub struct MemTransport {
    /// Direction this end writes into.
    out: Arc<PipeDir>,
    /// Direction this end reads from.
    inn: Arc<PipeDir>,
    read_deadline: Option<Duration>,
}

/// A connected pair of in-memory transports (client end, server end).
/// Deterministic byte-stream semantics, deadline support via condvar
/// timeouts, EOF/PeerClosed on drop — everything the TCP transport
/// does, minus the kernel.
pub fn mem_pair() -> (MemTransport, MemTransport) {
    let a2b = PipeDir::new();
    let b2a = PipeDir::new();
    (
        MemTransport {
            out: a2b.clone(),
            inn: b2a.clone(),
            read_deadline: None,
        },
        MemTransport {
            out: b2a,
            inn: a2b,
            read_deadline: None,
        },
    )
}

impl Transport for MemTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.out.write(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.inn.read(buf, self.read_deadline)
    }

    fn set_read_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.read_deadline = d;
        Ok(())
    }

    fn set_write_deadline(&mut self, _d: Option<Duration>) -> Result<(), NetError> {
        Ok(()) // in-memory writes never block
    }

    fn shutdown(&mut self) {
        self.out.close();
        self.inn.close();
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------ FaultTransport

/// Per-256 injection rates for [`FaultTransport`]. A rate of 0 disables
/// that fault class; 256 fires on every opportunity.
///
/// Reset and torn-write rolls happen once per *frame-ish* unit — every
/// send, and the first recv of each read burst (the first read after a
/// send) — not on every byte-level operation. Otherwise a frame read
/// split into ~100 one-byte recvs by `short_read` would compound the
/// reset probability ~100×, and no retry budget survives that. Short
/// reads and delays are benign, so they stay per-operation.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    pub seed: u64,
    /// Connection reset on a send or at the start of a read burst.
    pub reset_per_256: u32,
    /// Torn write: only a prefix of the buffer reaches the peer, then
    /// the connection dies (the peer sees a truncated frame).
    pub torn_write_per_256: u32,
    /// Short read: deliver at most one byte (byte-level delay of the
    /// stream; exercises every resume point in the frame reader).
    pub short_read_per_256: u32,
    /// Micro-delay before the operation.
    pub delay_per_256: u32,
    /// Max injected delay, nanoseconds.
    pub delay_max_ns: u64,
}

impl FaultConfig {
    /// No faults (pass-through).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            reset_per_256: 0,
            torn_write_per_256: 0,
            short_read_per_256: 0,
            delay_per_256: 0,
            delay_max_ns: 0,
        }
    }

    /// A uniform storm: every fault class at `rate` per 256 ops.
    pub fn storm(seed: u64, rate: u32) -> FaultConfig {
        FaultConfig {
            seed,
            reset_per_256: rate,
            torn_write_per_256: rate,
            short_read_per_256: rate.saturating_mul(4).min(256),
            delay_per_256: rate,
            delay_max_ns: 200_000,
        }
    }

    pub fn is_none(&self) -> bool {
        self.reset_per_256 == 0
            && self.torn_write_per_256 == 0
            && self.short_read_per_256 == 0
            && self.delay_per_256 == 0
    }
}

/// Counters for injected faults, shared across connections: a host's
/// `net.faults.*` wall counters, or private ones (`Default`) for a
/// standalone [`FaultTransport`].
#[derive(Debug, Default)]
pub struct FaultStats {
    pub resets: Arc<Counter>,
    pub torn_writes: Arc<Counter>,
    pub short_reads: Arc<Counter>,
    pub delays: Arc<Counter>,
}

impl FaultStats {
    /// Resolve (or re-use) the `net.faults.*` counters in `reg`.
    pub fn new(reg: &Registry) -> FaultStats {
        let c = |name: &str| reg.counter(name, Section::Wall);
        FaultStats {
            resets: c("net.faults.resets"),
            torn_writes: c("net.faults.torn_writes"),
            short_reads: c("net.faults.short_reads"),
            delays: c("net.faults.delays"),
        }
    }
}

/// Wraps any transport and injects seeded faults. Each wrapped
/// connection draws its own SplitMix64 stream (derived from the config
/// seed and a connection label), so a given connection's fault schedule
/// is deterministic regardless of what other connections do.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: Arc<FaultStats>,
    /// A reset/torn fault poisons the connection permanently, like a
    /// real dead socket.
    dead: bool,
    /// Whether this read burst (recvs since the last send) already
    /// rolled for a reset — see [`FaultConfig`].
    burst_rolled: bool,
}

impl FaultTransport {
    pub fn new(
        inner: Box<dyn Transport>,
        cfg: FaultConfig,
        label: &str,
        stats: Arc<FaultStats>,
    ) -> FaultTransport {
        let rng = SplitMix64::new(cfg.seed).derive(label);
        FaultTransport {
            inner,
            cfg,
            rng,
            stats,
            dead: false,
            burst_rolled: false,
        }
    }

    fn roll(&mut self, per_256: u32) -> bool {
        per_256 > 0 && self.rng.next_below(256) < per_256 as u64
    }

    fn maybe_delay(&mut self) {
        if self.roll(self.cfg.delay_per_256) && self.cfg.delay_max_ns > 0 {
            let ns = self.rng.next_below(self.cfg.delay_max_ns);
            self.stats.delays.inc();
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    fn die(&mut self) {
        self.dead = true;
        self.inner.shutdown();
    }
}

impl Transport for FaultTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        if self.dead {
            return Err(NetError::Reset);
        }
        self.burst_rolled = false;
        self.maybe_delay();
        if self.roll(self.cfg.reset_per_256) {
            self.stats.resets.inc();
            self.die();
            return Err(NetError::Reset);
        }
        if self.roll(self.cfg.torn_write_per_256) && bytes.len() > 1 {
            // A prefix reaches the peer (who will see a truncated
            // frame), then the connection dies under the writer.
            let cut = 1 + self.rng.next_below(bytes.len() as u64 - 1) as usize;
            self.stats.torn_writes.inc();
            let _ = self.inner.send(&bytes[..cut]);
            self.die();
            return Err(NetError::Reset);
        }
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        if self.dead {
            return Err(NetError::Reset);
        }
        self.maybe_delay();
        if !self.burst_rolled {
            self.burst_rolled = true;
            if self.roll(self.cfg.reset_per_256) {
                self.stats.resets.inc();
                self.die();
                return Err(NetError::Reset);
            }
        }
        if self.roll(self.cfg.short_read_per_256) && buf.len() > 1 {
            self.stats.short_reads.inc();
            return self.inner.recv(&mut buf[..1]);
        }
        self.inner.recv(buf)
    }

    fn set_read_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_read_deadline(d)
    }

    fn set_write_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_write_deadline(d)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, FrameKind, DEFAULT_MAX_FRAME};

    #[test]
    fn mem_pair_roundtrips_frames() {
        let (mut a, mut b) = mem_pair();
        write_frame(&mut a, FrameKind::Request, b"ping").unwrap();
        let f = read_frame(&mut b, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f.payload, b"ping");
        write_frame(&mut b, FrameKind::Response, b"pong").unwrap();
        let f = read_frame(&mut a, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f.payload, b"pong");
    }

    #[test]
    fn mem_close_is_clean_eof_at_boundary() {
        let (mut a, mut b) = mem_pair();
        write_frame(&mut a, FrameKind::Request, b"last").unwrap();
        a.shutdown();
        assert!(read_frame(&mut b, DEFAULT_MAX_FRAME).unwrap().is_some());
        assert!(read_frame(&mut b, DEFAULT_MAX_FRAME).unwrap().is_none());
        // Writing to a closed peer is typed, not a panic.
        assert!(matches!(
            write_frame(&mut b, FrameKind::Response, b"late"),
            Err(NetError::PeerClosed | NetError::Reset)
        ));
    }

    #[test]
    fn mem_read_deadline_expires() {
        let (mut a, _b) = mem_pair();
        a.set_read_deadline(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(a.recv(&mut buf), Err(NetError::Timeout));
    }

    #[test]
    fn torn_write_truncates_the_frame_for_the_peer() {
        let (a, mut b) = mem_pair();
        let stats = Arc::new(FaultStats::default());
        let mut cfg = FaultConfig::none(7);
        cfg.torn_write_per_256 = 256; // every write tears
        let mut faulty = FaultTransport::new(Box::new(a), cfg, "conn-0", stats.clone());
        let err = write_frame(&mut faulty, FrameKind::Request, b"payload-that-tears").unwrap_err();
        assert_eq!(err, NetError::Reset);
        assert_eq!(stats.torn_writes.get(), 1);
        // The peer sees a truncated frame (typed), never a panic.
        let got = read_frame(&mut b, DEFAULT_MAX_FRAME);
        assert!(
            matches!(got, Err(NetError::Truncated { .. }) | Ok(None)),
            "{got:?}"
        );
        // The faulty end is poisoned like a real dead socket.
        assert_eq!(faulty.send(b"more"), Err(NetError::Reset));
    }

    #[test]
    fn fault_schedule_is_seeded_and_deterministic() {
        let roll_outcomes = |seed: u64| -> Vec<bool> {
            let (a, _b) = mem_pair();
            let mut t = FaultTransport::new(
                Box::new(a),
                FaultConfig::storm(seed, 64),
                "conn-42",
                Arc::new(FaultStats::default()),
            );
            (0..64).map(|_| t.send(b"xx").is_err()).collect()
        };
        assert_eq!(roll_outcomes(1), roll_outcomes(1));
        assert_ne!(roll_outcomes(1), roll_outcomes(2));
    }

    #[test]
    fn short_reads_still_deliver_every_byte() {
        let (a, b) = mem_pair();
        let stats = Arc::new(FaultStats::default());
        let mut cfg = FaultConfig::none(3);
        cfg.short_read_per_256 = 256; // every read delivers one byte
        let mut writer: Box<dyn Transport> = Box::new(a);
        write_frame(&mut *writer, FrameKind::Request, b"byte-at-a-time").unwrap();
        let mut reader = FaultTransport::new(Box::new(b), cfg, "c", stats.clone());
        let f = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f.payload, b"byte-at-a-time");
        assert!(stats.short_reads.get() > 0);
    }
}
