//! The threaded wire server.
//!
//! One thread per connection, each running the connection loop:
//! handshake (a `Hello` frame naming the connection's tenant), then a
//! request/response loop. Per-connection tenants map onto the
//! registry's [`AdmissionGate`] — a full tenant bound becomes a typed
//! `Overload` wire response, never a dropped connection. Read and write
//! deadlines bound every blocking step, so a stalled or vanished client
//! is *evicted* (connection closed, counted) instead of pinning a
//! thread forever. Shutdown is a graceful drain: stop accepting, let
//! in-flight requests finish, answer anything newly read with
//! `Draining`, flush, then close.
//!
//! Two front ends share one private connection host (gate, counters,
//! drain flag, connection threads, and the loop itself): [`NetServer`]
//! feeds it accepted TCP sockets; [`MemHost`] feeds it in-memory
//! (optionally fault-injected) pipes for deterministic robustness tests.

use crate::frame::{
    decode_request, encode_response, read_frame, write_frame, FrameKind, DEFAULT_MAX_FRAME,
    STATUS_DRAINING, STATUS_ERROR, STATUS_OK, STATUS_OVERLOAD,
};
use crate::transport::{
    mem_pair, FaultConfig, FaultStats, FaultTransport, MemTransport, TcpTransport,
};
use crate::{NetError, Transport};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use xpl_obs::{Counter, Registry, Section};
use xpl_registry::AdmissionGate;

/// What the server executes once a request is admitted. Implemented by
/// the bench crate over a real image store; tests use closures.
pub trait WireService: Send + Sync {
    fn call(&self, tenant: u32, request: &[u8]) -> Result<Vec<u8>, String>;
}

impl<F> WireService for F
where
    F: Fn(u32, &[u8]) -> Result<Vec<u8>, String> + Send + Sync,
{
    fn call(&self, tenant: u32, request: &[u8]) -> Result<Vec<u8>, String> {
        self(tenant, request)
    }
}

/// Wire-level policy shared by server and client.
#[derive(Clone, Copy, Debug)]
pub struct WireConfig {
    /// Maximum accepted frame payload.
    pub max_frame: u32,
    /// Per-read deadline; a connection that stalls longer mid-request
    /// is evicted.
    pub read_deadline: Duration,
    /// Per-write deadline; a client that stops draining its socket is
    /// evicted.
    pub write_deadline: Duration,
    /// Per-tenant admission bound (concurrent in-flight requests).
    pub queue_depth: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
            read_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            queue_depth: 64,
        }
    }
}

/// Server-side accounting, counted straight into a metrics registry's
/// `net.*` wall counters — every way a request or connection can end
/// is counted somewhere, so "nothing silently lost" is checkable:
/// `connections`, `served`, `overloads`, `drain_rejects`,
/// `service_errors`, `evictions` (deadline), `peer_closed` (client
/// vanished), `frame_errors` (protocol garbage); plus raw frame counts
/// and `Stats`-request serves. All wall-section: connection lifetimes,
/// deadline evictions and fault-triggered retries depend on real
/// scheduling, so these counts are honest but not thread-count
/// deterministic.
pub struct ServerStats {
    connections: Arc<Counter>,
    served: Arc<Counter>,
    overloads: Arc<Counter>,
    drain_rejects: Arc<Counter>,
    service_errors: Arc<Counter>,
    evictions: Arc<Counter>,
    peer_closed: Arc<Counter>,
    frame_errors: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    stats_served: Arc<Counter>,
}

/// Plain-number snapshot of [`ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    pub connections: u64,
    pub served: u64,
    pub overloads: u64,
    pub drain_rejects: u64,
    pub service_errors: u64,
    pub evictions: u64,
    pub peer_closed: u64,
    pub frame_errors: u64,
}

impl ServerStats {
    /// Resolve (or re-use) the `net.*` counter family in `reg`.
    pub fn new(reg: &Registry) -> ServerStats {
        let c = |name: &str| reg.counter(name, Section::Wall);
        ServerStats {
            connections: c("net.connections"),
            served: c("net.served"),
            overloads: c("net.overloads"),
            drain_rejects: c("net.drain_rejects"),
            service_errors: c("net.service_errors"),
            evictions: c("net.evictions"),
            peer_closed: c("net.peer_closed"),
            frame_errors: c("net.frame_errors"),
            frames_in: c("net.frames.in"),
            frames_out: c("net.frames.out"),
            stats_served: c("net.stats.served"),
        }
    }

    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.get(),
            served: self.served.get(),
            overloads: self.overloads.get(),
            drain_rejects: self.drain_rejects.get(),
            service_errors: self.service_errors.get(),
            evictions: self.evictions.get(),
            peer_closed: self.peer_closed.get(),
            frame_errors: self.frame_errors.get(),
        }
    }
}

// ---------------------------------------------------- connection host

/// The connection host both front ends share: one admission gate, one
/// `net.*` counter bundle, one drain flag, and the connection threads.
/// [`NetServer`] feeds it accepted sockets; [`MemHost`] feeds it pipe
/// ends.
struct Host {
    svc: Arc<dyn WireService>,
    cfg: WireConfig,
    gate: AdmissionGate,
    draining: AtomicBool,
    stats: ServerStats,
    /// Where the `net.*` counters live: the caller's registry, or a
    /// private one when none is attached.
    registry: Arc<Registry>,
    /// Whether `registry` is the caller's; only then are
    /// [`FrameKind::Stats`] requests answered with its snapshot.
    exposed: bool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Host {
    fn new(
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
        registry: Option<&Arc<Registry>>,
    ) -> Arc<Host> {
        let counted = registry.cloned().unwrap_or_else(Registry::new);
        Arc::new(Host {
            svc,
            cfg,
            gate: AdmissionGate::new(cfg.queue_depth),
            draining: AtomicBool::new(false),
            stats: ServerStats::new(&counted),
            registry: counted,
            exposed: registry.is_some(),
            conns: Mutex::new(Vec::new()),
        })
    }

    /// Count the connection and serve it on its own thread.
    fn spawn(self: &Arc<Host>, t: Box<dyn Transport>, thread_name: String) {
        self.stats.connections.inc();
        let host = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || host.serve(t))
            .expect("spawn connection thread");
        self.conns.lock().unwrap().push(handle);
    }

    /// Answer new reads with `Draining`, join every connection thread,
    /// and return the final accounting.
    fn drain(&self) -> ServerStatsSnapshot {
        self.draining.store(true, Ordering::Release);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.stats.snapshot()
    }

    /// Serve one connection until the peer closes, a deadline evicts it,
    /// or drain finishes it. Every exit path is typed and counted here;
    /// nothing panics on peer misbehavior (a client vanishing
    /// mid-response surfaces as [`NetError::PeerClosed`] on the write).
    fn serve(&self, mut t: Box<dyn Transport>) {
        let _ = t.set_read_deadline(Some(self.cfg.read_deadline));
        let _ = t.set_write_deadline(Some(self.cfg.write_deadline));
        match self.converse(&mut *t) {
            Ok(()) => {}
            // Slow-client eviction: stalled past a read or write deadline.
            Err(NetError::Timeout) => self.stats.evictions.inc(),
            Err(NetError::PeerClosed | NetError::Reset | NetError::Truncated { .. }) => {
                self.stats.peer_closed.inc()
            }
            // Protocol garbage — a hostile header (oversized length, bad
            // CRC, bad magic) is rejected typed before any allocation.
            Err(_) => self.stats.frame_errors.inc(),
        }
        t.shutdown();
    }

    /// The handshake (a `Hello` frame naming the tenant), then the
    /// request/response loop. `Ok` is a clean close at a frame boundary
    /// or a flushed `Draining` reply.
    fn converse(&self, t: &mut dyn Transport) -> Result<(), NetError> {
        let max_frame = self.cfg.max_frame;
        let Some(hello) = read_frame(t, max_frame)? else {
            return Ok(()); // connected and left: nothing lost
        };
        let tenant = match <[u8; 4]>::try_from(hello.payload.as_slice()) {
            Ok(b) if hello.kind == FrameKind::Hello => u32::from_le_bytes(b),
            _ => return Err(NetError::Malformed("expected a 4-byte Hello frame".into())),
        };
        self.stats.frames_in.inc();

        while let Some(frame) = read_frame(t, max_frame)? {
            self.stats.frames_in.inc();
            if frame.kind != FrameKind::Request && frame.kind != FrameKind::Stats {
                return Err(NetError::Malformed(format!(
                    "unexpected {:?} frame",
                    frame.kind
                )));
            }
            let (id, body) = decode_request(&frame.payload)?;

            // A Stats request is answered before the draining check and
            // outside the admission gate: observability must keep working
            // exactly when the server is overloaded, faulting, or drained.
            let (status, reply) = if frame.kind == FrameKind::Stats {
                if self.exposed {
                    self.stats.stats_served.inc();
                    (
                        STATUS_OK,
                        self.registry.snapshot().render_json().into_bytes(),
                    )
                } else {
                    (STATUS_ERROR, b"no metrics registry attached".to_vec())
                }
            } else if self.draining.load(Ordering::Acquire) {
                self.stats.drain_rejects.inc();
                (STATUS_DRAINING, b"server draining".to_vec())
            } else {
                match self.gate.try_admit(tenant) {
                    Err(over) => {
                        self.stats.overloads.inc();
                        (
                            STATUS_OVERLOAD,
                            format!("{} in flight", over.in_flight).into_bytes(),
                        )
                    }
                    Ok(_permit) => match self.svc.call(tenant, body) {
                        Ok(bytes) => {
                            self.stats.served.inc();
                            (STATUS_OK, bytes)
                        }
                        Err(msg) => {
                            self.stats.service_errors.inc();
                            (STATUS_ERROR, msg.into_bytes())
                        }
                    },
                }
            };

            write_frame(t, FrameKind::Response, &encode_response(id, status, &reply))?;
            self.stats.frames_out.inc();
            if status == STATUS_DRAINING {
                break; // drained response flushed; close the connection
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------- TCP server

/// A threaded TCP front end: an accept loop feeding the connection host.
pub struct NetServer {
    addr: SocketAddr,
    host: Arc<Host>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind and start accepting. `addr` is typically `"127.0.0.1:0"`;
    /// read the bound port back with [`NetServer::local_addr`].
    pub fn bind(
        addr: &str,
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
    ) -> Result<NetServer, NetError> {
        NetServer::bind_obs(addr, svc, cfg, None)
    }

    /// [`NetServer::bind`] with a metrics registry. Server counters
    /// always live in a registry: without one they go to a private
    /// registry and [`FrameKind::Stats`] requests are refused; with
    /// one, the `net.*` counters are resolved there and `Stats`
    /// requests are answered with its snapshot. Servers bound to one
    /// registry share its `net.*` counts.
    pub fn bind_obs(
        addr: &str,
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
        registry: Option<&Arc<Registry>>,
    ) -> Result<NetServer, NetError> {
        let listener = TcpListener::bind(addr).map_err(NetError::from_io)?;
        let addr = listener.local_addr().map_err(NetError::from_io)?;
        let host = Host::new(svc, cfg, registry);
        let accept = {
            let host = Arc::clone(&host);
            std::thread::Builder::new()
                .name("xpl-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if host.draining.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        host.spawn(Box::new(TcpTransport::new(stream)), "xpl-net-conn".into());
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            addr,
            host,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> ServerStatsSnapshot {
        self.host.stats.snapshot()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// (new reads are answered `Draining` and closed), join every
    /// connection thread, and return the final accounting.
    pub fn drain(mut self) -> ServerStatsSnapshot {
        self.host.draining.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.host.drain()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Undrained drop: stop the accept loop but don't block in drop.
        self.host.draining.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

// ------------------------------------------------------------- MemHost

/// An in-memory "listener": every [`MemHost::connect`] serves one end of
/// a fresh pipe on the connection host and hands back the other end,
/// optionally wrapping **both** ends in seeded [`FaultTransport`]s (the
/// per-256 rates from [`FaultConfig`]). Deterministic per connection;
/// the robustness harness and tests drive this instead of real sockets.
pub struct MemHost {
    host: Arc<Host>,
    faults: FaultConfig,
    fault_stats: Arc<FaultStats>,
    next_conn: AtomicU64,
}

impl MemHost {
    pub fn new(svc: Arc<dyn WireService>, cfg: WireConfig, faults: FaultConfig) -> MemHost {
        MemHost::new_obs(svc, cfg, faults, None)
    }

    /// [`MemHost::new`] with a metrics registry, exactly as
    /// [`NetServer::bind_obs`]: the `net.*` counters — injected-fault
    /// counts included — live in the registry, `Stats` requests are
    /// answered with its snapshot, and hosts sharing one registry
    /// share its counts.
    pub fn new_obs(
        svc: Arc<dyn WireService>,
        cfg: WireConfig,
        faults: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> MemHost {
        let host = Host::new(svc, cfg, registry);
        MemHost {
            fault_stats: Arc::new(FaultStats::new(&host.registry)),
            host,
            faults,
            next_conn: AtomicU64::new(0),
        }
    }

    /// Open a connection; returns the client-end transport.
    pub fn connect(&self) -> Box<dyn Transport> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (client_end, server_end) = mem_pair();
        let wrap = |end: MemTransport, side: &str| -> Box<dyn Transport> {
            if self.faults.is_none() {
                Box::new(end)
            } else {
                Box::new(FaultTransport::new(
                    Box::new(end),
                    self.faults,
                    &format!("{side}-{id}"),
                    self.fault_stats.clone(),
                ))
            }
        };
        let server_t = wrap(server_end, "srv");
        let client_t = wrap(client_end, "cli");
        self.host.spawn(server_t, format!("xpl-net-mem-{id}"));
        client_t
    }

    /// Flip the draining flag without joining: connections answer their
    /// next request with `Draining` and close. Call [`MemHost::drain`]
    /// afterwards to join; split so a test can observe the fail-fast
    /// client behavior before connection threads are reaped.
    pub fn begin_drain(&self) {
        self.host.draining.store(true, Ordering::Release);
    }

    /// Graceful drain, same semantics as [`NetServer::drain`].
    pub fn drain(&self) -> ServerStatsSnapshot {
        self.host.drain()
    }

    pub fn stats(&self) -> ServerStatsSnapshot {
        self.host.stats.snapshot()
    }

    /// Currently admitted in-flight requests for `tenant` (test
    /// introspection into the admission gate).
    pub fn gate_in_flight(&self, tenant: u32) -> usize {
        self.host.gate.in_flight(tenant)
    }

    /// Injected-fault counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }
}
