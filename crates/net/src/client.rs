//! The retrying wire client.
//!
//! [`NetClient`] owns one logical connection (re-dialed through a
//! connector closure whenever the transport dies) and a deterministic
//! exponential-backoff-with-jitter retry policy. Transport faults
//! (resets, torn frames, deadline expiries) and typed `Overload`
//! responses are retried up to the budget; a `Draining` response fails
//! fast with [`NetError::Rejected`] — a drained server must never make
//! clients hang.

use crate::frame::{
    decode_response, encode_request, read_frame, write_frame, FrameKind, STATUS_DRAINING,
    STATUS_ERROR, STATUS_OK, STATUS_OVERLOAD,
};
use crate::server::WireConfig;
use crate::{NetError, Transport};
use std::time::Duration;
use xpl_util::SplitMix64;

/// Deterministic exponential backoff with jitter.
///
/// Attempt `n` (0-based) sleeps `floor(n) + jitter` where
/// `floor(n) = min(base_ns << n, max_ns)` and `jitter` is drawn
/// uniformly from `[0, floor(n)/2]` off a seeded SplitMix64 — so the
/// whole delay lies in `[floor(n), 1.5·floor(n)]`, and because
/// `1.5·floor(n) ≤ floor(n+1)` below the cap, the realized delays are
/// monotone non-decreasing until the cap. Fully reproducible given the
/// seed.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    pub base_ns: u64,
    pub max_ns: u64,
    /// Total attempts (first try + retries).
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ns: 2_000_000,
            max_ns: 200_000_000,
            max_attempts: 16,
        }
    }
}

impl BackoffPolicy {
    /// Deterministic floor for attempt `n`: `min(base << n, max)`.
    pub fn floor_ns(&self, attempt: u32) -> u64 {
        self.base_ns
            .checked_shl(attempt)
            .map_or(self.max_ns, |v| v.min(self.max_ns))
            .max(1)
    }

    /// Delay for attempt `n`, drawing jitter from `rng`.
    pub fn delay_ns(&self, attempt: u32, rng: &mut SplitMix64) -> u64 {
        let floor = self.floor_ns(attempt);
        floor + rng.next_below(floor / 2 + 1)
    }

    /// The full retry schedule for a given seed — what a client with
    /// this seed will actually sleep, in order. For tests and
    /// introspection.
    pub fn schedule(&self, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed).derive("backoff");
        (0..self.max_attempts.saturating_sub(1))
            .map(|a| self.delay_ns(a, &mut rng))
            .collect()
    }
}

/// Per-client accounting, readable after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls that ultimately returned a payload.
    pub served: u64,
    /// Extra attempts beyond the first, across all calls.
    pub retries: u64,
    /// Times the transport was torn down and re-dialed.
    pub reconnects: u64,
    /// Typed `Overload` responses received.
    pub overloads_seen: u64,
    /// Fail-fast `Draining` rejections received.
    pub rejected: u64,
}

/// Dials a fresh transport; called on first use and after any
/// transport-level failure.
pub type Connector = Box<dyn FnMut() -> Result<Box<dyn Transport>, NetError> + Send>;

/// A retrying request/response client bound to one tenant.
pub struct NetClient {
    connector: Connector,
    tenant: u32,
    cfg: WireConfig,
    backoff: BackoffPolicy,
    rng: SplitMix64,
    conn: Option<Box<dyn Transport>>,
    next_id: u64,
    pub stats: ClientStats,
}

impl NetClient {
    /// `seed` keys the jitter stream (per-client, so schedules are
    /// deterministic but decorrelated between clients).
    pub fn new(
        tenant: u32,
        cfg: WireConfig,
        backoff: BackoffPolicy,
        seed: u64,
        connector: Connector,
    ) -> NetClient {
        NetClient {
            connector,
            tenant,
            cfg,
            backoff,
            rng: SplitMix64::new(seed).derive("backoff"),
            conn: None,
            next_id: 0,
            stats: ClientStats::default(),
        }
    }

    /// A client dialing a TCP address.
    pub fn tcp(
        addr: std::net::SocketAddr,
        tenant: u32,
        cfg: WireConfig,
        backoff: BackoffPolicy,
        seed: u64,
    ) -> NetClient {
        NetClient::new(
            tenant,
            cfg,
            backoff,
            seed,
            Box::new(move || {
                crate::transport::TcpTransport::connect(&addr)
                    .map(|t| Box::new(t) as Box<dyn Transport>)
            }),
        )
    }

    fn ensure_conn(&mut self) -> Result<&mut Box<dyn Transport>, NetError> {
        if self.conn.is_none() {
            let mut t = (self.connector)()?;
            t.set_read_deadline(Some(self.cfg.read_deadline))?;
            t.set_write_deadline(Some(self.cfg.write_deadline))?;
            write_frame(&mut *t, FrameKind::Hello, &self.tenant.to_le_bytes())?;
            self.conn = Some(t);
        }
        Ok(self.conn.as_mut().unwrap())
    }

    fn attempt(&mut self, kind: FrameKind, id: u64, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let max_frame = self.cfg.max_frame;
        let t = self.ensure_conn()?;
        write_frame(&mut **t, kind, &encode_request(id, body))?;
        loop {
            let frame = read_frame(&mut **t, max_frame)?.ok_or(NetError::PeerClosed)?;
            if frame.kind != FrameKind::Response {
                return Err(NetError::Malformed(format!(
                    "expected a response frame, got {:?}",
                    frame.kind
                )));
            }
            let (rid, status, rbody) = decode_response(&frame.payload)?;
            if rid != id {
                continue; // stale response from an earlier request id
            }
            return match status {
                STATUS_OK => Ok(rbody.to_vec()),
                STATUS_OVERLOAD => Err(NetError::Overload { in_flight: 0 }),
                STATUS_DRAINING => Err(NetError::Rejected(
                    String::from_utf8_lossy(rbody).into_owned(),
                )),
                STATUS_ERROR => Err(NetError::Service(
                    String::from_utf8_lossy(rbody).into_owned(),
                )),
                other => Err(NetError::Malformed(format!(
                    "unknown response status {other}"
                ))),
            };
        }
    }

    /// Issue one request, retrying transport faults and `Overload` with
    /// deterministic backoff, reconnecting as needed. Fails fast on
    /// `Draining` ([`NetError::Rejected`]) and service errors; returns
    /// [`NetError::Exhausted`] when the attempt budget runs out.
    pub fn call(&mut self, body: &[u8]) -> Result<Vec<u8>, NetError> {
        self.round_trip(FrameKind::Request, body)
    }

    /// Fetch the server's metrics snapshot (the canonical registry JSON)
    /// over the wire via a [`FrameKind::Stats`] frame. The server answers
    /// these before its draining check and outside the admission gate, so
    /// this works mid-storm and mid-drain; transport faults are retried
    /// by the same loop as [`NetClient::call`]. Returns
    /// [`NetError::Service`] when the server has no registry attached.
    pub fn stats_snapshot(&mut self) -> Result<Vec<u8>, NetError> {
        self.round_trip(FrameKind::Stats, &[])
    }

    /// The one retry loop behind [`NetClient::call`] and
    /// [`NetClient::stats_snapshot`].
    fn round_trip(&mut self, kind: FrameKind, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let attempts = self.backoff.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let delay = self.backoff.delay_ns(attempt - 1, &mut self.rng);
                std::thread::sleep(Duration::from_nanos(delay));
            }
            match self.attempt(kind, id, body) {
                Ok(reply) => {
                    self.stats.served += 1;
                    return Ok(reply);
                }
                Err(NetError::Overload { .. }) => {
                    // Typed backpressure: the connection is healthy,
                    // only the tenant's bound was full. Back off, retry.
                    self.stats.overloads_seen += 1;
                }
                Err(e @ NetError::Rejected(_)) => {
                    self.stats.rejected += 1;
                    return Err(e);
                }
                Err(e @ (NetError::Service(_) | NetError::Malformed(_))) => return Err(e),
                Err(e @ NetError::FrameTooLarge { .. }) => return Err(e),
                Err(_transport) => {
                    // Reset / torn frame / deadline / dial failure: tear
                    // the connection down and re-dial after backoff.
                    if self.conn.take().is_some() {
                        self.stats.reconnects += 1;
                    }
                }
            }
        }
        Err(NetError::Exhausted { attempts })
    }

    /// Close the connection (clean FIN; the server sees EOF at a frame
    /// boundary).
    pub fn close(&mut self) {
        if let Some(mut t) = self.conn.take() {
            t.shutdown();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_floors_double_then_cap() {
        let p = BackoffPolicy {
            base_ns: 1_000,
            max_ns: 16_000,
            max_attempts: 10,
        };
        let floors: Vec<u64> = (0..8).map(|a| p.floor_ns(a)).collect();
        assert_eq!(
            floors,
            vec![1_000, 2_000, 4_000, 8_000, 16_000, 16_000, 16_000, 16_000]
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_monotone_below_cap() {
        let p = BackoffPolicy {
            base_ns: 1_000,
            max_ns: 1 << 40,
            max_attempts: 12,
        };
        let a = p.schedule(77);
        let b = p.schedule(77);
        assert_eq!(a, b);
        assert_ne!(a, p.schedule(78));
        assert_eq!(a.len(), 11);
        for (n, &d) in a.iter().enumerate() {
            let floor = p.floor_ns(n as u32);
            assert!(
                d >= floor && d <= floor + floor / 2,
                "attempt {n}: {d} vs floor {floor}"
            );
        }
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "not monotone: {a:?}");
    }

    #[test]
    fn huge_shift_saturates_at_cap() {
        let p = BackoffPolicy {
            base_ns: 1_000,
            max_ns: 5_000,
            max_attempts: 80,
        };
        assert_eq!(p.floor_ns(70), 5_000); // checked_shl overflow -> cap
    }
}
