//! Multi-tenant image-registry front end.
//!
//! The stores below this crate answer one retrieval at a time; a
//! registry *serves* them: thousands of clients, skewed popularity,
//! tenants that must not starve each other. This crate is that front
//! end, kept deliberately free of store types so it can sit in front of
//! any of the five evaluated stores (the bench crate plugs in a
//! [`ServiceModel`] measured against a real store):
//!
//! * **Admission control** — each tenant owns a bounded FIFO queue;
//!   a request arriving at a full queue is rejected with a typed
//!   `Overload` outcome instead of growing memory without bound. The
//!   bound is per tenant, so one tenant's flood can fill only its own
//!   queue.
//! * **Coalescing** — concurrent identical retrievals share one store
//!   hit: the first request becomes the *primary*, later arrivals for
//!   the same key attach as waiters and are fanned the payload out at
//!   completion for a copy cost, not a store cost.
//! * **Fair share** — servers pick work by deficit round-robin over the
//!   tenant queues: each visit grants a tenant a quantum of virtual
//!   service time, and a tenant may only dispatch when its accumulated
//!   deficit covers the head request's cost. Heavy tenants therefore
//!   get throughput proportional to their share, never the whole box.
//!
//! The engine ([`run_registry`]) is a discrete-event simulation over
//! **virtual time**: service costs come from the cost ledger the
//! simulated stores already maintain, so latency percentiles are exact,
//! reproducible numbers — byte-identical across runs, hosts, and thread
//! counts — rather than wall-clock noise. Real-store execution (and the
//! wall-clock throughput number) happens outside, by replaying the
//! engine's store-hit schedule; see `xpl-bench`'s serve driver.

mod engine;
mod gate;

pub use engine::{
    run_registry, Outcome, RegObs, RegistryConfig, RegistryOutcome, RequestRecord, TenantStats,
};
pub use gate::{AdmissionGate, AdmissionPermit, Overloaded};

/// What a client asks the registry for. Keys are the coalescing
/// identity: two requests coalesce iff their keys are equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKey {
    /// Full image retrieval.
    Image { image: String },
    /// A byte range of the image's disk; `start_frac` is in 256ths of
    /// the disk size (the trace convention), `len_bytes` in bytes.
    Range {
        image: String,
        start_frac: u32,
        len_bytes: u32,
    },
}

impl RequestKey {
    /// Canonical one-token rendering used by request logs.
    pub fn render(&self) -> String {
        match self {
            RequestKey::Image { image } => format!("retrieve {image}"),
            RequestKey::Range {
                image,
                start_frac,
                len_bytes,
            } => format!("range {image} frac={start_frac} len={len_bytes}"),
        }
    }

    /// Inverse of [`RequestKey::render`] — the wire layer ships keys in
    /// their canonical rendering, and the server parses them back.
    /// Returns `None` for anything that is not an exact rendering
    /// (image names may contain spaces; the range suffix is parsed from
    /// the right).
    pub fn parse(s: &str) -> Option<RequestKey> {
        if let Some(image) = s.strip_prefix("retrieve ") {
            if image.is_empty() {
                return None;
            }
            return Some(RequestKey::Image {
                image: image.to_string(),
            });
        }
        let rest = s.strip_prefix("range ")?;
        let (rest, len_tok) = rest.rsplit_once(' ')?;
        let (image, frac_tok) = rest.rsplit_once(' ')?;
        if image.is_empty() {
            return None;
        }
        let start_frac: u32 = frac_tok.strip_prefix("frac=")?.parse().ok()?;
        let len_bytes: u32 = len_tok.strip_prefix("len=")?.parse().ok()?;
        Some(RequestKey::Range {
            image: image.to_string(),
            start_frac,
            len_bytes,
        })
    }
}

/// One client request: which tenant, when (virtual ns), and what.
/// Requests must be fed to the engine sorted by `arrival_ns` (ties
/// break by position, which is how simultaneous arrivals stay
/// deterministic).
#[derive(Clone, Debug)]
pub struct ServeRequest {
    pub tenant: u32,
    pub arrival_ns: u64,
    pub key: RequestKey,
}

/// The service-cost oracle the engine charges virtual time against.
pub trait ServiceModel {
    /// Virtual nanoseconds one store hit for `key` takes.
    fn service_ns(&self, key: &RequestKey) -> u64;
    /// Virtual nanoseconds to fan a completed payload out to one
    /// coalesced waiter (a memory copy, not a store hit).
    fn fanout_ns(&self, key: &RequestKey) -> u64;
}

#[cfg(test)]
mod key_tests {
    use super::RequestKey;

    #[test]
    fn parse_is_the_inverse_of_render() {
        let keys = [
            RequestKey::Image {
                image: "redis".into(),
            },
            RequestKey::Image {
                image: "name with spaces".into(),
            },
            RequestKey::Range {
                image: "ide-build".into(),
                start_frac: 0,
                len_bytes: 512,
            },
            RequestKey::Range {
                image: "a b c".into(),
                start_frac: 255,
                len_bytes: 16384,
            },
        ];
        for key in keys {
            assert_eq!(
                RequestKey::parse(&key.render()).as_ref(),
                Some(&key),
                "{}",
                key.render()
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_renderings() {
        for bad in [
            "",
            "retrieve ",
            "fetch img",
            "range img frac=1",
            "range  frac=1 len=2",
            "range img frac=x len=2",
            "range img frac=1 len=",
            "range img len=2 frac=1",
        ] {
            assert_eq!(RequestKey::parse(bad), None, "{bad:?}");
        }
    }
}
