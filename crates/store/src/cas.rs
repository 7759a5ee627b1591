//! Charged content-addressed blob store — sharded for shared-access
//! concurrency.
//!
//! Blobs are keyed by SHA-256 digest and refcounted; `put` of an existing
//! digest is a dedup hit (no bytes written). Every operation charges the
//! owning [`SimDevice`].
//!
//! # Concurrency model
//!
//! The store is split into [`SHARD_COUNT`] segments addressed by the
//! first byte of the digest, each behind its own `RwLock`, so `put`,
//! `get`, `add_ref` and `release` on *different* digests proceed in
//! parallel and only same-shard writers contend. Aggregate statistics
//! (`unique_bytes`, `dedup_hits`) are relaxed atomics readable without
//! any lock. All operations take `&self`; the type is `Send + Sync` and
//! shared freely across the worker pool.
//!
//! # Integrity
//!
//! `get` performs a *cheap* integrity check (stored length vs. the length
//! recorded at `put` time — catches truncation) on the hot path; the full
//! recompute-the-digest check is opt-in via [`ContentStore::verify`] /
//! [`ContentStore::check_integrity`] with `deep = true`, which is what
//! store-level `check_integrity_deep` audits call. Both surface
//! [`CasError::DigestMismatch`].
//!
//! # Durability
//!
//! [`ContentStore::new_durable`] attaches an `xpl-persist`
//! [`DurableContentStore`]: every mutation (`put`, `add_ref`,
//! `release`) writes through to the log-structured on-disk store
//! *before* the in-memory state changes, so the durable log always
//! holds a superset-ordered record of the in-memory history and
//! reopen-after-crash converges to the same blobs, refcounts and size
//! ledger ([`ContentStore::state_fingerprint`] is the convergence
//! check the churn oracle uses). A write-through failure is a panic:
//! by construction the harness only crashes the medium at operation
//! boundaries (and recovers before the next op), so an error here is a
//! subsystem bug, not an injected fault.
//!
//! # Codec tiers
//!
//! A store built [`ContentStore::with_tier`] keeps each blob's *memory
//! representation* in a blocked container ([`BlobCodec::Deflate`] for
//! density, [`BlobCodec::Lz4`] for decode speed) instead of raw bytes.
//! The tier is invisible to the simulated ledger: digests, refcounts,
//! `unique_bytes`, device charges, and [`state_fingerprint`] are all in
//! *logical* (uncompressed) bytes, so every simulated metric is
//! codec-invariant by construction — re-encoding a blob cannot change
//! what the oracle observes. What the codec does change is real CPU and
//! the physical footprint tracked by [`ContentStore::encoded_bytes`].
//!
//! Temperature drives the tier: `get` / `get_range` bump a per-blob
//! read counter (audits do not), and [`ContentStore::maintain`] sweeps
//! the store, re-encoding blobs whose counter crossed the policy's
//! threshold onto the hot codec and demoting cooled ones back to the
//! base, then halves every counter so temperature decays. The durable
//! backend always holds raw bytes — recompression is an in-memory
//! representation change, never a durable mutation.
//!
//! [`state_fingerprint`]: ContentStore::state_fingerprint

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use xpl_compress::{InnerCodec, DEFAULT_BLOCK_SIZE};
use xpl_obs::{Counter, Histogram, ObsSlot, Registry, Section};
use xpl_persist::{cas_state_fingerprint, DurableContentStore};
use xpl_simio::SimDevice;
use xpl_util::{Digest, FxHashMap, Sha256};

/// Number of digest-addressed segments. A power of two so the shard of a
/// digest is a mask of its first byte.
pub const SHARD_COUNT: usize = 16;

/// How a blob is represented in memory. `Raw` stores the bytes as-is;
/// the other two wrap them in the seekable blocked container with the
/// named inner codec, so range reads decode only the touched blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlobCodec {
    /// Uncompressed bytes (the default; zero CPU on either path).
    Raw,
    /// Blocked DEFLATE (`XBC1`) — dense, slower to decode.
    Deflate,
    /// Blocked LZ4 (`XBL1`) — lighter ratio, several-× faster decode.
    Lz4,
}

impl BlobCodec {
    pub fn name(self) -> &'static str {
        match self {
            BlobCodec::Raw => "raw",
            BlobCodec::Deflate => "deflate",
            BlobCodec::Lz4 => "lz4",
        }
    }

    fn encode(self, raw: &[u8]) -> Vec<u8> {
        let inner = match self {
            BlobCodec::Raw => return raw.to_vec(),
            BlobCodec::Deflate => InnerCodec::Deflate,
            BlobCodec::Lz4 => InnerCodec::Lz4,
        };
        xpl_compress::blocked_compress(raw, DEFAULT_BLOCK_SIZE, inner)
    }
}

/// Which codec new blobs get, and what read temperature promotes a blob
/// onto the hot codec at the next [`ContentStore::maintain`] sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierPolicy {
    /// Codec for cold (and freshly stored) blobs.
    pub base: BlobCodec,
    /// Codec for hot blobs; `None` disables temperature moves.
    pub hot: Option<BlobCodec>,
    /// Reads since the last sweep at which a blob counts as hot.
    pub hot_reads: u64,
}

impl TierPolicy {
    /// Raw bytes, no tiering — the historical store behaviour.
    pub fn raw() -> Self {
        TierPolicy {
            base: BlobCodec::Raw,
            hot: None,
            hot_reads: 0,
        }
    }

    /// Everything on blocked DEFLATE (the dense all-cold tier).
    pub fn dense() -> Self {
        TierPolicy {
            base: BlobCodec::Deflate,
            hot: None,
            hot_reads: 0,
        }
    }

    /// Everything on blocked LZ4 (the all-hot fast tier).
    pub fn fast() -> Self {
        TierPolicy {
            base: BlobCodec::Lz4,
            hot: None,
            hot_reads: 0,
        }
    }

    /// DEFLATE base with LZ4 promotion for blobs read twice or more
    /// between sweeps — the default for the tiered stores.
    pub fn mixed() -> Self {
        TierPolicy {
            base: BlobCodec::Deflate,
            hot: Some(BlobCodec::Lz4),
            hot_reads: 2,
        }
    }

    /// Parse a CLI tier name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Self::raw()),
            "deflate" | "dense" => Some(Self::dense()),
            "lz4" | "fast" => Some(Self::fast()),
            "mixed" => Some(Self::mixed()),
            _ => None,
        }
    }

    /// Canonical name of a preset policy (reports, CLI echo).
    pub fn describe(self) -> &'static str {
        if self == Self::raw() {
            "raw"
        } else if self == Self::dense() {
            "deflate"
        } else if self == Self::fast() {
            "lz4"
        } else if self == Self::mixed() {
            "mixed"
        } else {
            "custom"
        }
    }
}

/// Outcome of one [`ContentStore::maintain`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierSweep {
    /// Blobs examined.
    pub scanned: usize,
    /// Blobs re-encoded onto the hot codec.
    pub promoted: usize,
    /// Blobs re-encoded back to the base codec.
    pub demoted: usize,
    /// Net change of the physical [`ContentStore::encoded_bytes`]
    /// ledger (logical bytes never move).
    pub encoded_delta: i64,
}

/// Pre-resolved `xpl-obs` handles for the CAS hot paths. Every metric
/// here is op-count-derived and lives in the deterministic section: the
/// multiset of completed operations is thread-count-invariant, so the
/// relaxed adds commute to the same totals at any parallelism. Audits
/// (`verify`, `check_integrity`) bump nothing, mirroring the
/// read-temperature rule.
pub struct CasObs {
    put_new: Arc<Counter>,
    put_dedup: Arc<Counter>,
    put_logical_bytes: Arc<Counter>,
    put_encoded_bytes: Arc<Counter>,
    get_hits: Arc<Counter>,
    get_bytes: Arc<Counter>,
    range_hits: Arc<Counter>,
    range_bytes: Arc<Counter>,
    frees: Arc<Counter>,
    freed_bytes: Arc<Counter>,
    recompress_ops: Arc<Counter>,
    maintain_scanned: Arc<Counter>,
    maintain_promoted: Arc<Counter>,
    maintain_demoted: Arc<Counter>,
    blob_len: Arc<Histogram>,
}

impl CasObs {
    /// Resolve (or re-use) the `cas.*` metric family in `reg`. Stores
    /// sharing a registry share counters — aggregation across replicas
    /// is the sum of their op multisets, still deterministic.
    pub fn new(reg: &Registry) -> Self {
        CasObs {
            put_new: reg.counter("cas.put.new", Section::Det),
            put_dedup: reg.counter("cas.put.dedup", Section::Det),
            put_logical_bytes: reg.counter("cas.put.logical_bytes", Section::Det),
            put_encoded_bytes: reg.counter("cas.put.encoded_bytes", Section::Det),
            get_hits: reg.counter("cas.get.hits", Section::Det),
            get_bytes: reg.counter("cas.get.bytes", Section::Det),
            range_hits: reg.counter("cas.range.hits", Section::Det),
            range_bytes: reg.counter("cas.range.bytes", Section::Det),
            frees: reg.counter("cas.release.frees", Section::Det),
            freed_bytes: reg.counter("cas.release.freed_bytes", Section::Det),
            recompress_ops: reg.counter("cas.recompress.ops", Section::Det),
            maintain_scanned: reg.counter("cas.maintain.scanned", Section::Det),
            maintain_promoted: reg.counter("cas.maintain.promoted", Section::Det),
            maintain_demoted: reg.counter("cas.maintain.demoted", Section::Det),
            blob_len: reg.histogram("cas.blob_len", Section::Det),
        }
    }
}

struct Blob {
    /// The in-memory representation: raw bytes, or a blocked container
    /// per `codec`.
    enc: Arc<Vec<u8>>,
    codec: BlobCodec,
    /// Logical (uncompressed) length recorded at `put` time — the unit
    /// of every simulated charge and of the `unique_bytes` ledger.
    stored_len: u64,
    /// Encoded length recorded when `enc` was produced; the cheap
    /// truncation check on the hot path.
    enc_len: u64,
    refs: u32,
    /// Reads since the last maintenance sweep (audits don't count).
    reads: AtomicU64,
}

/// The store.
pub struct ContentStore {
    device: Arc<SimDevice>,
    shards: Vec<RwLock<FxHashMap<Digest, Blob>>>,
    unique_bytes: AtomicU64,
    /// Physical bytes held across all encoded representations.
    encoded_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    tier: TierPolicy,
    /// Optional write-through durable backend (see module docs).
    durable: Option<Arc<DurableContentStore>>,
    /// Attach-once metrics handle; unattached hot paths pay one load
    /// and a branch.
    obs: ObsSlot<CasObs>,
}

/// CAS errors.
#[derive(Debug, PartialEq, Eq)]
pub enum CasError {
    NotFound(Digest),
    /// Stored bytes no longer match their digest (corruption detected).
    DigestMismatch(Digest),
}

fn shard_of(digest: &Digest) -> usize {
    (digest.0[0] as usize) & (SHARD_COUNT - 1)
}

impl ContentStore {
    pub fn new(device: Arc<SimDevice>) -> Self {
        ContentStore {
            device,
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            unique_bytes: AtomicU64::new(0),
            encoded_bytes: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            tier: TierPolicy::raw(),
            durable: None,
            obs: ObsSlot::new(),
        }
    }

    /// Attach an observability registry; the first attachment wins and
    /// later calls are no-ops. Also forwards to the durable backend, so
    /// a single attach instruments the full write-through stack.
    pub fn attach_obs(&self, reg: &Arc<Registry>) {
        let _ = self.obs.set(Arc::new(CasObs::new(reg)));
        if let Some(d) = &self.durable {
            d.attach_obs(reg);
        }
    }

    /// A store whose mutations write through to a durable
    /// log-structured backend before touching memory.
    pub fn new_durable(device: Arc<SimDevice>, durable: Arc<DurableContentStore>) -> Self {
        let mut store = Self::new(device);
        store.durable = Some(durable);
        store
    }

    /// Builder: select the codec tier for this store. Must be applied
    /// before any blob is stored (the policy governs encode-at-put).
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        debug_assert_eq!(self.blob_count(), 0, "set the tier before storing blobs");
        self.tier = tier;
        self
    }

    /// The active codec tier policy.
    pub fn tier(&self) -> TierPolicy {
        self.tier
    }

    /// The attached durable backend, if any.
    pub fn durable(&self) -> Option<&Arc<DurableContentStore>> {
        self.durable.as_ref()
    }

    /// Canonical fingerprint of the logical state (blobs, refcounts,
    /// size ledger) — comparable against
    /// `DurableContentStore::state_fingerprint` to check that a
    /// recovered on-disk store converged to this in-memory one.
    pub fn state_fingerprint(&self) -> String {
        cas_state_fingerprint(self.snapshot_refs(), self.unique_bytes())
    }

    fn shard(&self, digest: &Digest) -> &RwLock<FxHashMap<Digest, Blob>> {
        &self.shards[shard_of(digest)]
    }

    /// Store bytes; returns `(digest, was_new)`. Dedup hits only charge a
    /// metadata lookup.
    pub fn put(&self, bytes: &[u8]) -> (Digest, bool) {
        let digest = Sha256::digest(bytes);
        (digest, self.put_with_digest(digest, bytes))
    }

    /// Store with a precomputed digest (hot path for generated content).
    pub fn put_with_digest(&self, digest: Digest, bytes: &[u8]) -> bool {
        let mut shard = self.shard(&digest).write().unwrap();
        if let Some(d) = &self.durable {
            let was_new = d
                .put_with_digest(digest, bytes)
                .expect("durable write-through: put");
            debug_assert_eq!(
                was_new,
                !shard.contains_key(&digest),
                "durable backend diverged on put"
            );
        }
        if let Some(b) = shard.get_mut(&digest) {
            b.refs += 1;
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.device.charge_db_read(1); // index hit
            if let Some(o) = self.obs.get() {
                o.put_dedup.inc();
            }
            return false;
        }
        // All simulated charges are in logical bytes — the codec tier
        // changes the memory representation, never the ledger.
        self.device.charge_create(bytes.len() as u64);
        self.device.charge_write(bytes.len() as u64);
        self.unique_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let enc = self.tier.base.encode(bytes);
        self.encoded_bytes
            .fetch_add(enc.len() as u64, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.put_new.inc();
            o.put_logical_bytes.add(bytes.len() as u64);
            o.put_encoded_bytes.add(enc.len() as u64);
            o.blob_len.record(bytes.len() as u64);
        }
        shard.insert(
            digest,
            Blob {
                enc_len: enc.len() as u64,
                enc: Arc::new(enc),
                codec: self.tier.base,
                stored_len: bytes.len() as u64,
                refs: 1,
                reads: AtomicU64::new(0),
            },
        );
        true
    }

    /// Decode a blob's in-memory representation back to logical bytes.
    /// Container-level failures (CRC, truncation) surface as
    /// `DigestMismatch` — the representation no longer matches what the
    /// digest promised.
    fn decode_blob(digest: &Digest, b: &Blob) -> Result<Arc<Vec<u8>>, CasError> {
        if b.enc.len() as u64 != b.enc_len {
            return Err(CasError::DigestMismatch(*digest));
        }
        match b.codec {
            BlobCodec::Raw => Ok(Arc::clone(&b.enc)),
            BlobCodec::Deflate | BlobCodec::Lz4 => {
                let raw = xpl_compress::blocked_decompress(&b.enc)
                    .map_err(|_| CasError::DigestMismatch(*digest))?;
                if raw.len() as u64 != b.stored_len {
                    return Err(CasError::DigestMismatch(*digest));
                }
                Ok(Arc::new(raw))
            }
        }
    }

    /// Record a reference to existing content without providing bytes
    /// (used when the caller knows only the digest+size and the blob is
    /// already present).
    pub fn add_ref(&self, digest: Digest) -> Result<(), CasError> {
        let mut shard = self.shard(&digest).write().unwrap();
        match shard.get_mut(&digest) {
            Some(b) => {
                if let Some(d) = &self.durable {
                    d.add_ref(digest).expect("durable write-through: add_ref");
                }
                b.refs += 1;
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                self.device.charge_db_read(1);
                Ok(())
            }
            None => Err(CasError::NotFound(digest)),
        }
    }

    pub fn contains(&self, digest: &Digest) -> bool {
        self.shard(digest).read().unwrap().contains_key(digest)
    }

    /// Read a blob back (charges open + read). The hot path only checks
    /// the cheap length invariant; bit-level verification is the opt-in
    /// [`ContentStore::verify`] / deep [`ContentStore::check_integrity`].
    pub fn get(&self, digest: &Digest) -> Result<Arc<Vec<u8>>, CasError> {
        let shard = self.shard(digest).read().unwrap();
        let b = shard.get(digest).ok_or(CasError::NotFound(*digest))?;
        self.device.charge_open(b.stored_len);
        self.device.charge_read(b.stored_len);
        b.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.get_hits.inc();
            o.get_bytes.add(b.stored_len);
        }
        Self::decode_blob(digest, b)
    }

    /// Read `[start, start+len)` of a blob, clamped like a slice (a
    /// start at or past the end yields empty). Charges open + only the
    /// bytes actually returned — the CAS leg of the range-read path: a
    /// semantics-aware store that knows which blob bytes a disk range
    /// needs pays for those bytes, not the whole blob.
    pub fn get_range(&self, digest: &Digest, start: u64, len: u64) -> Result<Vec<u8>, CasError> {
        let shard = self.shard(digest).read().unwrap();
        let b = shard.get(digest).ok_or(CasError::NotFound(*digest))?;
        if b.enc.len() as u64 != b.enc_len {
            return Err(CasError::DigestMismatch(*digest));
        }
        // Charges follow the logical span regardless of codec, so range
        // costs are codec-invariant too.
        let end = start.saturating_add(len).min(b.stored_len);
        let start = start.min(end);
        self.device.charge_open(end - start);
        self.device.charge_read(end - start);
        b.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.range_hits.inc();
            o.range_bytes.add(end - start);
        }
        match b.codec {
            BlobCodec::Raw => Ok(b.enc[start as usize..end as usize].to_vec()),
            BlobCodec::Deflate | BlobCodec::Lz4 => {
                xpl_compress::read_range(&b.enc, start, end - start)
                    .map_err(|_| CasError::DigestMismatch(*digest))
            }
        }
    }

    /// Full integrity check of one blob: recompute the SHA-256 and compare
    /// to the key (charges nothing — an audit, not a simulated read).
    pub fn verify(&self, digest: &Digest) -> Result<(), CasError> {
        let shard = self.shard(digest).read().unwrap();
        let b = shard.get(digest).ok_or(CasError::NotFound(*digest))?;
        let raw = Self::decode_blob(digest, b)?;
        if Sha256::digest(&raw) != *digest {
            return Err(CasError::DigestMismatch(*digest));
        }
        Ok(())
    }

    /// Logical size of a stored blob without reading it.
    pub fn size_of(&self, digest: &Digest) -> Option<u64> {
        self.shard(digest)
            .read()
            .unwrap()
            .get(digest)
            .map(|b| b.stored_len)
    }

    /// Current in-memory codec of a blob.
    pub fn codec_of(&self, digest: &Digest) -> Option<BlobCodec> {
        self.shard(digest)
            .read()
            .unwrap()
            .get(digest)
            .map(|b| b.codec)
    }

    /// Reads since the last maintenance sweep (introspection).
    pub fn reads_of(&self, digest: &Digest) -> Option<u64> {
        self.shard(digest)
            .read()
            .unwrap()
            .get(digest)
            .map(|b| b.reads.load(Ordering::Relaxed))
    }

    /// Drop one reference; frees the blob at zero. Returns freed bytes.
    pub fn release(&self, digest: &Digest) -> Result<u64, CasError> {
        let mut shard = self.shard(digest).write().unwrap();
        let b = shard.get_mut(digest).ok_or(CasError::NotFound(*digest))?;
        if let Some(d) = &self.durable {
            let freed = d.release(digest).expect("durable write-through: release");
            debug_assert_eq!(
                freed,
                if b.refs == 1 { b.stored_len } else { 0 },
                "durable backend diverged on release"
            );
        }
        b.refs -= 1;
        if b.refs == 0 {
            let freed = b.stored_len;
            let enc_freed = b.enc_len;
            shard.remove(digest);
            self.unique_bytes.fetch_sub(freed, Ordering::Relaxed);
            self.encoded_bytes.fetch_sub(enc_freed, Ordering::Relaxed);
            self.device.charge_db_write(1);
            if let Some(o) = self.obs.get() {
                o.frees.inc();
                o.freed_bytes.add(freed);
            }
            return Ok(freed);
        }
        Ok(0)
    }

    /// Unique stored payload bytes, logical / uncompressed (lock-free
    /// read). Codec-invariant: the Figure-3 ledger and every fingerprint
    /// are built on this, never on the encoded representation.
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes.load(Ordering::Relaxed)
    }

    /// Physical bytes held across all encoded representations (equals
    /// `unique_bytes` for a raw-tier store).
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes.load(Ordering::Relaxed)
    }

    /// Reference count of a blob (introspection; charges nothing).
    pub fn refs_of(&self, digest: &Digest) -> Option<u32> {
        self.shard(digest)
            .read()
            .unwrap()
            .get(digest)
            .map(|b| b.refs)
    }

    /// Snapshot `(digest, refs, len)` of every stored blob without
    /// charging the device — the audit path of the churn oracle. Shards
    /// are read one at a time, so concurrent operations on other shards
    /// proceed; callers wanting a consistent view quiesce first.
    pub fn snapshot_refs(&self) -> Vec<(Digest, u32, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            out.extend(shard.iter().map(|(d, b)| (*d, b.refs, b.stored_len)));
        }
        out
    }

    /// Audit refcounts against an externally computed expectation (digest
    /// → live references). Reports orphans (stored but unreferenced),
    /// leaks (refcount above the live count), and missing blobs.
    pub fn audit_refs(&self, expected: &FxHashMap<Digest, u32>) -> Result<(), String> {
        for (digest, refs, _) in self.snapshot_refs() {
            match expected.get(&digest) {
                None => return Err(format!("orphan blob {digest} with {refs} refs")),
                Some(&want) if want != refs => {
                    return Err(format!("blob {digest}: {refs} refs, expected {want}"))
                }
                _ => {}
            }
        }
        for (digest, want) in expected {
            if !self.contains(digest) {
                return Err(format!("missing blob {digest} ({want} live refs)"));
            }
        }
        Ok(())
    }

    /// Structural self-audit: per-blob length coherence and the
    /// `unique_bytes` ledger always; with `deep`, additionally recompute
    /// every blob's digest (the opt-in full corruption sweep).
    pub fn check_integrity(&self, deep: bool) -> Result<(), String> {
        let mut summed = 0u64;
        let mut summed_enc = 0u64;
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            for (digest, b) in shard.iter() {
                if b.enc.len() as u64 != b.enc_len {
                    return Err(format!(
                        "blob {digest}: {} encoded bytes held, {} recorded",
                        b.enc.len(),
                        b.enc_len
                    ));
                }
                if deep {
                    match Self::decode_blob(digest, b) {
                        Ok(raw) if Sha256::digest(&raw) == *digest => {}
                        _ => {
                            return Err(format!(
                                "blob {digest}: content no longer matches digest \
                                 ({} codec)",
                                b.codec.name()
                            ))
                        }
                    }
                }
                summed += b.stored_len;
                summed_enc += b.enc_len;
            }
        }
        let ledger = self.unique_bytes();
        if summed != ledger {
            return Err(format!(
                "unique_bytes ledger {ledger} vs {summed} bytes stored"
            ));
        }
        let enc_ledger = self.encoded_bytes();
        if summed_enc != enc_ledger {
            return Err(format!(
                "encoded_bytes ledger {enc_ledger} vs {summed_enc} bytes held"
            ));
        }
        Ok(())
    }

    /// Re-encode one blob's in-memory representation with `codec`,
    /// keeping the uncompressed digest pinned byte-identical: the blob
    /// is decoded, its SHA-256 recomputed and compared against the key,
    /// and only then re-encoded. Returns `(old, new)` encoded lengths.
    /// Refcounts, `unique_bytes`, and the durable backend (which always
    /// holds raw bytes) are untouched.
    pub fn recompress(&self, digest: &Digest, codec: BlobCodec) -> Result<(u64, u64), CasError> {
        let mut shard = self.shard(digest).write().unwrap();
        let b = shard.get_mut(digest).ok_or(CasError::NotFound(*digest))?;
        self.device.charge_db_write(1);
        if let Some(o) = self.obs.get() {
            o.recompress_ops.inc();
        }
        self.recompress_blob(digest, b, codec)
    }

    /// The locked inner half of [`ContentStore::recompress`]; shared
    /// with the maintenance sweep.
    fn recompress_blob(
        &self,
        digest: &Digest,
        b: &mut Blob,
        codec: BlobCodec,
    ) -> Result<(u64, u64), CasError> {
        let old = b.enc_len;
        if b.codec == codec {
            return Ok((old, old));
        }
        let raw = Self::decode_blob(digest, b)?;
        if Sha256::digest(&raw) != *digest {
            return Err(CasError::DigestMismatch(*digest));
        }
        let enc = codec.encode(&raw);
        let new = enc.len() as u64;
        b.enc = Arc::new(enc);
        b.enc_len = new;
        b.codec = codec;
        self.encoded_bytes.fetch_sub(old, Ordering::Relaxed);
        self.encoded_bytes.fetch_add(new, Ordering::Relaxed);
        Ok((old, new))
    }

    /// Temperature-driven maintenance: re-encode every blob whose read
    /// counter crossed the policy threshold onto the hot codec, demote
    /// cooled blobs back to the base codec, then halve all counters so
    /// temperature decays. A raw-tier store is a no-op. The sweep's
    /// outcome depends only on the multiset of completed reads, so it is
    /// deterministic at any thread count.
    pub fn maintain(&self) -> TierSweep {
        let mut sweep = TierSweep::default();
        if self.tier.base == BlobCodec::Raw {
            return sweep;
        }
        for shard in &self.shards {
            let mut shard = shard.write().unwrap();
            for (digest, b) in shard.iter_mut() {
                sweep.scanned += 1;
                let reads = b.reads.load(Ordering::Relaxed);
                let target = match self.tier.hot {
                    Some(hot) if reads >= self.tier.hot_reads => hot,
                    _ => self.tier.base,
                };
                if target != b.codec {
                    // A decode failure here means injected corruption;
                    // leave the blob for the audits to report.
                    if let Ok((old, new)) = self.recompress_blob(digest, b, target) {
                        if target == self.tier.base {
                            sweep.demoted += 1;
                        } else {
                            sweep.promoted += 1;
                        }
                        sweep.encoded_delta += new as i64 - old as i64;
                        self.device.charge_db_write(1);
                    }
                }
                b.reads.store(reads / 2, Ordering::Relaxed);
            }
        }
        if let Some(o) = self.obs.get() {
            o.maintain_scanned.add(sweep.scanned as u64);
            o.maintain_promoted.add(sweep.promoted as u64);
            o.maintain_demoted.add(sweep.demoted as u64);
        }
        sweep
    }

    pub fn blob_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Test hook: truncate a stored blob's representation in place
    /// (failure injection the cheap length check catches).
    pub fn corrupt_for_test(&self, digest: &Digest) -> bool {
        let mut shard = self.shard(digest).write().unwrap();
        if let Some(b) = shard.get_mut(digest) {
            if !b.enc.is_empty() {
                Arc::make_mut(&mut b.enc).pop();
                return true;
            }
        }
        false
    }

    /// Test hook: flip a bit without changing the length. On a raw blob
    /// only the deep digest check catches this; on an encoded blob the
    /// container CRC may surface it on the read path too.
    pub fn corrupt_bitflip_for_test(&self, digest: &Digest) -> bool {
        let mut shard = self.shard(digest).write().unwrap();
        if let Some(b) = shard.get_mut(digest) {
            if let Some(x) = Arc::make_mut(&mut b.enc).first_mut() {
                *x ^= 0xFF;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpl_simio::SimEnv;

    fn store() -> (SimEnv, ContentStore) {
        let env = SimEnv::testbed();
        let cas = ContentStore::new(Arc::clone(&env.repo));
        (env, cas)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_e, cas) = store();
        let (d, new) = cas.put(b"hello");
        assert!(new);
        assert_eq!(cas.get(&d).unwrap().as_slice(), b"hello");
        assert_eq!(cas.unique_bytes(), 5);
    }

    #[test]
    fn duplicate_put_dedups() {
        let (env, cas) = store();
        cas.put(b"same-content");
        let before = env.repo.stats().bytes_written;
        let (_, new) = cas.put(b"same-content");
        assert!(!new);
        assert_eq!(
            env.repo.stats().bytes_written,
            before,
            "no bytes written on hit"
        );
        assert_eq!(cas.unique_bytes(), 12);
        assert_eq!(cas.dedup_hits(), 1);
    }

    #[test]
    fn release_refcounts() {
        let (_e, cas) = store();
        let (d, _) = cas.put(b"refcounted");
        cas.put(b"refcounted"); // refs = 2
        assert_eq!(cas.release(&d).unwrap(), 0);
        assert_eq!(cas.release(&d).unwrap(), 10);
        assert!(!cas.contains(&d));
        assert_eq!(cas.unique_bytes(), 0);
        assert_eq!(cas.release(&d), Err(CasError::NotFound(d)));
    }

    #[test]
    fn truncation_detected_on_read() {
        let (_e, cas) = store();
        let (d, _) = cas.put(b"important-bytes");
        assert!(cas.corrupt_for_test(&d));
        assert_eq!(cas.get(&d).err(), Some(CasError::DigestMismatch(d)));
    }

    #[test]
    fn bitflip_caught_only_by_deep_check() {
        let (_e, cas) = store();
        let (d, _) = cas.put(b"important-bytes");
        assert!(cas.corrupt_bitflip_for_test(&d));
        // Same length: the cheap hot-path check passes…
        assert!(cas.get(&d).is_ok());
        assert!(cas.check_integrity(false).is_ok());
        // …the full digest recompute does not.
        assert_eq!(cas.verify(&d), Err(CasError::DigestMismatch(d)));
        assert!(cas.check_integrity(true).is_err());
    }

    #[test]
    fn get_range_slices_and_charges_only_the_span() {
        let (env, cas) = store();
        let payload: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (i as u8).to_le_bytes())
            .collect();
        let (d, _) = cas.put(&payload);
        let before = env.repo.stats().bytes_read;
        let got = cas.get_range(&d, 1000, 64).unwrap();
        assert_eq!(got, &payload[1000..1064]);
        assert_eq!(env.repo.stats().bytes_read - before, 64);
        // Clamps like a slice.
        assert_eq!(cas.get_range(&d, 9990, 100).unwrap(), &payload[9990..]);
        assert_eq!(cas.get_range(&d, 50_000, 10).unwrap(), b"");
        let missing = Sha256::digest(b"nope");
        assert_eq!(
            cas.get_range(&missing, 0, 1),
            Err(CasError::NotFound(missing))
        );
    }

    #[test]
    fn verify_missing_blob_is_not_found() {
        let (_e, cas) = store();
        let missing = Sha256::digest(b"nope");
        assert_eq!(cas.verify(&missing), Err(CasError::NotFound(missing)));
    }

    #[test]
    fn add_ref_requires_existing() {
        let (_e, cas) = store();
        let missing = Sha256::digest(b"nope");
        assert!(matches!(cas.add_ref(missing), Err(CasError::NotFound(_))));
        let (d, _) = cas.put(b"yes");
        cas.add_ref(d).unwrap();
        assert_eq!(cas.release(&d).unwrap(), 0); // still one ref left
    }

    #[test]
    fn charges_time_for_stores_and_reads() {
        let (env, cas) = store();
        let t0 = env.clock.now();
        let (d, _) = cas.put(&vec![7u8; 10_000]);
        assert!(env.clock.since(t0).as_nanos() > 0);
        let t1 = env.clock.now();
        cas.get(&d).unwrap();
        assert!(env.clock.since(t1).as_nanos() > 0);
    }

    #[test]
    fn size_of_reports_without_charges() {
        let (env, cas) = store();
        let (d, _) = cas.put(b"sized");
        let reads_before = env.repo.stats().bytes_read;
        assert_eq!(cas.size_of(&d), Some(5));
        assert_eq!(env.repo.stats().bytes_read, reads_before);
    }

    #[test]
    fn blobs_spread_across_shards() {
        let (_e, cas) = store();
        for i in 0..256u32 {
            cas.put(&i.to_le_bytes());
        }
        assert_eq!(cas.blob_count(), 256);
        let populated = cas
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
        assert!(cas.check_integrity(true).is_ok());
    }

    #[test]
    fn durable_write_through_tracks_every_mutation() {
        use xpl_persist::{DurableConfig, DurableContentStore, MemFs};
        let env = SimEnv::testbed();
        let vfs = Arc::new(MemFs::new());
        let (durable, _) =
            DurableContentStore::open(vfs.clone(), DurableConfig::named("cas")).unwrap();
        let durable = Arc::new(durable);
        let cas = ContentStore::new_durable(Arc::clone(&env.repo), Arc::clone(&durable));

        let (d1, _) = cas.put(b"alpha");
        let (d2, _) = cas.put(b"beta");
        cas.put(b"alpha"); // dedup hit → durable add_ref
        cas.add_ref(d2).unwrap();
        cas.release(&d2).unwrap();
        cas.release(&d2).unwrap(); // beta dies on both sides
        assert_eq!(cas.state_fingerprint(), durable.state_fingerprint());
        assert_eq!(durable.refs_of(&d1), Some(2));
        assert!(!durable.contains(&d2));

        // Reopening from the medium converges to the same state.
        let (reopened, report) =
            DurableContentStore::open(vfs, DurableConfig::named("cas")).unwrap();
        assert_eq!(report.wal_records_replayed, 6);
        assert_eq!(reopened.state_fingerprint(), cas.state_fingerprint());
        assert_eq!(reopened.get(&d1).unwrap(), b"alpha");
    }

    fn tiered(policy: TierPolicy) -> (SimEnv, ContentStore) {
        let env = SimEnv::testbed();
        let cas = ContentStore::new(Arc::clone(&env.repo)).with_tier(policy);
        (env, cas)
    }

    fn payload(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = xpl_util::SplitMix64::new(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match rng.next_u64() % 3 {
                0 => out.extend_from_slice(b"/usr/share/doc/"),
                1 => out.extend_from_slice(&rng.next_u64().to_le_bytes()),
                _ => out.extend_from_slice(&[0u8; 13]),
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn tiered_store_roundtrips_and_ranges_like_raw() {
        let data = payload(1, 200_000);
        for policy in [TierPolicy::dense(), TierPolicy::fast(), TierPolicy::mixed()] {
            let (_e, cas) = tiered(policy);
            let (d, new) = cas.put(&data);
            assert!(new);
            assert_eq!(cas.get(&d).unwrap().as_slice(), data.as_slice());
            assert_eq!(cas.get_range(&d, 1000, 64).unwrap(), &data[1000..1064]);
            assert_eq!(
                cas.get_range(&d, data.len() as u64 - 5, 100).unwrap(),
                &data[data.len() - 5..]
            );
            assert_eq!(cas.get_range(&d, u64::MAX - 3, 100).unwrap(), b"");
            assert_eq!(cas.size_of(&d), Some(data.len() as u64));
            assert_eq!(cas.codec_of(&d), Some(policy.base));
            assert!(cas.check_integrity(true).is_ok());
            cas.verify(&d).unwrap();
        }
    }

    #[test]
    fn ledgers_and_charges_are_codec_invariant() {
        // The core tier invariant: the simulated ledger (unique_bytes,
        // device charges, fingerprints) is identical across codecs; only
        // encoded_bytes differs.
        let data = payload(2, 150_000);
        let mut fingerprints = Vec::new();
        let mut charges = Vec::new();
        for policy in [
            TierPolicy::raw(),
            TierPolicy::dense(),
            TierPolicy::fast(),
            TierPolicy::mixed(),
        ] {
            let (env, cas) = tiered(policy);
            let (d, _) = cas.put(&data);
            cas.get(&d).unwrap();
            cas.get_range(&d, 77, 4096).unwrap();
            assert_eq!(cas.unique_bytes(), data.len() as u64);
            fingerprints.push(cas.state_fingerprint());
            let s = env.repo.stats();
            charges.push((s.bytes_written, s.bytes_read));
            if policy.base == BlobCodec::Raw {
                assert_eq!(cas.encoded_bytes(), data.len() as u64);
            } else {
                assert!(cas.encoded_bytes() < data.len() as u64);
            }
        }
        assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
        assert!(charges.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn recompress_pins_the_digest_and_updates_the_physical_ledger() {
        let data = payload(3, 120_000);
        let (_e, cas) = tiered(TierPolicy::dense());
        let (d, _) = cas.put(&data);
        let enc_before = cas.encoded_bytes();
        let (old, new) = cas.recompress(&d, BlobCodec::Lz4).unwrap();
        assert_eq!(old, enc_before);
        assert_eq!(cas.encoded_bytes(), new);
        assert_eq!(cas.codec_of(&d), Some(BlobCodec::Lz4));
        // Logical state untouched: same digest, same bytes, same ledger.
        assert_eq!(cas.get(&d).unwrap().as_slice(), data.as_slice());
        assert_eq!(cas.unique_bytes(), data.len() as u64);
        assert!(cas.check_integrity(true).is_ok());
        // Idempotent on a same-codec call.
        assert_eq!(cas.recompress(&d, BlobCodec::Lz4).unwrap(), (new, new));
        let missing = Sha256::digest(b"nope");
        assert_eq!(
            cas.recompress(&missing, BlobCodec::Lz4),
            Err(CasError::NotFound(missing))
        );
    }

    #[test]
    fn maintain_promotes_hot_and_demotes_cold() {
        let (_e, cas) = tiered(TierPolicy::mixed());
        let hot = payload(4, 60_000);
        let cold = payload(5, 60_000);
        let (dh, _) = cas.put(&hot);
        let (dc, _) = cas.put(&cold);
        cas.get(&dh).unwrap();
        cas.get(&dh).unwrap();
        // Audits must not heat blobs up.
        cas.verify(&dc).unwrap();
        cas.check_integrity(true).unwrap();
        assert_eq!(cas.reads_of(&dc), Some(0));

        let sweep = cas.maintain();
        assert_eq!((sweep.scanned, sweep.promoted, sweep.demoted), (2, 1, 0));
        assert_eq!(cas.codec_of(&dh), Some(BlobCodec::Lz4));
        assert_eq!(cas.codec_of(&dc), Some(BlobCodec::Deflate));
        // Counters decay: 2 reads halve to 1, below the threshold, so a
        // quiet interval demotes the blob back to the dense tier.
        assert_eq!(cas.reads_of(&dh), Some(1));
        let sweep = cas.maintain();
        assert_eq!((sweep.promoted, sweep.demoted), (0, 1));
        assert_eq!(cas.codec_of(&dh), Some(BlobCodec::Deflate));
        assert!(cas.check_integrity(true).is_ok());
    }

    #[test]
    fn maintain_is_a_noop_for_raw_stores() {
        let (_e, cas) = store();
        cas.put(b"anything");
        assert_eq!(cas.maintain(), TierSweep::default());
    }

    #[test]
    fn tiered_corruption_is_caught_on_the_read_path() {
        // A bitflip in an encoded representation breaks the container
        // CRC (or magic), so even the cheap read path surfaces it.
        let data = payload(6, 50_000);
        let (_e, cas) = tiered(TierPolicy::dense());
        let (d, _) = cas.put(&data);
        assert!(cas.corrupt_bitflip_for_test(&d));
        assert_eq!(cas.get(&d).err(), Some(CasError::DigestMismatch(d)));
        assert!(cas.check_integrity(true).is_err());
    }

    #[test]
    fn tier_policy_parse_and_describe() {
        for (name, policy) in [
            ("deflate", TierPolicy::dense()),
            ("lz4", TierPolicy::fast()),
            ("mixed", TierPolicy::mixed()),
            ("raw", TierPolicy::raw()),
        ] {
            assert_eq!(TierPolicy::parse(name), Some(policy));
            assert_eq!(policy.describe(), name);
        }
        assert_eq!(TierPolicy::parse("dense"), Some(TierPolicy::dense()));
        assert_eq!(TierPolicy::parse("fast"), Some(TierPolicy::fast()));
        assert_eq!(TierPolicy::parse("zstd"), None);
        assert_eq!(TierPolicy::parse(""), None);
    }

    #[test]
    fn durable_fingerprint_converges_for_tiered_stores() {
        // The durable backend holds raw bytes regardless of tier;
        // recompression never writes through, and the convergence
        // fingerprint stays equal across representation changes.
        use xpl_persist::{DurableConfig, DurableContentStore, MemFs};
        let env = SimEnv::testbed();
        let vfs = Arc::new(MemFs::new());
        let (durable, _) =
            DurableContentStore::open(vfs.clone(), DurableConfig::named("cas")).unwrap();
        let cas = ContentStore::new_durable(Arc::clone(&env.repo), Arc::new(durable))
            .with_tier(TierPolicy::mixed());
        let data = payload(7, 80_000);
        let (d, _) = cas.put(&data);
        cas.get(&d).unwrap();
        cas.get(&d).unwrap();
        cas.maintain();
        assert_eq!(cas.codec_of(&d), Some(BlobCodec::Lz4));
        let (reopened, _) = DurableContentStore::open(vfs, DurableConfig::named("cas")).unwrap();
        assert_eq!(reopened.state_fingerprint(), cas.state_fingerprint());
        assert_eq!(reopened.get(&d).unwrap(), data);
    }

    #[test]
    fn shared_access_from_threads() {
        let (_e, cas) = store();
        let payloads: Vec<Vec<u8>> = (0..64u32).map(|i| i.to_le_bytes().to_vec()).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for p in &payloads {
                        cas.put(p);
                    }
                });
            }
        });
        assert_eq!(cas.blob_count(), 64);
        for p in &payloads {
            assert_eq!(cas.refs_of(&Sha256::digest(p)), Some(4));
        }
        assert!(cas.check_integrity(true).is_ok());
    }
}
