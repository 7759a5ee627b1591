//! Timing wrappers at the trait seams the program already calls
//! through: [`ImageStore`], [`Vfs`] and the client [`Transport`]. They
//! add spans and counts and change nothing else; the program's code is
//! untouched.

use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xpl_guestfs::Vmi;
use xpl_net::{NetError, Transport};
use xpl_persist::{PersistError, Vfs};
use xpl_pkg::Catalog;
use xpl_store::{
    DeleteReport, ImageStore, MaintainReport, PublishReport, RetrieveReport, RetrieveRequest,
    StoreError,
};

/// Work counts read off the reports that pass through [`TimedStore`].
#[derive(Default)]
pub struct CoreCounts {
    pub packages_exported: AtomicU64,
    pub bytes_added: AtomicU64,
    pub retrieve_bytes_read: AtomicU64,
    pub range_bytes_read: AtomicU64,
    pub range_len: AtomicU64,
}

fn add(a: &AtomicU64, n: u64) {
    a.fetch_add(n, Ordering::Relaxed);
}

/// An [`ImageStore`] that opens a `core.*` span around every call and
/// counts the work its reports name.
pub struct TimedStore {
    pub inner: Arc<dyn ImageStore>,
    pub tracer: Arc<Tracer>,
    pub counts: Arc<CoreCounts>,
}

impl ImageStore for TimedStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn publish(&self, catalog: &Catalog, vmi: &Vmi) -> Result<PublishReport, StoreError> {
        let _s = self.tracer.span("core.publish", None);
        let r = self.inner.publish(catalog, vmi);
        if let Ok(report) = &r {
            add(&self.counts.packages_exported, report.units_stored as u64);
            add(&self.counts.bytes_added, report.bytes_added);
        }
        r
    }

    fn retrieve(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
    ) -> Result<(Vmi, RetrieveReport), StoreError> {
        let _s = self.tracer.span("core.retrieve", None);
        let r = self.inner.retrieve(catalog, request);
        if let Ok((_, report)) = &r {
            add(&self.counts.retrieve_bytes_read, report.bytes_read);
        }
        r
    }

    fn retrieve_range(
        &self,
        catalog: &Catalog,
        request: &RetrieveRequest,
        start: u64,
        len: u64,
    ) -> Result<(Vec<u8>, RetrieveReport), StoreError> {
        let _s = self.tracer.span("core.retrieve_range", None);
        let r = self.inner.retrieve_range(catalog, request, start, len);
        if let Ok((_, report)) = &r {
            add(&self.counts.range_bytes_read, report.bytes_read);
            add(&self.counts.range_len, len);
        }
        r
    }

    fn delete(&self, name: &str) -> Result<DeleteReport, StoreError> {
        let _s = self.tracer.span("core.delete", None);
        self.inner.delete(name)
    }

    fn repo_bytes(&self) -> u64 {
        self.inner.repo_bytes()
    }

    fn maintain(&self) -> MaintainReport {
        let _s = self.tracer.span("core.maintain", None);
        self.inner.maintain()
    }

    fn cas_fingerprints(&self) -> Vec<(String, String)> {
        self.inner.cas_fingerprints()
    }

    fn check_integrity_deep(&self) -> Result<(), String> {
        self.inner.check_integrity_deep()
    }

    fn attach_obs(&self, reg: &Arc<xpl_obs::Registry>) {
        self.inner.attach_obs(reg)
    }
}

/// Call counts and busy time of the durable medium.
#[derive(Default)]
pub struct VfsStats {
    pub append_calls: AtomicU64,
    pub append_bytes: AtomicU64,
    pub append_ns: AtomicU64,
    pub sync_calls: AtomicU64,
    pub sync_ns: AtomicU64,
    pub write_atomic_calls: AtomicU64,
    /// Every sync's wall, ms (for its median).
    pub sync_ms: Mutex<Vec<f64>>,
}

/// A [`Vfs`] that times and counts appends, syncs and atomic writes on
/// the medium underneath, each as a `persist.*` span.
pub struct TimingVfs {
    pub inner: Arc<dyn Vfs>,
    pub tracer: Arc<Tracer>,
    pub stats: Arc<VfsStats>,
}

impl Vfs for TimingVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>, PersistError> {
        self.inner.read(name)
    }

    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PersistError> {
        let _s = self.tracer.span("persist.read_at", None);
        self.inner.read_at(name, offset, len)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let _s = self.tracer.span("persist.append", None);
        add(&self.stats.append_calls, 1);
        add(&self.stats.append_bytes, bytes.len() as u64);
        let t = Instant::now();
        let out = self.inner.append(name, bytes);
        add(&self.stats.append_ns, t.elapsed().as_nanos() as u64);
        out
    }

    fn sync(&self, name: &str) -> Result<(), PersistError> {
        let _s = self.tracer.span("persist.sync", None);
        add(&self.stats.sync_calls, 1);
        let t = Instant::now();
        let out = self.inner.sync(name);
        let ns = t.elapsed().as_nanos() as u64;
        add(&self.stats.sync_ns, ns);
        self.stats
            .sync_ms
            .lock()
            .expect("sync samples poisoned")
            .push(ns as f64 / 1e6);
        out
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let _s = self.tracer.span("persist.write_atomic", None);
        add(&self.stats.write_atomic_calls, 1);
        self.inner.write_atomic(name, bytes)
    }

    fn truncate(&self, name: &str) -> Result<(), PersistError> {
        self.inner.truncate(name)
    }

    fn truncate_to(&self, name: &str, len: u64) -> Result<(), PersistError> {
        self.inner.truncate_to(name, len)
    }

    fn remove(&self, name: &str) -> Result<(), PersistError> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn file_len(&self, name: &str) -> Result<u64, PersistError> {
        self.inner.file_len(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// Bytes a client pool moved over its transports.
#[derive(Default)]
pub struct WireBytes {
    pub sent: AtomicU64,
    pub received: AtomicU64,
}

/// A client [`Transport`] that counts the bytes it carries.
pub struct CountingTransport {
    pub inner: Box<dyn Transport>,
    pub bytes: Arc<WireBytes>,
}

impl Transport for CountingTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        add(&self.bytes.sent, bytes.len() as u64);
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        let n = self.inner.recv(buf)?;
        add(&self.bytes.received, n as u64);
        Ok(n)
    }

    fn set_read_deadline(&mut self, d: Option<std::time::Duration>) -> Result<(), NetError> {
        self.inner.set_read_deadline(d)
    }

    fn set_write_deadline(&mut self, d: Option<std::time::Duration>) -> Result<(), NetError> {
        self.inner.set_write_deadline(d)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}
