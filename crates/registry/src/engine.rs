//! The virtual-time registry engine: a discrete-event simulation of
//! admission, deficit-round-robin dispatch, coalescing, and completion.
//!
//! Determinism contract: given the same requests, model, and config,
//! every field of [`RegistryOutcome`] — including the rendered request
//! log and its SHA-256 fingerprint — is byte-identical. The engine is
//! sequential; nothing here depends on the thread pool, the host, or
//! wall time. Ties are broken explicitly: completions at time `t` are
//! processed before arrivals at `t`, simultaneous completions order by
//! dispatch sequence number, simultaneous arrivals by request index.

use crate::{RequestKey, ServeRequest, ServiceModel};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use xpl_obs::{Counter, Gauge, Histogram, Registry, Section};
use xpl_util::Sha256;

/// Registry policy knobs.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Simulated service executors (concurrent store hits).
    pub servers: usize,
    /// Per-tenant queue bound; arrivals beyond it are rejected.
    pub queue_depth: usize,
    /// Deficit round-robin quantum, in virtual ns of service time
    /// granted per scheduler visit.
    pub quantum_ns: u64,
    /// Coalesce concurrent identical retrievals into one store hit.
    pub coalesce: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            servers: 4,
            queue_depth: 64,
            quantum_ns: 5_000_000,
            coalesce: true,
        }
    }
}

/// How one request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Dispatched (or fanned out) and completed.
    Served {
        /// When its store hit started (for a coalesced waiter: the
        /// primary's start).
        start_ns: u64,
        finish_ns: u64,
        /// `true` if this request rode another request's store hit.
        coalesced: bool,
    },
    /// Rejected at admission: the tenant's queue was full.
    Overload {
        /// Queue depth observed at rejection (== configured bound).
        depth: usize,
    },
}

/// A request joined with its outcome, in submission order.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    pub tenant: u32,
    pub arrival_ns: u64,
    pub key: RequestKey,
    pub outcome: Outcome,
}

/// Per-tenant accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub served: u64,
    /// Of `served`, how many rode a coalesced store hit.
    pub coalesced: u64,
    /// Virtual store-hit time charged to this tenant's primaries.
    pub service_ns: u64,
    /// Sum of sojourn times (finish − arrival) over served requests.
    pub sojourn_ns: u64,
}

/// Everything the engine produced: per-request records, per-tenant
/// stats, aggregate counters, and the store-hit schedule to replay
/// against a real store.
#[derive(Clone, Debug)]
pub struct RegistryOutcome {
    pub records: Vec<RequestRecord>,
    pub tenants: Vec<TenantStats>,
    pub served: u64,
    pub rejected: u64,
    /// Served requests that rode someone else's store hit.
    pub coalesced_hits: u64,
    /// Actual store hits (primaries) — what a real backend executes.
    pub store_hits: u64,
    /// Request indices of the primaries, in dispatch order.
    pub store_hit_indices: Vec<usize>,
    /// Virtual time at which the last request finished.
    pub makespan_ns: u64,
    /// Sojourn times of served requests, ascending.
    pub latencies_sorted_ns: Vec<u64>,
    /// DRR scheduler visits: ring-front examinations during dispatch
    /// (each either dispatches, coalesces, or earns a quantum and
    /// rotates). A pure function of the schedule — deterministic.
    pub ring_visits: u64,
    /// Deepest any tenant queue got at admission time.
    pub max_queue_depth: usize,
}

impl RegistryOutcome {
    /// Nearest-rank percentile over served sojourn times (0 if nothing
    /// was served). `pct` in `[0, 100]`.
    pub fn latency_percentile_ns(&self, pct: u32) -> u64 {
        let n = self.latencies_sorted_ns.len();
        if n == 0 {
            return 0;
        }
        let idx = ((n - 1) as u64 * pct as u64 / 100) as usize;
        self.latencies_sorted_ns[idx]
    }

    /// Coalesced fraction of served requests, in `[0, 1]`.
    pub fn coalescing_hit_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.coalesced_hits as f64 / self.served as f64
    }

    /// Max/min served count over tenants that submitted anything
    /// (1.0 is perfectly fair; a starved tenant pushes this toward the
    /// max served count).
    pub fn fairness_max_min_served(&self) -> f64 {
        let counts: Vec<u64> = self
            .tenants
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.served)
            .collect();
        match (counts.iter().max(), counts.iter().min()) {
            (Some(&max), Some(&min)) => max as f64 / min.max(1) as f64,
            _ => 1.0,
        }
    }

    /// Canonical request log: one line per request in submission order.
    /// This is the determinism witness — byte-identical across runs and
    /// thread counts.
    pub fn render_log(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 64);
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "#{i:06} t={} tenant={} {} -> ",
                r.arrival_ns,
                r.tenant,
                r.key.render()
            ));
            match &r.outcome {
                Outcome::Served {
                    start_ns,
                    finish_ns,
                    coalesced,
                } => out.push_str(&format!(
                    "served start={start_ns} finish={finish_ns} sojourn={} via={}\n",
                    finish_ns - r.arrival_ns,
                    if *coalesced { "coalesced" } else { "hit" }
                )),
                Outcome::Overload { depth } => {
                    out.push_str(&format!("rejected overload depth={depth}\n"))
                }
            }
        }
        out
    }

    /// SHA-256 of [`RegistryOutcome::render_log`], hex.
    pub fn log_digest_hex(&self) -> String {
        Sha256::digest(self.render_log().as_bytes()).to_hex()
    }
}

struct Tenant {
    queue: VecDeque<usize>,
    deficit: u64,
    in_ring: bool,
}

/// One in-flight store hit: the primary request plus coalesced waiters.
struct Task {
    key: RequestKey,
    primary: usize,
    start_ns: u64,
    waiters: Vec<usize>,
}

struct Engine<'a, M: ServiceModel> {
    reqs: &'a [ServeRequest],
    model: &'a M,
    cfg: &'a RegistryConfig,
    now: u64,
    busy: usize,
    seq: u64,
    tenants: Vec<Tenant>,
    stats: Vec<TenantStats>,
    ring: VecDeque<u32>,
    tasks: Vec<Task>,
    inflight: HashMap<RequestKey, usize>,
    completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
    outcomes: Vec<Option<Outcome>>,
    store_hit_indices: Vec<usize>,
    ring_visits: u64,
    max_queue_depth: usize,
}

impl<M: ServiceModel> Engine<'_, M> {
    fn arrive(&mut self, idx: usize) {
        let req = &self.reqs[idx];
        let t = req.tenant as usize;
        self.stats[t].submitted += 1;
        if self.cfg.coalesce {
            if let Some(&tid) = self.inflight.get(&req.key) {
                // Ride the in-flight hit: no queue slot, no store cost.
                self.tasks[tid].waiters.push(idx);
                self.stats[t].admitted += 1;
                return;
            }
        }
        let tenant = &mut self.tenants[t];
        if tenant.queue.len() >= self.cfg.queue_depth {
            self.outcomes[idx] = Some(Outcome::Overload {
                depth: tenant.queue.len(),
            });
            self.stats[t].rejected += 1;
            return;
        }
        tenant.queue.push_back(idx);
        self.max_queue_depth = self.max_queue_depth.max(tenant.queue.len());
        self.stats[t].admitted += 1;
        if !tenant.in_ring {
            tenant.in_ring = true;
            self.ring.push_back(req.tenant);
        }
    }

    /// Start store hits while servers are free and queues are
    /// non-empty. Deficit round-robin: the tenant at the ring's front
    /// dispatches if its deficit covers the head's cost, otherwise it
    /// earns a quantum and rotates to the back. Every rotation grants a
    /// quantum, so any queued head is served after at most
    /// `cost / quantum` visits — no tenant starves.
    fn dispatch(&mut self) {
        while self.busy < self.cfg.servers {
            let Some(&tn) = self.ring.front() else { break };
            self.ring_visits += 1;
            let t = tn as usize;
            let head = *self.tenants[t]
                .queue
                .front()
                .expect("ring tenant non-empty");
            let key = self.reqs[head].key.clone();
            if self.cfg.coalesce {
                if let Some(&tid) = self.inflight.get(&key) {
                    self.tasks[tid].waiters.push(head);
                    self.pop_head(t);
                    continue;
                }
            }
            let cost = self.model.service_ns(&key).max(1);
            let tenant = &mut self.tenants[t];
            if tenant.deficit < cost {
                // Alone in the ring there is no one to defer to; jump
                // straight to the cost instead of iterating quanta.
                if self.ring.len() == 1 {
                    tenant.deficit = cost;
                } else {
                    tenant.deficit += self.cfg.quantum_ns.max(1);
                    self.ring.rotate_left(1);
                }
                continue;
            }
            tenant.deficit -= cost;
            self.pop_head(t);
            let tid = self.tasks.len();
            self.tasks.push(Task {
                key: key.clone(),
                primary: head,
                start_ns: self.now,
                waiters: Vec::new(),
            });
            self.inflight.insert(key, tid);
            self.store_hit_indices.push(head);
            self.stats[t].service_ns += cost;
            self.busy += 1;
            self.seq += 1;
            self.completions
                .push(Reverse((self.now + cost, self.seq, tid)));
        }
    }

    /// Remove tenant `t`'s queue head; drop it from the ring (resetting
    /// its deficit, per classic DRR) when the queue empties.
    fn pop_head(&mut self, t: usize) {
        let tenant = &mut self.tenants[t];
        tenant.queue.pop_front();
        if tenant.queue.is_empty() {
            tenant.deficit = 0;
            tenant.in_ring = false;
            let pos = self
                .ring
                .iter()
                .position(|&x| x as usize == t)
                .expect("tenant in ring");
            self.ring.remove(pos);
        }
    }

    /// Finish task `tid` at `self.now`: record the primary, fan the
    /// payload out to waiters, free the server.
    fn complete(&mut self, tid: usize) {
        let key = self.tasks[tid].key.clone();
        self.inflight.remove(&key);
        let start_ns = self.tasks[tid].start_ns;
        let primary = self.tasks[tid].primary;
        self.record_served(primary, start_ns, self.now, false);
        let fanout = self.model.fanout_ns(&key).max(1);
        let waiters = std::mem::take(&mut self.tasks[tid].waiters);
        for w in waiters {
            self.record_served(w, start_ns, self.now + fanout, true);
        }
        self.busy -= 1;
    }

    fn record_served(&mut self, idx: usize, start_ns: u64, finish_ns: u64, coalesced: bool) {
        let t = self.reqs[idx].tenant as usize;
        self.outcomes[idx] = Some(Outcome::Served {
            start_ns,
            finish_ns,
            coalesced,
        });
        self.stats[t].served += 1;
        if coalesced {
            self.stats[t].coalesced += 1;
        }
        self.stats[t].sojourn_ns += finish_ns - self.reqs[idx].arrival_ns;
    }
}

/// Run the registry over `requests` (sorted by `arrival_ns`; ties by
/// position) against a service-cost model. Panics if arrivals are out
/// of order — schedules come from deterministic generators that sort.
pub fn run_registry<M: ServiceModel>(
    requests: &[ServeRequest],
    model: &M,
    cfg: &RegistryConfig,
) -> RegistryOutcome {
    assert!(cfg.servers > 0, "registry needs at least one server");
    assert!(cfg.queue_depth > 0, "queue depth must be at least 1");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns),
        "requests must be sorted by arrival time"
    );
    let n_tenants = requests.iter().map(|r| r.tenant + 1).max().unwrap_or(0) as usize;
    let mut eng = Engine {
        reqs: requests,
        model,
        cfg,
        now: 0,
        busy: 0,
        seq: 0,
        tenants: (0..n_tenants)
            .map(|_| Tenant {
                queue: VecDeque::new(),
                deficit: 0,
                in_ring: false,
            })
            .collect(),
        stats: vec![TenantStats::default(); n_tenants],
        ring: VecDeque::new(),
        tasks: Vec::new(),
        inflight: HashMap::new(),
        completions: BinaryHeap::new(),
        outcomes: vec![None; requests.len()],
        store_hit_indices: Vec::new(),
        ring_visits: 0,
        max_queue_depth: 0,
    };

    for (idx, req) in requests.iter().enumerate() {
        let t_arr = req.arrival_ns;
        // Completions at or before this arrival happen first.
        while let Some(&Reverse((finish, _, tid))) = eng.completions.peek() {
            if finish > t_arr {
                break;
            }
            eng.completions.pop();
            eng.now = finish;
            eng.complete(tid);
            eng.dispatch();
        }
        eng.now = t_arr;
        eng.arrive(idx);
        eng.dispatch();
    }
    // Drain: every completion may unblock queued work.
    while let Some(Reverse((finish, _, tid))) = eng.completions.pop() {
        eng.now = finish;
        eng.complete(tid);
        eng.dispatch();
    }
    debug_assert!(eng.ring.is_empty() && eng.busy == 0);

    let records: Vec<RequestRecord> = requests
        .iter()
        .zip(&eng.outcomes)
        .map(|(r, o)| RequestRecord {
            tenant: r.tenant,
            arrival_ns: r.arrival_ns,
            key: r.key.clone(),
            outcome: o.clone().expect("every request has an outcome"),
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut served = 0u64;
    let mut rejected = 0u64;
    let mut coalesced_hits = 0u64;
    let mut makespan_ns = 0u64;
    for r in &records {
        match &r.outcome {
            Outcome::Served {
                finish_ns,
                coalesced,
                ..
            } => {
                served += 1;
                if *coalesced {
                    coalesced_hits += 1;
                }
                latencies.push(finish_ns - r.arrival_ns);
                makespan_ns = makespan_ns.max(*finish_ns);
            }
            Outcome::Overload { .. } => rejected += 1,
        }
    }
    latencies.sort_unstable();
    RegistryOutcome {
        served,
        rejected,
        coalesced_hits,
        store_hits: eng.store_hit_indices.len() as u64,
        store_hit_indices: eng.store_hit_indices,
        makespan_ns,
        latencies_sorted_ns: latencies,
        records,
        tenants: eng.stats,
        ring_visits: eng.ring_visits,
        max_queue_depth: eng.max_queue_depth,
    }
}

/// Pre-resolved `xpl-obs` handles for the registry engine. The engine
/// is a sequential DES over virtual time, so everything op-derived here
/// is deterministic; the queue-depth gauge is a high-water mark and
/// lives in the wall section (gauges are point-in-time by nature).
pub struct RegObs {
    served: Arc<Counter>,
    overloads: Arc<Counter>,
    coalesce_hits: Arc<Counter>,
    store_hits: Arc<Counter>,
    ring_visits: Arc<Counter>,
    sojourn_ns: Arc<Histogram>,
    tenant_served: Arc<Histogram>,
    queue_depth_max: Arc<Gauge>,
}

impl RegObs {
    /// Resolve (or re-use) the `registry.*` metric family in `reg`.
    pub fn new(reg: &Registry) -> Self {
        RegObs {
            served: reg.counter("registry.served", Section::Det),
            overloads: reg.counter("registry.overloads", Section::Det),
            coalesce_hits: reg.counter("registry.coalesce.hits", Section::Det),
            store_hits: reg.counter("registry.store_hits", Section::Det),
            ring_visits: reg.counter("registry.ring.visits", Section::Det),
            sojourn_ns: reg.histogram("registry.sojourn_ns", Section::Det),
            tenant_served: reg.histogram("registry.tenant_served", Section::Det),
            queue_depth_max: reg.gauge("registry.queue_depth.max", Section::Wall),
        }
    }

    /// Fold one finished run into the registry. Sojourns are recorded
    /// from the sorted latency list (same multiset, canonical order),
    /// per-tenant served counts as one histogram sample per tenant that
    /// submitted anything.
    pub fn record(&self, out: &RegistryOutcome) {
        self.served.add(out.served);
        self.overloads.add(out.rejected);
        self.coalesce_hits.add(out.coalesced_hits);
        self.store_hits.add(out.store_hits);
        self.ring_visits.add(out.ring_visits);
        for &ns in &out.latencies_sorted_ns {
            self.sojourn_ns.record(ns);
        }
        for t in out.tenants.iter().filter(|t| t.submitted > 0) {
            self.tenant_served.record(t.served);
        }
        self.queue_depth_max.set_max(out.max_queue_depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stub: cost keyed off the rendered key's bytes.
    struct StubModel {
        base_ns: u64,
        spread_ns: u64,
        fanout: u64,
    }

    impl StubModel {
        fn flat(cost: u64) -> StubModel {
            StubModel {
                base_ns: cost,
                spread_ns: 0,
                fanout: 1_000,
            }
        }
    }

    impl ServiceModel for StubModel {
        fn service_ns(&self, key: &RequestKey) -> u64 {
            let h = Sha256::digest(key.render().as_bytes()).prefix64();
            self.base_ns
                + if self.spread_ns == 0 {
                    0
                } else {
                    h % self.spread_ns
                }
        }
        fn fanout_ns(&self, _key: &RequestKey) -> u64 {
            self.fanout
        }
    }

    fn img(name: &str) -> RequestKey {
        RequestKey::Image {
            image: name.to_string(),
        }
    }

    fn req(tenant: u32, arrival_ns: u64, key: RequestKey) -> ServeRequest {
        ServeRequest {
            tenant,
            arrival_ns,
            key,
        }
    }

    #[test]
    fn empty_schedule_is_empty_outcome() {
        let out = run_registry(&[], &StubModel::flat(100), &RegistryConfig::default());
        assert_eq!(out.served, 0);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.latency_percentile_ns(99), 0);
        assert_eq!(out.fairness_max_min_served(), 1.0);
        assert_eq!(out.render_log(), "");
    }

    #[test]
    fn full_queue_rejects_with_typed_overload() {
        let cfg = RegistryConfig {
            servers: 1,
            queue_depth: 2,
            coalesce: false,
            ..RegistryConfig::default()
        };
        // One slow hit in service, two queued, the rest must bounce.
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| req(0, 0, img(&format!("img-{i}"))))
            .collect();
        let out = run_registry(&reqs, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out.served, 3, "1 in service + 2 queued");
        assert_eq!(out.rejected, 3);
        assert!(matches!(
            out.records[5].outcome,
            Outcome::Overload { depth: 2 }
        ));
        assert_eq!(out.tenants[0].rejected, 3);
        // The queue drains once the server frees up: all admitted served.
        assert_eq!(out.tenants[0].admitted, out.tenants[0].served);
    }

    #[test]
    fn queue_bound_is_per_tenant() {
        let cfg = RegistryConfig {
            servers: 1,
            queue_depth: 4,
            coalesce: false,
            ..RegistryConfig::default()
        };
        // Tenant 0 floods far past its own bound; tenant 1's single
        // request arrives after the flood and must still be admitted.
        let mut reqs: Vec<ServeRequest> = (0..20)
            .map(|i| req(0, 0, img(&format!("flood-{i}"))))
            .collect();
        reqs.push(req(1, 0, img("light")));
        let out = run_registry(&reqs, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out.tenants[1].rejected, 0);
        assert_eq!(out.tenants[1].served, 1);
        assert!(out.tenants[0].rejected > 0);
    }

    #[test]
    fn coalescing_shares_one_store_hit() {
        let cfg = RegistryConfig {
            servers: 2,
            queue_depth: 64,
            coalesce: true,
            ..RegistryConfig::default()
        };
        let reqs: Vec<ServeRequest> = (0..5).map(|i| req(i % 3, i as u64, img("hot"))).collect();
        let out = run_registry(&reqs, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out.store_hits, 1, "all five ride one hit");
        assert_eq!(out.coalesced_hits, 4);
        assert_eq!(out.served, 5);
        assert_eq!(out.store_hit_indices, vec![0]);
        // Waiters finish at the primary's finish plus the fanout cost.
        let Outcome::Served { finish_ns: f0, .. } = out.records[0].outcome else {
            panic!()
        };
        for r in &out.records[1..] {
            let Outcome::Served {
                finish_ns,
                coalesced,
                ..
            } = r.outcome
            else {
                panic!()
            };
            assert!(coalesced);
            assert_eq!(finish_ns, f0 + 1_000);
        }
        // A request arriving after completion is a fresh store hit.
        let mut reqs2 = reqs.clone();
        reqs2.push(req(0, 10_000_000, img("hot")));
        let out2 = run_registry(&reqs2, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out2.store_hits, 2);
    }

    #[test]
    fn coalescing_off_hits_store_every_time() {
        let cfg = RegistryConfig {
            servers: 2,
            queue_depth: 64,
            coalesce: false,
            ..RegistryConfig::default()
        };
        let reqs: Vec<ServeRequest> = (0..5).map(|i| req(0, i as u64, img("hot"))).collect();
        let out = run_registry(&reqs, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out.store_hits, 5);
        assert_eq!(out.coalesced_hits, 0);
    }

    #[test]
    fn drr_alternates_between_backlogged_tenants() {
        let cfg = RegistryConfig {
            servers: 1,
            queue_depth: 64,
            quantum_ns: 1_000_000,
            coalesce: false,
        };
        // Tenant 0 enqueues its entire flood before tenant 1's requests
        // arrive (same virtual instant, earlier indices). Global FIFO
        // would serve all of tenant 0 first; DRR must alternate.
        let mut reqs: Vec<ServeRequest> =
            (0..20).map(|i| req(0, 0, img(&format!("a-{i}")))).collect();
        reqs.extend((0..20).map(|i| req(1, 0, img(&format!("b-{i}")))));
        let out = run_registry(&reqs, &StubModel::flat(1_000_000), &cfg);
        assert_eq!(out.served, 40);
        // Every prefix of the service order is near-balanced.
        let mut a = 0i64;
        let mut b = 0i64;
        for &idx in &out.store_hit_indices {
            if out.records[idx].tenant == 0 {
                a += 1;
            } else {
                b += 1;
            }
            assert!((a - b).abs() <= 2, "service order drifted: a={a} b={b}");
        }
        assert!((out.fairness_max_min_served() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_log_and_digest() {
        let cfg = RegistryConfig::default();
        let model = StubModel {
            base_ns: 200_000,
            spread_ns: 3_000_000,
            fanout: 5_000,
        };
        let mut rng = xpl_util::SplitMix64::new(99);
        let reqs: Vec<ServeRequest> = (0..200)
            .scan(0u64, |t, i| {
                *t += rng.next_below(50_000);
                Some(req(
                    (i % 7) as u32,
                    *t,
                    img(&format!("img-{}", rng.next_below(20))),
                ))
            })
            .collect();
        let a = run_registry(&reqs, &model, &cfg);
        let b = run_registry(&reqs, &model, &cfg);
        assert_eq!(a.render_log(), b.render_log());
        assert_eq!(a.log_digest_hex(), b.log_digest_hex());
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.latencies_sorted_ns, b.latencies_sorted_ns);
        assert!(a.served + a.rejected == 200);
        assert!(a.latency_percentile_ns(99) >= a.latency_percentile_ns(50));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let out = RegistryOutcome {
            records: vec![],
            tenants: vec![],
            served: 4,
            rejected: 0,
            coalesced_hits: 0,
            store_hits: 4,
            store_hit_indices: vec![],
            makespan_ns: 0,
            latencies_sorted_ns: vec![10, 20, 30, 40],
            ring_visits: 0,
            max_queue_depth: 0,
        };
        assert_eq!(out.latency_percentile_ns(0), 10);
        assert_eq!(out.latency_percentile_ns(50), 20);
        assert_eq!(out.latency_percentile_ns(99), 30);
        assert_eq!(out.latency_percentile_ns(100), 40);
    }
}
