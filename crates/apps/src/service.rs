//! A sharded key-value service hosted on CableS pthreads primitives —
//! the "serve real traffic" workload of the evaluation.
//!
//! Unlike the SPLASH kernels (start, barrier, exit), this is a
//! request-driven long-runner: keys map round-robin to per-shard store
//! regions in `global_malloc`'d memory, per-shard pthread worker pools
//! drain per-shard ring-buffer request queues, and every bucket access
//! happens under a fine-grained bucket mutex.
//!
//! The service is *shard-affine*: a shard's whole pool runs on one node
//! (worker 0 where the placement policy puts it, the others
//! [`Pth::create_beside`] it), and each shard's responses live on pages
//! no other shard writes. A shard's queue and bucket locks, its store
//! pages and its response pages are then one node's business; only the
//! dispatcher's enqueue crosses nodes.
//!
//! Two drivers (mirroring [`traffic::Driver`]):
//!
//! * **open loop** — the initial thread plays dispatcher: it sleeps to
//!   each request's scheduled arrival, enqueues it — and every further
//!   request that fell due while it was busy, grouped per shard under
//!   one queue-lock hold — and never waits for responses; workers emit
//!   the request's [`obs::Event::ServiceRequest`] span (scheduled
//!   arrival → completion, so queueing delay — and coordinated omission
//!   — is inside the measurement).
//! * **closed loop** — `clients` client threads each issue, block on
//!   their response condvar, think, repeat; the client emits the span
//!   (issue → response, retries included).
//!
//! ## Crash tolerance
//!
//! A chaos node crash kills every worker and client on that node
//! (joiners see [`CRASHED_RET`](cables::CRASHED_RET)); bucket mutexes
//! held by the dead hand off via crash recovery, and the store/queue
//! regions survive in SVM. Progress is restored by fallbacks that only
//! use resources the crash cannot take down:
//!
//! * closed-loop clients wait with `cond_timedwait`; on timeout they
//!   re-enqueue (every op is idempotent: `put`/`delete` write state that
//!   is a pure function of the key), and after a few attempts
//!   *direct-serve* — execute the op themselves under the bucket mutex.
//! * the open-loop dispatcher drains on per-shard `served` counters
//!   (`cond_timedwait` on the shard's drained cond); when a shard's
//!   progress stalls past the timeout it reaps: any request whose
//!   response slot is still empty is direct-served from the dispatcher
//!   (node 0 never crashes — the fault plan forbids it).
//!
//! ## Queue protocol
//!
//! A remote CableS `mutex_lock` is a ~35 µs ACB handler plus a notify
//! round trip, so the protocol is built around *few queue-lock transfers
//! per request*: one hold by the producer, one by the worker. The worker
//! folds its completion count into its next `dequeue` hold; `not_full`,
//! `not_empty` and the drained cond are signalled only when the header's
//! waiter counts / drain flag say somebody is blocked on them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cables::{Cond, Mutex, Pth};
use memsim::{GAddr, PAGE_SIZE};
use obs::{Event, Layer, ServiceOp};
use sim::SimTime;
use traffic::{Driver, OpKind, Request, Schedule};

/// Response value for a `get`/`scan` miss on an empty slot.
pub const EMPTY: u64 = 0xEEEE_EEEE_EEEE_EEEE;

/// Queue sentinel telling a worker to exit (consumed one-per-worker).
const POISON: u64 = u64::MAX;

// Queue-region layout (byte offsets; every word is read and written under
// the shard's queue mutex).
/// Items ever enqueued.
const Q_HEAD: u64 = 0;
/// Items ever dequeued.
const Q_TAIL: u64 = 8;
/// Requests completed by the shard's workers (the drain's progress
/// signal; a crash can lose one unflushed count per dead worker, so the
/// final tally comes from the response arrays instead).
const Q_SERVED: u64 = 16;
/// Producers blocked on `not_full`.
const Q_FULL_WAITERS: u64 = 24;
/// Workers blocked on `not_empty`.
const Q_EMPTY_WAITERS: u64 = 32;
/// Nonzero while the open-loop dispatcher waits on the drained cond.
const Q_DRAINING: u64 = 40;
/// First ring slot.
const Q_RING: u64 = 48;

/// Deterministic value contents: word `i` of `key`'s value.
#[inline]
pub fn val_word(key: u64, i: u32) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64
}

/// Service deployment parameters (the store's shape; the workload's
/// shape lives in [`traffic::TrafficConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceParams {
    /// Store shards (keys map round-robin: `shard = key % shards`).
    pub shards: u32,
    /// Worker threads per shard.
    pub workers_per_shard: u32,
    /// Bucket mutexes per shard (lock striping within a shard).
    pub locks_per_shard: u32,
    /// Request-queue capacity per shard (ring slots).
    pub queue_cap: u64,
    /// Simulated per-request parse/hash compute at the worker, ns.
    pub proc_ns: u64,
    /// Response-wait window before a crash fallback fires, ns.
    pub timeout_ns: u64,
}

impl ServiceParams {
    /// A small deployment for tests: 4 shards x 2 workers.
    pub fn test() -> ServiceParams {
        ServiceParams {
            shards: 4,
            workers_per_shard: 2,
            locks_per_shard: 8,
            queue_cap: 64,
            proc_ns: 500,
            timeout_ns: 20_000_000,
        }
    }
}

/// What one service run produced (all deterministic given config +
/// engine semantics; the bench's replay check compares `digest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// FNV-1a over every response slot (done flag + value) in request-id
    /// order — the bit-identity witness of the run's visible behavior.
    pub digest: u64,
    /// Requests completed by shard workers.
    pub served: u64,
    /// Requests completed by a crash fallback (dispatcher reap or
    /// client direct-serve). 0 on fault-free runs.
    pub direct_served: u64,
    /// Closed-loop re-enqueues after response timeouts. 0 fault-free.
    pub retries: u64,
    /// Simulated serving window: from the worker pools' ready barrier to
    /// the last response (excludes node attach and shutdown, so
    /// `requests / serve_ns` is the service's throughput).
    pub serve_ns: u64,
}

/// Per-shard runtime handles (host-side ids; the backing state lives in
/// the CableS runtime and in global memory).
struct Shard {
    /// Store region: `slots * (1 + val_words)` words; slot `i` holds key
    /// `i * shards + shard`.
    store: GAddr,
    /// Slots in this shard's store region.
    slots: u64,
    /// Queue region: the `Q_*` header words, then `ring_cap` ring slots.
    queue: GAddr,
    /// Ring slots in the queue region.
    ring_cap: u64,
    q_m: Mutex,
    not_empty: Cond,
    not_full: Cond,
    /// Signalled by the worker whose flush completes the shard's last
    /// enqueued request while `Q_DRAINING` is raised.
    drained: Cond,
    /// Striped bucket locks.
    locks: Vec<Mutex>,
}

/// Everything a worker/client/dispatcher needs, shared host-side (ids
/// and layout only — all mutable service state is in global memory or
/// the runtime, so sharing this does not bypass the SVM).
struct Plan {
    params: ServiceParams,
    keys: u64,
    val_words: u32,
    shards: Vec<Shard>,
    /// Each request's response slot (`[done, value]`, two words), by
    /// request id. The slots form per-shard arrays, each starting on a
    /// page of its own: a response page is written by one pool only, so
    /// one pool's write notices never invalidate another pool's copy.
    resp: Vec<GAddr>,
    requests: Arc<Vec<Request>>,
    /// Per-client response mutex/cond (closed loop only).
    client_m: Vec<Mutex>,
    client_c: Vec<Cond>,
    /// Simulated ns the open-loop schedule's clock zero maps to (set
    /// after the ready barrier, before the first enqueue; host-side
    /// plumbing of a deterministic value, not shared service state).
    base_ns: AtomicU64,
}

impl Plan {
    fn shard_of(&self, key: u64) -> u32 {
        (key % self.params.shards as u64) as u32
    }

    fn slot_addr(&self, key: u64) -> GAddr {
        let s = &self.shards[self.shard_of(key) as usize];
        let idx = key / self.params.shards as u64;
        s.store + idx * (1 + self.val_words as u64) * 8
    }

    fn bucket_lock(&self, key: u64) -> Mutex {
        let s = &self.shards[self.shard_of(key) as usize];
        let idx = key / self.params.shards as u64;
        s.locks[(idx % self.params.locks_per_shard as u64) as usize]
    }

    fn resp_addr(&self, id: u32) -> GAddr {
        self.resp[id as usize]
    }

    /// A request's scheduled arrival on the simulation clock (open loop):
    /// its schedule offset past the serving window's start.
    fn arrival_at(&self, r: &Request) -> u64 {
        self.base_ns.load(Ordering::SeqCst) + r.arrival_ns
    }

    /// Executes one request's store operation under its bucket lock(s)
    /// and returns the response value. Idempotent by construction:
    /// `put` writes a pure function of the key, so a crash-retry
    /// re-execution converges.
    fn execute(&self, p: &Pth, r: &Request) -> u64 {
        p.compute(self.params.proc_ns);
        match r.op {
            OpKind::Get => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let tag = p.read::<u64>(slot);
                let v = if tag == r.key + 1 {
                    let v0 = p.read::<u64>(slot + 8);
                    assert_eq!(v0, val_word(r.key, 0), "torn read: key {}", r.key);
                    v0
                } else {
                    EMPTY
                };
                p.mutex_unlock(m);
                v
            }
            OpKind::Put => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let prev = p.read::<u64>(slot);
                p.write::<u64>(slot, r.key + 1);
                for i in 0..self.val_words {
                    p.write::<u64>(slot + 8 + i as u64 * 8, val_word(r.key, i));
                }
                p.mutex_unlock(m);
                prev
            }
            OpKind::Delete => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let prev = p.read::<u64>(slot);
                p.write::<u64>(slot, 0);
                p.mutex_unlock(m);
                prev
            }
            OpKind::Scan => {
                // Consecutive keys, one bucket lock at a time (never
                // nested, so scans cannot deadlock against writers).
                let mut sum = 0u64;
                for j in 0..r.scan_len as u64 {
                    let k = (r.key + j) % self.keys;
                    let m = self.bucket_lock(k);
                    let slot = self.slot_addr(k);
                    p.mutex_lock(m);
                    let tag = p.read::<u64>(slot);
                    if tag == k + 1 {
                        sum = sum.wrapping_add(p.read::<u64>(slot + 8));
                    }
                    p.mutex_unlock(m);
                }
                sum
            }
        }
    }
}

fn service_op(op: OpKind) -> ServiceOp {
    match op {
        OpKind::Get => ServiceOp::Get,
        OpKind::Put => ServiceOp::Put,
        OpKind::Delete => ServiceOp::Delete,
        OpKind::Scan => ServiceOp::Scan,
    }
}

/// Emits the request's lifecycle span (`start_ns` → now) on the calling
/// thread's lane. The only span kind attributed to [`Layer::Service`].
fn emit_span(p: &Pth, plan: &Plan, r: &Request, start_ns: u64) {
    let o = p.rt().svm().obs();
    let now = p.sim.now();
    o.span(
        Layer::Service,
        p.node(),
        p.sim.tid().0,
        SimTime::from_nanos(start_ns),
        now.as_nanos().saturating_sub(start_ns),
        Event::ServiceRequest {
            op: service_op(r.op),
            shard: plan.shard_of(r.key),
            key: r.key,
        },
    );
}

/// Adds `by` to one queue-header word and returns the new value (the
/// caller holds the shard's queue mutex).
fn bump(p: &Pth, word: GAddr, by: i64) -> u64 {
    let v = p.read::<u64>(word).wrapping_add_signed(by);
    p.write::<u64>(word, v);
    v
}

/// Dequeues one item from `shard`'s ring (blocking). Returns the raw
/// slot word ([`POISON`] tells the worker to exit). `completed` is the
/// caller's count of requests served since its last dequeue: it is folded
/// into the shard's `served` counter here, at the top of the one critical
/// section the worker needs anyway and before any wait, so a blocked
/// worker never sits on an unflushed count.
fn dequeue(p: &Pth, s: &Shard, completed: i64) -> u64 {
    p.mutex_lock(s.q_m);
    if completed > 0 {
        let served = bump(p, s.queue + Q_SERVED, completed);
        if p.read::<u64>(s.queue + Q_DRAINING) != 0 && served == p.read::<u64>(s.queue + Q_HEAD)
        {
            p.cond_signal(s.drained);
        }
    }
    loop {
        if p.read::<u64>(s.queue + Q_HEAD) > p.read::<u64>(s.queue + Q_TAIL) {
            break;
        }
        bump(p, s.queue + Q_EMPTY_WAITERS, 1);
        p.cond_wait(s.not_empty, s.q_m).expect("worker cancelled");
        bump(p, s.queue + Q_EMPTY_WAITERS, -1);
    }
    let tail = p.read::<u64>(s.queue + Q_TAIL);
    let item = p.read::<u64>(s.queue + Q_RING + (tail % s.ring_cap) * 8);
    p.write::<u64>(s.queue + Q_TAIL, tail + 1);
    // A remote cond_signal fetches the cond's ACB entry inside this
    // critical section: pay it only when a producer is actually blocked.
    if p.read::<u64>(s.queue + Q_FULL_WAITERS) > 0 {
        p.cond_signal(s.not_full);
    }
    p.mutex_unlock(s.q_m);
    item
}

/// Enqueues `items` on `shard` in order under one queue-lock hold,
/// waiting (bounded) while the ring is full, and returns how many went
/// in. Fewer than `items.len()` means the queue stayed full for
/// `attempts` timeout windows — the shard is presumed dead and the caller
/// must fall back for the rest. Items written so far are signalled to
/// waiting workers before every block (the wait's unlock publishes them):
/// a batch larger than the ring must not wait for space only its own
/// unannounced items can free.
fn enqueue(p: &Pth, s: &Shard, items: &[u64], timeout_ns: u64, attempts: u32) -> usize {
    // Wakes one waiting worker per newly written item.
    let announce = |fresh: &mut u64| {
        let wake = (*fresh).min(p.read::<u64>(s.queue + Q_EMPTY_WAITERS));
        for _ in 0..wake {
            p.cond_signal(s.not_empty);
        }
        *fresh = 0;
    };
    p.mutex_lock(s.q_m);
    let (mut sent, mut fresh, mut stalls) = (0, 0u64, 0);
    while sent < items.len() {
        let head = p.read::<u64>(s.queue + Q_HEAD);
        if head - p.read::<u64>(s.queue + Q_TAIL) < s.ring_cap {
            p.write::<u64>(s.queue + Q_RING + (head % s.ring_cap) * 8, items[sent]);
            p.write::<u64>(s.queue + Q_HEAD, head + 1);
            sent += 1;
            fresh += 1;
            continue;
        }
        announce(&mut fresh);
        bump(p, s.queue + Q_FULL_WAITERS, 1);
        let woken = p
            .cond_timedwait(s.not_full, s.q_m, timeout_ns)
            .expect("enqueue cancelled");
        bump(p, s.queue + Q_FULL_WAITERS, -1);
        if !woken {
            stalls += 1;
            if stalls >= attempts {
                break;
            }
        }
    }
    announce(&mut fresh);
    p.mutex_unlock(s.q_m);
    sent
}

/// The open-loop dispatcher's reap: direct-serves every still-unanswered
/// request of the shards `of` selects and returns how many it served.
fn reap(p: &Pth, plan: &Plan, of: impl Fn(u32) -> bool) -> u64 {
    let mut served = 0;
    for r in plan.requests.iter().filter(|r| of(plan.shard_of(r.key))) {
        if serve_direct(p, plan, r) {
            emit_span(p, plan, r, plan.arrival_at(r));
            served += 1;
        }
    }
    served
}

/// Runs the service for `sched` on the current CableS runtime and
/// returns the outcome. Must be called from the runtime's main thread
/// (it creates and joins every worker/client).
pub fn run_service(pth: &Pth, sched: &Schedule, params: ServiceParams) -> ServiceOutcome {
    assert!(params.shards > 0 && params.workers_per_shard > 0);
    let cfg = &sched.config;
    let keys = cfg.keys;
    let val_words = cfg.val_words.max(1);
    let nreq = sched.requests.len() as u32;

    // ---- Global layout ----
    let mut shards = Vec::with_capacity(params.shards as usize);
    for sh in 0..params.shards as u64 {
        let slots = keys / params.shards as u64
            + u64::from(sh < keys % params.shards as u64);
        let slots = slots.max(1);
        let store = pth.malloc(slots * (1 + val_words as u64) * 8);
        let queue = pth.malloc(Q_RING + params.queue_cap * 8);
        // The queue header is dispatcher-adjacent state: the dispatcher
        // first-touches it; the store region is first-touched by the
        // shard's own workers below.
        for off in (0..Q_RING).step_by(8) {
            pth.write::<u64>(queue + off, 0);
        }
        shards.push(Shard {
            store,
            slots,
            queue,
            ring_cap: params.queue_cap,
            q_m: pth.rt().mutex_new(),
            not_empty: pth.rt().cond_new(),
            not_full: pth.rt().cond_new(),
            drained: pth.rt().cond_new(),
            locks: (0..params.locks_per_shard)
                .map(|_| pth.rt().mutex_new())
                .collect(),
        });
    }
    // Response arrays: one allocation, each shard's array padded to whole
    // pages, a request's slot its rank among the schedule's requests for
    // its shard; zeroed — hence homed — here on the master, the one node
    // a crash never takes.
    let mut per_shard = vec![0u64; params.shards as usize];
    let ranked: Vec<(usize, u64)> = sched
        .requests
        .iter()
        .map(|r| {
            let sh = (r.key % params.shards as u64) as usize;
            per_shard[sh] += 1;
            (sh, per_shard[sh] - 1)
        })
        .collect();
    let mut resp_bytes = 0;
    let array_off: Vec<u64> = per_shard
        .iter()
        .map(|&n| {
            let off = resp_bytes;
            resp_bytes += (n * 16).next_multiple_of(PAGE_SIZE);
            off
        })
        .collect();
    let resp_base = pth.malloc(resp_bytes);
    let resp: Vec<GAddr> = ranked
        .iter()
        .map(|&(sh, rank)| resp_base + array_off[sh] + rank * 16)
        .collect();
    for &slot in &resp {
        pth.write::<u64>(slot, 0);
    }
    let (clients, think_ns) = match cfg.driver {
        Driver::ClosedLoop { clients, think_ns } => (clients, think_ns),
        Driver::OpenLoop => (0, 0),
    };
    let plan = Arc::new(Plan {
        params,
        keys,
        val_words,
        shards,
        resp,
        requests: Arc::new(sched.requests.clone()),
        client_m: (0..clients).map(|_| pth.rt().mutex_new()).collect(),
        client_c: (0..clients).map(|_| pth.rt().cond_new()).collect(),
        base_ns: AtomicU64::new(0),
    });

    // ---- Worker pools (per shard) ----
    let total_workers = params.shards * params.workers_per_shard;
    let ready = pth.rt().barrier_new();
    let open_loop = matches!(cfg.driver, Driver::OpenLoop);
    let mut workers = Vec::with_capacity(total_workers as usize);
    for sh in 0..params.shards {
        // The placement policy picks worker 0's node; the rest of the pool
        // starts beside it, so queue and bucket locks, store pages and the
        // shard's response pages all stay on one node.
        let mut first = None;
        for w in 0..params.workers_per_shard {
            let plan = Arc::clone(&plan);
            let body = move |p: &Pth| {
                let s = &plan.shards[sh as usize];
                if w == 0 {
                    // First touch: worker 0 claims the shard's store
                    // pages, homing them where the pool runs.
                    for i in 0..s.slots {
                        p.write::<u64>(s.store + i * (1 + plan.val_words as u64) * 8, 0);
                    }
                }
                p.barrier(ready, total_workers as usize + 1);
                let mut completed = 0;
                loop {
                    let item = dequeue(p, s, completed);
                    if item == POISON {
                        break;
                    }
                    let r = plan.requests[item as usize];
                    let v = plan.execute(p, &r);
                    let ra = plan.resp_addr(r.id);
                    if open_loop {
                        p.write::<u64>(ra + 8, v);
                        p.write::<u64>(ra, 1);
                        emit_span(p, &plan, &r, plan.arrival_at(&r));
                    } else {
                        // Hold the client's mutex across publish +
                        // signal: the classic lost-wakeup guard.
                        let cm = plan.client_m[r.client as usize];
                        p.mutex_lock(cm);
                        p.write::<u64>(ra + 8, v);
                        p.write::<u64>(ra, 1);
                        p.cond_signal(plan.client_c[r.client as usize]);
                        p.mutex_unlock(cm);
                    }
                    completed = 1;
                }
                0
            };
            let ct = match first {
                None => pth.create(body),
                Some(sibling) => pth.create_beside(sibling, body),
            };
            first.get_or_insert(ct);
            workers.push(ct);
        }
    }
    pth.barrier(ready, total_workers as usize + 1);
    let serve_t0 = pth.sim.now();

    let mut direct_served = 0u64;
    let mut retries = 0u64;

    match cfg.driver {
        Driver::OpenLoop => {
            // ---- Dispatcher: play the schedule ----
            // The schedule's clock zero is the serving window's start:
            // pools are up, attach paid. Workers read the base only for
            // requests they dequeued, i.e. after it was published.
            plan.base_ns.store(serve_t0.as_nanos(), Ordering::SeqCst);
            let reqs = &plan.requests;
            // Per shard: this wake-up's due items, and how many were
            // ever enqueued (what the drain waits for).
            let mut due_items: Vec<Vec<u64>> = vec![Vec::new(); plan.shards.len()];
            let mut enqueued = vec![0u64; plan.shards.len()];
            // Shards whose queue once stayed full for a whole enqueue: a
            // node crash takes a shard's whole pool, so detection is paid
            // once — later requests are served from here, and the drain
            // does not wait for the dead.
            let mut dead = vec![false; plan.shards.len()];
            let mut next = 0;
            while next < reqs.len() {
                let now = pth.sim.now().as_nanos();
                let due = plan.arrival_at(&reqs[next]);
                if due > now {
                    pth.compute(due - now);
                }
                // Group dispatch: everything already past its scheduled
                // arrival goes in now, one queue-lock hold per shard.
                // Below saturation that is exactly one request.
                let now = pth.sim.now().as_nanos();
                let first = next;
                while next < reqs.len() {
                    let r = &reqs[next];
                    if next > first && plan.arrival_at(r) > now {
                        break;
                    }
                    due_items[plan.shard_of(r.key) as usize].push(r.id as u64);
                    next += 1;
                }
                for (sh, items) in due_items.iter_mut().enumerate() {
                    if items.is_empty() {
                        continue;
                    }
                    let sent = if dead[sh] {
                        0
                    } else {
                        enqueue(pth, &plan.shards[sh], items, params.timeout_ns, 4)
                    };
                    dead[sh] |= sent < items.len();
                    enqueued[sh] += sent as u64;
                    // Shard queue dead (crashed pool): serve from here.
                    for &id in &items[sent..] {
                        let r = &reqs[id as usize];
                        if serve_direct(pth, &plan, r) {
                            emit_span(pth, &plan, r, plan.arrival_at(r));
                            direct_served += 1;
                        }
                    }
                    items.clear();
                }
            }
            // ---- Drain: wait for the pools, reap if progress stalls ----
            // What a dead pool left in its ring is reaped at once; the
            // other pools are still busy, so only its own requests.
            direct_served += reap(pth, &plan, |sh| dead[sh as usize]);
            'drain: for (sh, (s, &want)) in plan.shards.iter().zip(&enqueued).enumerate() {
                if dead[sh] {
                    continue;
                }
                // The served counter is read under the queue mutex: the
                // lock acquire is what makes the workers' increments
                // (released at their unlocks) visible here — an unlocked
                // poll could read a cached page forever under RC.
                pth.mutex_lock(s.q_m);
                pth.write::<u64>(s.queue + Q_DRAINING, 1);
                let mut stalled = 0u32;
                loop {
                    let done = pth.read::<u64>(s.queue + Q_SERVED);
                    if done >= want {
                        break;
                    }
                    let woken = pth
                        .cond_timedwait(s.drained, s.q_m, params.timeout_ns.max(1))
                        .expect("drain cancelled");
                    if woken || pth.read::<u64>(s.queue + Q_SERVED) != done {
                        stalled = 0;
                        continue;
                    }
                    stalled += 1;
                    // Eight full timeout windows without one completion
                    // on a shard with work queued: far beyond any single
                    // request's worst-case latency, so its pool is dead,
                    // not slow.
                    if stalled >= 8 {
                        pth.mutex_unlock(s.q_m);
                        // Reap every unanswered request right here: the
                        // shards drained before this one are done, and any
                        // other still short after these windows is dead too.
                        direct_served += reap(pth, &plan, |_| true);
                        break 'drain;
                    }
                }
                pth.mutex_unlock(s.q_m);
            }
        }
        Driver::ClosedLoop { clients, .. } => {
            // ---- Closed-loop clients ----
            let mut per_client: Vec<Vec<u32>> = vec![Vec::new(); clients as usize];
            for r in plan.requests.iter() {
                per_client[r.client as usize].push(r.id);
            }
            let mut handles = Vec::with_capacity(clients as usize);
            for (c, ids) in per_client.into_iter().enumerate() {
                let plan = Arc::clone(&plan);
                handles.push(pth.create(move |p| {
                    let cm = plan.client_m[c];
                    let cc = plan.client_c[c];
                    let mut retries = 0u64;
                    let mut direct = 0u64;
                    for id in ids {
                        let r = plan.requests[id as usize];
                        let t0 = p.sim.now().as_nanos();
                        let s = &plan.shards[plan.shard_of(r.key) as usize];
                        let mut attempts = 0u32;
                        loop {
                            let queued =
                                enqueue(p, s, &[id as u64], plan.params.timeout_ns, 2) == 1;
                            if queued {
                                p.mutex_lock(cm);
                                let mut done = p.read::<u64>(plan.resp_addr(id)) != 0;
                                while !done {
                                    let woken = p
                                        .cond_timedwait(cc, cm, plan.params.timeout_ns)
                                        .expect("client cancelled");
                                    done = p.read::<u64>(plan.resp_addr(id)) != 0;
                                    if !done && !woken {
                                        break;
                                    }
                                }
                                p.mutex_unlock(cm);
                                if done {
                                    break;
                                }
                            }
                            attempts += 1;
                            if attempts >= 3 {
                                // The shard's pool is gone: serve the
                                // op ourselves (bucket mutexes were
                                // handed off by crash recovery).
                                if serve_direct(p, &plan, &r) {
                                    direct += 1;
                                }
                                break;
                            }
                            retries += 1;
                        }
                        if pth_done(p, &plan, id) {
                            emit_span(p, &plan, &r, t0);
                        }
                        if think_ns > 0 {
                            p.compute(think_ns);
                        }
                    }
                    // Pack both counters into the exit status (each
                    // bounded well below 2^32 by the request count).
                    (retries << 32) | direct
                }));
            }
            for h in handles {
                let packed = pth.join(h);
                if packed != cables::CRASHED_RET {
                    retries += packed >> 32;
                    direct_served += packed & 0xFFFF_FFFF;
                }
            }
        }
    }
    let serve_ns = pth.sim.now().saturating_since(serve_t0);

    // ---- Shutdown: poison every pool, join every worker ----
    let poison = vec![POISON; params.workers_per_shard as usize];
    for s in plan.shards.iter() {
        // Best-effort: a dead shard's full queue times out and the
        // poison is dropped (its workers are dead too).
        let _ = enqueue(pth, s, &poison, params.timeout_ns, 2);
    }
    for w in workers {
        let _ = pth.join(w);
    }

    // ---- Digest over the response arrays, in request-id order ----
    // The arrays are also the tally: a crashed worker's counts die with it
    // (its last one possibly unflushed), but every published response
    // survives in SVM.
    let mut answered = 0u64;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in 0..nreq {
        let done = pth.read::<u64>(plan.resp_addr(id));
        answered += u64::from(done != 0);
        eat(done);
        eat(pth.read::<u64>(plan.resp_addr(id) + 8));
    }

    ServiceOutcome {
        digest,
        served: answered - direct_served,
        direct_served,
        retries,
        serve_ns,
    }
}

/// True when request `id`'s response slot is filled.
fn pth_done(p: &Pth, plan: &Plan, id: u32) -> bool {
    p.read::<u64>(plan.resp_addr(id)) != 0
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc as StdArc;
    use std::sync::Mutex as StdMutex;

    use super::*;
    use cables::{CablesConfig, CablesRt};
    use chaos::{ChaosEngine, FaultPlan};
    use obs::EventRecord;
    use svm::{Cluster, ClusterConfig};
    use traffic::{schedule, TrafficConfig};

    /// A fresh runtime on `nodes` 2-way nodes, observability on.
    fn rt(nodes: usize, chaos: Option<FaultPlan>) -> StdArc<CablesRt> {
        rt_with(nodes, chaos, CablesConfig::paper())
    }

    /// [`rt`] with every node attached before the run (a warm deployment).
    fn warm_rt(nodes: usize) -> StdArc<CablesRt> {
        let cfg = CablesConfig { pre_attach: nodes, ..CablesConfig::paper() };
        rt_with(nodes, None, cfg)
    }

    fn rt_with(nodes: usize, chaos: Option<FaultPlan>, cfg: CablesConfig) -> StdArc<CablesRt> {
        let cluster = Cluster::build(ClusterConfig::small(nodes, 2));
        if let Some(plan) = chaos {
            cluster.set_chaos(ChaosEngine::new(0xFACE, plan));
        }
        let rt = CablesRt::new(cluster, cfg);
        rt.svm().set_obs(true);
        rt
    }

    fn run_on(
        rt: &StdArc<CablesRt>,
        sched: &Schedule,
        params: ServiceParams,
    ) -> (u64, ServiceOutcome) {
        let out = StdArc::new(StdMutex::new(None));
        let o2 = StdArc::clone(&out);
        let s = sched.clone();
        let end = rt
            .run(move |pth| {
                *o2.lock().unwrap() = Some(run_service(pth, &s, params));
                0
            })
            .expect("service run");
        let o = out.lock().unwrap().take().expect("outcome");
        (end.as_nanos(), o)
    }

    fn run(nodes: usize, sched: &Schedule, params: ServiceParams) -> (u64, ServiceOutcome) {
        run_on(&rt(nodes, None), sched, params)
    }

    /// The run's request spans, in recording order.
    fn request_spans(rt: &CablesRt) -> Vec<EventRecord> {
        let mut ev = rt.svm().obs().events();
        ev.retain(|e| matches!(e.event, Event::ServiceRequest { .. }));
        ev
    }

    fn end_ns(e: &EventRecord) -> u64 {
        e.at.as_nanos() + e.dur_ns
    }

    #[test]
    fn open_loop_serves_everything_and_replays() {
        let sched = schedule(&TrafficConfig::uniform(5, 120, 128, 2_000_000));
        let (t1, o1) = run(4, &sched, ServiceParams::test());
        let (t2, o2) = run(4, &sched, ServiceParams::test());
        assert_eq!(o1.served, 120);
        assert_eq!(o1.direct_served, 0);
        assert_eq!((t1, o1), (t2, o2), "same schedule must replay bit-identically");
    }

    #[test]
    fn closed_loop_serves_everything() {
        let sched =
            schedule(&TrafficConfig::zipfian(9, 100, 128, 1_000_000).closed_loop(4, 2_000));
        let (_, o) = run(4, &sched, ServiceParams::test());
        assert_eq!(o.served, 100);
        assert_eq!(o.retries, 0);
    }

    /// Response digests of the two conflict-free schedules below, taken
    /// while pools were placed round-robin and all responses shared one
    /// table. Where threads run and where response slots live moves
    /// *when* a request is answered, never *what* it answers.
    const OPEN_DIGEST: u64 = 0xc3e6_78e8_950b_c345;
    const CLOSED_DIGEST: u64 = 0x514a_dc1d_5499_ad45;

    #[test]
    fn responses_are_pinned_across_node_counts_and_attach_modes() {
        let open = schedule(&TrafficConfig::uniform(21, 160, 256, 20_000)).conflict_free();
        let closed =
            schedule(&TrafficConfig::zipfian(22, 160, 256, 1_000_000).closed_loop(4, 2_000))
                .conflict_free();
        for nodes in [2, 4] {
            for warm in [false, true] {
                let fresh = || if warm { warm_rt(nodes) } else { rt(nodes, None) };
                let (_, o) = run_on(&fresh(), &open, ServiceParams::test());
                let (_, c) = run_on(&fresh(), &closed, ServiceParams::test());
                assert_eq!((o.served, c.served), (160, 160), "{nodes} nodes, warm {warm}");
                assert_eq!(o.digest, OPEN_DIGEST, "open loop, {nodes} nodes, warm {warm}");
                assert_eq!(c.digest, CLOSED_DIGEST, "closed loop, {nodes} nodes, warm {warm}");
            }
        }
    }

    /// The node each worker was created on, pool by pool (workers are the
    /// run's first creates, shard-major).
    fn pool_nodes(rt: &CablesRt, params: ServiceParams) -> Vec<Vec<u32>> {
        let on: Vec<u32> = rt
            .svm()
            .obs()
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::ThreadCreate { on, .. } => Some(on),
                _ => None,
            })
            .take((params.shards * params.workers_per_shard) as usize)
            .collect();
        on.chunks(params.workers_per_shard as usize).map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn each_pool_runs_on_one_node() {
        let sched = schedule(&TrafficConfig::uniform(5, 40, 64, 2_000_000));
        for (nodes, want) in [(2, [0, 1, 0, 1]), (4, [0, 1, 2, 3])] {
            for warm in [false, true] {
                let rt = if warm { warm_rt(nodes) } else { rt(nodes, None) };
                let (_, o) = run_on(&rt, &sched, ServiceParams::test());
                assert_eq!(o.served, 40);
                let want: Vec<Vec<u32>> = want.iter().map(|&n| vec![n; 2]).collect();
                let got = pool_nodes(&rt, ServiceParams::test());
                assert_eq!(got, want, "{nodes} nodes, warm {warm}");
            }
        }
    }

    #[test]
    fn a_response_page_has_one_writer_node_and_fetches_stay_rare() {
        // The benchmark's open-loop shape (4 nodes, 4096 keys, 4000 rps).
        // With each pool on one node and each shard's responses on pages
        // of their own, a request costs under one remote page fetch
        // (round-robin pools sharing one response table paid 1.9).
        let n = 2_000u32;
        let rt = rt(4, None);
        let sched = schedule(&TrafficConfig::uniform(11, n, 4_096, 4_000));
        let (_, o) = run_on(&rt, &sched, ServiceParams::test());
        assert_eq!(o.served, u64::from(n));
        let per_req = rt.svm().total_stats().remote_fetches as f64 / f64::from(n);
        assert!(per_req <= 1.0, "{per_req} remote fetches per request");

        // The responses are the last allocation before the pools start;
        // the main thread's zeroing faults come before the first create,
        // the workers' publishes after it.
        let events = rt.svm().obs().events();
        let first_create = events
            .iter()
            .position(|e| matches!(e.event, Event::ThreadCreate { .. }))
            .expect("worker creates");
        let (base, bytes) = events[..first_create]
            .iter()
            .rev()
            .find_map(|e| match e.event {
                Event::GlobalAlloc { base, bytes } => Some((base, bytes)),
                _ => None,
            })
            .expect("response allocation");
        let pages = GAddr::new(base).page().index()..=GAddr::new(base + bytes - 1).page().index();
        let mut writers = std::collections::BTreeMap::<u64, BTreeSet<u32>>::new();
        for e in &events {
            match e.event {
                Event::Fault { page, write: true }
                    if e.at >= events[first_create].at && pages.contains(&page) =>
                {
                    writers.entry(page).or_default().insert(e.node.0);
                }
                _ => {}
            }
        }
        assert!(writers.len() >= 4, "one page per shard at least: {writers:?}");
        assert!(writers.values().all(|nodes| nodes.len() == 1), "{writers:?}");
    }

    #[test]
    fn due_batch_larger_than_the_ring_publishes_before_blocking() {
        // One shard, ring of 2, five requests due at the same instant:
        // one group, met by an idle pool. The dispatcher must announce
        // the two it wrote before waiting for space, or every worker
        // sleeps on `not_empty` until the enqueue times out.
        let mut sched = schedule(&TrafficConfig::uniform(5, 5, 16, 2_000_000));
        for r in &mut sched.requests {
            r.arrival_ns = 1;
        }
        let mut params = ServiceParams::test();
        params.shards = 1;
        params.queue_cap = 2;
        let (_, o) = run(2, &sched, params);
        assert_eq!((o.served, o.direct_served), (5, 0));
        assert!(o.serve_ns < params.timeout_ns, "a timeout fired: serve_ns {}", o.serve_ns);
    }

    #[test]
    fn below_saturation_each_request_is_its_own_group() {
        // 1000 rps is far below capacity: every dispatcher wake-up finds
        // exactly one due request, so a request costs one enqueue hold,
        // the worker's flush-and-wait hold, its post-wait re-acquire and
        // one bucket lock (no scans in this mix) — four acquisitions.
        let n = 400u32;
        let mut cfg = TrafficConfig::uniform(5, n, 512, 1_000);
        cfg.mix = traffic::OpMix::update_heavy();
        let rt = rt(4, None);
        let (_, o) = run_on(&rt, &schedule(&cfg), ServiceParams::test());
        assert_eq!(o.served, u64::from(n));
        let per_req = rt.svm().total_stats().lock_acquires as f64 / f64::from(n);
        assert!((4.0..=4.2).contains(&per_req), "{per_req} lock acquisitions per request");
    }

    #[test]
    fn serving_window_ends_with_the_last_response() {
        // The drain blocks on the drained cond instead of polling: the
        // window closes one cond wake-up after the last response, not at
        // the next timeout quantum.
        let rt = rt(4, None);
        let sched = schedule(&TrafficConfig::uniform(5, 200, 256, 4_000));
        let (_, o) = run_on(&rt, &sched, ServiceParams::test());
        let serve_t0 = rt
            .svm()
            .obs()
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::PthBarrierWait { .. }))
            .map(end_ns)
            .max()
            .expect("ready barrier");
        let spans = request_spans(&rt);
        let last = spans.iter().map(end_ns).max().expect("request spans");
        let longest = spans.iter().map(|e| e.dur_ns).max().expect("request spans");
        let serve_end = serve_t0 + o.serve_ns;
        assert!(serve_end >= last);
        assert!(
            serve_end - last <= longest,
            "window closed {} ns after the last response (longest request {longest} ns)",
            serve_end - last
        );
    }

    #[test]
    fn crash_right_after_a_publish_keeps_the_tally_exact() {
        // A worker that dies between publishing a response and its next
        // dequeue takes its unflushed completion count with it. Whether
        // the response itself survives depends on which side of a release
        // the crash lands: one nanosecond after the publish it is still
        // unflushed and gets reaped; once the pool-mate — same node, same
        // dirty page — has gone to sleep on the empty queue, its
        // `cond_wait`'s unlock has flushed the response home and only the
        // count is lost. The tally is derived from the response arrays,
        // so it is exact either way.
        let sched = schedule(&TrafficConfig::uniform(5, 120, 128, 2_000_000));
        let clean_rt = rt(4, None);
        let (_, clean) = run_on(&clean_rt, &sched, ServiceParams::test());
        assert_eq!((clean.served, clean.direct_served), (120, 0));
        let publishes: Vec<EventRecord> = request_spans(&clean_rt)
            .into_iter()
            .filter(|e| e.node.0 != 0)
            .collect();
        assert!(publishes.len() >= 40, "workers off the master served requests");
        let mut instants: Vec<(u32, u64)> =
            publishes.iter().step_by(3).map(|e| (e.node.0, end_ns(e) + 1)).collect();
        // Off the master only workers wait on a cond, and only on
        // `not_empty`: the instant after each such wait's release.
        let events = clean_rt.svm().obs().events();
        let waits = events
            .iter()
            .filter(|e| e.node.0 != 0 && matches!(e.event, Event::PthCondWait { .. }));
        for w in waits {
            let release = events
                .iter()
                .find(|r| {
                    r.track == w.track
                        && r.at >= w.at
                        && matches!(r.event, Event::ReleaseSpan { .. })
                })
                .expect("a cond_wait releases its mutex");
            instants.push((w.node.0, end_ns(release) + 1));
        }
        let mut count_lost_response_kept = 0;
        for (node, at) in instants {
            let plan = FaultPlan::new().crash(node, at);
            let (_, o) = run_on(&rt(4, Some(plan)), &sched, ServiceParams::test());
            assert_eq!(o.served + o.direct_served, 120, "crash of node {node} at {at}");
            // Nothing to reap, yet the drain sat out its eight stall
            // windows: a completion count died unflushed.
            let stalled = o.serve_ns >= 8 * ServiceParams::test().timeout_ns;
            count_lost_response_kept += u32::from(o.direct_served == 0 && stalled);
        }
        assert!(count_lost_response_kept > 0, "no crash landed between release and flush");
    }

    #[test]
    fn puts_then_gets_round_trip() {
        // A write-only then read-only schedule: every get of a put key
        // must return val_word(key, 0) (checked inside execute()), and
        // the digests must differ between the two phases.
        let mut cfg = TrafficConfig::uniform(3, 60, 32, 1_000_000);
        cfg.mix = traffic::OpMix { get: 0, put: 1, delete: 0, scan: 0, scan_len: 0 };
        let puts = schedule(&cfg);
        cfg.mix = traffic::OpMix { get: 1, put: 0, delete: 0, scan: 0, scan_len: 0 };
        cfg.seed = 4;
        let gets = schedule(&cfg);
        let (_, op) = run(2, &puts, ServiceParams::test());
        let (_, og) = run(2, &gets, ServiceParams::test());
        assert_eq!(op.served, 60);
        assert_eq!(og.served, 60);
        assert_ne!(op.digest, og.digest);
    }
}

/// The crash fallback: execute `r` on the calling thread and publish
/// its response, using only resources a crash cannot take down. Returns
/// false when the response turned out to be already published (a slow
/// worker won the race); the caller emits the span on true.
fn serve_direct(p: &Pth, plan: &Plan, r: &Request) -> bool {
    if pth_done(p, plan, r.id) {
        return false;
    }
    let v = plan.execute(p, r);
    p.write::<u64>(plan.resp_addr(r.id) + 8, v);
    p.write::<u64>(plan.resp_addr(r.id), 1);
    true
}
