//! System locks and native barriers (GeNIMA's synchronization primitives).
//!
//! Locks are the release-consistency *acquire* operations; barriers combine
//! a release (arrival) with an acquire (departure). The M4 macro layer and
//! CableS's pthreads mutexes are both built on these.
//!
//! The plumbing every blocking primitive shares — here and in `cables` —
//! also lives in this module, once each: the [`WaitQueue`] (who waits), the
//! hand-off ([`SyncEffects::handoff`]: what a wake-up records and when the
//! woken thread resumes) and the park ([`SvmSystem::park`]: every block is
//! followed by a crash checkpoint). The interpreter is written once over
//! [`SyncEffects`], each blocking call a few steps split at its parks and
//! at the ordering points where a crash may land; the simulated cluster
//! ([`Real`]) and the crash explorer both run them. Both implement only
//! state; every time, wire, RC and obs effect has one body, written through
//! [`SyncEffects::real`], that does nothing in the explorer.

use std::collections::VecDeque;

use obs::EdgeKind;
use san::SendTiming;
use sim::{NodeId, Sim, SimTime, Tid};

use crate::api::SvmSystem;
use crate::config::{cost, SvmConfig};
use crate::core::ProtoState;

/// FIFO of parked threads `(tid, node, tag)`: the one waiter queue behind
/// locks, barriers, conditions, rwlocks (tagged with `wants_write`),
/// joiners and the idle thread pool. A thread parks in at most one queue
/// at a time, once.
#[doc(hidden)]
#[derive(Debug, Default, Clone)]
pub struct WaitQueue<T = ()>(pub VecDeque<(Tid, NodeId, T)>);

impl<T> WaitQueue<T> {
    /// Appends a waiter and returns the new depth.
    pub fn push(&mut self, tid: Tid, node: NodeId, tag: T) -> u64 {
        self.0.push_back((tid, node, tag));
        self.0.len() as u64
    }

    /// Removes `tid`'s entry, if it has one. Order-preserving and
    /// independent of any map order, so replay stays deterministic.
    pub fn purge(&mut self, tid: Tid) -> bool {
        let at = self.0.iter().position(|w| w.0 == tid);
        at.and_then(|i| self.0.remove(i)).is_some()
    }
}

/// One end of a causal edge on the bus: `(node, lane, time)`, lane `None`
/// being the calling thread's.
pub type Point = (NodeId, Option<Tid>, SimTime);

/// Everything the synchronisation interpreter does outside the cores, for
/// one thread; `proto.rs`'s page effects and `cables`' runtime effects
/// extend it. Statically dispatched. An effect set implements the state
/// effects — the cores, the crash checkpoint, the wake — and
/// [`SyncEffects::real`]. The time, wire, RC and obs effects have one body
/// each, written through `real`: [`Real`] performs them on the simulated
/// cluster, and in an explorer's world they do nothing.
pub trait SyncEffects {
    fn cfg(&self) -> &SvmConfig;
    fn node(&self) -> NodeId;
    fn tid(&self) -> Tid;
    /// The node holding the directory and the ACB.
    fn master(&self) -> NodeId;
    /// Runs one core transition under the protocol-state borrow.
    fn with_proto<R>(&mut self, f: impl FnOnce(&mut ProtoState) -> R) -> R;
    /// The crash checkpoint: a thread of a crashed node unwinds here.
    fn crash_check(&mut self);
    fn wake(&mut self, tid: Tid, at: SimTime);

    /// The simulated cluster and the thread it runs; `None` in a world
    /// without time, wire or obs.
    fn real(&self) -> Option<(&SvmSystem, &Sim)> {
        None
    }

    /// Runs `f` on [`SyncEffects::real`]; `R`'s default without it.
    fn on_real<'s, R: Default>(&'s self, f: impl FnOnce(&'s SvmSystem, &'s Sim) -> R) -> R {
        self.real()
            .map_or_else(R::default, |(sys, sim)| f(sys, sim))
    }

    // The thread's clock and ordering points (`op_point(0)` only orders);
    // the wire (a notification posted at `at`, `bytes` sent to `to` now,
    // a small record read on the master, free there); the RC release and
    // acquire (`proto.rs`); the obs sink and the thread's lane, while
    // recording.
    fn now(&self) -> SimTime {
        self.on_real(|_, sim| sim.now())
    }
    fn advance(&self, ns: u64) {
        self.on_real(|_, sim| sim.advance(ns));
    }
    fn clock_at_least(&self, t: SimTime) {
        self.on_real(|_, sim| sim.clock_at_least(t));
    }
    fn op_point(&self, ns: u64) {
        self.on_real(|_, sim| sim.op_point(ns));
    }
    fn notify(&self, from: NodeId, to: NodeId, at: SimTime) -> SendTiming {
        self.on_real(|sys, _| sys.cluster.san.notify(from, to, at))
    }
    fn send(&self, to: NodeId, bytes: u64) -> SendTiming {
        self.on_real(|sys, sim| sys.cluster.san.send(sim.node(), to, bytes, sim.now()))
    }
    fn send_base_ns(&self) -> u64 {
        self.on_real(|sys, _| sys.cluster.san.config().send_base_ns)
    }
    fn fetch_master(&self, bytes: u64) {
        self.on_real(|sys, sim| {
            if sim.node() != sys.master {
                let san = &sys.cluster.san;
                sim.clock_at_least(san.fetch(sim.node(), sys.master, bytes, sim.now()));
            }
        });
    }
    fn release(&mut self) {
        self.on_real(|sys, sim| sys.release(sim));
    }
    fn acquire(&mut self) {
        self.on_real(|sys, sim| sys.acquire(sim));
    }
    fn obs(&self) -> Option<(&obs::ObsSink, u64)> {
        self.on_real(|sys, sim| sys.obs_if_on().map(|o| (o, sim.tid().0)))
    }

    /// Entry of a blocking primitive or a fault: its start time, with the
    /// streaming series clock advanced so live windows keep cutting through
    /// long quiet stretches (no-op unless a series is running; recording
    /// never charges simulated time).
    fn entry(&self) -> SimTime {
        let t0 = self.now();
        if let Some((o, _)) = self.obs() {
            o.series_tick(t0);
        }
        t0
    }

    /// Records an instant on this thread's lane at its clock, attributed to
    /// `node`.
    fn instant(&self, layer: obs::Layer, node: NodeId, event: obs::Event) {
        if let Some((o, me)) = self.obs() {
            o.instant(layer, node, me, self.now(), event);
        }
    }

    /// Records a span on this thread's lane from `t0` to now; `event` is
    /// built only while recording.
    fn span(&self, layer: obs::Layer, t0: SimTime, event: impl FnOnce() -> obs::Event) {
        if let Some((o, me)) = self.obs() {
            let took = self.now().saturating_since(t0);
            o.span(layer, self.node(), me, t0, took, event());
        }
    }

    /// Records the causal edge `from` → `to`.
    fn edge(&self, kind: EdgeKind, from: Point, to: Point, arg: u64) {
        if let Some((o, me)) = self.obs() {
            let ((n0, l0, t0), (n1, l1, t1)) = (from, to);
            let lane = |t: Option<Tid>| t.map_or(me, |t| t.0);
            o.edge(kind, n0, lane(l0), t0, n1, lane(l1), t1, arg);
        }
    }

    /// `bytes` of news to the master (an ACB or directory update), unless
    /// this is it: a direct remote write, waiting for its own NIC only.
    fn send_master(&self, bytes: u64) {
        if self.node() != self.master() {
            let t = self.send(self.master(), bytes);
            self.clock_at_least(t.local_done);
        }
    }

    /// The one hand-off: thread `to` resumes at `arrival`, and when that is
    /// later than its cause — `(node, time)` on the calling thread — the
    /// bus gets the causal edge `(kind, object id)`. `None` for wake-ups
    /// that have no edge kind (cancellation).
    fn handoff(
        &mut self,
        edge: Option<(EdgeKind, u64)>,
        cause: (NodeId, SimTime),
        arrival: SimTime,
        to: (Tid, NodeId),
    ) {
        let ((from, cause_t), (tid, node)) = (cause, to);
        if let Some((kind, id)) = edge.filter(|_| arrival > cause_t) {
            self.edge(kind, (from, None, cause_t), (node, Some(tid), arrival), id);
        }
        self.wake(tid, arrival);
    }

    /// A hand-off by notification: it leaves this thread's node now, is
    /// relayed along `hops` (a hop within one node is free; the handler of
    /// each relaying node adds `relay_ns`) and wakes `to` on arrival.
    fn notify_handoff(
        &mut self,
        edge: Option<(EdgeKind, u64)>,
        hops: &[NodeId],
        relay_ns: u64,
        to: (Tid, NodeId),
    ) {
        let cause = (self.node(), self.now());
        let (mut at, mut t) = cause;
        for (i, &hop) in hops.iter().enumerate() {
            if i > 0 {
                t = t + relay_ns;
            }
            if hop != at {
                t = self.notify(at, hop, t).arrival;
                at = hop;
            }
        }
        self.handoff(edge, cause, t, to);
    }

    /// Request/reply round trip with a remote lock manager.
    fn manager_round_trip(&self, manager: NodeId) {
        let req = self.notify(self.node(), manager, self.now());
        let handled = req.arrival + cost::LOCK_HANDLER_NS;
        let reply = self.notify(manager, self.node(), handled);
        self.clock_at_least(reply.arrival);
    }
}

/// The simulated cluster as the interpreters' effects, for the thread
/// `sim` runs; `ext` is the layer above's state (the CableS runtime). It
/// implements the state effects and [`SyncEffects::real`], nothing else.
#[derive(Debug)]
pub struct Real<'a, X = ()> {
    pub sys: &'a SvmSystem,
    pub sim: &'a Sim,
    pub ext: &'a X,
}

impl<X> SyncEffects for Real<'_, X> {
    fn cfg(&self) -> &SvmConfig {
        &self.sys.cfg
    }

    fn node(&self) -> NodeId {
        self.sim.node()
    }

    fn tid(&self) -> Tid {
        self.sim.tid()
    }

    fn master(&self) -> NodeId {
        self.sys.master
    }

    fn with_proto<R>(&mut self, f: impl FnOnce(&mut ProtoState) -> R) -> R {
        f(&mut self.sys.state.lock())
    }

    fn crash_check(&mut self) {
        self.sys.crash_check(self.sim);
    }

    fn wake(&mut self, tid: Tid, at: SimTime) {
        self.sim.wake(tid, at);
    }

    fn real(&self) -> Option<(&SvmSystem, &Sim)> {
        Some((self.sys, self.sim))
    }
}

impl SvmSystem {
    /// The interpreters' effects for the thread `sim` runs.
    pub(crate) fn at<'a>(&'a self, sim: &'a Sim) -> Real<'a> {
        Real {
            sys: self,
            sim,
            ext: &(),
        }
    }

    /// The node where lock `id`'s ownership is currently cached, if any.
    pub fn lock_owner_node(&self, id: u64) -> Option<sim::NodeId> {
        self.state.lock().locks.get(&id).and_then(|l| l.holder_node)
    }

    /// The one park: blocks until woken (or until `deadline`; the result
    /// says whether it was a wake), then runs the crash checkpoint — a
    /// waiter unparked by crash recovery, its queue entry purged, must die
    /// here, before it acts on a grant it never got.
    #[doc(hidden)]
    pub fn park(&self, sim: &Sim, deadline: Option<SimTime>) -> bool {
        let woken = match deadline {
            Some(d) => sim.block_deadline(d),
            None => {
                sim.block();
                true
            }
        };
        self.crash_check(sim);
        woken
    }

    /// Acquires system lock `id`, blocking until granted, then applies
    /// pending write notices (the RC acquire).
    ///
    /// Lock ownership is cached at nodes: re-acquiring a lock last held on
    /// the same node is a purely local operation (paper Table 4, "local
    /// mutex lock" vs "remote mutex lock").
    pub fn lock(&self, sim: &Sim, id: u64) {
        let e = &mut self.at(sim);
        let entered = lock(e, id);
        self.granted(e, entered, obs::Event::LockWait { id });
    }

    /// Attempts to acquire system lock `id` without blocking. On success
    /// performs the RC acquire and returns `true`.
    pub fn try_lock(&self, sim: &Sim, id: u64) -> bool {
        let e = &mut self.at(sim);
        e.crash_check();
        let got = lock_or(e, id, false).is_some();
        if got {
            e.acquire();
        }
        got
    }

    /// Releases system lock `id` after flushing this node's dirty pages
    /// (the RC release).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the lock.
    pub fn unlock(&self, sim: &Sim, id: u64) {
        let e = &mut self.at(sim);
        unlock_release(e);
        unlock(e, id);
    }

    /// Native (GeNIMA) barrier across `n` threads: releases, waits for all
    /// arrivals at the manager, then acquires on departure.
    ///
    /// Distinct barrier episodes may reuse the same `id`.
    pub fn barrier(&self, sim: &Sim, id: u64, n: usize) {
        let e = &mut self.at(sim);
        let entered = barrier(e, id, n);
        self.granted(e, entered, obs::Event::BarrierWait { id });
    }

    /// A lock's or a barrier's end, once its step `entered` at `t0`: the
    /// park while queued (`parks`), the RC acquire, the wait's span.
    fn granted(&self, e: &mut Real, (t0, parks): (SimTime, bool), event: obs::Event) {
        if parks {
            self.park(e.sim, None);
        }
        e.acquire();
        e.span(obs::Layer::Sync, t0, || event);
    }
}

/// [`SvmSystem::lock`] up to its park: the entry checkpoint, then the
/// request. Its start time, and whether it parks.
pub fn lock<E: SyncEffects>(e: &mut E, id: u64) -> (SimTime, bool) {
    e.crash_check();
    let t0 = e.entry();
    (t0, lock_or(e, id, true) == Some(true))
}

/// Takes lock `id` if it is free (`Some(false)`); otherwise queues for it
/// (`wait`: `Some(true)`, the caller parks) or gives up (`None`).
/// Timing-visible asymmetry, kept: a probe records its node in
/// `acquired_from` without paying the first-time bookkeeping, and counts
/// as an acquire only when it succeeds.
fn lock_or<E: SyncEffects>(e: &mut E, id: u64, wait: bool) -> Option<bool> {
    e.op_point(cost::LOCK_LOCAL_NS);
    let (node, tid) = (e.node(), e.tid());
    let g = e.with_proto(|p| p.lock(id, tid, node, wait));
    if wait && g.first_time {
        e.advance(cost::LOCK_FIRST_TIME_NS);
        // First-time bookkeeping reads the lock record remotely.
        e.fetch_master(16);
    }
    if g.granted {
        if !g.local && node != g.manager {
            e.manager_round_trip(g.manager);
        } else if !g.local {
            e.advance(cost::LOCK_HANDLER_NS);
        }
        Some(false)
    } else if wait {
        // Request reaches the manager; we wait for a grant from the
        // releasing thread.
        if node != g.manager {
            let req = e.notify(node, g.manager, e.now());
            e.clock_at_least(req.local_done);
        }
        Some(true)
    } else {
        // A failed probe still costs the manager round trip when the
        // lock record lives elsewhere.
        if node != g.manager {
            e.manager_round_trip(g.manager);
        }
        None
    }
}

/// An unlock's first step: the entry checkpoint and the RC release.
pub fn unlock_release<E: SyncEffects>(e: &mut E) {
    e.crash_check();
    e.release();
}

/// An unlock's second step. The release took simulated time: the node
/// may have crashed during the flush, and recovery then already passed
/// this lock on — past the ordering point the casualty must die at the
/// checkpoint, not trip the holder check. Then the hand-off: release to
/// the manager, its handler, grant to the waiter.
pub fn unlock<E: SyncEffects>(e: &mut E, id: u64) {
    e.op_point(cost::LOCK_LOCAL_NS);
    e.crash_check();
    let tid = e.tid();
    if let Some((to, manager)) = e.with_proto(|p| p.unlock(id, tid)) {
        let edge = Some((EdgeKind::LockHandoff, id));
        e.notify_handoff(edge, &[manager, to.1], cost::LOCK_HANDLER_NS, to);
    }
}

/// [`SvmSystem::barrier`] up to its park: the entry checkpoint, the
/// release, the arrival at the manager, and the fan-out when it is the
/// last. Its start time, and whether it parks.
pub fn barrier<E: SyncEffects>(e: &mut E, id: u64, n: usize) -> (SimTime, bool) {
    assert!(n > 0, "barrier over zero threads");
    e.crash_check();
    let t0 = e.entry();
    e.release();
    e.op_point(cost::LOCK_LOCAL_NS);
    let (node, tid, manager) = (e.node(), e.tid(), e.master());
    let arrive_at_mgr = if node != manager {
        e.send(manager, 8).arrival
    } else {
        e.now()
    };
    let opened = e.with_proto(|p| p.arrive(id, tid, node, n, arrive_at_mgr));
    let Some((waiters, release_t)) = opened else {
        return (t0, true);
    };
    fan_out(e, EdgeKind::BarrierRelease, id, waiters, release_t);
    let back = if node != manager { e.send_base_ns() } else { 0 };
    e.clock_at_least(release_t + back);
    (t0, false)
}

/// Wakes a released barrier's waiters. Release messages fan out from the
/// manager's NIC; timing-visible asymmetry, kept: every waiter pays one
/// flat `send_base_ns` from the nominal release rather than a
/// NIC-serialised notify (the same-node case is rare and only saves
/// 7.8us). A release that crash recovery finds overdue never wakes into
/// the past.
fn fan_out<E: SyncEffects>(
    e: &mut E,
    kind: EdgeKind,
    id: u64,
    waiters: WaitQueue,
    release_t: SimTime,
) {
    let now = e.now();
    let wake_t = release_t.max(now) + e.send_base_ns();
    for (tid, wnode, ()) in waiters.0 {
        let cause = (e.node(), now);
        e.handoff(Some((kind, id)), cause, wake_t, (tid, wnode));
    }
}

/// Crash recovery of the lock and barrier managers
/// ([`ProtoState::crash`]): the dead found parked, to be woken so they
/// unwind. The recovering thread grants a dead holder's locks on its
/// behalf, at `now + LOCK_HANDLER_NS` with no wire message, the edge
/// sourced at `node`; then `between` runs (the caller's own grants keep
/// their place in the wake order); then the barriers the recovery opened
/// release.
pub fn crash<E: SyncEffects>(
    e: &mut E,
    (dead, forgive, open): (&[Tid], u64, bool),
    node: NodeId,
    between: impl FnOnce(&mut E),
) -> Vec<Tid> {
    let c = e.with_proto(|p| p.crash(dead, forgive, open));
    let now = e.now();
    for (id, to) in c.grants {
        let edge = Some((EdgeKind::Recovery, id));
        let arrival = now + cost::LOCK_HANDLER_NS;
        e.handoff(edge, (node, now), arrival, to);
    }
    between(e);
    for (id, (waiters, release_t)) in c.opened {
        fan_out(e, EdgeKind::Recovery, id, waiters, release_t);
    }
    c.parked
}

#[cfg(test)]
mod tests {
    use crate::api::SvmSystem;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::SvmConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn system(nodes: usize, cpus: usize, cfg: SvmConfig) -> (Arc<Cluster>, Arc<SvmSystem>) {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
        (cluster, sys)
    }

    #[test]
    fn lock_excludes_and_hands_off() {
        let (cluster, sys) = system(2, 1, SvmConfig::base());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let s3 = Arc::clone(&s2);
                let o3 = Arc::clone(&o2);
                let child = s2.create(sim, move |csim| {
                    s3.lock(csim, 1);
                    o3.lock().unwrap().push("child");
                    csim.advance(1_000);
                    s3.unlock(csim, 1);
                });
                s2.lock(sim, 1);
                o2.lock().unwrap().push("main");
                sim.advance(50_000);
                s2.unlock(sim, 1);
                sim.wait_exit(child);
            })
            .unwrap();
        let v = order.lock().unwrap().clone();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn local_relock_is_cheap() {
        let (cluster, sys) = system(2, 1, SvmConfig::base());
        let costs = Arc::new(std::sync::Mutex::new(Vec::new()));
        let c2 = Arc::clone(&costs);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                // First acquire (first time, includes bookkeeping).
                let t0 = sim.now();
                s2.lock(sim, 7);
                let first = sim.now() - t0;
                s2.unlock(sim, 7);
                // Re-acquire from the same node: ownership cached.
                let t1 = sim.now();
                s2.lock(sim, 7);
                let second = sim.now() - t1;
                s2.unlock(sim, 7);
                c2.lock().unwrap().push((first, second));
            })
            .unwrap();
        let (first, second) = costs.lock().unwrap()[0];
        assert!(
            second < first,
            "cached local relock ({second}ns) should be cheaper than first ({first}ns)"
        );
        assert!(
            second < 10_000,
            "local lock should be a few us, got {second}ns"
        );
    }

    #[test]
    fn barrier_synchronizes_all() {
        let (cluster, sys) = system(2, 2, SvmConfig::base());
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let n = 4;
                let mut kids = Vec::new();
                for i in 0..n - 1 {
                    let s3 = Arc::clone(&s2);
                    let h3 = Arc::clone(&h2);
                    kids.push(s2.create(sim, move |csim| {
                        csim.advance(1_000 * (i as u64 + 1));
                        h3.fetch_add(1, Ordering::SeqCst);
                        s3.barrier(csim, 9, n);
                        // After the barrier everyone must have arrived.
                        assert_eq!(h3.load(Ordering::SeqCst), (n - 1) as u64);
                    }));
                }
                s2.barrier(sim, 9, n);
                assert_eq!(h2.load(Ordering::SeqCst), (n - 1) as u64);
                for k in kids {
                    sim.wait_exit(k);
                }
            })
            .unwrap();
    }

    #[test]
    fn barrier_reusable_across_episodes() {
        let (cluster, sys) = system(2, 1, SvmConfig::cables());
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let s3 = Arc::clone(&s2);
                let child = s2.create(sim, move |csim| {
                    for _ in 0..3 {
                        s3.barrier(csim, 1, 2);
                    }
                });
                for _ in 0..3 {
                    s2.barrier(sim, 1, 2);
                }
                sim.wait_exit(child);
            })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "unlock of unknown lock")]
    fn unlock_by_non_holder_panics() {
        let (cluster, sys) = system(1, 1, SvmConfig::base());
        let s2 = Arc::clone(&sys);
        let result = cluster.engine.clone().run(cluster.nodes()[0], move |sim| {
            s2.unlock(sim, 3);
        });
        // Re-panic with the embedded message for should_panic to see.
        if let Err(e) = result {
            panic!("{e}");
        }
    }
}
