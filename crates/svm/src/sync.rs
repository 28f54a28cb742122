//! System locks and native barriers (GeNIMA's synchronization primitives).
//!
//! Locks are the release-consistency *acquire* operations; barriers combine
//! a release (arrival) with an acquire (departure). The M4 macro layer and
//! CableS's pthreads mutexes are both built on these.
//!
//! The plumbing every blocking primitive shares — here and in `cables` —
//! also lives in this module, once each: the [`WaitQueue`] (who waits), the
//! hand-off ([`SvmSystem::handoff`]: what a wake-up records and when the
//! woken thread resumes) and the park ([`SvmSystem::park`]: every block is
//! followed by a crash checkpoint).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use obs::EdgeKind;
use sim::{IdSet, NodeId, Sim, SimTime, Tid};

use crate::api::SvmSystem;

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

#[derive(Debug, Clone)]
pub(crate) struct LockState {
    pub manager: NodeId,
    pub holder: Option<Tid>,
    pub holder_node: Option<NodeId>,
    pub waiters: WaitQueue,
    pub acquired_from: IdSet<u32>,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct BarrierState {
    pub count: usize,
    pub waiters: WaitQueue,
    pub max_arrival: SimTime,
    /// Membership of the current episode, recorded on every arrival so a
    /// crash recovery can release the barrier when the survivors plus the
    /// crashed-thread discount cover it.
    pub expected: usize,
}

impl LockState {
    /// The grant decision, shared by `unlock` and crash recovery: the
    /// head waiter becomes the holder, or the lock falls free.
    fn pass_on(&mut self) -> Option<(Tid, NodeId)> {
        let next = self
            .waiters
            .0
            .pop_front()
            .map(|(tid, node, ())| (tid, node));
        self.holder = next.map(|(tid, _)| tid);
        if let Some((_, node)) = next {
            self.holder_node = Some(node);
        }
        next
    }
}

impl BarrierState {
    /// The release decision, shared by the last arriver and crash
    /// recovery: takes the waiters, resets the episode and returns the
    /// nominal release time at the manager.
    fn open(&mut self, per_node_ns: u64) -> (WaitQueue, SimTime) {
        let release_t = self.max_arrival + per_node_ns * self.expected as u64;
        self.count = 0;
        self.max_arrival = SimTime::ZERO;
        (std::mem::take(&mut self.waiters), release_t)
    }
}

impl SvmSystem {
    /// Whether lock `id`'s ownership is currently cached at `node` (so an
    /// acquire from that node is a purely local operation).
    pub fn lock_is_local(&self, id: u64, node: sim::NodeId) -> bool {
        self.lock_owner_node(id) == Some(node)
    }

    /// The node where lock `id`'s ownership is currently cached, if any.
    pub fn lock_owner_node(&self, id: u64) -> Option<sim::NodeId> {
        let st = self.state.lock();
        st.locks.get(&id).and_then(|l| l.holder_node)
    }

    /// The one hand-off: thread `to` resumes at `arrival`, and when that is
    /// later than its cause — `(node, time)` on the calling thread — the
    /// bus gets the causal edge `(kind, object id)`. `None` for wake-ups
    /// that have no edge kind (cancellation).
    #[doc(hidden)]
    pub fn handoff(
        &self,
        sim: &Sim,
        edge: Option<(EdgeKind, u64)>,
        cause: (NodeId, SimTime),
        arrival: SimTime,
        to: (Tid, NodeId),
    ) {
        let ((from, cause_t), (tid, node)) = (cause, to);
        if let (Some((kind, id)), Some(o)) = (edge, self.obs_if_on()) {
            if arrival > cause_t {
                let me = sim.tid().0;
                o.edge(kind, from, me, cause_t, node, tid.0, arrival, id);
            }
        }
        sim.wake(tid, arrival);
    }

    /// A hand-off by notification: it leaves this thread's node now, is
    /// relayed along `hops` (a hop within one node is free; the handler of
    /// each relaying node adds `relay_ns`) and wakes `to` on arrival.
    #[doc(hidden)]
    pub fn notify_handoff(
        &self,
        sim: &Sim,
        edge: Option<(EdgeKind, u64)>,
        hops: &[NodeId],
        relay_ns: u64,
        to: (Tid, NodeId),
    ) {
        let cause = (sim.node(), sim.now());
        let (mut at, mut t) = cause;
        for (i, &hop) in hops.iter().enumerate() {
            if i > 0 {
                t = t + relay_ns;
            }
            if hop != at {
                t = self.cluster.san.notify(at, hop, t).arrival;
                at = hop;
            }
        }
        self.handoff(sim, edge, cause, t, to);
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

    /// Entry of a blocking primitive: its start time, with the streaming
    /// series clock advanced so live windows keep cutting through long
    /// quiet stretches (no-op unless a series is running; never charges
    /// simulated time).
    fn sync_entry(&self, sim: &Sim) -> SimTime {
        let t0 = sim.now();
        if let Some(o) = self.obs_if_on() {
            o.series_tick(t0);
        }
        t0
    }

    /// The wait record of a blocking primitive that started at `t0`.
    fn sync_span(&self, sim: &Sim, t0: SimTime, event: obs::Event) {
        if let Some(o) = self.obs_if_on() {
            let waited = sim.now().saturating_since(t0);
            o.span(obs::Layer::Sync, sim.node(), sim.tid().0, t0, waited, event);
        }
    }

    /// Request/reply round trip with a remote lock manager.
    fn manager_round_trip(&self, sim: &Sim, manager: NodeId) {
        let san = &self.cluster.san;
        let req = san.notify(sim.node(), manager, sim.now());
        let reply = san.notify(
            manager,
            sim.node(),
            req.arrival + self.cfg.costs.lock_handler_ns,
        );
        sim.clock_at_least(reply.arrival);
    }

    /// Acquires system lock `id`, blocking until granted, then applies
    /// pending write notices (the RC acquire).
    ///
    /// Lock ownership is cached at nodes: re-acquiring a lock last held on
    /// the same node is a purely local operation (paper Table 4, "local
    /// mutex lock" vs "remote mutex lock").
    pub fn lock(&self, sim: &Sim, id: u64) {
        self.crash_check(sim);
        let t0 = self.sync_entry(sim);
        self.lock_or(sim, id, true);
        self.sync_span(sim, t0, obs::Event::LockWait { id });
    }

    /// Attempts to acquire system lock `id` without blocking. On success
    /// performs the RC acquire and returns `true`.
    pub fn try_lock(&self, sim: &Sim, id: u64) -> bool {
        self.crash_check(sim);
        self.lock_or(sim, id, false)
    }

    /// Takes lock `id` if it is free; otherwise queues and parks for it
    /// (`wait`) or gives up. Timing-visible asymmetry, kept: a probe
    /// records its node in `acquired_from` without paying the first-time
    /// bookkeeping, and counts as an acquire only when it succeeds.
    fn lock_or(&self, sim: &Sim, id: u64, wait: bool) -> bool {
        sim.op_point(self.cfg.costs.lock_local_ns);
        let node = sim.node();
        let (granted, first_time, local_grant, manager) = {
            let mut st = self.state.lock();
            let stx = &mut *st;
            // The first acquirer's node manages the lock (as with GeNIMA's
            // distributed lock managers assigned at first use).
            let l = stx.locks.entry(id).or_insert_with(|| LockState {
                manager: node,
                holder: None,
                holder_node: None,
                waiters: WaitQueue::default(),
                acquired_from: IdSet::default(),
            });
            let first_time = l.acquired_from.insert(node.0);
            let granted = l.holder.is_none();
            // A fresh lock acquired by its manager is also local.
            let local_grant = granted
                && (l.holder_node == Some(node) || (l.holder_node.is_none() && l.manager == node));
            if granted {
                l.holder = Some(sim.tid());
                l.holder_node = Some(node);
            } else if wait {
                l.waiters.push(sim.tid(), node, ());
            }
            let manager = l.manager;
            if granted || wait {
                stx.nodes[node.0 as usize].stats.lock_acquires += 1;
            }
            (granted, first_time, local_grant, manager)
        };

        if wait && first_time {
            sim.advance(self.cfg.costs.lock_first_time_ns);
            if node != self.master {
                // First-time bookkeeping reads the lock record remotely.
                let done = self.cluster.san.fetch(node, self.master, 16, sim.now());
                sim.clock_at_least(done);
            }
        }

        if granted {
            if !local_grant && node != manager {
                self.manager_round_trip(sim, manager);
            } else if !local_grant {
                sim.advance(self.cfg.costs.lock_handler_ns);
            }
        } else if wait {
            // Request reaches the manager; we wait for a grant from the
            // releasing thread.
            if node != manager {
                let req = self.cluster.san.notify(node, manager, sim.now());
                sim.clock_at_least(req.local_done);
            }
            self.park(sim, None);
        } else {
            // A failed probe still costs the manager round trip when the
            // lock record lives elsewhere.
            if node != manager {
                self.manager_round_trip(sim, manager);
            }
            return false;
        }
        self.acquire(sim);
        true
    }

    /// Releases system lock `id` after flushing this node's dirty pages
    /// (the RC release).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the lock.
    pub fn unlock(&self, sim: &Sim, id: u64) {
        self.crash_check(sim);
        self.release(sim);
        sim.op_point(self.cfg.costs.lock_local_ns);
        // The release takes simulated time: the node may have crashed
        // during the flush, and recovery then already passed this lock on
        // — the casualty must die here, not trip the holder check below.
        self.crash_check(sim);

        let next = {
            let mut st = self.state.lock();
            let l = st.locks.get_mut(&id).expect("unlock of unknown lock");
            assert_eq!(l.holder, Some(sim.tid()), "unlock by non-holder");
            l.pass_on().map(|to| (to, l.manager))
        };
        if let Some((to, manager)) = next {
            // Release to the manager, its handler, grant to the waiter.
            let edge = Some((EdgeKind::LockHandoff, id));
            let handler_ns = self.cfg.costs.lock_handler_ns;
            self.notify_handoff(sim, edge, &[manager, to.1], handler_ns, to);
        }
    }

    /// Native (GeNIMA) barrier across `n` threads: releases, waits for all
    /// arrivals at the manager, then acquires on departure.
    ///
    /// Distinct barrier episodes may reuse the same `id`.
    pub fn barrier(&self, sim: &Sim, id: u64, n: usize) {
        assert!(n > 0, "barrier over zero threads");
        self.crash_check(sim);
        let t0 = self.sync_entry(sim);
        self.release(sim);
        sim.op_point(self.cfg.costs.lock_local_ns);
        let node = sim.node();
        let manager = self.master;

        let arrive_at_mgr = if node != manager {
            self.cluster.san.send(node, manager, 8, sim.now()).arrival
        } else {
            sim.now()
        };

        // Threads removed by node-crash recovery never arrive; their
        // arrivals are forgiven via the discount (always 0 without chaos,
        // leaving the release condition untouched).
        let discount = self.crashed_discount.load(Ordering::Relaxed) as usize;
        let opened = {
            let mut st = self.state.lock();
            let stx = &mut *st;
            stx.nodes[node.0 as usize].stats.barrier_waits += 1;
            let b = stx.barriers.entry(id).or_default();
            b.count += 1;
            b.expected = n;
            b.max_arrival = b.max_arrival.max(arrive_at_mgr);
            if b.count + discount < n {
                b.waiters.push(sim.tid(), node, ());
                None
            } else {
                Some(b.open(self.cfg.costs.barrier_per_node_ns))
            }
        };

        match opened {
            None => {
                self.park(sim, None);
            }
            Some((waiters, release_t)) => {
                self.fan_out(sim, EdgeKind::BarrierRelease, id, waiters, release_t);
                let back = if node != manager {
                    self.cluster.san.config().send_base_ns
                } else {
                    0
                };
                sim.clock_at_least(release_t + back);
            }
        }

        self.acquire(sim);
        self.sync_span(sim, t0, obs::Event::BarrierWait { id });
    }

    /// Wakes a released barrier's waiters. Release messages fan out from
    /// the manager's NIC; timing-visible asymmetry, kept: every waiter
    /// pays one flat `send_base_ns` from the nominal release rather than a
    /// NIC-serialised notify (the same-node case is rare and only saves
    /// 7.8us). A release that crash recovery finds overdue never wakes
    /// into the past.
    fn fan_out(&self, sim: &Sim, kind: EdgeKind, id: u64, waiters: WaitQueue, release_t: SimTime) {
        let now = sim.now();
        let wake_t = release_t.max(now) + self.cluster.san.config().send_base_ns;
        for (tid, wnode, ()) in waiters.0 {
            self.handoff(
                sim,
                Some((kind, id)),
                (sim.node(), now),
                wake_t,
                (tid, wnode),
            );
        }
    }

    /// Forgives `k` future barrier arrivals: crash recovery calls this once
    /// per thread it removes, so barriers the dead threads can never reach
    /// still release once every surviving participant has arrived.
    pub fn crash_add_discount(&self, k: u64) {
        self.crashed_discount.fetch_add(k, Ordering::Relaxed);
    }

    /// Purges a crashed thread from every lock wait queue and barrier
    /// waiter list. A purged barrier waiter's arrival is also retracted —
    /// the crash discount stands in for it, so it must not count twice.
    /// Returns whether the thread was parked in any of them; if so the
    /// caller must wake it so that it can unwind (it was removed
    /// from the queue here, so the wake cannot race a legitimate one).
    pub fn crash_purge_waiter(&self, tid: Tid) -> bool {
        let mut st = self.state.lock();
        let mut found = false;
        for l in st.locks.values_mut() {
            found |= l.waiters.purge(tid);
        }
        for b in st.barriers.values_mut() {
            if b.waiters.purge(tid) {
                b.count -= 1;
                found = true;
            }
        }
        found
    }

    /// Hands every lock held by a dead thread to its next waiter. Call
    /// after [`SvmSystem::crash_purge_waiter`] ran for *all* of `dead`, so
    /// no grant can land on another casualty. A dead holder cannot run the
    /// release hand-off itself; the recovery thread (`sim`) grants on its
    /// behalf, at `now + lock_handler_ns` with no wire message, the edge
    /// sourced at `node`. Iteration is in sorted id order so replay with
    /// the same plan stays deterministic.
    pub fn crash_handoff_locks(&self, sim: &Sim, dead: &[Tid], node: NodeId) {
        let grants: Vec<(u64, (Tid, NodeId))> = {
            let mut st = self.state.lock();
            let mut held: Vec<(u64, &mut LockState)> = st
                .locks
                .iter_mut()
                .filter(|(_, l)| l.holder.is_some_and(|h| dead.contains(&h)))
                .map(|(id, l)| (*id, l))
                .collect();
            held.sort_unstable_by_key(|(id, _)| *id);
            let pass = |(id, l): (u64, &mut LockState)| {
                let next = l.pass_on();
                if next.is_none() {
                    // Never leave ownership cached at a dead node: the
                    // next acquirer must pay the remote path.
                    l.holder_node = None;
                }
                next.map(|to| (id, to))
            };
            held.into_iter().filter_map(pass).collect()
        };
        let now = sim.now();
        for (id, to) in grants {
            let edge = Some((EdgeKind::Recovery, id));
            self.handoff(
                sim,
                edge,
                (node, now),
                now + self.cfg.costs.lock_handler_ns,
                to,
            );
        }
    }

    /// Releases every barrier that only dead threads were keeping closed
    /// (arrivals + discount cover the expected count). Crash recovery calls
    /// this after removing the crashed threads and bumping the discount.
    /// Sorted-id iteration keeps replay deterministic.
    pub fn crash_release_ready_barriers(&self, sim: &Sim) {
        let discount = self.crashed_discount.load(Ordering::Relaxed) as usize;
        if discount == 0 {
            return;
        }
        let mut ready: Vec<(u64, (WaitQueue, SimTime))> = {
            let mut st = self.state.lock();
            st.barriers
                .iter_mut()
                .filter(|(_, b)| b.count > 0 && b.expected > 0 && b.count + discount >= b.expected)
                .map(|(id, b)| (*id, b.open(self.cfg.costs.barrier_per_node_ns)))
                .collect()
        };
        ready.sort_unstable_by_key(|(id, _)| *id);
        for (id, (waiters, release_t)) in ready {
            self.fan_out(sim, EdgeKind::Recovery, id, waiters, release_t);
        }
    }
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
