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

use obs::EdgeKind;
use sim::{NodeId, Sim, SimTime, Tid};

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

impl SvmSystem {
    /// The node where lock `id`'s ownership is currently cached, if any.
    pub fn lock_owner_node(&self, id: u64) -> Option<sim::NodeId> {
        self.state.lock().locks.get(&id).and_then(|l| l.holder_node)
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
        let handled = req.arrival + self.cfg.costs.lock_handler_ns;
        let reply = san.notify(manager, sim.node(), handled);
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
        let g = self.state.lock().lock(id, sim.tid(), node, wait);

        if wait && g.first_time {
            sim.advance(self.cfg.costs.lock_first_time_ns);
            if node != self.master {
                // First-time bookkeeping reads the lock record remotely.
                let done = self.cluster.san.fetch(node, self.master, 16, sim.now());
                sim.clock_at_least(done);
            }
        }

        if g.granted {
            if !g.local && node != g.manager {
                self.manager_round_trip(sim, g.manager);
            } else if !g.local {
                sim.advance(self.cfg.costs.lock_handler_ns);
            }
        } else if wait {
            // Request reaches the manager; we wait for a grant from the
            // releasing thread.
            if node != g.manager {
                let req = self.cluster.san.notify(node, g.manager, sim.now());
                sim.clock_at_least(req.local_done);
            }
            self.park(sim, None);
        } else {
            // A failed probe still costs the manager round trip when the
            // lock record lives elsewhere.
            if node != g.manager {
                self.manager_round_trip(sim, g.manager);
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

        let next = self.state.lock().unlock(id, sim.tid());
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

        let opened = self
            .state
            .lock()
            .arrive(id, sim.tid(), node, n, arrive_at_mgr);
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
            let cause = (sim.node(), now);
            self.handoff(sim, Some((kind, id)), cause, wake_t, (tid, wnode));
        }
    }

    /// Crash recovery of the lock and barrier managers
    /// ([`ProtoState::crash`](crate::core::ProtoState::crash)): the dead
    /// found parked, to be woken so they unwind. The recovering thread
    /// grants a dead holder's locks on its behalf, at `now +
    /// lock_handler_ns` with no wire message, the edge sourced at `node`;
    /// then `between` runs (the caller's own grants keep their place in
    /// the wake order); then the barriers the recovery opened release.
    #[doc(hidden)]
    pub fn crash(
        &self,
        sim: &Sim,
        (dead, forgive, open): (&[Tid], u64, bool),
        node: NodeId,
        between: impl FnOnce(),
    ) -> Vec<Tid> {
        let c = self.state.lock().crash(dead, forgive, open);
        let now = sim.now();
        for (id, to) in c.grants {
            let edge = Some((EdgeKind::Recovery, id));
            let arrival = now + self.cfg.costs.lock_handler_ns;
            self.handoff(sim, edge, (node, now), arrival, to);
        }
        between();
        for (id, (waiters, release_t)) in c.opened {
            self.fan_out(sim, EdgeKind::Recovery, id, waiters, release_t);
        }
        c.parked
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
