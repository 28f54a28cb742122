//! System locks and native barriers (GeNIMA's synchronization primitives).
//!
//! Locks are the release-consistency *acquire* operations; barriers combine
//! a release (arrival) with an acquire (departure). The M4 macro layer and
//! CableS's pthreads mutexes are both built on these.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use sim::{NodeId, Sim, SimTime, Tid};

use crate::api::SvmSystem;
use crate::proto::{BarrierState, LockState};

impl SvmSystem {
    /// Whether lock `id`'s ownership is currently cached at `node` (so an
    /// acquire from that node is a purely local operation).
    pub fn lock_is_local(&self, id: u64, node: sim::NodeId) -> bool {
        let st = self.state.lock();
        st.locks
            .get(&id)
            .map(|l| l.holder_node == Some(node))
            .unwrap_or(false)
    }

    /// The node where lock `id`'s ownership is currently cached, if any.
    pub fn lock_owner_node(&self, id: u64) -> Option<sim::NodeId> {
        let st = self.state.lock();
        st.locks.get(&id).and_then(|l| l.holder_node)
    }

    /// Acquires system lock `id`, blocking until granted, then applies
    /// pending write notices (the RC acquire).
    ///
    /// Lock ownership is cached at nodes: re-acquiring a lock last held on
    /// the same node is a purely local operation (paper Table 4, "local
    /// mutex lock" vs "remote mutex lock").
    pub fn lock(&self, sim: &Sim, id: u64) {
        self.crash_check(sim);
        let t0 = sim.now();
        // Advance the streaming-series clock at sync entry so live
        // windows keep cutting through long quiet stretches (no-op
        // unless a series is running; never charges simulated time).
        if let Some(o) = self.obs_if_on() {
            o.series_tick(t0);
        }
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
                waiters: Default::default(),
                acquired_from: HashMap::new(),
            });
            let manager = l.manager;
            let first_time = l.acquired_from.insert(node.0, ()).is_none();
            stx.nodes[node.0 as usize].stats.lock_acquires += 1;
            if l.holder.is_none() {
                // A fresh lock acquired by its manager is also local.
                let local_grant =
                    l.holder_node == Some(node) || (l.holder_node.is_none() && manager == node);
                l.holder = Some(sim.tid());
                l.holder_node = Some(node);
                (true, first_time, local_grant, manager)
            } else {
                l.waiters.push_back((sim.tid(), node));
                (false, first_time, false, manager)
            }
        };

        if first_time {
            sim.advance(self.cfg.costs.lock_first_time_ns);
            if node != self.master {
                // First-time bookkeeping reads the lock record remotely.
                let done = self.cluster.san.fetch(node, self.master, 16, sim.now());
                sim.clock_at_least(done);
            }
        }

        if granted {
            if !local_grant && node != manager {
                // Request/grant round trip through the manager.
                let req = self.cluster.san.notify(node, manager, sim.now());
                let grant = self
                    .cluster
                    .san
                    .notify(manager, node, req.arrival + self.cfg.costs.lock_handler_ns);
                sim.clock_at_least(grant.arrival);
            } else if !local_grant {
                sim.advance(self.cfg.costs.lock_handler_ns);
            }
        } else {
            // Request reaches the manager; we wait for a grant from the
            // releasing thread.
            if node != manager {
                let req = self.cluster.san.notify(node, manager, sim.now());
                sim.clock_at_least(req.local_done);
            }
            sim.block();
            // A waiter unparked by crash recovery (its queue entry purged)
            // must die here, before it acts on a grant it never got.
            self.crash_check(sim);
        }

        // With lock-data forwarding the grant carries hot-page contents,
        // so the acquire can refresh instead of invalidate.
        self.acquire_on_lock(sim);
        if let Some(o) = self.obs_if_on() {
            o.span(
                obs::Layer::Sync,
                node,
                sim.tid().0,
                t0,
                sim.now().saturating_since(t0),
                obs::Event::LockWait { id },
            );
        }
    }

    /// Attempts to acquire system lock `id` without blocking. On success
    /// performs the RC acquire and returns `true`.
    pub fn try_lock(&self, sim: &Sim, id: u64) -> bool {
        self.crash_check(sim);
        sim.op_point(self.cfg.costs.lock_local_ns);
        let node = sim.node();
        let (granted, local_grant, manager) = {
            let mut st = self.state.lock();
            let stx = &mut *st;
            let l = stx.locks.entry(id).or_insert_with(|| LockState {
                manager: node,
                holder: None,
                holder_node: None,
                waiters: Default::default(),
                acquired_from: HashMap::new(),
            });
            let manager = l.manager;
            l.acquired_from.insert(node.0, ());
            if l.holder.is_none() {
                let local_grant =
                    l.holder_node == Some(node) || (l.holder_node.is_none() && manager == node);
                l.holder = Some(sim.tid());
                l.holder_node = Some(node);
                stx.nodes[node.0 as usize].stats.lock_acquires += 1;
                (true, local_grant, manager)
            } else {
                (false, false, manager)
            }
        };
        if granted {
            if !local_grant && node != manager {
                let req = self.cluster.san.notify(node, manager, sim.now());
                let grant = self
                    .cluster
                    .san
                    .notify(manager, node, req.arrival + self.cfg.costs.lock_handler_ns);
                sim.clock_at_least(grant.arrival);
            } else if !local_grant {
                sim.advance(self.cfg.costs.lock_handler_ns);
            }
            self.acquire_on_lock(sim);
            true
        } else {
            // A failed probe still costs the manager round trip when the
            // lock record lives elsewhere.
            if node != manager {
                let req = self.cluster.san.notify(node, manager, sim.now());
                let nack = self
                    .cluster
                    .san
                    .notify(manager, node, req.arrival + self.cfg.costs.lock_handler_ns);
                sim.clock_at_least(nack.arrival);
            }
            false
        }
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
        let node = sim.node();

        let next = {
            let mut st = self.state.lock();
            let l = st.locks.get_mut(&id).expect("unlock of unknown lock");
            assert_eq!(l.holder, Some(sim.tid()), "unlock by non-holder");
            match l.waiters.pop_front() {
                Some((tid, wnode)) => {
                    l.holder = Some(tid);
                    l.holder_node = Some(wnode);
                    Some((tid, wnode, l.manager))
                }
                None => {
                    l.holder = None;
                    None
                }
            }
        };

        if let Some((tid, wnode, manager)) = next {
            // Hand-off: release to manager, grant to the waiter.
            let rel_t = sim.now();
            let mut t = rel_t;
            if node != manager {
                t = self.cluster.san.notify(node, manager, t).arrival;
            }
            t = t + self.cfg.costs.lock_handler_ns;
            if manager != wnode {
                t = self.cluster.san.notify(manager, wnode, t).arrival;
            }
            if t > rel_t {
                if let Some(o) = self.obs_if_on() {
                    // Causal edge: this release to the next holder's grant.
                    o.edge(
                        obs::EdgeKind::LockHandoff,
                        node,
                        sim.tid().0,
                        rel_t,
                        wnode,
                        tid.0,
                        t,
                        id,
                    );
                }
            }
            sim.wake(tid, t);
        }
    }

    /// Native (GeNIMA) barrier across `n` threads: releases, waits for all
    /// arrivals at the manager, then acquires on departure.
    ///
    /// Distinct barrier episodes may reuse the same `id`.
    pub fn barrier(&self, sim: &Sim, id: u64, n: usize) {
        assert!(n > 0, "barrier over zero threads");
        self.crash_check(sim);
        let t0 = sim.now();
        // See `lock`: keep the metric-series windows moving at sync
        // entry; zero simulated cost, no-op when no series runs.
        if let Some(o) = self.obs_if_on() {
            o.series_tick(t0);
        }
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
        let is_last = {
            let mut st = self.state.lock();
            let stx = &mut *st;
            stx.nodes[node.0 as usize].stats.barrier_waits += 1;
            let b = stx
                .barriers
                .entry(id)
                .or_insert_with(BarrierState::default);
            b.count += 1;
            b.expected = n;
            b.max_arrival = b.max_arrival.max(arrive_at_mgr);
            if b.count + discount < n {
                b.waiters.push((sim.tid(), node));
                false
            } else {
                true
            }
        };

        if !is_last {
            sim.block();
            // Unparked by crash recovery rather than a release: die before
            // running code that believes the barrier completed.
            self.crash_check(sim);
        } else {
            let (waiters, release_t) = {
                let mut st = self.state.lock();
                let b = st.barriers.get_mut(&id).expect("barrier state");
                let release_t =
                    b.max_arrival + self.cfg.costs.barrier_per_node_ns * n as u64;
                let waiters = std::mem::take(&mut b.waiters);
                b.count = 0;
                b.max_arrival = SimTime::ZERO;
                (waiters, release_t)
            };
            // Release messages fan out from the manager's NIC. Every
            // waiter pays the one-way latency from the manager; the
            // same-node case is rare and only saves 7.8us.
            let fan_t0 = sim.now();
            for (tid, wnode) in waiters {
                let wake_t = release_t + self.cluster.san.config().send_base_ns;
                if wake_t > fan_t0 {
                    if let Some(o) = self.obs_if_on() {
                        // Causal edge: last arrival's fan-out to each
                        // waiter's departure.
                        o.edge(
                            obs::EdgeKind::BarrierRelease,
                            node,
                            sim.tid().0,
                            fan_t0,
                            wnode,
                            tid.0,
                            wake_t,
                            id,
                        );
                    }
                }
                sim.wake(tid, wake_t);
            }
            let back = if node != manager {
                self.cluster.san.config().send_base_ns
            } else {
                0
            };
            sim.clock_at_least(release_t + back);
        }

        self.acquire(sim);
        if let Some(o) = self.obs_if_on() {
            o.span(
                obs::Layer::Sync,
                node,
                sim.tid().0,
                t0,
                sim.now().saturating_since(t0),
                obs::Event::BarrierWait { id },
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
    /// caller must wake it so its OS thread can unwind (it was removed
    /// from the queue here, so the wake cannot race a legitimate one).
    /// Per-entry `retain` keeps the result independent of map order, so
    /// replay with the same plan stays deterministic.
    pub fn crash_purge_waiter(&self, tid: Tid) -> bool {
        let mut st = self.state.lock();
        let mut found = false;
        for l in st.locks.values_mut() {
            let before = l.waiters.len();
            l.waiters.retain(|(w, _)| *w != tid);
            found |= l.waiters.len() != before;
        }
        for b in st.barriers.values_mut() {
            let before = b.waiters.len();
            b.waiters.retain(|(w, _)| *w != tid);
            let removed = before - b.waiters.len();
            b.count -= removed;
            found |= removed > 0;
        }
        found
    }

    /// Hands every lock held by a dead thread to its next waiter. Call
    /// after [`SvmSystem::crash_purge_waiter`] ran for *all* of `dead`, so
    /// no grant can land on another casualty. A dead holder cannot run the
    /// release hand-off itself; the recovery thread (`sim`) grants on its
    /// behalf. Returns the woken grantees. Iteration is in sorted id
    /// order so replay with the same plan stays deterministic.
    pub fn crash_handoff_locks(&self, sim: &Sim, dead: &[Tid], node: NodeId) -> Vec<Tid> {
        let mut woken = Vec::new();
        let lock_ids: Vec<u64> = {
            let st = self.state.lock();
            let mut v: Vec<u64> = st.locks.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for id in lock_ids {
            let handoff = {
                let mut st = self.state.lock();
                let Some(l) = st.locks.get_mut(&id) else {
                    continue;
                };
                let dead_holder = l.holder.map_or(false, |h| dead.contains(&h));
                if !dead_holder {
                    None
                } else {
                    match l.waiters.pop_front() {
                        Some((next, wnode)) => {
                            l.holder = Some(next);
                            l.holder_node = Some(wnode);
                            Some((l.holder.expect("just set"), wnode))
                        }
                        None => {
                            l.holder = None;
                            // Never leave ownership cached at a dead node:
                            // the next acquirer must pay the remote path.
                            l.holder_node = None;
                            None
                        }
                    }
                }
            };
            if let Some((next, wnode)) = handoff {
                let t = sim.now() + self.cfg.costs.lock_handler_ns;
                if let Some(o) = self.obs_if_on() {
                    o.edge(
                        obs::EdgeKind::Recovery,
                        node,
                        sim.tid().0,
                        sim.now(),
                        wnode,
                        next.0,
                        t,
                        id,
                    );
                }
                sim.wake(next, t);
                woken.push(next);
            }
        }
        woken
    }

    /// Releases every barrier that only dead threads were keeping closed
    /// (arrivals + discount cover the expected count). Crash recovery calls
    /// this after removing the crashed threads and bumping the discount.
    /// Returns the woken waiters. Sorted-id iteration keeps replay
    /// deterministic.
    pub fn crash_release_ready_barriers(&self, sim: &Sim) -> Vec<Tid> {
        let discount = self.crashed_discount.load(Ordering::Relaxed) as usize;
        if discount == 0 {
            return Vec::new();
        }
        let ready: Vec<u64> = {
            let st = self.state.lock();
            let mut v: Vec<u64> = st
                .barriers
                .iter()
                .filter(|(_, b)| b.count > 0 && b.expected > 0 && b.count + discount >= b.expected)
                .map(|(id, _)| *id)
                .collect();
            v.sort_unstable();
            v
        };
        let mut woken = Vec::new();
        for id in ready {
            let (waiters, release_t) = {
                let mut st = self.state.lock();
                let b = st.barriers.get_mut(&id).expect("ready barrier");
                let release_t =
                    b.max_arrival + self.cfg.costs.barrier_per_node_ns * b.expected as u64;
                let waiters = std::mem::take(&mut b.waiters);
                b.count = 0;
                b.max_arrival = SimTime::ZERO;
                (waiters, release_t)
            };
            // The nominal release may predate the crash that unblocked it;
            // never wake into the past.
            let base = release_t.max(sim.now());
            for (w, wnode) in waiters {
                let wake_t = base + self.cluster.san.config().send_base_ns;
                if let Some(o) = self.obs_if_on() {
                    o.edge(
                        obs::EdgeKind::Recovery,
                        sim.node(),
                        sim.tid().0,
                        sim.now(),
                        wnode,
                        w.0,
                        wake_t,
                        id,
                    );
                }
                sim.wake(w, wake_t);
                woken.push(w);
            }
        }
        woken
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
        assert!(second < 10_000, "local lock should be a few us, got {second}ns");
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
