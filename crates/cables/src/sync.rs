//! CableS synchronization: pthreads mutexes, condition variables,
//! read/write locks and the `pthread_barrier` extension (paper §2.3).
//!
//! Mutexes wrap the underlying SVM system locks, adding ACB bookkeeping and
//! competitive spinning (spin for a bounded time, then block — after
//! Karlin et al.). Conditions and read/write locks are implemented with ACB
//! state on the master — the waiter queues live in the runtime's global
//! state — updated by direct remote operations, with notifications as
//! wake-ups, as in the paper. The barrier extension uses the native SVM
//! barrier mechanism so legacy parallel applications get efficient global
//! synchronization. Every variant (`trylock`, `timedwait`, read vs write)
//! is its primitive with one argument fixed; queues, hand-offs and parks
//! are the shared ones of [`svm`].

use obs::{EdgeKind, Event};
use svm::sync::SyncEffects;

use crate::config::cost;
use crate::core::Wait;
use crate::rt::{CablesRt, Cancelled, CtId, OpKind, Pth, RtEffects};

/// A CableS mutex handle (`pthread_mutex_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mutex(pub u64);

/// A CableS condition-variable handle (`pthread_cond_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond(pub u64);

/// A CableS barrier handle (the `pthread_barrier(n)` extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Barrier(pub u64);

/// A CableS read/write lock handle (`pthread_rwlock_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RwLock(pub u64);

impl CablesRt {
    /// Creates a mutex.
    pub fn mutex_new(&self) -> Mutex {
        Mutex(self.sync_id())
    }

    /// Creates a condition variable.
    pub fn cond_new(&self) -> Cond {
        Cond(self.sync_id())
    }

    /// Creates a barrier.
    pub fn barrier_new(&self) -> Barrier {
        Barrier(self.sync_id())
    }

    /// Creates a read/write lock.
    pub fn rwlock_new(&self) -> RwLock {
        RwLock(self.sync_id())
    }
}

/// A condition wait's first step: the waiter registers in the ACB (a
/// direct remote write), before its mutex is unlocked.
pub(crate) fn cond_register<E: RtEffects>(e: &mut E, cond: Cond) {
    e.op_point(cost::COND_WAIT_LOCAL_NS);
    e.send_master(16);
    let (tid, node) = (e.tid(), e.node());
    e.with_rt(|st| st.cond_wait(cond.0, tid, node));
}

/// A condition wait's step after its park (and the park's checkpoint): a
/// timed-out waiter (`!woken`) deregisters before anyone can signal it
/// (no ordering point between the timeout and this removal); then
/// [`Cancelled`] if the thread was cancelled while waiting, else the
/// wakeup's processing before the mutex is locked again.
pub(crate) fn cond_woken<E: RtEffects>(
    e: &mut E,
    ct: CtId,
    cond: Cond,
    woken: bool,
) -> Result<(), Cancelled> {
    let tid = e.tid();
    if !woken {
        e.with_rt(|st| st.cond_timeout(cond.0, tid));
    }
    if e.with_rt(|st| st.cancel_requested(ct)) {
        return Err(Cancelled);
    }
    e.advance(cost::COND_WAKEUP_NS);
    Ok(())
}

/// Signal (`pthread_cond_signal`) and broadcast (`pthread_cond_broadcast`):
/// wake the head waiter, or `all` of them, each with its own notification
/// (a broadcast's cost grows with the number of waiting nodes, as in the
/// paper). Timing-visible asymmetry, kept: a signal that finds a waiter
/// also posts the ACB update recording the hand-off; a broadcast does not.
pub(crate) fn cond_wake<E: RtEffects>(e: &mut E, cond: Cond, all: bool) {
    e.op_point(match all {
        true => cost::COND_BROADCAST_LOCAL_NS,
        false => cost::COND_SIGNAL_LOCAL_NS,
    });
    e.advance(cost::COND_OS_NS);
    // Read the condition's ACB entry.
    e.fetch_master(16);
    for (tid, wnode) in e.with_rt(|st| st.cond_wake(cond.0, all)) {
        if !all {
            e.send_master(16);
        }
        // Activation: one notification per waiter, dispatching the wakeup
        // handler on the waiter's node.
        let edge = Some((EdgeKind::CondSignal, cond.0));
        e.notify_handoff(edge, &[wnode], 0, (tid, wnode));
    }
}

/// A rwlock acquire's step, `pthread_rwlock_rdlock` (readers share the
/// lock and queue behind a writer) or, with `write`,
/// `pthread_rwlock_wrlock` — the two differ in the admission predicate
/// only (`RtState::rw_acquire`): the administration request and the
/// admission. Whether it queued and parks.
pub(crate) fn rw_acquire<E: RtEffects>(e: &mut E, rw: RwLock, write: bool) -> bool {
    e.admin_request();
    let (tid, node) = (e.tid(), e.node());
    e.with_rt(|st| st.rw_acquire(rw.0, tid, node, write))
}

/// Releases `rw` (`pthread_rwlock_unlock`): either the write hold or one
/// read hold of the calling thread.
///
/// # Panics
///
/// Panics if the calling thread does not hold the lock.
pub(crate) fn rw_unlock<E: RtEffects>(e: &mut E, rw: RwLock) {
    let tid = e.tid();
    if e.with_rt(|st| st.rw_writer(rw.0, tid)) {
        // RC release: publish this node's writes before handing over.
        e.release();
    }
    e.admin_request();
    // The request takes simulated time: the node may have crashed
    // meanwhile and recovery released this hold — the casualty must die
    // here, not trip the hold check below.
    e.crash_check();
    for to in e.with_rt(|st| st.rw_release(rw.0, tid)) {
        e.notify_handoff(Some((EdgeKind::RwHandoff, rw.0)), &[to.1], 0, to);
    }
}

/// A barrier built purely from pthreads primitives (mutex + condition +
/// counter), as legacy pthreads code would write it. Used by the Table 4
/// microbenchmark ("pthreads barrier" row) — it is two orders of magnitude
/// slower than the native barrier because every operation funnels through
/// point-to-point synchronization on one node.
#[derive(Debug, Clone, Copy)]
pub struct MutexCondBarrier {
    mutex: Mutex,
    cond: Cond,
    /// Address of the shared counter word.
    count_addr: memsim::GAddr,
    /// Address of the shared generation word.
    gen_addr: memsim::GAddr,
}

impl MutexCondBarrier {
    /// Creates the barrier, allocating its shared counter.
    pub fn new(pth: &Pth) -> Self {
        let base = pth.malloc(16);
        pth.write::<u64>(base, 0);
        pth.write::<u64>(base + 8, 0);
        MutexCondBarrier {
            mutex: pth.rt().mutex_new(),
            cond: pth.rt().cond_new(),
            count_addr: base,
            gen_addr: base + 8,
        }
    }

    /// Waits until `n` threads have arrived.
    pub fn wait(&self, pth: &Pth, n: u64) {
        pth.mutex_lock(self.mutex);
        let generation = pth.read::<u64>(self.gen_addr);
        let arrived = pth.read::<u64>(self.count_addr) + 1;
        pth.write::<u64>(self.count_addr, arrived);
        if arrived == n {
            pth.write::<u64>(self.count_addr, 0);
            pth.write::<u64>(self.gen_addr, generation + 1);
            pth.cond_broadcast(self.cond);
            pth.mutex_unlock(self.mutex);
        } else {
            while pth.read::<u64>(self.gen_addr) == generation {
                pth.cond_wait(self.cond, self.mutex)
                    .expect("barrier wait cancelled");
            }
            pth.mutex_unlock(self.mutex);
        }
    }
}

impl Pth<'_> {
    /// Locks a mutex (`pthread_mutex_lock`), spinning briefly before
    /// blocking, then performs the RC acquire. Re-acquiring a mutex last
    /// held on the same node is a local operation (paper Table 4).
    pub fn mutex_lock(&self, m: Mutex) {
        self.lock_booked(m, Some(OpKind::MutexLock));
    }

    /// [`Pth::mutex_lock`], its call booked under `op` (a condition wait's
    /// re-lock is part of the wait's).
    fn lock_booked(&self, m: Mutex, op: Option<OpKind>) {
        let (sim, t0) = (self.sim, self.sim.now());
        self.mutex_entry(m);
        self.rt.state.lock().enter(Wait::Lock);
        let wait_start = sim.now();
        self.rt.svm().lock(sim, m.0);
        // Competitive spinning: the processor is burnt for up to the spin
        // bound while waiting; after that the thread had blocked.
        let spun = sim.now().min(wait_start + cost::SPIN_BEFORE_BLOCK_NS);
        sim.occupy_cpu_until(spun);
        self.book(t0, op, Some((Wait::Lock, Event::PthMutexWait { id: m.0 })));
    }

    /// Local mutex bookkeeping, plus the remote ACB handler's work when
    /// the system lock's ownership is cached on another node.
    fn mutex_entry(&self, m: Mutex) {
        let sim = self.sim;
        sim.op_point(cost::MUTEX_LOCAL_EXTRA_NS);
        if matches!(self.rt.svm().lock_owner_node(m.0), Some(owner) if owner != sim.node()) {
            sim.advance(cost::MUTEX_REMOTE_EXTRA_NS);
        }
    }

    /// Tries to lock a mutex without blocking (`pthread_mutex_trylock`).
    /// Returns `true` on acquisition.
    pub fn mutex_trylock(&self, m: Mutex) -> bool {
        self.timed(OpKind::MutexLock, |rt, sim| {
            self.mutex_entry(m);
            rt.svm().try_lock(sim, m.0)
        })
    }

    /// Unlocks a mutex (`pthread_mutex_unlock`; the RC release: dirty pages
    /// flush to their homes first).
    pub fn mutex_unlock(&self, m: Mutex) {
        self.timed(OpKind::MutexUnlock, |_, _| self.unlock_unbooked(m))
    }

    /// [`Pth::mutex_unlock`] as a condition wait's part.
    fn unlock_unbooked(&self, m: Mutex) {
        self.sim.op_point(cost::MUTEX_LOCAL_EXTRA_NS);
        self.rt.svm().unlock(self.sim, m.0);
    }

    /// Waits on a condition variable (`pthread_cond_wait`), releasing the
    /// mutex while waiting and re-acquiring it before returning.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if this thread was cancelled while waiting
    /// (the mutex is *not* re-acquired then).
    pub fn cond_wait(&self, c: Cond, m: Mutex) -> Result<(), Cancelled> {
        self.cond_wait_timeout(c, m, None).map(drop)
    }

    /// Waits on a condition with a relative timeout
    /// (`pthread_cond_timedwait`); `Ok(false)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if this thread was cancelled while waiting.
    pub fn cond_timedwait(&self, c: Cond, m: Mutex, timeout_ns: u64) -> Result<bool, Cancelled> {
        self.cond_wait_timeout(c, m, Some(timeout_ns))
    }

    /// The condition wait's steps around its park; `Ok(woken)`.
    fn cond_wait_timeout(
        &self,
        cond: Cond,
        m: Mutex,
        timeout: Option<u64>,
    ) -> Result<bool, Cancelled> {
        let (sim, t0) = (self.sim, self.sim.now());
        let e = &mut self.rt.at(sim);
        cond_register(e, cond);
        let deadline = timeout.map(|ns| sim.now() + ns);
        self.unlock_unbooked(m);
        let woken = self.rt.svm().park(sim, deadline);
        let woken = cond_woken(e, self.ct, cond, woken).map(|()| {
            self.lock_booked(m, None);
            woken
        });
        let wait = woken
            .is_ok()
            .then_some((Wait::Cond, Event::PthCondWait { id: cond.0 }));
        self.book(t0, Some(OpKind::CondWait), wait);
        woken
    }

    /// Signals a condition variable (`pthread_cond_signal`).
    pub fn cond_signal(&self, c: Cond) {
        self.timed(OpKind::CondSignal, |rt, sim| {
            cond_wake(&mut rt.at(sim), c, false)
        })
    }

    /// Broadcasts a condition variable (`pthread_cond_broadcast`).
    pub fn cond_broadcast(&self, c: Cond) {
        self.timed(OpKind::CondBroadcast, |rt, sim| {
            cond_wake(&mut rt.at(sim), c, true)
        })
    }

    /// Read-locks a read/write lock (`pthread_rwlock_rdlock`).
    pub fn rwlock_rdlock(&self, rw: RwLock) {
        self.rwlock_acquire(rw, false)
    }

    /// Write-locks a read/write lock (`pthread_rwlock_wrlock`).
    pub fn rwlock_wrlock(&self, rw: RwLock) {
        self.rwlock_acquire(rw, true)
    }

    /// Acquires `rw` for reading or writing ([`rw_acquire`]), parking
    /// while it is queued, then performs the RC acquire.
    fn rwlock_acquire(&self, rw: RwLock, write: bool) {
        let (sim, t0) = (self.sim, self.sim.now());
        let e = &mut self.rt.at(sim);
        if rw_acquire(e, rw, write) {
            self.rt.svm().park(sim, None);
        }
        // RC acquire: observe the last writer's updates.
        e.acquire();
        let wait = (Wait::Rw, Event::PthRwWait { id: rw.0, write });
        self.book(t0, None, Some(wait));
    }

    /// Unlocks a read/write lock (`pthread_rwlock_unlock`).
    pub fn rwlock_unlock(&self, rw: RwLock) {
        rw_unlock(&mut self.rt.at(self.sim), rw)
    }

    /// Global barrier over `n` threads (the CableS `pthread_barrier`
    /// extension): global synchronization using the native SVM barrier
    /// mechanism.
    pub fn barrier(&self, b: Barrier, n: usize) {
        let (sim, t0) = (self.sim, self.sim.now());
        sim.op_point(cost::MUTEX_LOCAL_EXTRA_NS);
        self.rt.state.lock().enter(Wait::Barrier);
        self.rt.svm().barrier(sim, b.0, n);
        let wait = (Wait::Barrier, Event::PthBarrierWait { id: b.0 });
        self.book(t0, Some(OpKind::Barrier), Some(wait));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::CablesConfig;
    use crate::rt::CablesRt;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use svm::{Cluster, ClusterConfig};

    fn rt(nodes: usize, cpus: usize) -> Arc<CablesRt> {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        CablesRt::new(cluster, CablesConfig::paper())
    }

    #[test]
    fn mutex_mutual_exclusion_over_shared_counter() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let a = pth.malloc(8);
            pth.write::<u64>(a, 0);
            let mut kids = Vec::new();
            for _ in 0..3 {
                kids.push(pth.create(move |p| {
                    for _ in 0..10 {
                        p.mutex_lock(m);
                        let v = p.read::<u64>(a);
                        p.compute(500);
                        p.write::<u64>(a, v + 1);
                        p.mutex_unlock(m);
                    }
                    0
                }));
            }
            for k in kids {
                pth.join(k);
            }
            pth.mutex_lock(m);
            assert_eq!(pth.read::<u64>(a), 30);
            pth.mutex_unlock(m);
            0
        })
        .unwrap();
    }

    #[test]
    fn cond_signal_wakes_one_waiter() {
        let rt = rt(2, 2);
        let woken = Arc::new(AtomicU64::new(0));
        let w2 = Arc::clone(&woken);
        rt.run(move |pth| {
            let m = pth.rt().mutex_new();
            let c = pth.rt().cond_new();
            let flag = pth.malloc(8);
            pth.write::<u64>(flag, 0);
            let w3 = Arc::clone(&w2);
            let waiter = pth.create(move |p| {
                p.mutex_lock(m);
                while p.read::<u64>(flag) == 0 {
                    p.cond_wait(c, m).unwrap();
                }
                p.mutex_unlock(m);
                w3.fetch_add(1, Ordering::SeqCst);
                0
            });
            pth.compute(200_000);
            pth.mutex_lock(m);
            pth.write::<u64>(flag, 1);
            pth.cond_signal(c);
            pth.mutex_unlock(m);
            pth.join(waiter);
            assert_eq!(w2.load(Ordering::SeqCst), 1);
            0
        })
        .unwrap();
    }

    #[test]
    fn cond_broadcast_wakes_all() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let c = pth.rt().cond_new();
            let flag = pth.malloc(8);
            pth.write::<u64>(flag, 0);
            let mut kids = Vec::new();
            for _ in 0..3 {
                kids.push(pth.create(move |p| {
                    p.mutex_lock(m);
                    while p.read::<u64>(flag) == 0 {
                        p.cond_wait(c, m).unwrap();
                    }
                    p.mutex_unlock(m);
                    1
                }));
            }
            pth.compute(500_000);
            pth.mutex_lock(m);
            pth.write::<u64>(flag, 1);
            pth.cond_broadcast(c);
            pth.mutex_unlock(m);
            let sum: u64 = kids.into_iter().map(|k| pth.join(k)).sum();
            assert_eq!(sum, 3);
            0
        })
        .unwrap();
    }

    #[test]
    fn pthread_barrier_extension_synchronizes() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let b = pth.rt().barrier_new();
            let a = pth.malloc(8 * 4);
            for i in 0..4 {
                pth.write::<u64>(a + 8 * i, 0);
            }
            let mut kids = Vec::new();
            for i in 0..3u64 {
                kids.push(pth.create(move |p| {
                    p.write::<u64>(a + 8 * (i + 1), i + 1);
                    p.barrier(b, 4);
                    // Everyone's writes visible after the barrier.
                    let mut sum = 0;
                    for j in 0..4 {
                        sum += p.read::<u64>(a + 8 * j);
                    }
                    assert_eq!(sum, 1 + 2 + 3);
                    0
                }));
            }
            pth.barrier(b, 4);
            for k in kids {
                pth.join(k);
            }
            0
        })
        .unwrap();
    }

    #[test]
    fn mutex_cond_barrier_much_slower_than_native() {
        // Table 4: GeNIMA barrier ~70us, pthreads (mutex+cond) barrier ~13ms.
        use crate::sync::MutexCondBarrier;
        let rt = rt(4, 2);
        let times = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let t2 = Arc::clone(&times);
        rt.run(move |pth| {
            let n = 4u64;
            let native = pth.rt().barrier_new();
            let mcb = MutexCondBarrier::new(pth);
            let mut kids = Vec::new();
            for _ in 0..n - 1 {
                kids.push(pth.create(move |p| {
                    p.barrier(native, n as usize);
                    p.barrier(native, n as usize);
                    mcb.wait(p, n);
                    p.barrier(native, n as usize);
                    0
                }));
            }
            pth.barrier(native, n as usize); // warm up (attach done)
            let a = pth.sim.now();
            pth.barrier(native, n as usize);
            let native_cost = pth.sim.now() - a;
            let b = pth.sim.now();
            mcb.wait(pth, n);
            let mcb_cost = pth.sim.now() - b;
            pth.barrier(native, n as usize);
            for k in kids {
                pth.join(k);
            }
            *t2.lock().unwrap() = (native_cost, mcb_cost);
            0
        })
        .unwrap();
        let (native_cost, mcb_cost) = *times.lock().unwrap();
        assert!(
            mcb_cost > native_cost * 5,
            "mutex+cond barrier ({mcb_cost}ns) should dwarf native ({native_cost}ns)"
        );
    }

    #[test]
    fn trylock_succeeds_then_fails_under_hold() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            assert!(pth.mutex_trylock(m));
            let holder_blocks = pth.create(move |p| u64::from(p.mutex_trylock(m)));
            assert_eq!(pth.join(holder_blocks), 0, "held elsewhere");
            pth.mutex_unlock(m);
            assert!(pth.mutex_trylock(m));
            pth.mutex_unlock(m);
            0
        })
        .unwrap();
    }

    #[test]
    fn cond_timedwait_times_out_without_signal() {
        let rt = rt(1, 1);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let cv = pth.rt().cond_new();
            pth.mutex_lock(m);
            let t0 = pth.sim.now();
            let signalled = pth.cond_timedwait(cv, m, 250_000).unwrap();
            assert!(!signalled);
            assert!(pth.sim.now() - t0 >= 250_000);
            pth.mutex_unlock(m);
            0
        })
        .unwrap();
    }

    #[test]
    fn cond_timedwait_signalled_in_time() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let cv = pth.rt().cond_new();
            let flag = pth.malloc(8);
            pth.write::<u64>(flag, 0);
            let waiter = pth.create(move |p| {
                p.mutex_lock(m);
                let mut sig = false;
                while p.read::<u64>(flag) == 0 {
                    sig = p.cond_timedwait(cv, m, sim::dur::secs(10)).unwrap();
                    if !sig {
                        break;
                    }
                }
                p.mutex_unlock(m);
                u64::from(sig)
            });
            pth.compute(300_000);
            pth.mutex_lock(m);
            pth.write::<u64>(flag, 1);
            pth.cond_signal(cv);
            pth.mutex_unlock(m);
            assert_eq!(pth.join(waiter), 1, "signal must beat the deadline");
            0
        })
        .unwrap();
    }

    #[test]
    fn timed_out_waiter_is_deregistered() {
        // After a timeout, a later signal must not target the departed
        // waiter (its queue entry is removed atomically with the wake).
        let rt = rt(2, 2);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let cv = pth.rt().cond_new();
            let w = pth.create(move |p| {
                p.mutex_lock(m);
                let sig = p.cond_timedwait(cv, m, 100_000).unwrap();
                p.mutex_unlock(m);
                p.compute(sim::dur::millis(5));
                u64::from(sig)
            });
            pth.compute(sim::dur::millis(2));
            pth.mutex_lock(m);
            pth.cond_signal(cv); // no waiter left: must be a no-op
            pth.mutex_unlock(m);
            assert_eq!(pth.join(w), 0);
            0
        })
        .unwrap();
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let rw = pth.rt().rwlock_new();
            let cell = pth.malloc(8);
            pth.rwlock_wrlock(rw);
            pth.write::<u64>(cell, 9);
            pth.rwlock_unlock(rw);
            let mut kids = Vec::new();
            for _ in 0..3 {
                kids.push(pth.create(move |p| {
                    p.rwlock_rdlock(rw);
                    let v = p.read::<u64>(cell);
                    p.compute(200_000);
                    p.rwlock_unlock(rw);
                    v
                }));
            }
            for k in kids {
                assert_eq!(pth.join(k), 9);
            }
            0
        })
        .unwrap();
    }

    #[test]
    fn rwlock_writer_excludes_and_publishes() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let rw = pth.rt().rwlock_new();
            let cell = pth.malloc(8);
            pth.rwlock_wrlock(rw);
            pth.write::<u64>(cell, 0);
            pth.rwlock_unlock(rw);
            let mut kids = Vec::new();
            for _ in 0..3 {
                kids.push(pth.create(move |p| {
                    for _ in 0..5 {
                        p.rwlock_wrlock(rw);
                        let v = p.read::<u64>(cell);
                        p.compute(1_000);
                        p.write::<u64>(cell, v + 1);
                        p.rwlock_unlock(rw);
                    }
                    0
                }));
            }
            for k in kids {
                pth.join(k);
            }
            pth.rwlock_rdlock(rw);
            assert_eq!(pth.read::<u64>(cell), 15);
            pth.rwlock_unlock(rw);
            0
        })
        .unwrap();
    }

    #[test]
    fn rwlock_queued_writer_blocks_new_readers() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let rw = pth.rt().rwlock_new();
            let order = pth.malloc(8);
            pth.rwlock_wrlock(rw);
            pth.write::<u64>(order, 0);
            pth.rwlock_unlock(rw);
            // Reader holds; writer queues; late reader must wait behind
            // the writer (no writer starvation).
            pth.rwlock_rdlock(rw);
            let writer = pth.create(move |p| {
                p.rwlock_wrlock(rw);
                p.write::<u64>(order, 1);
                p.compute(100_000);
                p.rwlock_unlock(rw);
                0
            });
            let late_reader = pth.create(move |p| {
                p.compute(2_000_000); // arrive after the writer queued
                p.rwlock_rdlock(rw);
                let v = p.read::<u64>(order);
                p.rwlock_unlock(rw);
                v
            });
            pth.compute(5_000_000);
            pth.rwlock_unlock(rw);
            assert_eq!(
                pth.join(late_reader),
                1,
                "late reader must observe the queued writer's update"
            );
            pth.join(writer);
            0
        })
        .unwrap();
    }
}
