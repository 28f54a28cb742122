//! The per-thread handle: the lock-free clock cache and every scheduling
//! point a simulated thread can reach (sync points, block/wake, spawn,
//! join), ending in the stack switch to whoever the kernel picks next.

use std::cell::Cell;
use std::cmp::Reverse;
use std::fmt;

use parking_lot::MutexGuard;

use crate::carrier;
use crate::engine::Engine;
#[cfg(doc)]
use crate::kernel::EngineStats;
use crate::kernel::{
    Kernel, NodeId, PoisonUnwind, SchedCause, SchedEventKind, Scope, SimError, ThreadState, Tid,
    AUDITS,
};
use crate::time::SimTime;

/// Snapshot of the scheduling state the hot path needs: this thread's
/// virtual clock plus its processor's `free_at`. While a thread runs with a
/// populated cache, the kernel's copies are stale and the cache is
/// authoritative; `flush_into` reconciles them before anyone else can look.
#[derive(Debug, Clone, Copy)]
struct ClockCache {
    clock: SimTime,
    free_at: SimTime,
    cpu: usize,
}

/// Per-thread handle to the simulation, passed to every simulated thread.
///
/// All methods must be called from the simulated thread that owns the
/// handle.
///
/// # Lock-free fast path
///
/// Exactly one simulated thread is unparked at any instant, so while this
/// thread holds the baton no other thread can read or write its clock or
/// its processor's `free_at`. `Sim` exploits that: `advance`, `advance_idle`,
/// `clock_at_least`, `occupy_cpu_until` and `now` operate on a `Cell`-cached
/// copy and never take the kernel mutex once the cache is warm. Every
/// scheduling point (`sync_point`, `block`, `block_deadline`, `wake`,
/// `wait_exit`, thread exit) flushes the cache back into the kernel first,
/// so any state another thread can observe is always up to date. The `Cell`s
/// make `Sim` `!Sync`, which is exactly the contract: one owner thread.
pub struct Sim {
    engine: Engine,
    tid: Tid,
    /// Set at spawn: a thread never changes node.
    node: NodeId,
    cache: Cell<Option<ClockCache>>,
    n_lockless: Cell<u64>,
    n_sync_fast: Cell<u64>,
    n_sync_slow: Cell<u64>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim").field("tid", &self.tid).finish()
    }
}

impl Sim {
    pub(crate) fn new(engine: Engine, tid: Tid, node: NodeId) -> Self {
        Sim {
            engine,
            tid,
            node,
            cache: Cell::new(None),
            n_lockless: Cell::new(0),
            n_sync_fast: Cell::new(0),
            n_sync_slow: Cell::new(0),
        }
    }

    /// This thread's id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The node this thread runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The engine driving this simulation.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Current virtual time of this thread.
    pub fn now(&self) -> SimTime {
        if let Some(c) = self.cache.get() {
            return c.clock;
        }
        self.engine.inner.kernel.lock().rec(self.tid).clock
    }

    /// A fresh process-unique integer (deterministic).
    pub fn fresh_u64(&self) -> u64 {
        let mut k = self.engine.inner.kernel.lock();
        k.fresh += 1;
        k.fresh
    }

    /// Writes the cached clock/cpu state (if any) back into the kernel and
    /// merges the fast-path counters. Must run under the kernel lock before
    /// any other thread could observe this thread's scheduling state.
    fn flush_into(&self, k: &mut Kernel) {
        if let Some(c) = self.cache.take() {
            k.rec_mut(self.tid).clock = c.clock;
            k.nodes[self.node.0 as usize].cpus[c.cpu].free_at = c.free_at;
        }
        k.stats.lockless_advances += self.n_lockless.take();
        k.stats.sync_fast_path += self.n_sync_fast.take();
        k.stats.sync_slow_path += self.n_sync_slow.take();
    }

    /// Loads the cache from kernel state (under the lock `k`).
    fn warm_cache(&self, k: &Kernel) {
        let r = k.rec(self.tid);
        let (cpu, clock) = (r.cpu, r.clock);
        let free_at = k.nodes[self.node.0 as usize].cpus[cpu].free_at;
        self.cache.set(Some(ClockCache {
            clock,
            free_at,
            cpu,
        }));
    }

    /// Called by the spawn shim after the thread body returns, so
    /// exit bookkeeping sees the final clock.
    pub(crate) fn flush_for_exit(&self) {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
    }

    /// The clock cache, loaded from the kernel first when it is cold.
    fn warm(&self) -> ClockCache {
        if self.cache.get().is_none() {
            let mut k = self.engine.inner.kernel.lock();
            self.flush_into(&mut k);
            self.warm_cache(&k);
        }
        self.cache.get().expect("cache warmed")
    }

    /// Stores one lock-free charge back into the cache.
    fn charge(&self, c: ClockCache) {
        self.cache.set(Some(c));
        self.n_lockless.set(self.n_lockless.get() + 1);
    }

    /// Cache-only advance; returns false when the cache is cold.
    fn cached_advance(&self, ns: u64) -> bool {
        let Some(mut c) = self.cache.get() else {
            return false;
        };
        let end = c.clock.max(c.free_at) + ns;
        c.clock = end;
        c.free_at = end;
        self.charge(c);
        true
    }

    /// Charges `ns` nanoseconds of processor-occupying compute time.
    ///
    /// Threads sharing a processor serialize here: the segment starts no
    /// earlier than the processor's previous segment ended.
    pub fn advance(&self, ns: u64) {
        if !self.cached_advance(ns) {
            self.warm();
            self.cached_advance(ns);
        }
    }

    /// Charges `ns` nanoseconds of latency that does *not* occupy the
    /// processor (e.g., waiting on an OS event).
    pub fn advance_idle(&self, ns: u64) {
        let mut c = self.warm();
        c.clock += ns;
        self.charge(c);
    }

    /// Raises this thread's clock to at least `t`.
    pub fn clock_at_least(&self, t: SimTime) {
        let mut c = self.warm();
        c.clock = c.clock.max(t);
        self.charge(c);
    }

    /// Timestamp-ordering point: yields until this thread has the smallest
    /// `(clock, tid)` among runnable threads. Call before every operation
    /// on shared simulation state.
    pub fn sync_point(&self) {
        self.sync_point_scoped(Scope::ALL);
    }

    /// Like [`Sim::sync_point`], with a declared footprint: the set of
    /// nodes whose shared state the upcoming operation may touch. The
    /// declaration never changes scheduling (see `DESIGN.md` §5.3 for why
    /// any reordering would break determinism) — it feeds the
    /// [`EngineStats::window_admissible`] telemetry and, in debug builds,
    /// the scope audit.
    pub fn sync_point_scoped(&self, scope: Scope) {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
        self.sync_point_with(k, scope);
    }

    /// Sync-point body; expects the cache already flushed under `k`.
    fn sync_point_with(&self, mut k: MutexGuard<'_, Kernel>, scope: Scope) {
        debug_assert_eq!(k.running, Some(self.tid), "sync_point while not running");
        let my = (k.rec(self.tid).clock.as_nanos(), self.tid.0);
        // Fast path: still the global minimum among ready threads and
        // pending timed sleepers.
        let ready_first = k.peek_ready().map(|top| top < my).unwrap_or(false);
        let sleeper_first = k
            .peek_sleeper()
            .map(|deadline| deadline < my.0)
            .unwrap_or(false);
        if !(ready_first || sleeper_first) {
            self.n_sync_fast.set(self.n_sync_fast.get() + 1);
            // The baton holder proceeding at its own key is a dispatch for
            // audit purposes: keys must stay nondecreasing through it.
            k.audit_dispatch(my);
            // Keep the baton: re-arm the lock-free cache so the next
            // charge doesn't pay for a kernel lock either.
            self.warm_cache(&k);
            return;
        }
        self.n_sync_slow.set(self.n_sync_slow.get() + 1);
        // Window telemetry: count yields a footprint-aware conservative
        // scheduler could have admitted — the op is within the lookahead
        // window of the earliest pending one and its declared scope is
        // disjoint from every earlier pending op's.
        if let Some(w) = k.lookahead {
            if !sleeper_first {
                if let Some((min_key, _)) = k.peek_ready_shard() {
                    if my.0 < min_key.0.saturating_add(w) {
                        let disjoint = k.threads.iter().enumerate().all(|(i, t)| {
                            i as u64 == self.tid.0
                                || t.state != ThreadState::Ready
                                || (t.clock.as_nanos(), i as u64) >= my
                                || !t.pend_scope.intersects(scope)
                        });
                        if disjoint {
                            k.stats.window_admissible += 1;
                        }
                    }
                }
            }
        }
        if AUDITS && !scope.contains(self.node) {
            let name = k.rec(self.tid).name.clone();
            k.poison(SimError::Panicked(format!(
                "scope audit: thread {name} declared a footprint excluding its own node {}",
                self.node
            )));
        }
        k.running = None;
        k.push_ready_scoped(self.tid, scope);
        self.park_and_switch(k);
        self.check_poison();
    }

    /// Convenience: charge `cost` of compute then order at a sync point.
    ///
    /// When the clock cache is warm the charge is lock-free and only the
    /// ordering check takes the kernel lock; when it is cold, both happen
    /// under a single critical section.
    pub fn op_point(&self, cost: u64) {
        self.op_point_scoped(cost, Scope::ALL);
    }

    /// Like [`Sim::op_point`], with a declared footprint (see
    /// [`Sim::sync_point_scoped`]).
    pub fn op_point_scoped(&self, cost: u64, scope: Scope) {
        if cost > 0 && !self.cached_advance(cost) {
            let mut k = self.engine.inner.kernel.lock();
            self.flush_into(&mut k);
            let (node, cpu) = (self.node.0 as usize, k.rec(self.tid).cpu);
            let free_at = k.nodes[node].cpus[cpu].free_at;
            let clock = k.rec(self.tid).clock;
            let end = clock.max(free_at) + cost;
            k.rec_mut(self.tid).clock = end;
            k.nodes[node].cpus[cpu].free_at = end;
            self.sync_point_with(k, scope);
            return;
        }
        self.sync_point_scoped(scope);
    }

    /// Parks the calling thread (whose scheduling state the caller has
    /// already updated, clearing `running`) and transfers control to the
    /// next runnable thread by switching stacks on the carrier OS thread;
    /// returns when this thread is next dispatched.
    fn park_and_switch(&self, mut k: MutexGuard<'_, Kernel>) {
        debug_assert!(k.running.is_none());
        if AUDITS {
            let ok = k.rec(self.tid).green.as_ref().is_none_or(|g| g.canary_ok());
            if !ok {
                let name = k.rec(self.tid).name.clone();
                k.poison(SimError::Panicked(format!(
                    "stack audit: green stack canary overwritten on thread {name}"
                )));
            }
        }
        match k.pick_next() {
            // Re-picked immediately (a fired sleeper landed later than us,
            // or the poison drain chose us): keep running, no switch.
            Some(t) if t == self.tid => drop(k),
            Some(t) => {
                let load = k
                    .rec_mut(t)
                    .green
                    .as_mut()
                    .expect("live threads all have a green context")
                    .take_rsp();
                let save = {
                    let g = k
                        .rec_mut(self.tid)
                        .green
                        .as_mut()
                        .expect("live threads all have a green context");
                    &mut g.rsp as *mut *mut u8
                };
                drop(k);
                // `raw_switch` stores into `save` before any simulated code
                // can run again, and nothing else touches the thread table
                // in between: there is only one carrier OS thread.
                unsafe { carrier::raw_switch(save, load) };
            }
            None => unreachable!("parked thread not found by the scheduler"),
        }
    }

    /// Parks this thread until another thread calls [`Sim::wake`] on it.
    ///
    /// Wake-token semantics: if a wake arrived since the last `block`
    /// (while this thread was running), `block` consumes it and returns
    /// immediately, with the clock raised to the wake time. This makes
    /// register-then-block race-free even when registration and blocking
    /// are separated by scheduling points.
    pub fn block(&self) {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
        debug_assert_eq!(k.running, Some(self.tid), "block while not running");
        if let Some(at) = k.rec_mut(self.tid).pending_wake.take() {
            let c = k.rec(self.tid).clock.max(at);
            k.rec_mut(self.tid).clock = c;
            return;
        }
        k.emit_sched(
            k.rec(self.tid).clock,
            self.node,
            self.tid,
            SchedEventKind::Block,
            None,
        );
        k.rec_mut(self.tid).state = ThreadState::Blocked;
        k.running = None;
        self.park_and_switch(k);
        self.check_poison();
    }

    /// Like [`Sim::block`], but with a virtual-time deadline: returns
    /// `true` if another thread woke this one, `false` if the deadline
    /// expired first (the clock is then at least the deadline).
    ///
    /// A pending wake token is consumed immediately (returns `true`).
    pub fn block_deadline(&self, deadline: SimTime) -> bool {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
        debug_assert_eq!(k.running, Some(self.tid), "block while not running");
        if let Some(at) = k.rec_mut(self.tid).pending_wake.take() {
            let c = k.rec(self.tid).clock.max(at);
            k.rec_mut(self.tid).clock = c;
            return true;
        }
        k.emit_sched(
            k.rec(self.tid).clock,
            self.node,
            self.tid,
            SchedEventKind::Block,
            None,
        );
        let gen = {
            let rec = k.rec_mut(self.tid);
            rec.state = ThreadState::Blocked;
            rec.timed_out = false;
            rec.sleep_gen
        };
        k.sleepers
            .push(Reverse((deadline.as_nanos(), self.tid.0, gen)));
        k.running = None;
        self.park_and_switch(k);
        self.check_poison();
        let k = self.engine.inner.kernel.lock();
        !k.rec(self.tid).timed_out
    }

    /// Wakes a blocked thread so it resumes no earlier than virtual time
    /// `at` (and never earlier than this thread's current clock). If the
    /// target is not currently blocked, the wake is left as a token that
    /// its next [`Sim::block`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if the target has already exited.
    pub fn wake(&self, target: Tid, at: SimTime) {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
        let mine = k.rec(self.tid).clock;
        let at = at.max(mine);
        let cause = Some(SchedCause {
            tid: self.tid,
            node: self.node,
            at: mine,
        });
        k.emit_sched(at, k.rec(target).node, target, SchedEventKind::Wake, cause);
        match k.rec(target).state {
            ThreadState::Blocked => {
                let tc = k.rec(target).clock.max(at);
                let rec = k.rec_mut(target);
                rec.clock = tc;
                rec.timed_out = false;
                rec.sleep_gen += 1; // invalidate any pending timeout
                k.push_ready(target);
            }
            ThreadState::Ready | ThreadState::Running => {
                let t = k.rec(target).pending_wake.unwrap_or(SimTime::ZERO).max(at);
                k.rec_mut(target).pending_wake = Some(t);
            }
            ThreadState::Exited => panic!("wake of exited thread {target}"),
        }
    }

    /// Charges spin-wait occupancy: marks this thread's processor busy up
    /// to time `t` (e.g. after a competitive-spinning wait, so co-located
    /// threads cannot have used the processor meanwhile).
    pub fn occupy_cpu_until(&self, t: SimTime) {
        let mut c = self.warm();
        c.free_at = c.free_at.max(t);
        self.charge(c);
    }

    /// Spawns a new simulated thread on `node`, starting at virtual time
    /// `start` (clamped to this thread's clock).
    pub fn spawn_on<F>(&self, node: NodeId, start: SimTime, name: &str, f: F) -> Tid
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        let start = start.max(self.now());
        let cause = Some(SchedCause {
            tid: self.tid,
            node: self.node(),
            at: self.now(),
        });
        self.engine
            .spawn_thread(node, start, name.to_string(), cause, Box::new(f))
    }

    /// Blocks until `target` exits; on resume this thread's clock is at
    /// least the target's exit time.
    pub fn wait_exit(&self, target: Tid) {
        let mut k = self.engine.inner.kernel.lock();
        self.flush_into(&mut k);
        match k.rec(target).state {
            ThreadState::Exited => {
                let t = k.rec(target).clock;
                let mine = k.rec(self.tid).clock.max(t);
                k.rec_mut(self.tid).clock = mine;
                return;
            }
            _ => {
                k.rec_mut(target).exit_waiters.push(self.tid);
                k.rec_mut(self.tid).state = ThreadState::Blocked;
                k.running = None;
                self.park_and_switch(k);
            }
        }
        self.check_poison();
    }

    fn check_poison(&self) {
        let k = self.engine.inner.kernel.lock();
        if k.poisoned.is_some() {
            drop(k);
            // Unwind without invoking the panic hook: the original
            // failure has already been recorded and reported; cascades
            // from other threads are noise.
            std::panic::resume_unwind(Box::new(PoisonUnwind));
        }
    }
}

#[cfg(test)]
mod wake_token_tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn wake_before_block_is_consumed() {
        let e = Engine::new();
        let n = e.add_node(2);
        let tid_cell = Arc::new(StdMutex::new(None::<Tid>));
        let tc = Arc::clone(&tid_cell);
        e.run(n, move |sim| {
            let child = sim.spawn_on(sim.node(), SimTime::ZERO, "w", move |s| {
                *tc.lock().unwrap() = Some(s.tid());
                // Burn time so the parent wakes us while we are Running.
                s.advance(10_000);
                s.sync_point();
                s.advance(10_000);
                // The wake arrived before this block: must not deadlock.
                s.block();
                assert!(s.now().as_nanos() >= 20_000);
            });
            sim.advance(1);
            sim.sync_point();
            let t = tid_cell.lock().unwrap().expect("registered");
            sim.wake(t, sim.now());
            sim.wait_exit(child);
        })
        .unwrap();
    }

    #[test]
    fn occupy_cpu_until_blocks_sharers() {
        let e = Engine::new();
        let n = e.add_node(1);
        let end = e
            .run(n, move |sim| {
                // Spin until t=5000 on the only CPU.
                sim.advance_idle(5_000);
                sim.occupy_cpu_until(sim.now());
                let c = sim.spawn_on(sim.node(), SimTime::ZERO, "x", |s| s.advance(100));
                sim.wait_exit(c);
            })
            .unwrap();
        assert_eq!(end.as_nanos(), 5_100);
    }
}

#[cfg(test)]
mod timed_block_tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn timeout_fires_at_deadline() {
        let e = Engine::new();
        let n = e.add_node(1);
        e.run(n, |sim| {
            let woken = sim.block_deadline(SimTime::from_micros(50));
            assert!(!woken, "nothing wakes us");
            assert_eq!(sim.now(), SimTime::from_micros(50));
        })
        .unwrap();
    }

    #[test]
    fn wake_beats_deadline() {
        let e = Engine::new();
        let n = e.add_node(2);
        let tid_cell = Arc::new(StdMutex::new(None::<Tid>));
        let tc = Arc::clone(&tid_cell);
        e.run(n, move |sim| {
            let child = sim.spawn_on(sim.node(), SimTime::ZERO, "w", move |s| {
                *tc.lock().unwrap() = Some(s.tid());
                let woken = s.block_deadline(SimTime::from_millis(100));
                assert!(woken, "waker beats the deadline");
                assert!(s.now() < SimTime::from_millis(100));
            });
            sim.advance(10_000);
            sim.sync_point();
            let t = tid_cell.lock().unwrap().expect("registered");
            sim.wake(t, sim.now());
            sim.wait_exit(child);
        })
        .unwrap();
    }

    #[test]
    fn timeout_respects_timestamp_order() {
        // A runnable thread with an earlier clock runs before the timeout
        // fires, and the timed thread's resume clock equals its deadline.
        let e = Engine::new();
        let n = e.add_node(2);
        let log = Arc::new(StdMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        e.run(n, move |sim| {
            let l3 = Arc::clone(&l2);
            let sleeper = sim.spawn_on(sim.node(), SimTime::ZERO, "sleep", move |s| {
                s.block_deadline(SimTime::from_micros(30));
                l3.lock().unwrap().push(("sleeper", s.now().as_nanos()));
            });
            let l4 = Arc::clone(&l2);
            let worker = sim.spawn_on(sim.node(), SimTime::ZERO, "work", move |s| {
                s.advance(10_000);
                s.sync_point();
                l4.lock().unwrap().push(("worker", s.now().as_nanos()));
            });
            sim.wait_exit(sleeper);
            sim.wait_exit(worker);
        })
        .unwrap();
        let v = log.lock().unwrap().clone();
        assert_eq!(v[0].0, "worker");
        assert_eq!(v[1], ("sleeper", 30_000));
    }

    #[test]
    fn stale_timeout_does_not_fire_after_wake() {
        let e = Engine::new();
        let n = e.add_node(2);
        let tid_cell = Arc::new(StdMutex::new(None::<Tid>));
        let tc = Arc::clone(&tid_cell);
        e.run(n, move |sim| {
            let child = sim.spawn_on(sim.node(), SimTime::ZERO, "w", move |s| {
                *tc.lock().unwrap() = Some(s.tid());
                assert!(s.block_deadline(SimTime::from_micros(20)));
                // Second, untimed block: the stale deadline entry from the
                // first sleep must not wake us spuriously.
                s.block();
                assert!(s.now() >= SimTime::from_micros(100));
            });
            sim.advance(5_000);
            sim.sync_point();
            let t = tid_cell.lock().unwrap().expect("registered");
            sim.wake(t, sim.now());
            sim.advance(95_000);
            sim.sync_point();
            sim.wake(t, sim.now());
            sim.wait_exit(child);
        })
        .unwrap();
    }
}
