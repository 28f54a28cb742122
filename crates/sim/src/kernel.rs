//! Scheduler state of the engine: identifiers and scheduling-point
//! vocabulary, the thread table, the ready heap, dispatch in global
//! `(clock, tid)` order, exit bookkeeping, poison and stack
//! reclamation. Everything here runs inside the one kernel borrow, a
//! [`Local`] (see `engine.rs` for the execution model).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::carrier::GreenCtx;
use crate::time::SimTime;
#[cfg(doc)]
use crate::{engine::Engine, local::Local, sim_handle::Sim};

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Error returned by [`Engine::run`] when the simulation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A simulated thread panicked; carries the panic message.
    Panicked(String),
    /// All live threads were blocked with nothing runnable.
    Deadlock(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Panicked(m) => write!(f, "simulated thread panicked: {m}"),
            SimError::Deadlock(m) => write!(f, "simulation deadlock: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Kinds of scheduling points reported to the observability hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// A simulated thread was spawned.
    Spawn,
    /// A simulated thread exited.
    Exit,
    /// A thread parked itself ([`Sim::block`]/[`Sim::block_deadline`]).
    Block,
    /// A thread was woken by another thread ([`Sim::wake`]).
    Wake,
}

/// The causing side of a scheduling point: which thread, where, and at
/// what virtual time it triggered the event. Present on `Spawn` (the
/// creating thread) and `Wake` (the waker); absent for the root spawn,
/// `Block`, and `Exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCause {
    /// The thread that caused the event.
    pub tid: Tid,
    /// Its node.
    pub node: NodeId,
    /// Its virtual clock when it triggered the event.
    pub at: SimTime,
}

/// A scheduling point, reported to the hook installed with
/// [`Engine::set_sched_hook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Virtual time of the scheduling point.
    pub at: SimTime,
    /// Node of the affected thread.
    pub node: NodeId,
    /// The affected thread (for `Wake`, the *woken* thread).
    pub tid: Tid,
    /// Which scheduling point.
    pub kind: SchedEventKind,
    /// The causing thread, when one exists.
    pub cause: Option<SchedCause>,
}

/// Observer callback for engine scheduling points.
///
/// Called synchronously at deterministic points with the kernel
/// borrowed; implementations must not call back into the engine (the
/// second borrow panics) and must not block on anything a simulated
/// thread could hold.
pub type SchedHook = Arc<dyn Fn(&SchedEvent) + Send + Sync>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    Ready,
    Running,
    Blocked,
    Exited,
}

pub(crate) struct ThreadRec {
    pub(crate) clock: SimTime,
    pub(crate) node: NodeId,
    pub(crate) cpu: usize,
    pub(crate) state: ThreadState,
    pub(crate) exit_waiters: Vec<Tid>,
    /// A wake that arrived while the thread was not blocked; consumed by
    /// the next [`Sim::block`] (wake-token semantics).
    pub(crate) pending_wake: Option<SimTime>,
    /// Generation counter invalidating stale sleeper-heap entries.
    pub(crate) sleep_gen: u64,
    /// Set when the last timed block expired instead of being woken.
    pub(crate) timed_out: bool,
    /// The thread's stack and saved context; `None` once the thread has
    /// exited and [`Kernel::reap`] has given the stack back.
    pub(crate) green: Option<GreenCtx>,
    pub(crate) name: String,
}

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CpuRec {
    pub(crate) free_at: SimTime,
}

pub(crate) struct NodeRec {
    pub(crate) cpus: Vec<CpuRec>,
    pub(crate) next_cpu: usize,
}

/// Aggregate engine counters, exposed for debugging and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of thread-to-thread hand-offs performed.
    pub context_switches: u64,
    /// Number of simulated threads ever spawned.
    pub threads_spawned: u64,
    /// Clock/cpu charges served from the per-thread cache without
    /// borrowing the kernel ([`Sim::advance`], [`Sim::advance_idle`], ...).
    pub lockless_advances: u64,
    /// Sync points that kept the baton (no re-park needed).
    pub sync_fast_path: u64,
    /// Sync points that had to yield to an earlier thread.
    pub sync_slow_path: u64,
    /// Software-TLB hits, merged in by the memory layer (the engine itself
    /// always reports 0 here; see `ClusterMem::tlb_stats`).
    pub tlb_hits: u64,
    /// Software-TLB misses, merged in by the memory layer.
    pub tlb_misses: u64,
    /// Times the ready heap had to grow its retained storage. Flat after
    /// warm-up: steady-state scheduling does not allocate.
    pub ready_reallocs: u64,
    /// Always 0. The engine admits nothing out of `(clock, tid)` order
    /// (`DESIGN.md` §5.3); the field stays only because recorded artifacts
    /// and the benchmark read it, and goes with ROADMAP item 8(i).
    pub window_admissible: u64,
}

/// Ready-heap slots reserved for each node [`Engine::add_node`] adds.
pub(crate) const READY_RESERVE: usize = 64;

/// Whether the runtime determinism audits are on: debug builds, the rule
/// the engine's `debug_assert!`s follow.
pub(crate) const AUDITS: bool = cfg!(debug_assertions);

pub(crate) struct Kernel {
    pub(crate) threads: Vec<ThreadRec>,
    /// The run queue: one min-heap of `(clock ns, tid)` keys, retained for
    /// the whole run. A key goes stale when its thread leaves `Ready`
    /// without being popped (the poison drain) and is dropped on peek.
    pub(crate) ready: BinaryHeap<Reverse<(u64, u64)>>,
    /// Sleeping (timed-blocked) threads: (deadline ns, tid, sleep_gen).
    pub(crate) sleepers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    pub(crate) running: Option<Tid>,
    pub(crate) live: usize,
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) poisoned: Option<SimError>,
    pub(crate) final_time: SimTime,
    pub(crate) stats: EngineStats,
    pub(crate) fresh: u64,
    /// The last thread to exit, whose stack cannot be freed before it has
    /// switched away from it (see [`Kernel::reap`]).
    pub(crate) corpse: Option<Tid>,
    /// Last dispatched `(clock, tid)` key, for the monotonicity audit.
    pub(crate) last_dispatch: (u64, u64),
    /// Observability hook for scheduling points (None = zero overhead
    /// beyond this Option check).
    pub(crate) sched_hook: Option<SchedHook>,
}

impl Kernel {
    pub(crate) fn emit_sched(
        &self,
        at: SimTime,
        node: NodeId,
        tid: Tid,
        kind: SchedEventKind,
        cause: Option<SchedCause>,
    ) {
        if let Some(h) = &self.sched_hook {
            h(&SchedEvent {
                at,
                node,
                tid,
                kind,
                cause,
            });
        }
    }
}

impl Kernel {
    pub(crate) fn rec(&self, tid: Tid) -> &ThreadRec {
        &self.threads[tid.0 as usize]
    }

    pub(crate) fn rec_mut(&mut self, tid: Tid) -> &mut ThreadRec {
        &mut self.threads[tid.0 as usize]
    }

    /// Marks `tid` ready and enqueues it at its current clock.
    pub(crate) fn push_ready(&mut self, tid: Tid) {
        let r = self.rec_mut(tid);
        r.state = ThreadState::Ready;
        let key = (r.clock.as_nanos(), tid.0);
        let cap = self.ready.capacity();
        self.ready.push(Reverse(key));
        if self.ready.capacity() != cap {
            self.stats.ready_reallocs += 1;
        }
    }

    /// Drops invalidated entries and returns the earliest valid sleeper
    /// deadline without popping it.
    pub(crate) fn peek_sleeper(&mut self) -> Option<u64> {
        while let Some(&Reverse((deadline, tid_raw, gen))) = self.sleepers.peek() {
            let tid = Tid(tid_raw);
            let rec = self.rec(tid);
            if rec.state != ThreadState::Blocked || rec.sleep_gen != gen {
                self.sleepers.pop();
                continue;
            }
            return Some(deadline);
        }
        None
    }

    /// Drops invalidated ready entries and returns the minimum ready key
    /// without popping it.
    pub(crate) fn peek_ready(&mut self) -> Option<(u64, u64)> {
        while let Some(&Reverse(top)) = self.ready.peek() {
            if self.threads[top.1 as usize].state == ThreadState::Ready {
                return Some(top);
            }
            self.ready.pop();
        }
        None
    }

    /// Fires the earliest sleeper as a timeout: it becomes ready at its
    /// deadline with `timed_out` set.
    fn fire_sleeper(&mut self) {
        let Some(&Reverse((deadline, tid_raw, _))) = self.sleepers.peek() else {
            return;
        };
        self.sleepers.pop();
        let tid = Tid(tid_raw);
        let c = self.rec(tid).clock.max(SimTime::from_nanos(deadline));
        let rec = self.rec_mut(tid);
        rec.clock = c;
        rec.timed_out = true;
        rec.sleep_gen += 1;
        self.push_ready(tid);
    }

    /// Audit hook at every operation dispatch: global dispatch keys must be
    /// nondecreasing (the determinism invariant of the engine; see the
    /// module docs and `DESIGN.md` §5.3). Violations poison the run.
    pub(crate) fn audit_dispatch(&mut self, key: (u64, u64)) {
        if !AUDITS {
            return;
        }
        if key.0 < self.last_dispatch.0 {
            let (lk, lt) = self.last_dispatch;
            self.poison(SimError::Panicked(format!(
                "determinism audit: dispatch key ({}, t{}) after ({lk}, t{lt})",
                key.0, key.1
            )));
            return;
        }
        self.last_dispatch = key;
    }

    /// Selects, marks running and accounts the next thread to execute:
    /// the minimum-clock ready thread, after waking timed sleepers whose
    /// deadlines come first. Returns `None` when nothing is runnable
    /// (poisoning a deadlock if live threads remain). A poisoned run drains
    /// parked threads one by one so they unwind.
    pub(crate) fn pick_next(&mut self) -> Option<Tid> {
        debug_assert!(self.running.is_none());
        loop {
            let sleeper = self.peek_sleeper();
            let ready = self.peek_ready();
            match (ready, sleeper) {
                (Some((rt, _)), Some(st)) if st < rt => {
                    self.fire_sleeper();
                    continue;
                }
                (None, Some(_)) => {
                    self.fire_sleeper();
                    continue;
                }
                (Some(key), _) => {
                    let tid = Tid(key.1);
                    self.ready.pop();
                    self.rec_mut(tid).state = ThreadState::Running;
                    self.running = Some(tid);
                    self.stats.context_switches += 1;
                    self.audit_dispatch(key);
                    return Some(tid);
                }
                (None, None) => break,
            }
        }
        if self.live > 0 && self.poisoned.is_none() {
            let blocked: Vec<String> = self
                .threads
                .iter()
                .filter(|t| t.state == ThreadState::Blocked)
                .map(|t| t.name.clone())
                .collect();
            self.poison(SimError::Deadlock(format!(
                "{} threads blocked with nothing runnable: {:?}",
                self.live, blocked
            )));
        }
        if self.poisoned.is_some() {
            // Parked threads cannot be unparked all at once; the scheduler
            // resumes them one at a time (any order — each will observe
            // the poison and unwind via `check_poison`).
            for i in 0..self.threads.len() {
                let t = &self.threads[i];
                if matches!(t.state, ThreadState::Ready | ThreadState::Blocked) {
                    let tid = Tid(i as u64);
                    self.rec_mut(tid).state = ThreadState::Running;
                    self.running = Some(tid);
                    self.stats.context_switches += 1;
                    return Some(tid);
                }
            }
        }
        None
    }

    /// Exit-time bookkeeping: emits the event, retires the thread, wakes
    /// exit waiters and records a panic poison.
    pub(crate) fn exit_bookkeeping(&mut self, tid: Tid, panic_msg: Option<String>) {
        let clock = self.rec(tid).clock;
        let exit_node = self.rec(tid).node;
        self.emit_sched(clock, exit_node, tid, SchedEventKind::Exit, None);
        self.rec_mut(tid).state = ThreadState::Exited;
        self.final_time = self.final_time.max(clock);
        self.live -= 1;
        if self.running == Some(tid) {
            self.running = None;
        }
        let waiters = std::mem::take(&mut self.rec_mut(tid).exit_waiters);
        let cause = Some(SchedCause {
            tid,
            node: exit_node,
            at: clock,
        });
        for w in waiters {
            if self.rec(w).state == ThreadState::Blocked {
                let wc = self.rec(w).clock.max(clock);
                self.rec_mut(w).clock = wc;
                self.emit_sched(wc, self.rec(w).node, w, SchedEventKind::Wake, cause);
                self.push_ready(w);
            }
        }
        if let Some(msg) = panic_msg {
            // Suppress cascade panics from poisoning so the first cause wins.
            if self.poisoned.is_none() {
                self.poison(SimError::Panicked(msg));
            }
        }
    }

    /// Marks the simulation failed (the first cause wins). Parked threads
    /// unwind as [`Kernel::pick_next`] drains them.
    pub(crate) fn poison(&mut self, err: SimError) {
        if self.poisoned.is_none() {
            self.poisoned = Some(err);
        }
    }

    /// Frees the stack of the last thread to exit. Callers run on another
    /// stack — a later exit, or the carrier once the run has drained — so
    /// the corpse has switched away for the last time, and live stack
    /// reservations stay bounded by live threads + 1.
    pub(crate) fn reap(&mut self) {
        if let Some(t) = self.corpse.take() {
            self.rec_mut(t).green = None;
        }
    }
}

/// Marker payload used to unwind threads of a poisoned simulation
/// without triggering the panic hook.
pub(crate) struct PoisonUnwind;

#[cfg(test)]
mod green_mode_tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn green_engine(cpus: usize) -> (Engine, NodeId) {
        let e = Engine::new();
        let n = e.add_node(cpus);
        (e, n)
    }

    #[test]
    fn green_run_matches_sequential_results_and_stats() {
        let run = || {
            let (e, n) = green_engine(2);
            let sum = Arc::new(AtomicU64::new(0));
            let s2 = Arc::clone(&sum);
            let end = e
                .run(n, move |sim| {
                    let mut kids = Vec::new();
                    for i in 0..4u64 {
                        let s3 = Arc::clone(&s2);
                        kids.push(sim.spawn_on(sim.node(), SimTime::ZERO, "k", move |s| {
                            for j in 0..50 {
                                s.advance(13 + i * 7 + j);
                                s.op_point(3);
                            }
                            s3.fetch_add(s.now().as_nanos(), Ordering::Relaxed);
                        }));
                    }
                    for k in kids {
                        sim.wait_exit(k);
                    }
                })
                .unwrap();
            (end, sum.load(Ordering::Relaxed), e.stats())
        };
        // Taken from the OS-thread engine this one replaced (PR 16).
        let stats = EngineStats {
            context_switches: 208,
            threads_spawned: 5,
            lockless_advances: 400,
            sync_slow_path: 200,
            ..EngineStats::default()
        };
        assert_eq!(run(), (SimTime::from_nanos(5450), 20235, stats));
    }

    #[test]
    fn green_deadlock_detected_and_drained() {
        let (e, n) = green_engine(2);
        let err = e
            .run(n, |sim| {
                let c = sim.spawn_on(sim.node(), SimTime::ZERO, "stuck", |s| s.block());
                sim.wait_exit(c);
            })
            .expect_err("should deadlock");
        assert!(matches!(err, SimError::Deadlock(_)), "{err:?}");
    }

    #[test]
    fn green_panic_reports_error_and_unwinds_peers() {
        let (e, n) = green_engine(2);
        let err = e
            .run(n, |sim| {
                // A parked peer that must be drained after the poison.
                sim.spawn_on(sim.node(), SimTime::ZERO, "parked", |s| s.block());
                sim.advance(10);
                sim.sync_point();
                panic!("green boom");
            })
            .expect_err("should fail");
        match err {
            SimError::Panicked(m) => assert!(m.contains("green boom"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn green_timed_blocks_and_wakes() {
        let (e, n) = green_engine(2);
        let log = Arc::new(StdMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let end = e
            .run(n, move |sim| {
                let l3 = Arc::clone(&l2);
                let c = sim.spawn_on(sim.node(), SimTime::ZERO, "sleeper", move |s| {
                    let woken = s.block_deadline(SimTime::from_micros(30));
                    l3.lock().unwrap().push((woken, s.now().as_nanos()));
                });
                sim.advance(50_000);
                sim.sync_point();
                sim.wait_exit(c);
            })
            .unwrap();
        // As on the OS-thread engine this one replaced (PR 16).
        assert_eq!(end, SimTime::from_micros(50));
        assert_eq!(*log.lock().unwrap(), vec![(false, 30_000)]);
    }

    #[test]
    fn ready_reallocs_flat_in_steady_state() {
        let run = |nodes: u32, threads: u32| {
            let e = Engine::new();
            let ns: Vec<NodeId> = (0..nodes).map(|_| e.add_node(2)).collect();
            e.run(ns[0], move |sim| {
                let kids: Vec<Tid> = (0..threads)
                    .map(|i| {
                        let node = ns[(i % nodes) as usize];
                        sim.spawn_on(node, SimTime::ZERO, "k", |s| {
                            for _ in 0..200 {
                                s.advance(10);
                                s.sync_point();
                            }
                        })
                    })
                    .collect();
                for k in kids {
                    sim.wait_exit(k);
                }
            })
            .unwrap();
            e.stats()
        };
        // 9 threads on one node × hundreds of sync points each: the heap
        // never grows past one node's reserve.
        let st = run(1, 8);
        assert_eq!(st.ready_reallocs, 0);
        assert!(st.sync_slow_path > 500);
        // 101 threads over four nodes: more than one node's reserve
        // (READY_RESERVE = 64) is ready at once, and the reserve of every
        // node added holds them.
        let st = run(4, 100);
        assert_eq!(st.ready_reallocs, 0);
        assert!(st.sync_slow_path > 10_000);
    }

    #[test]
    fn cross_node_ties_dispatch_in_tid_order() {
        let e = Engine::new();
        let ns = [e.add_node(1), e.add_node(1), e.add_node(1)];
        let log = Arc::new(StdMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        e.run(ns[0], move |sim| {
            // Tids 1, 2, 3 on nodes 2, 1, 0 reach clock 100 in tid order,
            // each at a sync point; tid 3 then yields to a three-way tie
            // that the lowest tid wins, though it is on the highest node.
            let kids: Vec<Tid> = [(ns[2], 10), (ns[1], 50), (ns[0], 90)]
                .into_iter()
                .map(|(node, first)| {
                    let l3 = Arc::clone(&l2);
                    sim.spawn_on(node, SimTime::ZERO, "k", move |s| {
                        s.advance(first);
                        s.sync_point();
                        s.advance(100 - first);
                        s.sync_point();
                        l3.lock()
                            .unwrap()
                            .push((s.tid().0, s.node().0, s.now().as_nanos()));
                    })
                })
                .collect();
            for k in kids {
                sim.wait_exit(k);
            }
        })
        .unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            vec![(1, 2, 100), (2, 1, 100), (3, 0, 100)]
        );
    }

    #[test]
    fn exited_threads_give_their_stacks_back() {
        let (e, n) = green_engine(1);
        e.run(n, |sim| {
            for _ in 0..2000 {
                let c = sim.spawn_on(sim.node(), sim.now(), "short", |s| s.advance(10));
                sim.wait_exit(c);
                let k = sim.engine().inner.kernel.lock();
                let held = k.threads.iter().filter(|t| t.green.is_some()).count();
                assert!(held <= 2, "{held} stacks held by one live thread");
            }
        })
        .unwrap();
        let k = e.inner.kernel.lock();
        assert!(k.threads.iter().all(|t| t.green.is_none()));
    }
}
