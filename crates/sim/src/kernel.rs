//! Scheduler state of the engine: identifiers and scheduling-point
//! vocabulary, the thread table, the per-node ready shards, dispatch in
//! global `(clock, tid)` order, exit bookkeeping, poison and stack
//! reclamation. Everything here runs under the one kernel mutex (see
//! `engine.rs` for the execution model).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::carrier::GreenCtx;
use crate::time::SimTime;
#[cfg(doc)]
use crate::{engine::Engine, sim_handle::Sim};

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

/// Declared node footprint of an operation ordered at a sync point.
///
/// A scope is the set of nodes whose simulation state the operation may
/// read or write. Page faults, for example, touch the faulting node, the
/// page's home and the segment master; locks, barriers and releases touch
/// every node (write notices, the global notice log). Scopes never alter
/// scheduling — operations always execute in global timestamp order — but
/// they feed two things: the debug-build scope audit (an operation must at
/// least cover its own node) and the lookahead-window telemetry
/// ([`EngineStats::window_admissible`]), which measures how many yields a
/// footprint-aware conservative scheduler *could* avoid if cross-node
/// effects carried a minimum latency (see `DESIGN.md` §5.3 for why they
/// currently do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(u64);

impl Scope {
    /// The conservative scope: every node.
    pub const ALL: Scope = Scope(u64::MAX);

    /// Scope containing exactly `n`. Node ids ≥ 64 saturate to [`Scope::ALL`]
    /// (conservative: false conflicts are sound, missed ones are not).
    pub fn node(n: NodeId) -> Scope {
        if n.0 >= 64 {
            Scope::ALL
        } else {
            Scope(1 << n.0)
        }
    }

    /// This scope extended with node `n`.
    #[must_use]
    pub fn with(self, n: NodeId) -> Scope {
        if n.0 >= 64 {
            Scope::ALL
        } else {
            Scope(self.0 | (1 << n.0))
        }
    }

    /// Whether `n` is covered by this scope.
    pub fn contains(self, n: NodeId) -> bool {
        n.0 >= 64 || self.0 & (1 << n.0) != 0
    }

    /// Whether the two scopes share a node.
    pub fn intersects(self, other: Scope) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether this is the conservative all-nodes scope.
    pub fn is_all(self) -> bool {
        self.0 == u64::MAX
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
/// Called synchronously at deterministic points with the kernel lock
/// held; implementations must not call back into the engine and must not
/// block on anything a simulated thread could hold.
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
    /// Declared footprint of the operation this thread is parked at
    /// ([`Scope::ALL`] for resumes, blocks and undeclared points).
    pub(crate) pend_scope: Scope,
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
    /// Clock/cpu charges served from the per-thread cache without taking
    /// the kernel lock ([`Sim::advance`], [`Sim::advance_idle`], ...).
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
    /// Times a per-node ready shard had to grow its retained storage.
    /// Flat after warm-up: steady-state scheduling does not allocate.
    pub ready_reallocs: u64,
    /// Slow-path yields whose operation a footprint-aware conservative
    /// scheduler could have admitted without yielding: the declared scope
    /// was disjoint from every earlier pending operation and the timestamp
    /// was within the configured lookahead window of the earliest one.
    /// Pure telemetry — the yield still happens (see `DESIGN.md` §5.3).
    pub window_admissible: u64,
}

/// Per-node ready queues. Selection is identical to one global min-heap —
/// the scheduler always takes the global minimum `(clock, tid)` — but each
/// node's storage is retained for the whole run, so steady-state
/// scheduling never allocates ([`EngineStats::ready_reallocs`] proves it).
#[derive(Default)]
pub(crate) struct ReadyShards {
    pub(crate) shards: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
}

/// Initial retained capacity of each node's ready shard.
pub(crate) const SHARD_RESERVE: usize = 64;

/// Whether the runtime determinism audits are on: debug builds, the rule
/// the engine's `debug_assert!`s follow.
pub(crate) const AUDITS: bool = cfg!(debug_assertions);

pub(crate) struct Kernel {
    pub(crate) threads: Vec<ThreadRec>,
    pub(crate) ready: ReadyShards,
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
    /// Conservative lookahead window in ns for the window telemetry
    /// (typically the SAN base message latency); `None` disables it.
    pub(crate) lookahead: Option<u64>,
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

    /// Enqueues `tid` on its node's ready shard with a conservative
    /// (all-nodes) pending scope — the right default for wakes, spawns and
    /// expired sleeps, whose continuation may touch anything.
    pub(crate) fn push_ready(&mut self, tid: Tid) {
        self.push_ready_scoped(tid, Scope::ALL);
    }

    /// Enqueues `tid` with the declared footprint of the operation it is
    /// parked at.
    pub(crate) fn push_ready_scoped(&mut self, tid: Tid, scope: Scope) {
        let (clock, node) = {
            let r = self.rec(tid);
            (r.clock, r.node)
        };
        {
            let r = self.rec_mut(tid);
            r.state = ThreadState::Ready;
            r.pend_scope = scope;
        }
        let shard = &mut self.ready.shards[node.0 as usize];
        let cap = shard.capacity();
        shard.push(Reverse((clock.as_nanos(), tid.0)));
        if shard.capacity() != cap {
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

    /// Drops invalidated shard tops and returns the global minimum ready
    /// key with its shard index, without popping it.
    pub(crate) fn peek_ready_shard(&mut self) -> Option<((u64, u64), usize)> {
        let mut best: Option<((u64, u64), usize)> = None;
        for si in 0..self.ready.shards.len() {
            loop {
                let Some(&Reverse(top)) = self.ready.shards[si].peek() else {
                    break;
                };
                if self.threads[top.1 as usize].state != ThreadState::Ready {
                    self.ready.shards[si].pop();
                    continue;
                }
                if best.map_or(true, |(b, _)| top < b) {
                    best = Some((top, si));
                }
                break;
            }
        }
        best
    }

    /// Drops invalidated ready entries and returns the minimum ready key.
    pub(crate) fn peek_ready(&mut self) -> Option<(u64, u64)> {
        self.peek_ready_shard().map(|(key, _)| key)
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
            let ready = self.peek_ready_shard();
            match (ready, sleeper) {
                (Some(((rt, _), _)), Some(st)) if st < rt => {
                    self.fire_sleeper();
                    continue;
                }
                (None, Some(_)) => {
                    self.fire_sleeper();
                    continue;
                }
                (Some((key, si)), _) => {
                    let tid = Tid(key.1);
                    self.ready.shards[si].pop();
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
    fn scope_algebra() {
        let a = Scope::node(NodeId(3));
        assert!(a.contains(NodeId(3)));
        assert!(!a.contains(NodeId(4)));
        assert!(a.with(NodeId(4)).contains(NodeId(4)));
        assert!(!a.intersects(Scope::node(NodeId(4))));
        assert!(a.intersects(Scope::ALL));
        assert!(Scope::node(NodeId(64)).is_all());
    }

    #[test]
    fn green_run_matches_sequential_results_and_stats() {
        let run = || {
            let (e, n) = green_engine(2);
            e.set_lookahead(Some(5_000));
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
    #[cfg(debug_assertions)]
    fn scope_audit_rejects_foreign_only_footprint() {
        let e = Engine::new();
        let n0 = e.add_node(1);
        let _n1 = e.add_node(1);
        let err = e
            .run(n0, |sim| {
                // Needs a competing earlier thread so the scoped point takes
                // the slow path where the audit runs.
                let c = sim.spawn_on(sim.node(), SimTime::ZERO, "early", |s| {
                    s.advance(5);
                    s.sync_point();
                });
                sim.advance(100);
                sim.sync_point_scoped(Scope::node(NodeId(1))); // excludes own node 0
                sim.wait_exit(c);
            })
            .expect_err("audit should fire");
        match err {
            SimError::Panicked(m) => assert!(m.contains("scope audit"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn window_telemetry_counts_disjoint_yields() {
        let run = |lookahead: Option<u64>| {
            let e = Engine::new();
            let n0 = e.add_node(1);
            let n1 = e.add_node(1);
            e.set_lookahead(lookahead);
            e.run(n0, move |sim| {
                let a = sim.spawn_on(n0, SimTime::ZERO, "a", |s| {
                    for _ in 0..10 {
                        s.advance(100);
                        s.sync_point_scoped(Scope::node(NodeId(0)));
                    }
                });
                let b = sim.spawn_on(n1, SimTime::ZERO, "b", |s| {
                    for _ in 0..10 {
                        s.advance(110);
                        s.sync_point_scoped(Scope::node(NodeId(1)));
                    }
                });
                sim.wait_exit(a);
                sim.wait_exit(b);
            })
            .unwrap();
            e.stats()
        };
        let off = run(None);
        assert_eq!(off.window_admissible, 0);
        let on = run(Some(1_000));
        // Same schedule, same counters, except the telemetry: the two
        // threads' footprints are disjoint, so their mutual yields count.
        assert!(on.window_admissible > 0);
        assert_eq!(off.context_switches, on.context_switches);
        assert_eq!(off.sync_slow_path, on.sync_slow_path);
    }

    #[test]
    fn ready_reallocs_flat_in_steady_state() {
        let (e, n) = green_engine(2);
        e.run(n, move |sim| {
            let mut kids = Vec::new();
            for _ in 0..8 {
                kids.push(sim.spawn_on(sim.node(), SimTime::ZERO, "k", |s| {
                    for _ in 0..200 {
                        s.advance(10);
                        s.sync_point();
                    }
                }));
            }
            for k in kids {
                sim.wait_exit(k);
            }
        })
        .unwrap();
        let st = e.stats();
        // 9 threads × hundreds of sync points each, but the shard only ever
        // grows past the initial reserve... never: 9 < SHARD_RESERVE.
        assert_eq!(st.ready_reallocs, 0);
        assert!(st.sync_slow_path > 500);
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
