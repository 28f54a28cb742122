//! Deterministic discrete-event execution engine.
//!
//! The CableS reproduction runs real Rust code (the SPLASH-2 kernels, the
//! pthreads demo programs) on a *simulated* cluster. Each simulated thread
//! is a green thread — its own stack, carried by the one OS thread that
//! called [`Engine::run`] (see `carrier.rs`) — and the engine serializes
//! execution: at any instant exactly one simulated thread holds the
//! baton, and scheduling points always pick the runnable thread with the
//! smallest virtual clock (ties broken by thread id), switching stacks
//! directly to it. This is direct-execution simulation in the
//! style of the Wisconsin Wind Tunnel: compute advances a thread's private
//! virtual clock, and *operations* on shared simulation state (protocol
//! actions, messages, synchronization) are executed in global timestamp
//! order via [`Sim::sync_point`].
//!
//! Determinism argument: execution is a pure function of the program and the
//! scheduling policy. The policy is min-`(clock, tid)`; clocks are derived
//! only from deterministic cost charges. Blocked threads are woken at
//! explicit virtual times by running threads, and a woken thread never
//! resumes with a clock earlier than the waker's clock at the wake, so
//! operations execute in nondecreasing timestamp order. Debug builds
//! check it as they go (`DESIGN.md` §5.3): dispatch keys must be monotone,
//! a declared operation scope must cover the executing node, and a parking
//! thread's stack canary must be intact; a violation poisons the run.

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::cmp::Reverse;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::carrier::{self, GreenCtx, Payload};
use crate::time::SimTime;

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
enum ThreadState {
    Ready,
    Running,
    Blocked,
    Exited,
}

struct ThreadRec {
    clock: SimTime,
    node: NodeId,
    cpu: usize,
    state: ThreadState,
    exit_waiters: Vec<Tid>,
    /// A wake that arrived while the thread was not blocked; consumed by
    /// the next [`Sim::block`] (wake-token semantics).
    pending_wake: Option<SimTime>,
    /// Generation counter invalidating stale sleeper-heap entries.
    sleep_gen: u64,
    /// Set when the last timed block expired instead of being woken.
    timed_out: bool,
    /// Declared footprint of the operation this thread is parked at
    /// ([`Scope::ALL`] for resumes, blocks and undeclared points).
    pend_scope: Scope,
    /// The thread's stack and saved context; `None` once the thread has
    /// exited and [`Kernel::reap`] has given the stack back.
    green: Option<GreenCtx>,
    name: String,
}

#[derive(Debug, Default, Clone, Copy)]
struct CpuRec {
    free_at: SimTime,
}

struct NodeRec {
    cpus: Vec<CpuRec>,
    next_cpu: usize,
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
struct ReadyShards {
    shards: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
}

/// Initial retained capacity of each node's ready shard.
const SHARD_RESERVE: usize = 64;

/// Whether the runtime determinism audits are on: debug builds, the rule
/// the engine's `debug_assert!`s follow.
const AUDITS: bool = cfg!(debug_assertions);

struct Kernel {
    threads: Vec<ThreadRec>,
    ready: ReadyShards,
    /// Sleeping (timed-blocked) threads: (deadline ns, tid, sleep_gen).
    sleepers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    running: Option<Tid>,
    live: usize,
    nodes: Vec<NodeRec>,
    poisoned: Option<SimError>,
    final_time: SimTime,
    stats: EngineStats,
    fresh: u64,
    /// The last thread to exit, whose stack cannot be freed before it has
    /// switched away from it (see [`Kernel::reap`]).
    corpse: Option<Tid>,
    /// Conservative lookahead window in ns for the window telemetry
    /// (typically the SAN base message latency); `None` disables it.
    lookahead: Option<u64>,
    /// Last dispatched `(clock, tid)` key, for the monotonicity audit.
    last_dispatch: (u64, u64),
    /// Observability hook for scheduling points (None = zero overhead
    /// beyond this Option check).
    sched_hook: Option<SchedHook>,
}

impl Kernel {
    fn emit_sched(
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
    fn rec(&self, tid: Tid) -> &ThreadRec {
        &self.threads[tid.0 as usize]
    }

    fn rec_mut(&mut self, tid: Tid) -> &mut ThreadRec {
        &mut self.threads[tid.0 as usize]
    }

    /// Enqueues `tid` on its node's ready shard with a conservative
    /// (all-nodes) pending scope — the right default for wakes, spawns and
    /// expired sleeps, whose continuation may touch anything.
    fn push_ready(&mut self, tid: Tid) {
        self.push_ready_scoped(tid, Scope::ALL);
    }

    /// Enqueues `tid` with the declared footprint of the operation it is
    /// parked at.
    fn push_ready_scoped(&mut self, tid: Tid, scope: Scope) {
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
    fn peek_sleeper(&mut self) -> Option<u64> {
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
    fn peek_ready_shard(&mut self) -> Option<((u64, u64), usize)> {
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
    fn peek_ready(&mut self) -> Option<(u64, u64)> {
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
    fn audit_dispatch(&mut self, key: (u64, u64)) {
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
    fn pick_next(&mut self) -> Option<Tid> {
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
    fn exit_bookkeeping(&mut self, tid: Tid, panic_msg: Option<String>) {
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
    fn poison(&mut self, err: SimError) {
        if self.poisoned.is_none() {
            self.poisoned = Some(err);
        }
    }

    /// Frees the stack of the last thread to exit. Callers run on another
    /// stack — a later exit, or the carrier once the run has drained — so
    /// the corpse has switched away for the last time, and live stack
    /// reservations stay bounded by live threads + 1.
    fn reap(&mut self) {
        if let Some(t) = self.corpse.take() {
            self.rec_mut(t).green = None;
        }
    }
}

struct EngineInner {
    kernel: Mutex<Kernel>,
    /// Saved stack pointer of the carrier OS thread parked in
    /// [`Engine::run`]. Only touched by that single carrier thread (the
    /// atomic is for `Sync`, not for cross-thread traffic).
    carrier_rsp: AtomicPtr<u8>,
}

/// A deterministic discrete-event engine for a simulated cluster.
///
/// Cloning the handle is cheap; all clones refer to the same simulation.
///
/// # Examples
///
/// ```
/// use cables_sim::{Engine, SimTime};
/// let engine = Engine::new();
/// let n0 = engine.add_node(2);
/// let end = engine
///     .run(n0, |sim| {
///         sim.advance(1_000); // 1us of compute
///     })
///     .unwrap();
/// assert_eq!(end, SimTime::from_micros(1));
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = self.inner.kernel.lock();
        f.debug_struct("Engine")
            .field("threads", &k.threads.len())
            .field("live", &k.live)
            .field("nodes", &k.nodes.len())
            .finish()
    }
}

impl Engine {
    /// Creates an engine with no nodes; add nodes with [`Engine::add_node`].
    pub fn new() -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                kernel: Mutex::new(Kernel {
                    threads: Vec::new(),
                    ready: ReadyShards::default(),
                    sleepers: BinaryHeap::new(),
                    running: None,
                    live: 0,
                    nodes: Vec::new(),
                    poisoned: None,
                    final_time: SimTime::ZERO,
                    stats: EngineStats::default(),
                    fresh: 0,
                    corpse: None,
                    lookahead: None,
                    last_dispatch: (0, 0),
                    sched_hook: None,
                }),
                carrier_rsp: AtomicPtr::new(std::ptr::null_mut()),
            }),
        }
    }

    /// Installs (or removes) the scheduling-point observer. The hook is
    /// invoked at thread spawn/exit/block/wake with deterministic
    /// [`SimTime`] stamps; it never affects scheduling or virtual time.
    pub fn set_sched_hook(&self, hook: Option<SchedHook>) {
        self.inner.kernel.lock().sched_hook = hook;
    }

    /// Adds a node with `cpus` processors and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cpus == 0`.
    pub fn add_node(&self, cpus: usize) -> NodeId {
        assert!(cpus > 0, "a node needs at least one processor");
        let mut k = self.inner.kernel.lock();
        let id = NodeId(k.nodes.len() as u32);
        k.nodes.push(NodeRec {
            cpus: vec![CpuRec::default(); cpus],
            next_cpu: 0,
        });
        k.ready
            .shards
            .push(BinaryHeap::with_capacity(SHARD_RESERVE));
        id
    }

    /// Sets the conservative lookahead window (ns) used for the
    /// [`EngineStats::window_admissible`] telemetry — typically the SAN
    /// base message latency. `None` (the default) disables the telemetry.
    /// Never affects scheduling order (see `DESIGN.md` §5.3).
    pub fn set_lookahead(&self, window_ns: Option<u64>) {
        self.inner.kernel.lock().lookahead = window_ns;
    }

    /// The configured lookahead window, if any.
    pub fn lookahead(&self) -> Option<u64> {
        self.inner.kernel.lock().lookahead
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.inner.kernel.lock().nodes.len()
    }

    /// Number of processors on `node`.
    pub fn cpu_count(&self, node: NodeId) -> usize {
        self.inner.kernel.lock().nodes[node.0 as usize].cpus.len()
    }

    /// Engine counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.inner.kernel.lock().stats
    }

    /// Runs `root` as the first simulated thread on `node` and returns
    /// when every simulated thread has exited. The calling OS thread is
    /// the *carrier*: it dispatches the root green thread and parks its own
    /// context; green threads switch among themselves and the last exit
    /// switches back here. Everything runs on this one OS thread.
    ///
    /// Returns the final virtual time (the latest thread exit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Panicked`] if any simulated thread panicked and
    /// [`SimError::Deadlock`] if all live threads blocked forever.
    pub fn run<F>(&self, node: NodeId, root: F) -> Result<SimTime, SimError>
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        let root = Box::new(root);
        self.spawn_thread(node, SimTime::ZERO, "root".to_string(), None, root);
        let load = {
            let mut k = self.inner.kernel.lock();
            let first = k.pick_next().expect("root thread just spawned");
            k.rec_mut(first)
                .green
                .as_mut()
                .expect("spawn creates a green context")
                .take_rsp()
        };
        // The green side reads `carrier_rsp` to switch back when the run
        // drains; `raw_switch` stores into the slot before any green code
        // runs, and only this carrier OS thread ever touches the slot.
        unsafe {
            carrier::raw_switch(self.inner.carrier_rsp.as_ptr() as *mut *mut u8, load);
        }
        let mut k = self.inner.kernel.lock();
        k.reap();
        debug_assert!(k.live == 0 || k.poisoned.is_some());
        match &k.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(k.final_time),
        }
    }

    fn spawn_thread(
        &self,
        node: NodeId,
        start: SimTime,
        name: String,
        cause: Option<SchedCause>,
        f: Box<dyn FnOnce(&Sim) + Send + 'static>,
    ) -> Tid {
        let mut k = self.inner.kernel.lock();
        assert!(
            (node.0 as usize) < k.nodes.len(),
            "spawn on unknown node {node}"
        );
        let tid = Tid(k.threads.len() as u64);
        let cpu = {
            let n = &mut k.nodes[node.0 as usize];
            let c = n.next_cpu;
            n.next_cpu = (n.next_cpu + 1) % n.cpus.len();
            c
        };
        // Park a fabricated context whose first dispatch runs the body,
        // then exits by switching away.
        let engine = self.clone();
        let body: Box<dyn FnOnce() + Send> = Box::new(move || {
            if engine.inner.kernel.lock().poisoned.is_some() {
                Engine::green_exit(engine, tid, None);
            }
            let sim = Sim::new(engine.clone(), tid);
            let result = catch_unwind(AssertUnwindSafe(|| f(&sim)));
            // The kernel copy of the clock may be stale; make it
            // authoritative before exit bookkeeping reads it.
            sim.flush_for_exit();
            drop(sim);
            let panic_msg = result.err().and_then(|p| {
                if p.downcast_ref::<PoisonUnwind>().is_some() {
                    // Cascade from an already-recorded failure.
                    return None;
                }
                Some(
                    p.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string()),
                )
            });
            Engine::green_exit(engine, tid, panic_msg)
        });
        k.threads.push(ThreadRec {
            clock: start,
            node,
            cpu,
            state: ThreadState::Ready,
            exit_waiters: Vec::new(),
            pending_wake: None,
            sleep_gen: 0,
            timed_out: false,
            pend_scope: Scope::ALL,
            green: Some(GreenCtx::new(Box::new(Payload { run: body }))),
            name,
        });
        k.live += 1;
        k.stats.threads_spawned += 1;
        k.push_ready(tid);
        k.emit_sched(start, node, tid, SchedEventKind::Spawn, cause);
        tid
    }

    /// Thread exit: records the exit, then switches straight to the next
    /// runnable green thread — or back to the carrier parked in
    /// [`Engine::run`] when the run has drained. Consumes the calling
    /// green thread's `Engine` handle (dropping it before the final switch,
    /// since this stack frame is abandoned, never unwound).
    fn green_exit(engine: Engine, tid: Tid, panic_msg: Option<String>) -> ! {
        let mut k = engine.inner.kernel.lock();
        k.exit_bookkeeping(tid, panic_msg);
        // The previous corpse left its stack long ago; this thread is
        // still standing on its own until the switch below.
        k.reap();
        k.corpse = Some(tid);
        let next = k.pick_next();
        let load = match next {
            Some(t) => k
                .rec_mut(t)
                .green
                .as_mut()
                .expect("live threads all have a green context")
                .take_rsp(),
            // Nothing runnable: the run is over (drained or poisoned);
            // resume the carrier. The slot was filled by `run`'s switch
            // before any green code ran.
            None => engine.inner.carrier_rsp.load(Ordering::Relaxed),
        };
        drop(k);
        // The carrier's own `Engine` handle keeps the allocation alive for
        // the rest of the run; this clone must die with this stack.
        drop(engine);
        let mut dead: *mut u8 = std::ptr::null_mut();
        unsafe { carrier::raw_switch(&mut dead, load) };
        unreachable!("exited green thread was resumed");
    }
}

/// Marker payload used to unwind threads of a poisoned simulation
/// without triggering the panic hook.
struct PoisonUnwind;

/// Snapshot of the scheduling state the hot path needs: this thread's
/// virtual clock plus its processor's `free_at`. While a thread runs with a
/// populated cache, the kernel's copies are stale and the cache is
/// authoritative; `flush_into` reconciles them before anyone else can look.
#[derive(Debug, Clone, Copy)]
struct ClockCache {
    clock: SimTime,
    free_at: SimTime,
    node: NodeId,
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
    fn new(engine: Engine, tid: Tid) -> Self {
        Sim {
            engine,
            tid,
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
        if let Some(c) = self.cache.get() {
            return c.node;
        }
        self.engine.inner.kernel.lock().rec(self.tid).node
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
            k.nodes[c.node.0 as usize].cpus[c.cpu].free_at = c.free_at;
        }
        k.stats.lockless_advances += self.n_lockless.take();
        k.stats.sync_fast_path += self.n_sync_fast.take();
        k.stats.sync_slow_path += self.n_sync_slow.take();
    }

    /// Loads the cache from kernel state (under the lock `k`).
    fn warm_cache(&self, k: &Kernel) {
        let r = k.rec(self.tid);
        let (node, cpu, clock) = (r.node, r.cpu, r.clock);
        let free_at = k.nodes[node.0 as usize].cpus[cpu].free_at;
        self.cache.set(Some(ClockCache {
            clock,
            free_at,
            node,
            cpu,
        }));
    }

    /// Called by the spawn shim after the thread body returns, so
    /// exit bookkeeping sees the final clock.
    fn flush_for_exit(&self) {
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
        if AUDITS {
            let me_node = k.rec(self.tid).node;
            if !scope.contains(me_node) {
                let name = k.rec(self.tid).name.clone();
                k.poison(SimError::Panicked(format!(
                    "scope audit: thread {name} declared a footprint excluding its own node {me_node}"
                )));
            }
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
            let (node, cpu) = {
                let r = k.rec(self.tid);
                (r.node, r.cpu)
            };
            let free_at = k.nodes[node.0 as usize].cpus[cpu].free_at;
            let clock = k.rec(self.tid).clock;
            let end = clock.max(free_at) + cost;
            k.rec_mut(self.tid).clock = end;
            k.nodes[node.0 as usize].cpus[cpu].free_at = end;
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
            let ok = k
                .rec(self.tid)
                .green
                .as_ref()
                .is_none_or(|g| g.canary_ok());
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
            k.rec(self.tid).node,
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
            k.rec(self.tid).node,
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
            node: k.rec(self.tid).node,
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
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn one_node_engine(cpus: usize) -> (Engine, NodeId) {
        let e = Engine::new();
        let n = e.add_node(cpus);
        (e, n)
    }

    #[test]
    fn run_root_returns_final_time() {
        let (e, n) = one_node_engine(1);
        let t = e.run(n, |sim| sim.advance(1234)).unwrap();
        assert_eq!(t.as_nanos(), 1234);
    }

    #[test]
    fn spawn_and_wait_exit_propagates_clock() {
        let (e, n) = one_node_engine(2);
        let t = e
            .run(n, move |sim| {
                let child = sim.spawn_on(sim.node(), sim.now(), "child", |s| {
                    s.advance(10_000);
                });
                sim.wait_exit(child);
                assert_eq!(sim.now().as_nanos(), 10_000);
            })
            .unwrap();
        assert_eq!(t.as_nanos(), 10_000);
    }

    #[test]
    fn threads_on_same_cpu_serialize() {
        let (e, n) = one_node_engine(1);
        let t = e
            .run(n, move |sim| {
                let c1 = sim.spawn_on(sim.node(), SimTime::ZERO, "a", |s| s.advance(100));
                let c2 = sim.spawn_on(sim.node(), SimTime::ZERO, "b", |s| s.advance(100));
                sim.wait_exit(c1);
                sim.wait_exit(c2);
            })
            .unwrap();
        // root + 2 children share one processor: 2 segments of 100ns
        // serialize after root's (zero-length) usage.
        assert_eq!(t.as_nanos(), 200);
    }

    #[test]
    fn threads_on_distinct_cpus_overlap() {
        let (e, n) = one_node_engine(4);
        let t = e
            .run(n, move |sim| {
                let c1 = sim.spawn_on(sim.node(), SimTime::ZERO, "a", |s| s.advance(100));
                let c2 = sim.spawn_on(sim.node(), SimTime::ZERO, "b", |s| s.advance(100));
                sim.wait_exit(c1);
                sim.wait_exit(c2);
            })
            .unwrap();
        assert_eq!(t.as_nanos(), 100);
    }

    #[test]
    fn block_and_wake_transfers_time() {
        let (e, n) = one_node_engine(2);
        let observed = Arc::new(AtomicU64::new(0));
        let obs = Arc::clone(&observed);
        e.run(n, move |sim| {
            let waiter_tid = Arc::new(StdMutex::new(None::<Tid>));
            let wt = Arc::clone(&waiter_tid);
            let obs2 = Arc::clone(&obs);
            let child = sim.spawn_on(sim.node(), SimTime::ZERO, "waiter", move |s| {
                *wt.lock().unwrap() = Some(s.tid());
                s.block();
                obs2.store(s.now().as_nanos(), Ordering::SeqCst);
            });
            // Let the child run first and block.
            sim.advance(1_000);
            sim.sync_point();
            let t = waiter_tid.lock().unwrap().expect("child registered");
            sim.wake(t, sim.now() + 500);
            sim.wait_exit(child);
        })
        .unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 1_500);
    }

    #[test]
    fn deterministic_interleaving() {
        // Two runs of a mildly contended program produce identical traces.
        fn trace() -> Vec<u64> {
            let (e, n) = one_node_engine(4);
            let log = Arc::new(StdMutex::new(Vec::new()));
            let l2 = Arc::clone(&log);
            e.run(n, move |sim| {
                let mut kids = Vec::new();
                for i in 0..4u64 {
                    let l3 = Arc::clone(&l2);
                    kids.push(sim.spawn_on(sim.node(), SimTime::ZERO, "k", move |s| {
                        s.advance(10 * (i + 1));
                        s.sync_point();
                        l3.lock().unwrap().push(i);
                        s.advance(5);
                        s.sync_point();
                        l3.lock().unwrap().push(100 + i);
                    }));
                }
                for k in kids {
                    sim.wait_exit(k);
                }
            })
            .unwrap();
            let v = log.lock().unwrap().clone();
            v
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn panic_in_thread_reports_error() {
        let (e, n) = one_node_engine(1);
        let err = e
            .run(n, |_sim| panic!("boom in sim"))
            .expect_err("should fail");
        match err {
            SimError::Panicked(m) => assert!(m.contains("boom in sim")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn deadlock_detected() {
        let (e, n) = one_node_engine(1);
        let err = e.run(n, |sim| sim.block()).expect_err("should deadlock");
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    #[test]
    fn advance_idle_does_not_occupy_cpu() {
        let (e, n) = one_node_engine(1);
        let t = e
            .run(n, move |sim| {
                let c = sim.spawn_on(sim.node(), SimTime::ZERO, "idler", |s| {
                    s.advance_idle(1_000);
                });
                sim.advance(1_000);
                sim.wait_exit(c);
            })
            .unwrap();
        // Both "use" 1000ns but only root occupies the single CPU, so the
        // idler's wait overlaps with root's compute.
        assert_eq!(t.as_nanos(), 1_000);
    }

    #[test]
    fn sync_point_orders_by_timestamp() {
        let (e, n) = one_node_engine(4);
        let log = Arc::new(StdMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        e.run(n, move |sim| {
            let mut kids = Vec::new();
            // Spawn in reverse cost order; sync order must follow clocks.
            for (i, cost) in [(0u64, 300u64), (1, 200), (2, 100)] {
                let l3 = Arc::clone(&l2);
                kids.push(sim.spawn_on(sim.node(), SimTime::ZERO, "k", move |s| {
                    s.advance(cost);
                    s.sync_point();
                    l3.lock().unwrap().push(i);
                }));
            }
            for k in kids {
                sim.wait_exit(k);
            }
        })
        .unwrap();
        assert_eq!(*log.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn stats_counts_threads() {
        let (e, n) = one_node_engine(2);
        e.run(n, move |sim| {
            let k = sim.spawn_on(sim.node(), SimTime::ZERO, "c", |_| {});
            sim.wait_exit(k);
        })
        .unwrap();
        assert_eq!(e.stats().threads_spawned, 2);
        assert!(e.stats().context_switches >= 2);
    }

    #[test]
    fn fresh_u64_is_unique() {
        let (e, n) = one_node_engine(1);
        e.run(n, |sim| {
            let a = sim.fresh_u64();
            let b = sim.fresh_u64();
            assert_ne!(a, b);
        })
        .unwrap();
    }

    #[test]
    fn spawn_on_second_node() {
        let e = Engine::new();
        let n0 = e.add_node(1);
        let n1 = e.add_node(1);
        e.run(n0, move |sim| {
            let k = sim.spawn_on(n1, SimTime::ZERO, "remote", move |s| {
                assert_eq!(s.node(), n1);
                s.advance(50);
            });
            sim.wait_exit(k);
            assert_eq!(sim.now().as_nanos(), 50);
        })
        .unwrap();
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

#[cfg(test)]
mod green_mode_tests {
    use super::*;
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
