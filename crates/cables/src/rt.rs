//! The CableS runtime: dynamic thread and node management over the SVM
//! engine, coordinated through the application control block (ACB).
//!
//! The ACB lives on the first node of the application (the *master*); other
//! nodes read and update it with direct remote operations and notification
//! handlers, whose costs this module charges explicitly ("administration
//! request" in the paper's Table 4).

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use chaos::{ChaosEngine, CrashUnwind};
use memsim::GAddr;
use sim::{IdMap, Local, NodeId, Sim, SimError, SimTime, Tid};
use svm::sync::{Real, SyncEffects};
use svm::{Cluster, ProtoMode, SvmSystem};

use crate::config::CablesConfig;
use crate::core::{Joined, Recovery, RtState, Wait};

/// The value [`CablesRt::join`] returns for a thread lost to a node crash
/// (mirrors a POSIX `ECANCELED`-style status: the thread never produced a
/// result of its own).
pub const CRASHED_RET: u64 = 125;

/// Identifier of a CableS (pthreads) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtId(pub u64);

impl fmt::Display for CtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ct{}", self.0)
    }
}

/// Error returned at cancellation points of a cancelled thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread was cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// API operations whose execution times the runtime accumulates
/// (the paper's Table 5 reports the average execution time of each
/// pthreads function during program runs — including wait time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    Create,
    Join,
    MutexLock,
    MutexUnlock,
    CondWait,
    CondSignal,
    CondBroadcast,
    Barrier,
    Malloc,
    Free,
}

impl OpKind {
    /// All kinds, in display order.
    pub const ALL: [OpKind; 10] = [
        OpKind::Create,
        OpKind::Join,
        OpKind::MutexLock,
        OpKind::MutexUnlock,
        OpKind::CondWait,
        OpKind::CondSignal,
        OpKind::CondBroadcast,
        OpKind::Barrier,
        OpKind::Malloc,
        OpKind::Free,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Join => "join",
            OpKind::MutexLock => "mutex_lock",
            OpKind::MutexUnlock => "mutex_unlock",
            OpKind::CondWait => "cond_wait",
            OpKind::CondSignal => "cond_signal",
            OpKind::CondBroadcast => "cond_broadcast",
            OpKind::Barrier => "barrier",
            OpKind::Malloc => "malloc",
            OpKind::Free => "free",
        }
    }
}

/// Accumulated per-operation execution times (virtual nanoseconds,
/// including any wait time, as in the paper's Table 5).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpTimes {
    sums: [u64; 10],
    counts: [u64; 10],
}

impl OpTimes {
    /// Number of calls of `kind`.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Average execution time of `kind` in nanoseconds, if it ran.
    pub fn avg_ns(&self, kind: OpKind) -> Option<u64> {
        let i = kind.index();
        (self.counts[i] > 0).then(|| self.sums[i] / self.counts[i])
    }

    pub(crate) fn add(&mut self, kind: OpKind, ns: u64) {
        self.sums[kind.index()] += ns;
        self.counts[kind.index()] += 1;
    }
}

pub(crate) type JobFn = Box<dyn FnOnce(&Pth) -> u64 + Send>;

/// Contention counters for the pthreads synchronization layer (paper
/// §2.3): wait counts, maximum simultaneous waiters and total simulated
/// wait time per primitive class. Always collected — pure bookkeeping
/// that charges no virtual time, so simulated results are identical
/// whether or not anyone reads them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContentionStats {
    /// `mutex_lock` acquisitions.
    pub mutex_waits: u64,
    /// Total simulated time spent inside `mutex_lock` (ns).
    pub mutex_wait_ns: u64,
    /// Most threads simultaneously inside `mutex_lock`.
    pub mutex_max_waiters: u64,
    /// Condition waits completed (timed or not).
    pub cond_waits: u64,
    /// Total simulated time spent in `cond_wait`/`cond_timedwait` (ns).
    pub cond_wait_ns: u64,
    /// Most threads simultaneously parked on one condition variable.
    pub cond_max_waiters: u64,
    /// `pthread_barrier` crossings completed.
    pub barrier_waits: u64,
    /// Total simulated time spent inside `pthread_barrier` (ns).
    pub barrier_wait_ns: u64,
    /// Most threads simultaneously inside a barrier.
    pub barrier_max_waiters: u64,
    /// Reader/writer lock acquisitions (read and write).
    pub rw_waits: u64,
    /// Total simulated time spent acquiring reader/writer locks (ns).
    pub rw_wait_ns: u64,
    /// Most threads queued behind one reader/writer lock.
    pub rw_max_waiters: u64,
}

/// Counters of runtime events (thread/node management, synchronization).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RtStats {
    /// Threads created on the creator's node.
    pub local_creates: u64,
    /// Threads created on other nodes.
    pub remote_creates: u64,
    /// Nodes attached to the application.
    pub nodes_attached: u64,
    /// Nodes detached after their last thread exited.
    pub nodes_detached: u64,
    /// `pthread_join` calls completed.
    pub joins: u64,
    /// `pthread_cancel` calls.
    pub cancels: u64,
    /// Condition waits started.
    pub cond_waits: u64,
    /// Condition signals sent.
    pub cond_signals: u64,
    /// Condition broadcasts sent.
    pub cond_broadcasts: u64,
    /// `global_malloc` calls.
    pub mallocs: u64,
    /// `global_free` calls.
    pub frees: u64,
    /// Creates served by reusing a pooled thread.
    pub pooled_dispatches: u64,
}

/// The runtime interpreter's effects: `svm`'s synchronisation effects,
/// plus the runtime core (the ACB) and the crash plan's verdict on the
/// calling thread's node. The real set is [`Real`] over the runtime; the
/// crash explorer's world is the other.
pub(crate) trait RtEffects: SyncEffects {
    fn rt_cfg(&self) -> &CablesConfig;
    /// Runs one runtime-core transition under the ACB borrow.
    fn with_rt<R>(&mut self, f: impl FnOnce(&mut RtState) -> R) -> R;
    /// Whether the chaos plan says this thread's node is dead now.
    fn node_crashed(&self) -> bool;

    /// An administration request: a small ACB update handled on the
    /// master (paper Table 4: ~20 µs from a non-master node).
    fn admin_request(&self) {
        self.op_point(self.rt_cfg().costs.admin_local_ns);
        if self.node() != self.master() {
            let t = self.notify(self.node(), self.master(), self.now());
            self.clock_at_least(t.arrival);
        }
    }

    /// A span on the bus for a call of this thread that began at `t0`.
    fn span(&self, t0: SimTime, event: obs::Event) {
        if let Some((o, me)) = self.obs() {
            let took = self.now().saturating_since(t0);
            o.span(obs::Layer::Rt, self.node(), me, t0, took, event);
        }
    }

    /// An instant on the bus at this thread's clock, attributed to `node`.
    fn note(&self, layer: obs::Layer, node: NodeId, event: obs::Event) {
        if let Some((o, me)) = self.obs() {
            o.instant(layer, node, me, self.now(), event);
        }
    }

    /// The wait record of a synchronization call of `class` that began at
    /// `t0`: the contention counters (`RtState::waited`) and the span on
    /// the bus.
    fn record_wait(&mut self, t0: SimTime, class: Wait, event: obs::Event) {
        let ns = self.now() - t0;
        self.with_rt(|st| st.waited(class, ns));
        self.span(t0, event);
    }
}

impl RtEffects for Real<'_, CablesRt> {
    fn rt_cfg(&self) -> &CablesConfig {
        &self.ext.cfg
    }

    fn with_rt<R>(&mut self, f: impl FnOnce(&mut RtState) -> R) -> R {
        f(&mut self.ext.state.lock())
    }

    fn node_crashed(&self) -> bool {
        self.ext.node_crashed(self.sim, self.sim.node())
    }
}

/// The CableS runtime (one per application).
///
/// Construct with [`CablesRt::new`], then start the application with
/// [`CablesRt::run`], which executes the initial thread on the master node
/// with `pthread_start`/`pthread_end` semantics.
pub struct CablesRt {
    svm: Arc<SvmSystem>,
    pub(crate) cfg: CablesConfig,
    pub(crate) state: Local<RtState>,
    /// Jobs handed to pooled threads that have not picked them up yet.
    jobs: Local<IdMap<u64, JobFn>>,
    master: NodeId,
}

impl fmt::Debug for CablesRt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(st) = self.state.try_lock() else {
            return f.write_str("CablesRt { <borrowed> }");
        };
        f.debug_struct("CablesRt")
            .field("attached_nodes", &st.attached.len())
            .field("threads", &st.threads.len())
            .finish()
    }
}

impl CablesRt {
    /// Creates a runtime over `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's SVM mode is not
    /// [`ProtoMode::Cables`] (the runtime depends on the dynamic-placement
    /// mechanisms).
    pub fn new(cluster: Arc<Cluster>, cfg: CablesConfig) -> Arc<Self> {
        assert_eq!(
            cfg.svm.mode,
            ProtoMode::Cables,
            "CablesRt requires the CableS protocol mode"
        );
        let svm = SvmSystem::new(Arc::clone(&cluster), cfg.svm.clone());
        let master = cluster.nodes()[0];
        Arc::new(CablesRt {
            svm,
            cfg,
            state: Local::new(RtState::new(svm::GLOBAL_SECTION_BASE.raw())),
            jobs: Local::default(),
            master,
        })
    }

    /// The underlying SVM protocol engine.
    pub fn svm(&self) -> &Arc<SvmSystem> {
        &self.svm
    }

    /// The interpreter's effects for the thread `sim` runs.
    pub(crate) fn at<'a>(&'a self, sim: &'a Sim) -> Real<'a, CablesRt> {
        Real {
            sys: &self.svm,
            sim,
            ext: self,
        }
    }

    /// The cluster this runtime runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        self.svm.cluster()
    }

    /// The master node (first node of the application; ACB owner).
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Runtime event counters.
    pub fn stats(&self) -> RtStats {
        self.state.lock().stats
    }

    /// Accumulated per-operation execution times.
    pub fn op_times(&self) -> OpTimes {
        self.state.lock().op_times
    }

    /// Synchronization contention counters (always collected).
    pub fn contention(&self) -> ContentionStats {
        self.state.lock().contention
    }

    pub(crate) fn record_op(&self, kind: OpKind, ns: u64) {
        self.state.lock().op(kind, ns);
    }

    /// Nodes currently attached to the application.
    pub fn attached_nodes(&self) -> usize {
        self.state.lock().attached.len()
    }

    /// Runs `main` as the application's initial thread on the master node
    /// (wrapping it in `pthread_start()` / `pthread_end()`), and returns
    /// the final virtual time.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (panics in threads, deadlock).
    pub fn run<F>(self: &Arc<Self>, main: F) -> Result<SimTime, SimError>
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        let rt = Arc::clone(self);
        let master = self.master;
        self.cluster().engine.clone().run(master, move |sim| {
            rt.pthread_start(sim);
            rt.spawn_crash_monitor(sim);
            let pth = Pth {
                sim,
                rt: Arc::clone(&rt),
                ct: CtId(0),
            };
            main(&pth);
            rt.pthread_end(sim);
        })
    }

    /// Whether the chaos plan says `node` is dead at this thread's clock.
    pub(crate) fn node_crashed(&self, sim: &Sim, node: NodeId) -> bool {
        let crashed = |c: &Arc<ChaosEngine>| c.crashed(node.0, sim.now().as_nanos());
        self.chaos_crashes().is_some_and(crashed)
    }

    /// The attached chaos engine, when its plan contains node crashes.
    fn chaos_crashes(&self) -> Option<&Arc<ChaosEngine>> {
        self.cluster().chaos().filter(|c| c.crashes_armed())
    }

    /// Starts the crash monitor: a runtime-internal engine thread on the
    /// master that sleeps until each planned crash time and then runs
    /// [`CablesRt::recover_crash`] for the dead node. Nothing is spawned
    /// without a crash plan, so fault-free runs are bit-identical.
    fn spawn_crash_monitor(self: &Arc<Self>, sim: &Sim) {
        let Some(ch) = self.chaos_crashes().cloned() else {
            return;
        };
        quiet_crash_unwinds();
        let rt = Arc::clone(self);
        let tid = sim.spawn_on(self.master, sim.now(), "chaos-monitor", move |msim| {
            let leaves = |done| rt.state.lock().monitor_leaves(done);
            for &(node, at) in ch.crash_times() {
                loop {
                    if leaves(false) {
                        return;
                    }
                    if msim.now().as_nanos() >= at {
                        break;
                    }
                    msim.block_deadline(SimTime::ZERO + at);
                }
                rt.recover_crash(msim, NodeId(node));
            }
            leaves(true);
        });
        self.state.lock().monitor = Some(tid);
    }

    /// `pthread_start()`: initializes the runtime, attaching the master
    /// node and registering the initial thread.
    pub fn pthread_start(&self, sim: &Sim) {
        sim.op_point(self.cfg.costs.start_init_ns);
        let nodes = self.cluster().nodes();
        let pre = self.cfg.pre_attach;
        self.state.lock().start(self.master, nodes, pre, sim.tid());
    }

    /// `pthread_end()`: waits for all remaining threads and tears the
    /// runtime down.
    pub fn pthread_end(&self, sim: &Sim) {
        let me = sim.tid();
        loop {
            let Some(tid) = self.state.lock().running_other_than(me) else {
                break;
            };
            sim.wait_exit(tid);
        }
        // Drain the thread pool: parked workers exit on wakeup.
        let idle = self.state.lock().pool_close();
        for tid in idle {
            sim.wake(tid, sim.now());
            sim.wait_exit(tid);
        }
        // Dismiss the crash monitor: any crash planned past this point is
        // moot (the application is over) and must not stretch the run.
        let monitor = {
            let mut st = self.state.lock();
            st.monitor_stop = true;
            st.monitor.take()
        };
        if let Some(tid) = monitor {
            sim.wake(tid, sim.now());
            sim.wait_exit(tid);
        }
        sim.op_point(self.cfg.costs.end_teardown_ns);
    }

    /// Node-crash recovery, run by the monitor at the planned crash time
    /// ([`RtState::crash`]): the grants first, then one wake per thread
    /// the recovery unparks, in thread order, so replay is bit-identical.
    fn recover_crash(self: &Arc<Self>, sim: &Sim, node: NodeId) {
        let Some(ch) = self.cluster().chaos().cloned() else {
            return;
        };
        let e = &mut self.at(sim);
        let t0 = sim.now();
        ch.note_crash();
        let crashed = obs::Event::ChaosCrash { node: node.0 };
        e.note(obs::Layer::Chaos, node, crashed);
        let rec = crash(e, node, t0, None);
        // A job dispatched to a casualty it never picked up dies with it.
        self.jobs
            .lock()
            .retain(|tid, _| !rec.dead.contains(&Tid(*tid)));
        sim.advance(self.cfg.costs.detach_ns);
        let detached = obs::Event::NodeDetach { node: node.0 };
        e.note(obs::Layer::Rt, node, detached);
        if let Some((o, me)) = e.obs() {
            // The recovery as one causal edge on the monitor's own lane.
            let (here, now) = (sim.node(), sim.now());
            let kind = obs::EdgeKind::Recovery;
            o.edge(kind, node, me, t0, here, me, now, node.0 as u64);
        }
        let latency = sim.now().saturating_since(t0);
        ch.note_recovery(latency);
        let recovered = obs::Event::ChaosRecovery {
            node: node.0,
            threads: rec.dead.len() as u64,
            latency_ns: latency,
        };
        e.note(obs::Layer::Chaos, sim.node(), recovered);
    }

    /// Picks a node for a new thread (`RtState::place`), attaching it when
    /// all attached nodes are full. A `prefer`red node — the caller vouches
    /// that a thread runs there, so it is attached — is taken as is unless
    /// it has crashed: over capacity if need be, and without moving the
    /// round-robin cursor.
    fn place_thread(&self, sim: &Sim, prefer: Option<NodeId>) -> NodeId {
        if let Some(node) = prefer.filter(|n| !self.node_crashed(sim, *n)) {
            return node;
        }
        let cap = if self.cfg.max_threads_per_node == 0 {
            self.cluster().cpus_per_node()
        } else {
            self.cfg.max_threads_per_node
        };
        // Home-fetch credits are read before taking the runtime lock (the
        // protocol state has its own lock; never hold both).
        let pull = self.cfg.affinity_placement.then(|| self.svm().home_pull());
        let nodes = self.cluster().nodes();
        let crashed = |n| self.node_crashed(sim, n);
        let (target, need_attach) = self
            .state
            .lock()
            .place(nodes, cap, pull.as_deref(), crashed);
        if need_attach {
            self.attach_node(sim, target);
        }
        target
    }

    /// Attaches `node` to the application: the master spawns a remote
    /// process, the new node maps all existing global memory and
    /// establishes import/export links with every attached node, then the
    /// master broadcasts its existence (paper §2.2, case ii).
    pub fn attach_node(&self, sim: &Sim, node: NodeId) {
        let t0 = sim.now();
        let c = &self.cfg.costs;
        let e = &mut self.at(sim);
        if sim.node() != self.master {
            // The master performs the attach; ask it first.
            e.admin_request();
        }
        sim.op_point(c.attach_local_cables_ns);
        // Local OS process handshake.
        sim.advance(c.attach_local_os_ns);
        // Remote process creation (the new node's OS).
        sim.advance_idle(c.attach_remote_os_ns);
        // Remote CableS initialization: mappings for already-allocated
        // global memory and pairwise import/export with attached nodes.
        let attached_now = self.state.lock().attached.len() as u64;
        sim.advance_idle(c.attach_remote_cables_ns + c.attach_per_node_ns * attached_now);
        // Broadcast the new node to all attached nodes.
        for other in 0..attached_now {
            let other = NodeId(other as u32);
            if other != self.master {
                let t = self.cluster().san.send(self.master, other, 64, sim.now());
                sim.clock_at_least(t.local_done);
            }
        }
        {
            let mut st = self.state.lock();
            st.attach(node);
            st.stats.nodes_attached += 1;
        }
        e.span(t0, obs::Event::NodeAttach { node: node.0 });
    }

    /// `pthread_create()`: starts `f` on a node chosen by the placement
    /// policy (attaching a node if required) and returns its thread id.
    /// With a hint the new thread starts on the node where `near` is
    /// running. When `near` has
    /// finished (a node detaches or is recovered only once nothing runs on
    /// it) or its node has just crashed, the hint is void and the
    /// placement policy picks as for a plain create.
    pub(crate) fn thread_create<F>(self: &Arc<Self>, sim: &Sim, near: Option<CtId>, f: F) -> CtId
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        // pthread_create is a release point: the new thread observes the
        // creator's writes.
        let t0 = sim.now();
        let e = &mut self.at(sim);
        e.release();
        let prefer = near.and_then(|ct| self.state.lock().beside(ct));
        let target = self.place_thread(sim, prefer);
        if self.cfg.thread_pool {
            if let Some((tid, ct)) = dispatch(e, target) {
                self.jobs.lock().insert(tid.0, Box::new(f));
                e.span(t0, Self::create_event(ct, target));
                return ct;
            }
        }
        let local = target == sim.node();
        let c = &self.cfg.costs;
        let start;
        if local {
            sim.op_point(c.create_local_ns);
            sim.advance(self.cfg.svm.costs.os_thread_create_ns);
            start = sim.now();
        } else {
            sim.op_point(c.create_remote_local_ns);
            let req = self.cluster().san.notify(sim.node(), target, sim.now());
            start = req.arrival + c.create_remote_remote_ns + c.os_remote_thread_create_ns;
            // The creator waits until the remote thread is running (the
            // paper's 819 us remote create is creator-visible and includes
            // the remote OS create).
            let ack = self.cluster().san.notify(target, sim.node(), start);
            sim.clock_at_least(ack.arrival);
        }

        let rt = Arc::clone(self);
        let pool = self.cfg.thread_pool;
        let run_at = start.max(sim.now());
        let sim_tid = sim.spawn_on(target, run_at, "cables", move |csim| {
            let me = csim.tid();
            let mut job = Some((rt.state.lock().ct_of(me), Box::new(f) as JobFn));
            while let Some((ct, body)) = job.take() {
                // Acquire: observe the creator's released writes.
                rt.svm().acquire(csim);
                let pth = Pth {
                    sim: csim,
                    rt: Arc::clone(&rt),
                    ct,
                };
                let ret = match catch_unwind(AssertUnwindSafe(|| body(&pth))) {
                    Ok(v) => v,
                    Err(p) => {
                        if p.downcast_ref::<CrashUnwind>().is_some() {
                            // Node crash: retire with CRASHED_RET and let
                            // the thread exit so the engine can drain.
                            crash(&mut rt.at(csim), csim.node(), csim.now(), Some(ct));
                            return;
                        }
                        resume_unwind(p);
                    }
                };
                // Park in the node's pool until redispatched.
                let e = &mut rt.at(csim);
                if !thread_exit(e, ct, ret, pool) {
                    return;
                }
                // Not `park`: there is no job to die in, the worker just
                // leaves when its node is gone.
                csim.block();
                let Some(ct) = pool_woken(e) else {
                    return;
                };
                let body = rt.jobs.lock().remove(&me.0);
                job = Some((ct, body.expect("pooled thread woken without a job")));
            }
        });

        let ct = {
            let mut st = self.state.lock();
            match local {
                true => st.stats.local_creates += 1,
                false => st.stats.remote_creates += 1,
            }
            st.register(target, sim_tid)
        };
        if let Some((o, me)) = e.obs().filter(|_| run_at > t0) {
            // Causal edge: the create call to the new thread's first
            // instruction (it was spawned to start then, not woken).
            let (here, kind) = (sim.node(), obs::EdgeKind::ThreadStart);
            o.edge(kind, here, me, t0, target, sim_tid.0, run_at, ct.0);
        }
        e.span(t0, Self::create_event(ct, target));
        ct
    }

    fn create_event(ct: CtId, target: NodeId) -> obs::Event {
        obs::Event::ThreadCreate {
            ct: ct.0,
            on: target.0,
        }
    }

    /// `pthread_join()`: waits for `ct` and returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `ct` was never created.
    pub fn join(&self, sim: &Sim, ct: CtId) -> u64 {
        let t0 = sim.now();
        let e = &mut self.at(sim);
        e.op_point(self.cfg.costs.join_ns);
        // Reading the thread's ACB entry.
        e.fetch_master(16);
        e.crash_check();
        loop {
            if let Some(v) = joined(e, ct, t0) {
                return v;
            }
            self.svm().park(sim, None);
        }
    }

    /// `pthread_cancel()`: requests cancellation of `ct`. The target
    /// observes it at its next cancellation point
    /// ([`Pth::test_cancel`], [`Pth::cond_wait`]).
    pub fn cancel(&self, sim: &Sim, ct: CtId) {
        let e = &mut self.at(sim);
        e.admin_request();
        if let Some(tid) = e.with_rt(|st| st.cancel(ct)) {
            // Timing-visible asymmetry, kept: the wake travels to the
            // master (the ACB), not on to the target's node, and no edge
            // kind exists for it.
            let master = self.master;
            e.notify_handoff(None, &[master], 0, (tid, master));
        }
    }

    /// Whether cancellation was requested for `ct`.
    pub(crate) fn cancel_requested(&self, ct: CtId) -> bool {
        self.state.lock().cancel_requested(ct)
    }

    /// Allocates a fresh synchronization-object id (mutexes, conditions
    /// and barriers share the namespace).
    pub fn sync_id(&self) -> u64 {
        self.state.lock().next_id()
    }
}

/// Crash unwinds are controlled, not bugs: keeps the panic hook from
/// spamming a backtrace for every simulated casualty.
pub(crate) fn quiet_crash_unwinds() {
    static CRASH_HOOK: std::sync::Once = std::sync::Once::new();
    CRASH_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Crash recovery as one step: [`RtState::crash`], then `svm`'s. A node's
/// recovery (`unwound` is `None`; the crash monitor runs it at the crash
/// time `at`) or a casualty's own unwind (its thread id; it runs the step
/// once its body unwound with [`chaos::CrashUnwind`], before or after the
/// monitor processed its node — a clock can sprint past the recovery and
/// take fresh holds). The grants — the lock and barrier managers' and the
/// rwlocks' — are performed in order, then the threads left to unpark are
/// woken: on a recovery once each, in thread order, so replay is
/// bit-identical.
pub(crate) fn crash<E: RtEffects>(
    e: &mut E,
    node: NodeId,
    at: SimTime,
    unwound: Option<CtId>,
) -> Recovery {
    let me = unwound.map(|ct| (ct, e.tid()));
    let rec = e.with_rt(|st| st.crash(node, at, me));
    let open = unwound.is_none();
    let rw_grants = |e: &mut E| {
        for (tid, _) in &rec.rw_grants {
            let now = e.now();
            e.wake(*tid, now);
        }
    };
    let decided = (&rec.dead[..], rec.forgive, open);
    let parked = svm::sync::crash(e, decided, node, rw_grants);
    // A thread unwinding on its own is running: nothing to unpark.
    let parked = parked.into_iter().filter(|_| open);
    let mut wakes: Vec<Tid> = rec.wakes.iter().copied().chain(parked).collect();
    if open {
        wakes.sort_unstable_by_key(|t| t.0);
        wakes.dedup_by_key(|t| t.0);
    }
    for t in wakes {
        let now = e.now();
        e.wake(t, now);
    }
    rec
}

/// Hands a job to the idle pooled worker most recently parked on `target`,
/// if there is one — much cheaper than an OS thread create, the reuse
/// Table 4's creation costs motivate: the worker and its thread id. The
/// dispatch notification is the worker's wakeup.
pub(crate) fn dispatch<E: RtEffects>(e: &mut E, target: NodeId) -> Option<(Tid, CtId)> {
    let tid = e.with_rt(|st| st.pool_take(target))?;
    e.op_point(e.rt_cfg().costs.pool_dispatch_ns);
    let ct = e.with_rt(|st| st.dispatch(target, tid));
    let edge = Some((obs::EdgeKind::ThreadStart, ct.0));
    e.notify_handoff(edge, &[target], 0, (tid, target));
    Some((tid, ct))
}

/// Thread exit: the RC release (joiners observe the thread's writes), the
/// return value in the ACB, the joiners woken and the node detached if it
/// became empty; then, for a pooled worker (`pool`), whether it parks idle
/// in its node's pool (else it exits).
pub(crate) fn thread_exit<E: RtEffects>(e: &mut E, ct: CtId, ret: u64, pool: bool) -> bool {
    e.release();
    e.op_point(e.rt_cfg().costs.exit_ns);
    e.send_master(32);
    let (tid, node, now) = (e.tid(), e.node(), e.now());
    let may_detach = node != e.master() && e.rt_cfg().auto_detach;
    let retired = e.with_rt(|st| {
        let (joiners, left) = st.retire(ct, ret, now, node)?;
        let detach = left == 0 && may_detach;
        if detach {
            st.detach(node);
            st.stats.nodes_detached += 1;
        }
        Some((joiners, detach))
    });
    if let Some((joiners, detached)) = retired {
        for (j, ..) in joiners.0 {
            let now = e.now();
            e.wake(j, now);
        }
        if detached {
            e.advance(e.rt_cfg().costs.detach_ns);
            let detached = obs::Event::NodeDetach { node: node.0 };
            e.note(obs::Layer::Rt, node, detached);
        }
    }
    pool && e.with_rt(|st| st.pool_idle(tid, node))
}

/// A pooled worker woken from idle: its next job's thread id, or `None`
/// when it leaves — woken by its node's crash recovery (there is no job,
/// and the node is gone) or by the pool's shutdown.
pub(crate) fn pool_woken<E: RtEffects>(e: &mut E) -> Option<CtId> {
    if e.node_crashed() {
        return None;
    }
    let tid = e.tid();
    e.with_rt(|st| st.pool_resume(tid))
}

/// A join's step, after its entry checkpoint or a park's: `ct`'s value
/// once it has finished — the clock catches up with its exit, the RC
/// acquire observes its writes, the span and the exit-to-return edge are
/// recorded — or `None`, queued as a joiner to park.
pub(crate) fn joined<E: RtEffects>(e: &mut E, ct: CtId, t0: SimTime) -> Option<u64> {
    let (tid, node) = (e.tid(), e.node());
    let Joined::Finished {
        ret,
        at,
        node: from,
        tid: exited,
    } = e.with_rt(|st| st.join(ct, tid, node))
    else {
        return None;
    };
    e.clock_at_least(at);
    e.acquire();
    e.span(t0, obs::Event::ThreadJoin { ct: ct.0 });
    if let Some((o, me)) = e.obs().filter(|_| e.now() > at) {
        // Causal edge: the joined thread's exit to this join's return (an
        // effect on the caller's own lane, not a wake-up).
        let kind = obs::EdgeKind::ThreadJoin;
        o.edge(kind, from, exited.0, at, node, me, e.now(), ct.0);
    }
    Some(ret)
}

/// Per-thread handle passed to every CableS thread: the pthreads-like API.
///
/// See the crate docs for the full programming model; `Pth` bundles the
/// simulation handle, the runtime and the thread's own id.
pub struct Pth<'a> {
    /// The engine handle of this thread.
    pub sim: &'a Sim,
    pub(crate) rt: Arc<CablesRt>,
    pub(crate) ct: CtId,
}

impl fmt::Debug for Pth<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pth").field("ct", &self.ct).finish()
    }
}

impl Pth<'_> {
    /// The runtime this thread belongs to.
    pub fn rt(&self) -> &Arc<CablesRt> {
        &self.rt
    }

    /// This thread's CableS id (`pthread_self`).
    pub fn self_id(&self) -> CtId {
        self.ct
    }

    /// The node this thread runs on.
    pub fn node(&self) -> NodeId {
        self.sim.node()
    }

    /// Runs one API call and books its duration — wait time included, as
    /// in the paper's Table 5 — under `kind`.
    pub(crate) fn timed<R>(&self, kind: OpKind, f: impl FnOnce(&Arc<CablesRt>, &Sim) -> R) -> R {
        let t0 = self.sim.now();
        let r = f(&self.rt, self.sim);
        self.rt.record_op(kind, self.sim.now() - t0);
        r
    }

    /// Creates a thread (`pthread_create`).
    pub fn create<F>(&self, f: F) -> CtId
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        self.timed(OpKind::Create, |rt, sim| rt.thread_create(sim, None, f))
    }

    /// Creates a thread on the node where `sibling` runs — threads that
    /// share data belong together — even when that node is already full.
    /// Falls back to [`Pth::create`]'s placement when `sibling` has
    /// finished or its node is gone (crashed or detached).
    ///
    /// # Panics
    ///
    /// Panics if `sibling` was never created.
    pub fn create_beside<F>(&self, sibling: CtId, f: F) -> CtId
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        self.timed(OpKind::Create, |rt, sim| {
            rt.thread_create(sim, Some(sibling), f)
        })
    }

    /// Joins a thread and returns its value (`pthread_join`).
    pub fn join(&self, ct: CtId) -> u64 {
        self.timed(OpKind::Join, |rt, sim| rt.join(sim, ct))
    }

    /// Requests cancellation of a thread (`pthread_cancel`).
    pub fn cancel(&self, ct: CtId) {
        self.rt.cancel(self.sim, ct)
    }

    /// An administration request: a small ACB update handled on the
    /// master (paper Table 4: ~20 µs from a non-master node).
    pub fn admin_request(&self) {
        self.rt.at(self.sim).admin_request()
    }

    /// Cancellation point (`pthread_testcancel`).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if this thread has been cancelled; the thread
    /// function should return promptly.
    pub fn test_cancel(&self) -> Result<(), Cancelled> {
        // Reading the cancellation flag is an ACB access: order it against
        // other threads' operations.
        self.sim.sync_point();
        if self.rt.cancel_requested(self.ct) {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// Charges `ns` nanoseconds of local computation.
    pub fn compute(&self, ns: u64) {
        self.rt.svm().crash_check(self.sim);
        self.sim.advance(ns);
    }

    /// Reads a scalar from global shared memory.
    pub fn read<T: memsim::Scalar>(&self, addr: GAddr) -> T {
        self.rt.svm.read(self.sim, addr)
    }

    /// Writes a scalar to global shared memory.
    pub fn write<T: memsim::Scalar>(&self, addr: GAddr, v: T) {
        self.rt.svm.write(self.sim, addr, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Phase;
    use svm::ClusterConfig;

    fn rt(nodes: usize, cpus: usize) -> Arc<CablesRt> {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        CablesRt::new(cluster, CablesConfig::paper())
    }

    #[test]
    fn run_main_and_join_child() {
        let rt = rt(2, 2);
        let rt2 = Arc::clone(&rt);
        let end = rt
            .run(move |pth| {
                let child = pth.create(|p| {
                    p.compute(1_000);
                    42
                });
                assert_eq!(pth.join(child), 42);
                let _ = rt2.stats();
                0
            })
            .unwrap();
        assert!(end.as_nanos() > 0);
        assert_eq!(rt.stats().joins, 1);
    }

    #[test]
    fn threads_fill_master_then_attach() {
        let rt = rt(3, 2);
        let end = rt
            .run(move |pth| {
                // Master already runs the main thread; creating 3 more
                // long-lived threads (cap 2/node) must attach a second node.
                let worker = |p: &Pth| {
                    p.compute(sim::dur::secs(30));
                    p.node().0 as u64
                };
                let t1 = pth.create(worker);
                let t2 = pth.create(worker);
                let t3 = pth.create(worker);
                let n1 = pth.join(t1);
                let n2 = pth.join(t2);
                let n3 = pth.join(t3);
                assert_eq!(n1, 0, "first child fits on master");
                assert_eq!(n2, 1, "second child forces an attach");
                assert_eq!(n3, 1, "third child fits on node 1");
                0
            })
            .unwrap();
        assert_eq!(rt.stats().nodes_attached, 1);
        // Node attach dominates: total time is seconds.
        assert!(end.as_millis_f64() > 3_000.0, "end={end}");
    }

    #[test]
    fn attach_cost_matches_table4_regime() {
        let rt = rt(2, 1);
        let cost = Arc::new(std::sync::Mutex::new(0u64));
        let c2 = Arc::clone(&cost);
        rt.run(move |pth| {
            let t0 = pth.sim.now();
            pth.rt().attach_node(pth.sim, pth.rt().cluster().nodes()[1]);
            *c2.lock().unwrap() = pth.sim.now() - t0;
            0
        })
        .unwrap();
        let ms = *cost.lock().unwrap() as f64 / 1e6;
        // Paper: 3690 ms.
        assert!((3_000.0..4_600.0).contains(&ms), "attach took {ms} ms");
    }

    #[test]
    fn cancel_is_observed_at_cancellation_point() {
        let rt = rt(2, 2);
        let end_state = Arc::new(std::sync::Mutex::new(0u64));
        let e2 = Arc::clone(&end_state);
        rt.run(move |pth| {
            let victim = pth.create(move |p| {
                for _ in 0..1_000 {
                    p.compute(10_000);
                    if p.test_cancel().is_err() {
                        return 999;
                    }
                }
                0
            });
            pth.compute(50_000);
            pth.cancel(victim);
            *e2.lock().unwrap() = pth.join(victim);
            0
        })
        .unwrap();
        assert_eq!(*end_state.lock().unwrap(), 999);
        assert_eq!(rt.stats().cancels, 1);
    }

    #[test]
    fn remote_create_slower_than_local() {
        let rt = rt(2, 2);
        let times = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let t2 = Arc::clone(&times);
        rt.run(move |pth| {
            // Local create: master (cap 2) has one free slot.
            let a = pth.sim.now();
            let c1 = pth.create(|p| {
                p.compute(sim::dur::secs(20));
                0
            });
            let local = pth.sim.now() - a;
            // Attach node 1 up front so the next create pays only the
            // remote-create path, not the attach.
            pth.rt().attach_node(pth.sim, pth.rt().cluster().nodes()[1]);
            let b = pth.sim.now();
            let c2 = pth.create(|_| 0);
            let remote = pth.sim.now() - b;
            pth.join(c1);
            pth.join(c2);
            *t2.lock().unwrap() = (local, remote);
            0
        })
        .unwrap();
        let (local, remote) = *times.lock().unwrap();
        // Table 4: local 766us; the remote creator-visible cost is the
        // local bookkeeping plus the round trip (the 622us remote OS
        // create overlaps with the creator).
        assert!(local > 600_000 && local < 1_000_000, "local={local}");
        assert!(remote > 100_000 && remote < 1_000_000, "remote={remote}");
        assert_eq!(rt.stats().remote_creates, 1);
        assert_eq!(rt.stats().local_creates, 1);
    }

    #[test]
    #[should_panic(expected = "CableS protocol mode")]
    fn base_mode_rejected() {
        let cluster = Cluster::build(ClusterConfig::small(1, 1));
        let cfg = CablesConfig {
            svm: svm::SvmConfig::base(),
            ..CablesConfig::paper()
        };
        let _ = CablesRt::new(cluster, cfg);
    }

    fn pooled_rt(nodes: usize, cpus: usize) -> Arc<CablesRt> {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        let cfg = CablesConfig {
            thread_pool: true,
            ..CablesConfig::paper()
        };
        CablesRt::new(cluster, cfg)
    }

    #[test]
    fn pooled_threads_are_reused() {
        let rt = pooled_rt(2, 2);
        let rt2 = Arc::clone(&rt);
        rt.run(|pth| {
            for round in 0..5u64 {
                let w = pth.create(move |p| {
                    p.compute(10_000);
                    round * 10
                });
                assert_eq!(pth.join(w), round * 10);
            }
            0
        })
        .unwrap();
        let s = rt2.stats();
        assert_eq!(s.local_creates + s.remote_creates, 1, "one OS create");
        assert_eq!(s.pooled_dispatches, 4, "four reuses");
    }

    #[test]
    fn pooled_dispatch_is_much_cheaper_than_create() {
        let rt = pooled_rt(2, 2);
        let times = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let t2 = Arc::clone(&times);
        rt.run(move |pth| {
            let a = pth.sim.now();
            let w = pth.create(|_| 0);
            let first = pth.sim.now() - a;
            pth.join(w);
            let b = pth.sim.now();
            let w = pth.create(|_| 0);
            let second = pth.sim.now() - b;
            pth.join(w);
            *t2.lock().unwrap() = (first, second);
            0
        })
        .unwrap();
        let (first, second) = *times.lock().unwrap();
        assert!(
            second * 5 < first,
            "dispatch ({second}ns) should be far cheaper than create ({first}ns)"
        );
    }

    #[test]
    fn pool_respects_node_capacity_and_concurrency() {
        let rt = pooled_rt(2, 2);
        rt.run(|pth| {
            // Two concurrent long-lived workers cannot share one pooled
            // thread: the second create spawns a fresh one.
            let m = pth.rt().mutex_new();
            let counter = pth.malloc(8);
            pth.write::<u64>(counter, 0);
            let mk = |pth: &crate::Pth| {
                pth.create(move |p| {
                    p.compute(500_000);
                    p.mutex_lock(m);
                    let v = p.read::<u64>(counter);
                    p.write::<u64>(counter, v + 1);
                    p.mutex_unlock(m);
                    0
                })
            };
            let a = mk(pth);
            let b = mk(pth);
            pth.join(a);
            pth.join(b);
            pth.mutex_lock(m);
            assert_eq!(pth.read::<u64>(counter), 2);
            pth.mutex_unlock(m);
            0
        })
        .unwrap();
    }

    #[test]
    fn pool_drains_cleanly_at_end() {
        // pthread_end must terminate parked pooled threads (otherwise the
        // engine would deadlock waiting for them).
        let rt = pooled_rt(2, 1);
        let end = rt
            .run(|pth| {
                for _ in 0..3 {
                    let w = pth.create(|p| {
                        p.compute(1_000);
                        0
                    });
                    pth.join(w);
                }
                0
            })
            .unwrap();
        assert!(end.as_nanos() > 0);
    }

    #[test]
    fn pooled_threads_get_fresh_identities() {
        let rt = pooled_rt(2, 2);
        rt.run(|pth| {
            let key = pth.rt().key_create();
            let w1 = pth.create(move |p| {
                p.set_specific(key, 7);
                p.self_id().0
            });
            let id1 = pth.join(w1);
            let w2 = pth.create(move |p| {
                // A reused thread must not leak the previous ct's TSD.
                assert_eq!(p.get_specific(key), None);
                p.self_id().0
            });
            let id2 = pth.join(w2);
            assert_ne!(id1, id2, "each create gets a fresh pthread id");
            0
        })
        .unwrap();
    }

    /// Runs `main` and returns what it returned plus the runtime's stats.
    fn run_for<F>(rt: &Arc<CablesRt>, main: F) -> (u64, RtStats)
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        let out = Arc::new(std::sync::Mutex::new(0));
        let o2 = Arc::clone(&out);
        rt.run(move |pth| {
            *o2.lock().unwrap() = main(pth);
            0
        })
        .unwrap();
        let v = *out.lock().unwrap();
        (v, rt.stats())
    }

    /// A body that outlives every attach of the test and returns its node.
    fn resident(p: &Pth) -> u64 {
        p.compute(sim::dur::secs(30));
        u64::from(p.node().0)
    }

    #[test]
    fn create_beside_lands_on_the_siblings_full_node() {
        // Lazily attached and warm: the sibling's node takes the thread
        // over capacity, and the plain creates around it pick what they
        // would have picked anyway.
        for pre_attach in [0, 3] {
            let cluster = Cluster::build(ClusterConfig::small(3, 2));
            let rt = CablesRt::new(
                cluster,
                CablesConfig {
                    pre_attach,
                    ..CablesConfig::paper()
                },
            );
            let (nodes, stats) = run_for(&rt, |pth| {
                let a = pth.create(resident);
                let b = pth.create(resident);
                let c = pth.create_beside(b, resident);
                let d = pth.create_beside(b, resident);
                let e = pth.create(resident);
                let per_node = || {
                    let st = pth.rt().state.lock();
                    [0, 1, 2].map(|n| st.threads_on[&n])
                };
                assert_eq!(per_node(), [2, 3, 1]);
                let nodes = [a, b, c, d, e].map(|t| pth.join(t));
                assert_eq!(per_node(), [1, 0, 0]);
                nodes.iter().fold(0, |acc, n| acc * 10 + n)
            });
            assert_eq!(nodes, 1112, "pre_attach {pre_attach}");
            assert_eq!((stats.local_creates, stats.remote_creates), (1, 4));
            assert_eq!(stats.nodes_attached, if pre_attach == 0 { 2 } else { 0 });
        }
    }

    #[test]
    fn create_beside_reuses_the_siblings_idle_pooled_thread() {
        let (node, stats) = run_for(&pooled_rt(2, 2), |pth| {
            let filler = pth.create(resident);
            let sibling = pth.create(resident);
            // A first thread beside it is a fresh one; it then idles in
            // the sibling's node's pool.
            let first = pth.create_beside(sibling, |_| 0);
            pth.join(first);
            let before = pth.rt().stats();
            let second = pth.create_beside(sibling, |p| u64::from(p.node().0));
            let after = pth.rt().stats();
            assert_eq!(after.pooled_dispatches, before.pooled_dispatches + 1);
            assert_eq!(after.remote_creates, before.remote_creates);
            let node = pth.join(second);
            pth.join(sibling);
            pth.join(filler);
            node
        });
        assert_eq!(node, 1);
        assert_eq!(
            (
                stats.local_creates,
                stats.remote_creates,
                stats.pooled_dispatches
            ),
            (1, 2, 1)
        );
    }

    #[test]
    fn a_void_hint_is_exactly_creates_pick() {
        // The sibling finished; finished and its node detached; its node
        // crashed. Each time `create_beside` must land where `create`
        // lands, with the same runtime counters.
        #[derive(Clone, Copy, Debug)]
        enum Gone {
            Finished,
            Detached,
            Crashed,
        }
        let pick = |gone: Gone, beside: bool| {
            let cluster = Cluster::build(ClusterConfig::small(3, 2));
            if matches!(gone, Gone::Crashed) {
                let plan = chaos::FaultPlan::new().crash(1, sim::dur::secs(6));
                cluster.set_chaos(ChaosEngine::new(7, plan));
            }
            let cfg = CablesConfig {
                auto_detach: matches!(gone, Gone::Detached),
                ..CablesConfig::paper()
            };
            run_for(&CablesRt::new(cluster, cfg), move |pth| {
                let filler = pth.create(resident);
                // Lands on node 1 (attached for it, ~3.7 s in).
                let sibling = match gone {
                    Gone::Crashed => pth.create(|p| {
                        for _ in 0..1_000 {
                            p.compute(10_000_000);
                        }
                        0
                    }),
                    _ => pth.create(|_| 0),
                };
                match gone {
                    Gone::Crashed => pth.compute(sim::dur::secs(3)),
                    _ => assert_eq!(pth.join(sibling), 0),
                }
                let node = |p: &Pth| u64::from(p.node().0);
                let last = match beside {
                    true => pth.create_beside(sibling, node),
                    false => pth.create(node),
                };
                let landed = pth.join(last);
                if matches!(gone, Gone::Crashed) {
                    assert_eq!(pth.join(sibling), CRASHED_RET);
                    assert_ne!(landed, 1, "placed on the dead node");
                }
                pth.join(filler);
                landed
            })
        };
        for gone in [Gone::Finished, Gone::Detached, Gone::Crashed] {
            assert_eq!(pick(gone, true), pick(gone, false), "{gone:?}");
        }
    }

    #[test]
    fn a_hint_at_a_node_that_just_crashed_is_void() {
        // The creator's clock can pass the crash before the monitor's
        // recovery runs: the sibling still reads as running there.
        let cluster = Cluster::build(ClusterConfig::small(3, 2));
        let plan = chaos::FaultPlan::new().crash(1, sim::dur::secs(6));
        cluster.set_chaos(ChaosEngine::new(7, plan));
        run_for(&CablesRt::new(cluster, CablesConfig::paper()), |pth| {
            let filler = pth.create(resident);
            let sibling = pth.create(|p| {
                for _ in 0..1_000 {
                    p.compute(10_000_000);
                }
                0
            });
            // No ordering point in here, so no recovery yet.
            pth.compute(sim::dur::secs(3));
            let rt = pth.rt();
            assert!(rt.node_crashed(pth.sim, NodeId(1)));
            assert_eq!(rt.state.lock().threads[&sibling.0].phase, Phase::Running);
            assert_eq!(rt.place_thread(pth.sim, Some(NodeId(1))), NodeId(2));
            assert_eq!(pth.join(sibling), CRASHED_RET);
            pth.join(filler)
        });
    }

    #[test]
    fn a_casualty_that_queues_after_recovery_leaves_no_waiter_behind() {
        // A cond_wait entered one nanosecond before its node dies: its
        // first charge carries the thread past the crash, recovery runs
        // and finds it in no queue, then it registers on the cond and dies
        // in the mutex unlock. The entry must die with it, or the signal
        // below wakes an exited thread.
        let scenario = |crash_at: Option<u64>| {
            let cluster = Cluster::build(ClusterConfig::small(2, 2));
            if let Some(at) = crash_at {
                let plan = chaos::FaultPlan::new().crash(1, at);
                cluster.set_chaos(ChaosEngine::new(7, plan));
            }
            let cfg = CablesConfig {
                pre_attach: 2,
                ..CablesConfig::paper()
            };
            let rt = CablesRt::new(cluster, cfg);
            rt.svm().set_obs(true);
            let (ret, _) = run_for(&rt, |pth| {
                let (m, cv) = (pth.rt().mutex_new(), pth.rt().cond_new());
                let filler = pth.create(|p| {
                    p.compute(20_000_000);
                    0
                });
                let waiter = pth.create(move |p| {
                    p.mutex_lock(m);
                    p.cond_wait(cv, m).expect("not cancelled");
                    p.mutex_unlock(m);
                    0
                });
                pth.compute(10_000_000);
                pth.mutex_lock(m);
                pth.cond_signal(cv);
                pth.mutex_unlock(m);
                pth.join(filler);
                pth.join(waiter)
            });
            let events = rt.svm().obs().events();
            let wait = events
                .iter()
                .find(|e| e.node.0 == 1 && matches!(e.event, obs::Event::PthCondWait { .. }));
            (ret, wait.map(|e| e.at.as_nanos()))
        };
        let (ret, wait_at) = scenario(None);
        assert_eq!(ret, 0);
        let wait_at = wait_at.expect("the waiter waited on node 1");
        assert_eq!(scenario(Some(wait_at + 1)).0, CRASHED_RET);
    }
}
