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
use parking_lot::Mutex;
use sim::{IdMap, NodeId, Sim, SimError, SimTime, Tid};
use svm::{Cluster, ProtoMode, SvmSystem, WaitQueue};

use crate::config::CablesConfig;
use crate::sync::RwState;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Running,
    Finished(u64),
}

#[derive(Debug)]
pub(crate) struct ThreadRec {
    pub sim_tid: Tid,
    pub phase: Phase,
    pub exit_time: SimTime,
    /// Node the thread runs on, or ran on once `phase` is `Finished`.
    pub exit_node: NodeId,
    pub cancel_requested: bool,
}

impl ThreadRec {
    fn running(sim_tid: Tid, node: NodeId) -> Self {
        ThreadRec {
            sim_tid,
            phase: Phase::Running,
            exit_time: SimTime::ZERO,
            exit_node: node,
            cancel_requested: false,
        }
    }
}

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
        match self {
            OpKind::Create => 0,
            OpKind::Join => 1,
            OpKind::MutexLock => 2,
            OpKind::MutexUnlock => 3,
            OpKind::CondWait => 4,
            OpKind::CondSignal => 5,
            OpKind::CondBroadcast => 6,
            OpKind::Barrier => 7,
            OpKind::Malloc => 8,
            OpKind::Free => 9,
        }
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

pub(crate) struct RtState {
    pub attached: Vec<NodeId>,
    pub threads_on: IdMap<u32, usize>,
    pub threads: IdMap<u64, ThreadRec>,
    pub by_tid: IdMap<u64, u64>,
    pub next_ct: u64,
    pub rr: usize,
    pub next_sync_id: u64,
    /// Threads parked on each condition variable.
    pub conds: IdMap<u64, WaitQueue>,
    /// Threads parked in `join` of each (running) thread.
    pub joiners: IdMap<u64, WaitQueue>,
    pub rwlocks: IdMap<u64, RwState>,
    pub once_done: IdMap<u64, ()>,
    /// Idle pooled threads per node; the most recently parked is reused
    /// first.
    pub pool_idle: IdMap<u32, WaitQueue>,
    pub pool_jobs: IdMap<u64, (u64, JobFn)>,
    pub pool_shutdown: bool,
    pub tsd: IdMap<(u64, u64), u64>,
    pub next_tsd_key: u64,
    pub global_next: u64,
    pub free_list: std::collections::BTreeMap<u64, u64>,
    pub allocated: IdMap<u64, u64>,
    pub stats: RtStats,
    pub op_times: OpTimes,
    pub contention: ContentionStats,
    /// Threads currently inside `mutex_lock` (drives `mutex_max_waiters`).
    pub mutex_inflight: u64,
    /// Threads currently inside `pthread_barrier`.
    pub barrier_inflight: u64,
    /// The chaos crash monitor's engine thread, while it is alive.
    pub monitor: Option<Tid>,
    /// Tells the monitor to exit at its next wakeup (set at teardown).
    pub monitor_stop: bool,
}

impl RtState {
    /// Removes `tid` from every cond, join, pool and rwlock wait queue;
    /// true when it sat in one.
    fn purge_waiter(&mut self, tid: Tid) -> bool {
        let untagged = self
            .conds
            .values_mut()
            .chain(self.joiners.values_mut())
            .chain(self.pool_idle.values_mut());
        let mut found = untagged.fold(false, |found, q| q.purge(tid) | found);
        for r in self.rwlocks.values_mut() {
            found |= r.waiters.purge(tid);
        }
        found
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
    pub(crate) state: Mutex<RtState>,
    master: NodeId,
}

impl fmt::Debug for CablesRt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
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
            state: Mutex::new(RtState {
                attached: Vec::new(),
                threads_on: IdMap::default(),
                threads: IdMap::default(),
                by_tid: IdMap::default(),
                next_ct: 0,
                rr: 0,
                next_sync_id: 1,
                conds: IdMap::default(),
                joiners: IdMap::default(),
                rwlocks: IdMap::default(),
                once_done: IdMap::default(),
                pool_idle: IdMap::default(),
                pool_jobs: IdMap::default(),
                pool_shutdown: false,
                tsd: IdMap::default(),
                next_tsd_key: 1,
                global_next: svm::GLOBAL_SECTION_BASE.raw(),
                free_list: std::collections::BTreeMap::new(),
                allocated: IdMap::default(),
                stats: RtStats::default(),
                op_times: OpTimes::default(),
                contention: ContentionStats::default(),
                mutex_inflight: 0,
                barrier_inflight: 0,
                monitor: None,
                monitor_stop: false,
            }),
            master,
        })
    }

    /// The underlying SVM protocol engine.
    pub fn svm(&self) -> &Arc<SvmSystem> {
        &self.svm
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

    /// The cluster's observability sink, only when fully enabled.
    #[inline]
    pub(crate) fn obs_if_on(&self) -> Option<&obs::ObsSink> {
        let o = &self.svm.cluster().obs;
        if o.on() {
            Some(o)
        } else {
            None
        }
    }

    pub(crate) fn record_op(&self, kind: OpKind, ns: u64) {
        let mut st = self.state.lock();
        st.op_times.sums[kind.index()] += ns;
        st.op_times.counts[kind.index()] += 1;
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

    /// The attached chaos engine, when its plan contains node crashes.
    fn chaos_crashes(&self) -> Option<Arc<ChaosEngine>> {
        self.cluster()
            .chaos()
            .filter(|c| c.crashes_armed())
            .cloned()
    }

    /// Whether the chaos plan says `node` is dead at this thread's clock.
    pub(crate) fn node_crashed(&self, sim: &Sim, node: NodeId) -> bool {
        match self.cluster().chaos() {
            Some(c) => c.crashes_armed() && c.crashed(node.0, sim.now().as_nanos()),
            None => false,
        }
    }

    /// Starts the crash monitor: a runtime-internal engine thread on the
    /// master that sleeps until each planned crash time and then runs
    /// [`CablesRt::recover_crash`] for the dead node. Nothing is spawned
    /// without a crash plan, so fault-free runs are bit-identical.
    fn spawn_crash_monitor(self: &Arc<Self>, sim: &Sim) {
        let Some(ch) = self.chaos_crashes() else {
            return;
        };
        // Crash unwinds are controlled, not bugs: keep the default panic
        // hook from spamming a backtrace for every simulated casualty.
        static CRASH_HOOK: std::sync::Once = std::sync::Once::new();
        CRASH_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<CrashUnwind>().is_none() {
                    prev(info);
                }
            }));
        });
        let rt = Arc::clone(self);
        let tid = sim.spawn_on(self.master, sim.now(), "chaos-monitor", move |msim| {
            for &(node, at) in ch.crash_times() {
                loop {
                    if rt.state.lock().monitor_stop {
                        rt.state.lock().monitor = None;
                        return;
                    }
                    if msim.now().as_nanos() >= at {
                        break;
                    }
                    let woken = msim.block_deadline(SimTime::ZERO + at);
                    if woken && rt.state.lock().monitor_stop {
                        rt.state.lock().monitor = None;
                        return;
                    }
                }
                rt.recover_crash(msim, NodeId(node));
            }
            rt.state.lock().monitor = None;
        });
        self.state.lock().monitor = Some(tid);
    }

    /// `pthread_start()`: initializes the runtime, attaching the master
    /// node and registering the initial thread.
    pub fn pthread_start(&self, sim: &Sim) {
        sim.op_point(self.cfg.costs.start_init_ns);
        let mut st = self.state.lock();
        assert!(st.attached.is_empty(), "pthread_start called twice");
        st.attached.push(self.master);
        st.threads_on.insert(self.master.0, 1);
        // Warm deployments start with their node set attached (the
        // multi-second attach handshakes were paid before this run).
        for node in self.cluster().nodes().iter().copied() {
            if st.attached.len() >= self.cfg.pre_attach {
                break;
            }
            if node != self.master {
                st.attached.push(node);
                st.threads_on.entry(node.0).or_insert(0);
            }
        }
        let ct = st.next_ct;
        st.next_ct += 1;
        st.threads
            .insert(ct, ThreadRec::running(sim.tid(), self.master));
        st.by_tid.insert(sim.tid().0, ct);
    }

    /// `pthread_end()`: waits for all remaining threads and tears the
    /// runtime down.
    pub fn pthread_end(&self, sim: &Sim) {
        loop {
            let next = {
                let st = self.state.lock();
                st.threads
                    .values()
                    .find(|t| t.phase == Phase::Running && t.sim_tid != sim.tid())
                    .map(|t| t.sim_tid)
            };
            match next {
                Some(tid) => sim.wait_exit(tid),
                None => break,
            }
        }
        // Drain the thread pool: parked workers exit on wakeup.
        let idle: Vec<Tid> = {
            let mut st = self.state.lock();
            st.pool_shutdown = true;
            let idle = st.pool_idle.values_mut().flat_map(|q| q.0.drain(..));
            idle.map(|(tid, ..)| tid).collect()
        };
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

    /// Node-crash recovery (run by the monitor at the planned crash time):
    /// every thread on the dead node is retired with [`CRASHED_RET`], its
    /// queued waits are purged, locks it held pass to surviving waiters,
    /// barriers it can no longer reach are forgiven its arrival, its
    /// joiners are woken, and the node is detached. Threads are processed
    /// lowest-id first and every queue edit is a per-entry purge, so
    /// replay with the same seed and plan is bit-identical. Grantees of
    /// the hand-offs are woken by the hand-off alone: a second wake would
    /// sit as a stale token on their next park.
    fn recover_crash(self: &Arc<Self>, sim: &Sim, node: NodeId) {
        let Some(ch) = self.cluster().chaos().cloned() else {
            return;
        };
        let t0 = sim.now();
        ch.note_crash();
        let crashed = obs::Event::ChaosCrash { node: node.0 };
        self.note(sim, obs::Layer::Chaos, node, crashed);
        let mut victims: Vec<(u64, Tid)> = {
            let st = self.state.lock();
            st.threads
                .iter()
                .filter(|(_, r)| r.phase == Phase::Running && r.exit_node == node)
                .map(|(ct, r)| (*ct, r.sim_tid))
                .collect()
        };
        victims.sort_unstable();
        let dead: Vec<Tid> = victims.iter().map(|&(_, tid)| tid).collect();
        let mut to_wake: Vec<Tid> = Vec::new();
        for &(ct, tid) in &victims {
            let was_waiting_svm = self.svm().crash_purge_waiter(tid);
            let (was_waiting_rt, joiners) = {
                let mut st = self.state.lock();
                let found = st.purge_waiter(tid);
                st.pool_jobs.remove(&tid.0);
                let rec = st.threads.get_mut(&ct).expect("crashed thread registered");
                rec.phase = Phase::Finished(CRASHED_RET);
                rec.exit_time = t0;
                rec.exit_node = node;
                (found, st.joiners.remove(&ct).unwrap_or_default())
            };
            // One forgiven barrier arrival per casualty (its own queued
            // arrival, if any, was retracted by the purge above).
            self.svm().crash_add_discount(1);
            if was_waiting_svm || was_waiting_rt {
                // It sat parked in a queue we just emptied: unpark it so
                // it reaches a crash checkpoint and unwinds.
                to_wake.push(tid);
            }
            to_wake.extend(joiners.0.iter().map(|w| w.0));
        }
        // Locks and rwlock holds (write or read) owned by the dead pass on.
        self.svm().crash_handoff_locks(sim, &dead, node);
        self.crash_handoff_rwlocks(sim, &dead);
        {
            let mut st = self.state.lock();
            st.threads_on.insert(node.0, 0);
            // Workers idling in the dead node's pool have no job to die
            // in: unpark them so they see the node gone and leave.
            let idle = st.pool_idle.remove(&node.0).unwrap_or_default();
            to_wake.extend(idle.0.iter().map(|w| w.0));
            let before = st.attached.len();
            st.attached.retain(|n| *n != node);
            if st.attached.len() != before {
                st.stats.nodes_detached += 1;
            }
        }
        self.svm().crash_release_ready_barriers(sim);
        to_wake.sort_unstable_by_key(|t| t.0);
        to_wake.dedup_by_key(|t| t.0);
        for t in to_wake {
            sim.wake(t, sim.now());
        }
        sim.advance(self.cfg.costs.detach_ns);
        let detached = obs::Event::NodeDetach { node: node.0 };
        self.note(sim, obs::Layer::Rt, node, detached);
        if let Some(o) = self.obs_if_on() {
            // The recovery as one causal edge on the monitor's own lane.
            let (here, me, now) = (sim.node(), sim.tid().0, sim.now());
            let kind = obs::EdgeKind::Recovery;
            o.edge(kind, node, me, t0, here, me, now, node.0 as u64);
        }
        let latency = sim.now().saturating_since(t0);
        ch.note_recovery(latency);
        let recovered = obs::Event::ChaosRecovery {
            node: node.0,
            threads: victims.len() as u64,
            latency_ns: latency,
        };
        self.note(sim, obs::Layer::Chaos, sim.node(), recovered);
    }

    /// An instant on the bus at this thread's clock, attributed to `node`.
    fn note(&self, sim: &Sim, layer: obs::Layer, node: NodeId, event: obs::Event) {
        if let Some(o) = self.obs_if_on() {
            o.instant(layer, node, sim.tid().0, sim.now(), event);
        }
    }

    /// Releases every rwlock hold — write or read — of the `dead` and
    /// grants whoever [`RwState::promote`] admits next, exactly as a live
    /// unlock would, but at `now` with no wire message. Sorted-id
    /// iteration keeps replay deterministic.
    fn crash_handoff_rwlocks(&self, sim: &Sim, dead: &[Tid]) {
        let grants: Vec<(Tid, NodeId)> = {
            let mut st = self.state.lock();
            let mut locks: Vec<(&u64, &mut RwState)> = st.rwlocks.iter_mut().collect();
            locks.sort_unstable_by_key(|(id, _)| **id);
            let release = |(_, r): (&u64, &mut RwState)| {
                if r.writer.is_some_and(|w| dead.contains(&w)) {
                    r.writer = None;
                }
                for d in dead {
                    while r.readers.purge(*d) {}
                }
                r.promote()
            };
            locks.into_iter().flat_map(release).collect()
        };
        for (tid, _) in grants {
            sim.wake(tid, sim.now());
        }
    }

    /// Retires a thread whose body unwound with [`chaos::CrashUnwind`]
    /// before the monitor processed its node (per-thread clocks can run
    /// ahead of the recovery). Idempotent with [`CablesRt::recover_crash`]:
    /// whichever runs first does the bookkeeping, the other is a no-op.
    pub(crate) fn thread_crashed(&self, sim: &Sim, ct: CtId) {
        // Release sync state held right now, even when the monitor's
        // recovery already retired this thread: a per-thread clock can
        // sprint past the recovery and acquire fresh locks before
        // reaching this checkpoint, and nothing else will ever release
        // them (the recovery hand-off only saw holders at crash time).
        let dead = [sim.tid()];
        // It can die queued but not parked: a `cond_wait` registers, then
        // unlocks its mutex, and that unlock is a crash checkpoint. When
        // recovery retired it before it registered, nobody else will drop
        // the entry, and the next signal would wake an exited thread.
        self.state.lock().purge_waiter(sim.tid());
        self.svm().crash_handoff_locks(sim, &dead, sim.node());
        self.crash_handoff_rwlocks(sim, &dead);
        if self.retire_self(sim, ct, CRASHED_RET).is_some() {
            self.svm().crash_add_discount(1);
        }
    }

    /// Marks the calling thread finished with `ret`, frees its slot on the
    /// node and wakes its joiners; returns how many threads the node has
    /// left. `None` when crash recovery already retired it (the
    /// bookkeeping, and the slot, are gone): whichever of the two runs
    /// first does the work.
    fn retire_self(&self, sim: &Sim, ct: CtId, ret: u64) -> Option<usize> {
        let (joiners, left) = {
            let mut st = self.state.lock();
            let rec = st.threads.get_mut(&ct.0).expect("thread registered");
            if matches!(rec.phase, Phase::Finished(_)) {
                return None;
            }
            rec.phase = Phase::Finished(ret);
            rec.exit_time = sim.now();
            rec.exit_node = sim.node();
            let joiners = st.joiners.remove(&ct.0).unwrap_or_default();
            let cnt = st.threads_on.entry(sim.node().0).or_insert(0);
            *cnt = cnt.saturating_sub(1);
            (joiners, *cnt)
        };
        for (j, ..) in joiners.0 {
            sim.wake(j, sim.now());
        }
        Some(left)
    }

    /// An administration request: a small ACB update handled on the
    /// master (paper Table 4: ~20 µs from a non-master node).
    pub fn admin_request(&self, sim: &Sim) {
        sim.op_point(self.cfg.costs.admin_local_ns);
        if sim.node() != self.master {
            let t = self
                .cluster()
                .san
                .notify(sim.node(), self.master, sim.now());
            sim.clock_at_least(t.arrival);
        }
    }

    /// Reads a small ACB entry on the master with a direct remote fetch
    /// (free on the master itself).
    pub(crate) fn acb_read(&self, sim: &Sim) {
        if sim.node() != self.master {
            let done = self
                .cluster()
                .san
                .fetch(sim.node(), self.master, 16, sim.now());
            sim.clock_at_least(done);
        }
    }

    /// Posts a `bytes`-sized ACB update to the master with a direct remote
    /// write; the writer only waits for its own NIC.
    pub(crate) fn acb_write(&self, sim: &Sim, bytes: u64) {
        if sim.node() != self.master {
            let t = self
                .cluster()
                .san
                .send(sim.node(), self.master, bytes, sim.now());
            sim.clock_at_least(t.local_done);
        }
    }

    /// A span on the bus for a call of this thread that began at `t0`.
    pub(crate) fn span(&self, sim: &Sim, t0: SimTime, event: obs::Event) {
        if let Some(o) = self.obs_if_on() {
            let took = sim.now().saturating_since(t0);
            o.span(obs::Layer::Rt, sim.node(), sim.tid().0, t0, took, event);
        }
    }

    /// The wait record of a synchronization call that began at `t0`: the
    /// contention counters of the primitive's class (a mutex or barrier
    /// caller also leaves its in-flight count) and the span on the bus.
    pub(crate) fn record_wait(&self, sim: &Sim, t0: SimTime, event: obs::Event) {
        {
            let mut st = self.state.lock();
            let st = &mut *st;
            let c = &mut st.contention;
            let class = match event {
                obs::Event::PthMutexWait { .. } => {
                    let inflight = Some(&mut st.mutex_inflight);
                    Some((&mut c.mutex_waits, &mut c.mutex_wait_ns, inflight))
                }
                obs::Event::PthBarrierWait { .. } => {
                    let inflight = Some(&mut st.barrier_inflight);
                    Some((&mut c.barrier_waits, &mut c.barrier_wait_ns, inflight))
                }
                obs::Event::PthCondWait { .. } => {
                    Some((&mut c.cond_waits, &mut c.cond_wait_ns, None))
                }
                obs::Event::PthRwWait { .. } => Some((&mut c.rw_waits, &mut c.rw_wait_ns, None)),
                _ => unreachable!("{event:?} is not a synchronization wait"),
            };
            if let Some((waits, wait_ns, inflight)) = class {
                *waits += 1;
                *wait_ns += sim.now() - t0;
                if let Some(n) = inflight {
                    *n -= 1;
                }
            }
        }
        self.span(sim, t0, event);
    }

    /// Picks a node for a new thread: round-robin over attached nodes with
    /// spare capacity; attaches a new node when all are full. With
    /// [`CablesConfig::affinity_placement`] the round-robin pick is
    /// replaced by the eligible node that has served the most demand
    /// fetches as a home (ties resolve in round-robin order, so a cold
    /// cluster degenerates to the paper's policy). A `prefer`red node —
    /// the caller vouches that a thread runs there, so it is attached —
    /// is taken as is unless it has crashed: over capacity if need be, and
    /// without moving the round-robin cursor, so the picks around it are
    /// what they would have been.
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
        let pull = if self.cfg.affinity_placement {
            self.svm().home_pull()
        } else {
            Vec::new()
        };
        let (target, need_attach) = {
            let mut st = self.state.lock();
            let n = st.attached.len();
            let mut chosen = None;
            if self.cfg.affinity_placement {
                // Two-level score: nodes that served the most demand
                // fetches as a home first (threads follow the data), then
                // the fullest node with spare capacity (pack). Packing
                // co-locates consecutively created threads — SPLASH ranks
                // and per-shard worker pools are spawned in sharing order,
                // so spawn adjacency is the cold-start sharing prior.
                let mut best: Option<((u64, usize), usize)> = None;
                for i in 0..n {
                    let idx = (st.rr + i) % n;
                    let node = st.attached[idx];
                    let occ = *st.threads_on.get(&node.0).unwrap_or(&0);
                    if occ < cap {
                        let score = (pull.get(node.0 as usize).copied().unwrap_or(0), occ);
                        if best.map_or(true, |(b, _)| score > b) {
                            best = Some((score, idx));
                        }
                    }
                }
                if let Some((_, idx)) = best {
                    st.rr = (idx + 1) % n;
                    chosen = Some(st.attached[idx]);
                }
            } else {
                for i in 0..n {
                    let idx = (st.rr + i) % n;
                    let node = st.attached[idx];
                    if *st.threads_on.get(&node.0).unwrap_or(&0) < cap {
                        st.rr = (idx + 1) % n;
                        chosen = Some(node);
                        break;
                    }
                }
            }
            match chosen {
                Some(node) => (node, false),
                None => {
                    // All attached nodes full: attach the next cluster
                    // node, or oversubscribe round-robin if none is left.
                    let unattached = self
                        .cluster()
                        .nodes()
                        .iter()
                        .find(|n| !st.attached.contains(n) && !self.node_crashed(sim, **n))
                        .copied();
                    match unattached {
                        Some(node) => (node, true),
                        None => {
                            let node = st.attached[st.rr % n];
                            st.rr = (st.rr + 1) % n;
                            (node, false)
                        }
                    }
                }
            }
        };
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
        if sim.node() != self.master {
            // The master performs the attach; ask it first.
            self.admin_request(sim);
        }
        sim.op_point(c.attach_local_cables_ns);
        // Local OS process handshake.
        sim.advance(c.attach_local_os_ns);
        // Remote process creation (the new node's OS).
        sim.advance_idle(c.attach_remote_os_ns);
        // Remote CableS initialization: mappings for already-allocated
        // global memory and pairwise import/export with attached nodes.
        let attached_now = {
            let st = self.state.lock();
            st.attached.len() as u64
        };
        sim.advance_idle(c.attach_remote_cables_ns + c.attach_per_node_ns * attached_now);
        // Broadcast the new node to all attached nodes.
        for other in 0..attached_now {
            let other = NodeId(other as u32);
            if other != self.master {
                let t = self.cluster().san.send(self.master, other, 64, sim.now());
                sim.clock_at_least(t.local_done);
            }
        }
        let mut st = self.state.lock();
        st.attached.push(node);
        st.threads_on.entry(node.0).or_insert(0);
        st.stats.nodes_attached += 1;
        drop(st);
        self.span(sim, t0, obs::Event::NodeAttach { node: node.0 });
    }

    /// `pthread_create()`: starts `f` on a node chosen by the placement
    /// policy (attaching a node if required) and returns its thread id.
    pub fn thread_create<F>(self: &Arc<Self>, sim: &Sim, f: F) -> CtId
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        self.thread_create_near(sim, None, f)
    }

    /// [`CablesRt::thread_create`] with a placement hint: the new thread
    /// starts on the node where `near` is running. When `near` has
    /// finished (a node detaches or is recovered only once nothing runs on
    /// it) or its node has just crashed, the hint is void and the
    /// placement policy picks as for a plain create.
    pub(crate) fn thread_create_near<F>(
        self: &Arc<Self>,
        sim: &Sim,
        near: Option<CtId>,
        f: F,
    ) -> CtId
    where
        F: FnOnce(&Pth) -> u64 + Send + 'static,
    {
        // pthread_create is a release point: the new thread observes the
        // creator's writes.
        let t0 = sim.now();
        self.svm().release(sim);
        let prefer = near.and_then(|ct| {
            let st = self.state.lock();
            let rec = st.threads.get(&ct.0).expect("create beside an unknown thread");
            (rec.phase == Phase::Running).then_some(rec.exit_node)
        });
        let target = self.place_thread(sim, prefer);
        if self.cfg.thread_pool {
            let idle = {
                let mut st = self.state.lock();
                st.pool_idle.get_mut(&target.0).and_then(|q| q.0.pop_back())
            };
            if let Some((tid, ..)) = idle {
                let ct = self.dispatch_pooled(sim, target, tid, Box::new(f));
                self.span(sim, t0, Self::create_event(ct, target));
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

        let ct = {
            let mut st = self.state.lock();
            let ct = st.next_ct;
            st.next_ct += 1;
            *st.threads_on.entry(target.0).or_insert(0) += 1;
            if local {
                st.stats.local_creates += 1;
            } else {
                st.stats.remote_creates += 1;
            }
            ct
        };

        let rt = Arc::clone(self);
        let pool = self.cfg.thread_pool;
        let run_at = start.max(sim.now());
        let sim_tid = sim.spawn_on(target, run_at, "cables", move |csim| {
            let mut job: Option<(u64, JobFn)> = Some((ct, Box::new(f)));
            loop {
                let (ct, body) = job.take().expect("pooled thread woken without a job");
                // Acquire: observe the creator's released writes.
                rt.svm().acquire(csim);
                let pth = Pth {
                    sim: csim,
                    rt: Arc::clone(&rt),
                    ct: CtId(ct),
                };
                let ret = match catch_unwind(AssertUnwindSafe(|| body(&pth))) {
                    Ok(v) => v,
                    Err(p) => {
                        if p.downcast_ref::<CrashUnwind>().is_some() {
                            // Node crash: retire with CRASHED_RET and let
                            // the thread exit so the engine can drain.
                            rt.thread_crashed(csim, CtId(ct));
                            return;
                        }
                        resume_unwind(p);
                    }
                };
                rt.thread_exit(csim, CtId(ct), ret);
                if !pool {
                    return;
                }
                // Park in the node's pool until redispatched.
                {
                    let mut st = rt.state.lock();
                    if st.pool_shutdown {
                        return;
                    }
                    let pool = st.pool_idle.entry(csim.node().0).or_default();
                    pool.push(csim.tid(), csim.node(), ());
                }
                // Not `park`: there is no job to die in, the worker just
                // leaves when its node is gone.
                csim.block();
                if rt.node_crashed(csim, csim.node()) {
                    // Woken by crash recovery, not a dispatch: there is no
                    // job, and the node is gone.
                    return;
                }
                {
                    let mut st = rt.state.lock();
                    if st.pool_shutdown {
                        return;
                    }
                    job = st.pool_jobs.remove(&csim.tid().0);
                }
            }
        });

        let mut st = self.state.lock();
        st.threads.insert(ct, ThreadRec::running(sim_tid, target));
        st.by_tid.insert(sim_tid.0, ct);
        drop(st);
        if run_at > t0 {
            if let Some(o) = self.obs_if_on() {
                // Causal edge: the create call to the new thread's first
                // instruction (it was spawned to start then, not woken).
                o.edge(
                    obs::EdgeKind::ThreadStart,
                    sim.node(),
                    sim.tid().0,
                    t0,
                    target,
                    sim_tid.0,
                    run_at,
                    ct,
                );
            }
        }
        self.span(sim, t0, Self::create_event(CtId(ct), target));
        CtId(ct)
    }

    fn create_event(ct: CtId, target: NodeId) -> obs::Event {
        obs::Event::ThreadCreate {
            ct: ct.0,
            on: target.0,
        }
    }

    /// Hands `f` to an idle pooled thread on `target` (much cheaper than
    /// an OS thread create — the reuse Table 4's creation costs motivate).
    fn dispatch_pooled(self: &Arc<Self>, sim: &Sim, target: NodeId, tid: Tid, f: JobFn) -> CtId {
        let c = &self.cfg.costs;
        sim.op_point(c.pool_dispatch_ns);
        let ct = {
            let mut st = self.state.lock();
            let ct = st.next_ct;
            st.next_ct += 1;
            *st.threads_on.entry(target.0).or_insert(0) += 1;
            st.stats.pooled_dispatches += 1;
            st.threads.insert(ct, ThreadRec::running(tid, target));
            st.by_tid.insert(tid.0, ct);
            st.pool_jobs.insert(tid.0, (ct, f));
            ct
        };
        // The dispatch notification is the worker's wakeup.
        let edge = Some((obs::EdgeKind::ThreadStart, ct));
        self.svm
            .notify_handoff(sim, edge, &[target], 0, (tid, target));
        CtId(ct)
    }

    /// Thread exit bookkeeping: records the return value in the ACB,
    /// wakes joiners, and detaches the node if it became empty.
    fn thread_exit(&self, sim: &Sim, ct: CtId, ret: u64) {
        // Flush this node's writes so joiners observe them (RC release on
        // thread termination).
        self.svm.release(sim);
        sim.op_point(self.cfg.costs.exit_ns);
        self.acb_write(sim, 32);
        let node = sim.node();
        let Some(left) = self.retire_self(sim, ct, ret) else {
            return;
        };
        if left == 0 && node != self.master && self.cfg.auto_detach {
            {
                let mut st = self.state.lock();
                st.attached.retain(|n| *n != node);
                st.stats.nodes_detached += 1;
            }
            sim.advance(self.cfg.costs.detach_ns);
            let detached = obs::Event::NodeDetach { node: node.0 };
            self.note(sim, obs::Layer::Rt, node, detached);
        }
    }

    /// `pthread_join()`: waits for `ct` and returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `ct` was never created.
    pub fn join(&self, sim: &Sim, ct: CtId) -> u64 {
        let t0 = sim.now();
        sim.op_point(self.cfg.costs.join_ns);
        // Reading the thread's ACB entry.
        self.acb_read(sim);
        self.svm().crash_check(sim);
        let (v, t, exit_node, exit_tid) = loop {
            {
                let mut st = self.state.lock();
                let rec = st.threads.get_mut(&ct.0).expect("join of unknown thread");
                if let Phase::Finished(v) = rec.phase {
                    break (v, rec.exit_time, rec.exit_node, rec.sim_tid);
                }
                let joiners = st.joiners.entry(ct.0).or_default();
                joiners.push(sim.tid(), sim.node(), ());
            }
            self.svm().park(sim, None);
        };
        sim.clock_at_least(t);
        self.state.lock().stats.joins += 1;
        // Acquire so the joiner observes the thread's writes.
        self.svm.acquire(sim);
        self.span(sim, t0, obs::Event::ThreadJoin { ct: ct.0 });
        if let Some(o) = self.obs_if_on().filter(|_| sim.now() > t) {
            // Causal edge: the joined thread's exit to this join's return
            // (an effect on the caller's own lane, not a wake-up).
            let (node, me, now) = (sim.node(), sim.tid().0, sim.now());
            let kind = obs::EdgeKind::ThreadJoin;
            o.edge(kind, exit_node, exit_tid.0, t, node, me, now, ct.0);
        }
        v
    }

    /// `pthread_cancel()`: requests cancellation of `ct`. The target
    /// observes it at its next cancellation point
    /// ([`Pth::test_cancel`], [`Pth::cond_wait`]).
    pub fn cancel(&self, sim: &Sim, ct: CtId) {
        self.admin_request(sim);
        let wake = {
            let mut st = self.state.lock();
            st.stats.cancels += 1;
            let rec = match st.threads.get_mut(&ct.0) {
                Some(r) => r,
                None => return,
            };
            if rec.phase != Phase::Running || rec.cancel_requested {
                None
            } else {
                rec.cancel_requested = true;
                let tid = rec.sim_tid;
                // If the target is parked in a condition wait, pull it out.
                let conds = st.conds.values_mut();
                conds
                    .fold(false, |found, q| q.purge(tid) | found)
                    .then_some(tid)
            }
        };
        if let Some(tid) = wake {
            // Timing-visible asymmetry, kept: the wake travels to the
            // master (the ACB), not on to the target's node, and no edge
            // kind exists for it.
            let master = self.master;
            self.svm
                .notify_handoff(sim, None, &[master], 0, (tid, master));
        }
    }

    /// Whether cancellation was requested for `ct`.
    pub(crate) fn cancel_requested(&self, ct: CtId) -> bool {
        let st = self.state.lock();
        st.threads
            .get(&ct.0)
            .map(|r| r.cancel_requested)
            .unwrap_or(false)
    }

    /// Allocates a fresh synchronization-object id (mutexes, conditions
    /// and barriers share the namespace).
    pub fn sync_id(&self) -> u64 {
        let mut st = self.state.lock();
        let id = st.next_sync_id;
        st.next_sync_id += 1;
        id
    }
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
        self.timed(OpKind::Create, |rt, sim| rt.thread_create(sim, f))
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
        self.timed(OpKind::Create, |rt, sim| rt.thread_create_near(sim, Some(sibling), f))
    }

    /// Joins a thread and returns its value (`pthread_join`).
    pub fn join(&self, ct: CtId) -> u64 {
        self.timed(OpKind::Join, |rt, sim| rt.join(sim, ct))
    }

    /// Requests cancellation of a thread (`pthread_cancel`).
    pub fn cancel(&self, ct: CtId) {
        self.rt.cancel(self.sim, ct)
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
            let rt = CablesRt::new(cluster, CablesConfig { pre_attach, ..CablesConfig::paper() });
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
        assert_eq!((stats.local_creates, stats.remote_creates, stats.pooled_dispatches), (1, 2, 1));
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
            let cfg = CablesConfig { pre_attach: 2, ..CablesConfig::paper() };
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
