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
//! check it as they go (`DESIGN.md` §5.3): dispatch keys must be monotone
//! and a parking thread's stack canary must be intact; a violation poisons
//! the run.

use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crate::carrier::{self, GreenCtx, Payload};
use crate::kernel::{
    CpuRec, EngineStats, Kernel, NodeId, NodeRec, PoisonUnwind, SchedCause, SchedEventKind,
    SchedHook, SimError, ThreadRec, ThreadState, Tid, READY_RESERVE,
};
use crate::local::Local;
use crate::sim_handle::Sim;
use crate::time::SimTime;

pub(crate) struct EngineInner {
    pub(crate) kernel: Local<Kernel>,
    /// Saved stack pointer of the carrier OS thread parked in
    /// [`Engine::run`]. Only touched by that single carrier thread. It sits
    /// beside the kernel's `Local`, not in it, because `raw_switch` writes
    /// it through a raw pointer while no kernel borrow is live; it is an
    /// atomic (relaxed, a plain move) only so `EngineInner` is `Sync`
    /// without a second `unsafe impl`.
    pub(crate) carrier_rsp: AtomicPtr<u8>,
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
    pub(crate) inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(k) = self.inner.kernel.try_lock() else {
            return f.write_str("Engine { <borrowed> }");
        };
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
                kernel: Local::new(Kernel {
                    threads: Vec::new(),
                    ready: BinaryHeap::new(),
                    sleepers: BinaryHeap::new(),
                    running: None,
                    live: 0,
                    nodes: Vec::new(),
                    poisoned: None,
                    final_time: SimTime::ZERO,
                    stats: EngineStats::default(),
                    fresh: 0,
                    corpse: None,
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
        // Retain room for this node's share of the ready heap, so
        // steady-state scheduling never allocates.
        let want = k.nodes.len() * READY_RESERVE;
        let len = k.ready.len();
        k.ready.reserve_exact(want.saturating_sub(len));
        id
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

    pub(crate) fn spawn_thread(
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
            let sim = Sim::new(engine.clone(), tid, node);
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

    /// Formatting the engine from inside a kernel borrow (a panic
    /// message, a debugger) prints a placeholder instead of panicking.
    #[test]
    fn debug_of_a_borrowed_engine_does_not_borrow() {
        let (e, _) = one_node_engine(1);
        assert_eq!(format!("{e:?}"), "Engine { threads: 0, live: 0, nodes: 1 }");
        let _k = e.inner.kernel.lock();
        assert_eq!(format!("{e:?}"), "Engine { <borrowed> }");
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
