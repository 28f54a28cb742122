//! The M4 macro layer: one application API, two backends.
//!
//! SPLASH-2 applications are written against the M4 macros (`G_MALLOC`,
//! `CREATE`, `LOCK`, `BARRIER`, `WAIT_FOR_END`). The paper evaluates the
//! same programs on two systems: the original tuned SVM (GeNIMA, macros
//! map straight onto the protocol) and CableS (macros implemented on top
//! of the pthreads API — `CREATE` → `pthread_create`, `LOCK` →
//! `pthread_mutex_lock`, `BARRIER` → the `pthread_barrier` extension).
//! [`M4System`] reproduces exactly that pair of mappings.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cables::{CablesConfig, CablesRt, CtId, Pth};
use memsim::{GAddr, Scalar};
use sim::{Local, Sim, SimError, SimTime};
use svm::{Cluster, SvmConfig, SvmSystem};

/// Which backend an [`M4System`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M4Mode {
    /// The original tuned SVM system (GeNIMA).
    Base,
    /// M4 macros implemented over the CableS pthreads API.
    Cables,
}

enum Inner {
    Base(Arc<SvmSystem>),
    Cables(Arc<CablesRt>),
}

/// An M4 runtime instance over a simulated cluster.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cables_apps::{M4System};
/// use svm::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::build(ClusterConfig::small(2, 2));
/// let sys = M4System::base(Arc::clone(&cluster));
/// let end = sys
///     .run(|ctx| {
///         let a = ctx.g_malloc(64);
///         ctx.write::<u64>(a, 7);
///         assert_eq!(ctx.read::<u64>(a), 7);
///     })
///     .unwrap();
/// assert!(end.as_nanos() > 0);
/// ```
pub struct M4System {
    inner: Inner,
    mutexes: Local<HashMap<u64, cables::Mutex>>,
    barriers: Local<HashMap<u64, cables::Barrier>>,
    created: Local<Vec<CtId>>,
    parallel_window: Local<Option<(SimTime, SimTime)>>,
}

impl fmt::Debug for M4System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("M4System")
            .field("mode", &self.mode())
            .finish()
    }
}

impl M4System {
    /// An M4 runtime over the base (GeNIMA) system with default config.
    pub fn base(cluster: Arc<Cluster>) -> Arc<Self> {
        M4System::base_with(cluster, SvmConfig::base())
    }

    /// An M4 runtime over the base system with a custom protocol config
    /// (used by the ablation benches).
    pub fn base_with(cluster: Arc<Cluster>, cfg: SvmConfig) -> Arc<Self> {
        Arc::new(M4System {
            inner: Inner::Base(SvmSystem::new(cluster, cfg)),
            mutexes: Local::new(HashMap::new()),
            barriers: Local::new(HashMap::new()),
            created: Local::new(Vec::new()),
            parallel_window: Local::new(None),
        })
    }

    /// An M4 runtime over CableS with the paper's configuration.
    pub fn cables(cluster: Arc<Cluster>) -> Arc<Self> {
        M4System::cables_with(cluster, CablesConfig::paper())
    }

    /// An M4 runtime over CableS with a custom configuration.
    pub fn cables_with(cluster: Arc<Cluster>, cfg: CablesConfig) -> Arc<Self> {
        Arc::new(M4System {
            inner: Inner::Cables(CablesRt::new(cluster, cfg)),
            mutexes: Local::new(HashMap::new()),
            barriers: Local::new(HashMap::new()),
            created: Local::new(Vec::new()),
            parallel_window: Local::new(None),
        })
    }

    /// The backend in use.
    pub fn mode(&self) -> M4Mode {
        match &self.inner {
            Inner::Base(_) => M4Mode::Base,
            Inner::Cables(_) => M4Mode::Cables,
        }
    }

    /// The underlying protocol engine (both backends have one).
    pub fn svm(&self) -> &Arc<SvmSystem> {
        match &self.inner {
            Inner::Base(s) => s,
            Inner::Cables(rt) => rt.svm(),
        }
    }

    /// The cluster.
    pub fn cluster(&self) -> Arc<Cluster> {
        match &self.inner {
            Inner::Base(s) => Arc::clone(s.cluster()),
            Inner::Cables(rt) => Arc::clone(rt.cluster()),
        }
    }

    /// The parallel-section window recorded by the last kernel run
    /// (paper Fig. 5 plots the parallel section, excluding thread/node
    /// startup and result verification).
    pub fn parallel_window(&self) -> Option<(SimTime, SimTime)> {
        *self.parallel_window.lock()
    }

    /// Parallel-section duration in nanoseconds, if recorded.
    pub fn parallel_ns(&self) -> Option<u64> {
        self.parallel_window().map(|(a, b)| b - a)
    }

    /// The CableS runtime, if this is the CableS backend.
    pub fn cables_rt(&self) -> Option<Arc<CablesRt>> {
        match &self.inner {
            Inner::Base(_) => None,
            Inner::Cables(rt) => Some(Arc::clone(rt)),
        }
    }

    /// Runs `main` as the application's initial thread and returns the
    /// final virtual time.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures — including the NIC-registration
    /// panics that model the paper's base system failing on OCEAN at 32
    /// processors.
    pub fn run<F>(self: &Arc<Self>, main: F) -> Result<SimTime, SimError>
    where
        F: FnOnce(&M4Ctx) + Send + 'static,
    {
        let res = match &self.inner {
            Inner::Base(svm) => {
                let sys = Arc::clone(self);
                let svm2 = Arc::clone(svm);
                let master = svm.cluster().nodes()[0];
                let engine = svm.cluster().engine.clone();
                engine.run(master, move |sim| {
                    let ctx = M4Ctx {
                        sys,
                        sim,
                        pth: None,
                    };
                    main(&ctx);
                    svm2.wait_for_end(sim);
                })
            }
            Inner::Cables(rt) => {
                let sys = Arc::clone(self);
                rt.run(move |pth| {
                    let ctx = M4Ctx {
                        sys,
                        sim: pth.sim,
                        pth: Some(pth),
                    };
                    main(&ctx);
                    0
                })
            }
        };
        // Surface the engine's scheduling telemetry and any migration
        // activity in the obs snapshot (no-ops when observability is off;
        // the placement gauges skip zero values, so a run without
        // migrations adds none).
        self.svm().publish_engine_telemetry();
        self.svm().publish_placement_telemetry();
        res
    }

    fn cables_mutex(&self, rt: &CablesRt, id: u64) -> cables::Mutex {
        *self
            .mutexes
            .lock()
            .entry(id)
            .or_insert_with(|| rt.mutex_new())
    }

    fn cables_barrier(&self, rt: &CablesRt, id: u64) -> cables::Barrier {
        *self
            .barriers
            .lock()
            .entry(id)
            .or_insert_with(|| rt.barrier_new())
    }
}

/// Per-thread M4 context: the macro API applications program against.
pub struct M4Ctx<'a> {
    sys: Arc<M4System>,
    /// This thread's engine handle.
    pub sim: &'a Sim,
    pth: Option<&'a Pth<'a>>,
}

impl fmt::Debug for M4Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("M4Ctx")
            .field("mode", &self.sys.mode())
            .finish()
    }
}

impl M4Ctx<'_> {
    /// The system this context belongs to.
    pub fn system(&self) -> &Arc<M4System> {
        &self.sys
    }

    /// Records the parallel-section window (called by the kernels from
    /// the initial thread).
    pub fn note_parallel(&self, start: SimTime, end: SimTime) {
        *self.sys.parallel_window.lock() = Some((start, end));
    }

    /// `G_MALLOC(bytes)`.
    pub fn g_malloc(&self, bytes: u64) -> GAddr {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => svm.g_malloc(self.sim, bytes),
            (Inner::Cables(rt), Some(_)) => rt.global_malloc(self.sim, bytes),
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }

    /// Reads a scalar from shared memory.
    pub fn read<T: Scalar>(&self, addr: GAddr) -> T {
        self.sys.svm().read(self.sim, addr)
    }

    /// Writes a scalar to shared memory.
    pub fn write<T: Scalar>(&self, addr: GAddr, v: T) {
        self.sys.svm().write(self.sim, addr, v)
    }

    /// Reads `out.len()` consecutive scalars starting at `addr` — the
    /// bulk equivalent of a `read` loop (identical simulated time and
    /// protocol behaviour, one translation per page run).
    pub fn read_slice<T: Scalar>(&self, addr: GAddr, out: &mut [T]) {
        self.sys.svm().read_slice(self.sim, addr, out)
    }

    /// Writes `data` as consecutive scalars starting at `addr` — the bulk
    /// equivalent of a `write` loop.
    pub fn write_slice<T: Scalar>(&self, addr: GAddr, data: &[T]) {
        self.sys.svm().write_slice(self.sim, addr, data)
    }

    /// Writes `count` copies of `v` starting at `addr` — the bulk
    /// equivalent of an initialization `write` loop.
    pub fn fill<T: Scalar>(&self, addr: GAddr, v: T, count: usize) {
        self.sys.svm().fill(self.sim, addr, v, count)
    }

    /// Charges `ns` nanoseconds of local computation.
    pub fn compute(&self, ns: u64) {
        self.sim.advance(ns);
    }

    /// `CREATE(f)`: starts a worker running `f`.
    pub fn create<F>(&self, f: F)
    where
        F: FnOnce(&M4Ctx) + Send + 'static,
    {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => {
                let sys = Arc::clone(&self.sys);
                svm.create(self.sim, move |sim| {
                    let ctx = M4Ctx {
                        sys,
                        sim,
                        pth: None,
                    };
                    f(&ctx);
                });
            }
            (Inner::Cables(_), Some(pth)) => {
                let sys = Arc::clone(&self.sys);
                let ct = pth.create(move |p| {
                    let ctx = M4Ctx {
                        sys,
                        sim: p.sim,
                        pth: Some(p),
                    };
                    f(&ctx);
                    0
                });
                self.sys.created.lock().push(ct);
            }
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }

    /// `WAIT_FOR_END()`: joins every worker created so far.
    pub fn wait_for_end(&self) {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => svm.wait_for_end(self.sim),
            (Inner::Cables(_), Some(pth)) => loop {
                let next = self.sys.created.lock().pop();
                match next {
                    Some(ct) => {
                        pth.join(ct);
                    }
                    None => break,
                }
            },
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }

    /// `LOCK(id)`.
    pub fn lock(&self, id: u64) {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => svm.lock(self.sim, id),
            (Inner::Cables(rt), Some(pth)) => {
                let m = self.sys.cables_mutex(rt, id);
                pth.mutex_lock(m);
            }
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }

    /// `UNLOCK(id)`.
    pub fn unlock(&self, id: u64) {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => svm.unlock(self.sim, id),
            (Inner::Cables(rt), Some(pth)) => {
                let m = self.sys.cables_mutex(rt, id);
                pth.mutex_unlock(m);
            }
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }

    /// `BARRIER(id, n)`.
    pub fn barrier(&self, id: u64, n: usize) {
        match (&self.sys.inner, self.pth) {
            (Inner::Base(svm), _) => svm.barrier(self.sim, id, n),
            (Inner::Cables(rt), Some(pth)) => {
                let b = self.sys.cables_barrier(rt, id);
                pth.barrier(b, n);
            }
            _ => unreachable!("cables ctx without pthreads handle"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::ClusterConfig;

    fn both_modes() -> Vec<Arc<M4System>> {
        vec![
            M4System::base(Cluster::build(ClusterConfig::small(2, 2))),
            M4System::cables(Cluster::build(ClusterConfig::small(2, 2))),
        ]
    }

    #[test]
    fn create_and_wait_for_end_on_both_backends() {
        for sys in both_modes() {
            let mode = sys.mode();
            sys.run(move |ctx| {
                let a = ctx.g_malloc(8 * 4);
                for i in 0..4u64 {
                    ctx.write::<u64>(a + 8 * i, 0);
                }
                for i in 0..3u64 {
                    ctx.create(move |c| {
                        c.write::<u64>(a + 8 * (i + 1), i + 100);
                    });
                }
                ctx.wait_for_end();
                ctx.barrier(0, 1);
                for i in 0..3u64 {
                    assert_eq!(ctx.read::<u64>(a + 8 * (i + 1)), i + 100, "mode {mode:?}");
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn lock_protects_counter_on_both_backends() {
        for sys in both_modes() {
            sys.run(|ctx| {
                let a = ctx.g_malloc(8);
                ctx.write::<u64>(a, 0);
                for _ in 0..3 {
                    ctx.create(move |c| {
                        for _ in 0..5 {
                            c.lock(1);
                            let v = c.read::<u64>(a);
                            c.compute(200);
                            c.write::<u64>(a, v + 1);
                            c.unlock(1);
                        }
                    });
                }
                ctx.wait_for_end();
                ctx.lock(1);
                assert_eq!(ctx.read::<u64>(a), 15);
                ctx.unlock(1);
            })
            .unwrap();
        }
    }

    #[test]
    fn barrier_spans_backends() {
        for sys in both_modes() {
            sys.run(|ctx| {
                let a = ctx.g_malloc(8 * 4);
                let n = 4;
                for i in 0..3u64 {
                    ctx.create(move |c| {
                        c.write::<u64>(a + 8 * (i + 1), 7);
                        c.barrier(9, n);
                    });
                }
                ctx.write::<u64>(a, 7);
                ctx.barrier(9, n);
                let mut sum = 0;
                for i in 0..4u64 {
                    sum += ctx.read::<u64>(a + 8 * i);
                }
                assert_eq!(sum, 28);
                ctx.wait_for_end();
            })
            .unwrap();
        }
    }

    #[test]
    fn base_is_page_granular_cables_is_chunk_granular() {
        let base = M4System::base(Cluster::build(ClusterConfig::small(2, 2)));
        base.run(|_| {}).unwrap();
        assert_eq!(base.svm().config().home_granularity_pages, 1);
        let cab = M4System::cables(Cluster::build(ClusterConfig::small(2, 2)));
        cab.run(|_| {}).unwrap();
        assert_eq!(cab.svm().config().home_granularity_pages, 16);
    }
}
