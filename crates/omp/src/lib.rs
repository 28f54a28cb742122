//! # cables-omp — an OdinMP-style OpenMP runtime over CableS
//!
//! The paper demonstrates CableS by running OpenMP programs translated to
//! pthreads by OdinMP (paper ref.\[8\]). This crate is the runtime such a translation
//! targets: parallel regions backed by a persistent pthreads worker pool
//! (dispatched with a CableS mutex + condition broadcast, which is why the
//! paper's Table 5 shows the OMP programs exercising conditions), static
//! and dynamic worksharing, `critical`, `single`, `master`, barriers and
//! sum-reductions.
//!
//! Everything lowers onto the `cables` pthreads API only — exactly like
//! OdinMP's generated code, no protocol shortcuts.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cables::{CablesConfig, CablesRt};
//! use cables_omp::Omp;
//! use svm::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::build(ClusterConfig::small(2, 2));
//! let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
//! let rt2 = Arc::clone(&rt);
//! rt.run(move |pth| {
//!     let omp = Omp::new(Arc::clone(&rt2), 4);
//!     let data = pth.malloc(8 * 100);
//!     let omp2 = Arc::clone(&omp);
//!     omp.parallel(pth, move |c| {
//!         c.for_static(100, |i| c.pth().write::<u64>(data + 8 * i as u64, i as u64 * 2));
//!     });
//!     omp2.shutdown(pth);
//!     assert_eq!(pth.read::<u64>(data + 8 * 99), 198);
//!     0
//! })
//! .unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cables::{Barrier, CablesRt, Cond, CtId, Mutex, Pth};
use memsim::GAddr;
use sim::Local;

type RegionFn = Arc<dyn Fn(&OmpCtx) + Send + Sync>;

#[derive(Default)]
struct PoolState {
    job: Option<RegionFn>,
    generation: u64,
    shutdown: bool,
    workers: Vec<CtId>,
    criticals: HashMap<u64, Mutex>,
    single_done: HashMap<u64, u64>,
    next_single: u64,
}

/// The OpenMP runtime: a fixed-size team dispatched per parallel region.
///
/// Matches `OMP_NUM_THREADS` semantics: the team size is fixed at
/// construction; the worker pthreads are created lazily at the first
/// [`Omp::parallel`] (so the first region pays thread creation — and node
/// attach — costs, as in the paper) and reused afterwards.
pub struct Omp {
    rt: Arc<CablesRt>,
    num_threads: usize,
    dispatch_mutex: Mutex,
    dispatch_cond: Cond,
    region_barrier: Barrier,
    /// Shared-memory cell holding the current region generation — workers
    /// poll it under the dispatch mutex, like OdinMP's generated code.
    gen_addr: Local<Option<GAddr>>,
    state: Local<PoolState>,
}

impl fmt::Debug for Omp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Omp")
            .field("num_threads", &self.num_threads)
            .finish()
    }
}

impl Omp {
    /// Creates a runtime with a team of `num_threads` (including the
    /// master).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(rt: Arc<CablesRt>, num_threads: usize) -> Arc<Self> {
        assert!(num_threads > 0, "OpenMP team needs at least one thread");
        let dispatch_mutex = rt.mutex_new();
        let dispatch_cond = rt.cond_new();
        let region_barrier = rt.barrier_new();
        Arc::new(Omp {
            rt,
            num_threads,
            dispatch_mutex,
            dispatch_cond,
            region_barrier,
            gen_addr: Local::new(None),
            state: Local::new(PoolState::default()),
        })
    }

    /// The team size.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    fn ensure_pool(self: &Arc<Self>, pth: &Pth) {
        let need_spawn = {
            let st = self.state.lock();
            st.workers.is_empty() && self.num_threads > 1
        };
        if !need_spawn {
            return;
        }
        let gen_cell = pth.malloc(8);
        pth.write::<u64>(gen_cell, 0);
        *self.gen_addr.lock() = Some(gen_cell);
        let mut workers = Vec::new();
        for tid in 1..self.num_threads {
            let omp = Arc::clone(self);
            workers.push(pth.create(move |p| {
                omp.worker_loop(p, tid);
                0
            }));
        }
        self.state.lock().workers = workers;
    }

    fn worker_loop(self: &Arc<Self>, pth: &Pth, tid: usize) {
        let gen_cell = self.gen_addr.lock().expect("pool initialized");
        let mut seen = 0u64;
        loop {
            // Wait for a new region (or shutdown) under the dispatch lock.
            pth.mutex_lock(self.dispatch_mutex);
            loop {
                let g = pth.read::<u64>(gen_cell);
                if g != seen {
                    seen = g;
                    break;
                }
                pth.cond_wait(self.dispatch_cond, self.dispatch_mutex)
                    .expect("omp worker cancelled");
            }
            pth.mutex_unlock(self.dispatch_mutex);
            let job = {
                let st = self.state.lock();
                if st.shutdown {
                    return;
                }
                st.job.clone().expect("generation bumped with a job")
            };
            let ctx = OmpCtx {
                pth,
                omp: Arc::clone(self),
                tid,
            };
            job(&ctx);
            // Implicit barrier at region end.
            pth.barrier(self.region_barrier, self.num_threads);
        }
    }

    /// Executes `f` on the whole team (`#pragma omp parallel`), returning
    /// after the implicit end-of-region barrier.
    pub fn parallel<F>(self: &Arc<Self>, pth: &Pth, f: F)
    where
        F: Fn(&OmpCtx) + Send + Sync + 'static,
    {
        self.ensure_pool(pth);
        if self.num_threads > 1 {
            {
                let mut st = self.state.lock();
                st.job = Some(Arc::new(f) as RegionFn);
                st.generation += 1;
            }
            let gen_cell = self.gen_addr.lock().expect("pool initialized");
            let g = self.state.lock().generation;
            pth.mutex_lock(self.dispatch_mutex);
            pth.write::<u64>(gen_cell, g);
            pth.cond_broadcast(self.dispatch_cond);
            pth.mutex_unlock(self.dispatch_mutex);
            let job = self.state.lock().job.clone().expect("job set");
            let ctx = OmpCtx {
                pth,
                omp: Arc::clone(self),
                tid: 0,
            };
            job(&ctx);
            pth.barrier(self.region_barrier, self.num_threads);
        } else {
            let ctx = OmpCtx {
                pth,
                omp: Arc::clone(self),
                tid: 0,
            };
            f(&ctx);
        }
    }

    /// Terminates the worker pool and joins the workers. Call before
    /// `pthread_end` (i.e. before the closure given to `CablesRt::run`
    /// returns) if any region ran.
    pub fn shutdown(self: &Arc<Self>, pth: &Pth) {
        let workers = {
            let mut st = self.state.lock();
            st.shutdown = true;
            st.generation += 1;
            std::mem::take(&mut st.workers)
        };
        if workers.is_empty() {
            return;
        }
        let gen_cell = self.gen_addr.lock().expect("pool initialized");
        let g = self.state.lock().generation;
        pth.mutex_lock(self.dispatch_mutex);
        pth.write::<u64>(gen_cell, g);
        pth.cond_broadcast(self.dispatch_cond);
        pth.mutex_unlock(self.dispatch_mutex);
        for w in workers {
            pth.join(w);
        }
    }
}

/// Per-thread context inside a parallel region.
pub struct OmpCtx<'a> {
    pth: &'a Pth<'a>,
    omp: Arc<Omp>,
    tid: usize,
}

impl fmt::Debug for OmpCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OmpCtx").field("tid", &self.tid).finish()
    }
}

impl<'a> OmpCtx<'a> {
    /// The underlying pthreads handle.
    pub fn pth(&self) -> &'a Pth<'a> {
        self.pth
    }

    /// This thread's id within the team (`omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Team size (`omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.omp.num_threads
    }

    /// Statically-scheduled worksharing loop over `0..n`: this thread
    /// executes a contiguous block of iterations. No implied barrier
    /// (append [`OmpCtx::barrier`] for `#pragma omp for` semantics without
    /// `nowait`).
    pub fn for_static<F: FnMut(usize)>(&self, n: usize, mut body: F) {
        let (lo, hi) = self.static_range(n);
        for i in lo..hi {
            body(i);
        }
    }

    /// The `[lo, hi)` iteration range this thread owns under the static
    /// schedule.
    pub fn static_range(&self, n: usize) -> (usize, usize) {
        let t = self.omp.num_threads;
        let per = n.div_ceil(t);
        let lo = (self.tid * per).min(n);
        let hi = ((self.tid + 1) * per).min(n);
        (lo, hi)
    }

    /// Dynamically-scheduled worksharing loop over `0..n` in chunks of
    /// `chunk`, via a shared counter protected by a CableS mutex (as
    /// OdinMP generates).
    pub fn for_dynamic<F: FnMut(usize)>(
        &self,
        counter: GAddr,
        counter_mutex: cables::Mutex,
        n: usize,
        chunk: usize,
        mut body: F,
    ) {
        assert!(chunk > 0, "dynamic schedule needs a positive chunk");
        loop {
            self.pth.mutex_lock(counter_mutex);
            let next = self.pth.read::<u64>(counter) as usize;
            if next < n {
                self.pth.write::<u64>(counter, (next + chunk) as u64);
            }
            self.pth.mutex_unlock(counter_mutex);
            if next >= n {
                break;
            }
            for i in next..(next + chunk).min(n) {
                body(i);
            }
        }
    }

    /// Barrier across the team (`#pragma omp barrier`).
    pub fn barrier(&self) {
        self.pth
            .barrier(self.omp.region_barrier, self.omp.num_threads);
    }

    /// Named critical section (`#pragma omp critical(name)`).
    pub fn critical<R, F: FnOnce() -> R>(&self, name: u64, body: F) -> R {
        let m = {
            let mut st = self.omp.state.lock();
            *st.criticals
                .entry(name)
                .or_insert_with(|| self.omp.rt.mutex_new())
        };
        self.pth.mutex_lock(m);
        let r = body();
        self.pth.mutex_unlock(m);
        r
    }

    /// Executes `body` on exactly one thread of the team
    /// (`#pragma omp single nowait`); returns whether this thread ran it.
    pub fn single<F: FnOnce()>(&self, body: F) -> bool {
        // The single "ticket" is ACB state: charge an administration
        // request like any other global bookkeeping.
        self.pth.admin_request();
        let won = {
            let mut st = self.omp.state.lock();
            let id = st.next_single;
            // All threads of the region agree on the ticket id via the
            // order of their arrival per generation.
            let claimed = st.single_done.entry(id).or_insert(0);
            *claimed += 1;
            let won = *claimed == 1;
            if *claimed as usize == self.omp.num_threads {
                st.single_done.remove(&id);
                st.next_single += 1;
            }
            won
        };
        if won {
            body();
        }
        won
    }

    /// Executes `body` only on the master thread (`#pragma omp master`).
    pub fn master<F: FnOnce()>(&self, body: F) {
        if self.tid == 0 {
            body();
        }
    }

    /// Worksharing sections (`#pragma omp sections`): section `i` runs on
    /// team member `i % num_threads`; ends with the implied barrier.
    pub fn sections<F: FnMut(usize)>(&self, n: usize, mut body: F) {
        let t = self.omp.num_threads;
        for i in 0..n {
            if i % t == self.tid {
                body(i);
            }
        }
        self.barrier();
    }

    /// Sum-reduction: adds `local` into the shared accumulator under a
    /// critical section (the OdinMP lowering of `reduction(+:x)`).
    pub fn reduce_sum_f64(&self, accumulator: GAddr, local: f64) {
        self.critical(u64::MAX, || {
            let cur = self.pth.read::<f64>(accumulator);
            self.pth.write::<f64>(accumulator, cur + local);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cables::CablesConfig;
    use svm::{Cluster, ClusterConfig};

    fn with_omp<F>(nodes: usize, cpus: usize, threads: usize, f: F)
    where
        F: FnOnce(&Pth, Arc<Omp>) + Send + 'static,
    {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
        let rt2 = Arc::clone(&rt);
        rt.run(move |pth| {
            let omp = Omp::new(Arc::clone(&rt2), threads);
            f(pth, Arc::clone(&omp));
            omp.shutdown(pth);
            0
        })
        .unwrap();
    }

    #[test]
    fn parallel_for_static_covers_all_iterations() {
        with_omp(2, 2, 4, |pth, omp| {
            let n = 37usize;
            let data = pth.malloc(8 * n as u64);
            omp.parallel(pth, move |c| {
                c.for_static(n, |i| c.pth().write::<u64>(data + 8 * i as u64, 1));
            });
            let mut sum = 0;
            for i in 0..n {
                sum += pth.read::<u64>(data + 8 * i as u64);
            }
            assert_eq!(sum, n as u64);
        });
    }

    #[test]
    fn static_ranges_partition() {
        with_omp(1, 2, 3, |pth, omp| {
            let seen = pth.malloc(8 * 10);
            for i in 0..10u64 {
                pth.write::<u64>(seen + 8 * i, 0);
            }
            omp.parallel(pth, move |c| {
                let (lo, hi) = c.static_range(10);
                for i in lo..hi {
                    let cur = c.pth().read::<u64>(seen + 8 * i as u64);
                    c.pth().write::<u64>(seen + 8 * i as u64, cur + 1);
                }
            });
            for i in 0..10u64 {
                assert_eq!(pth.read::<u64>(seen + 8 * i), 1, "iteration {i}");
            }
        });
    }

    #[test]
    fn dynamic_schedule_covers_all() {
        with_omp(2, 2, 4, |pth, omp| {
            let n = 23usize;
            let data = pth.malloc(8 * n as u64);
            let counter = pth.malloc(8);
            pth.write::<u64>(counter, 0);
            let m = pth.rt().mutex_new();
            omp.parallel(pth, move |c| {
                c.for_dynamic(counter, m, n, 3, |i| {
                    c.pth().write::<u64>(data + 8 * i as u64, i as u64 + 1)
                });
            });
            for i in 0..n {
                assert_eq!(pth.read::<u64>(data + 8 * i as u64), i as u64 + 1);
            }
        });
    }

    #[test]
    fn reduction_sums_across_team() {
        with_omp(2, 2, 4, |pth, omp| {
            let acc = pth.malloc(8);
            pth.write::<f64>(acc, 0.0);
            omp.parallel(pth, move |c| {
                let mut local = 0.0;
                c.for_static(100, |i| local += i as f64);
                c.reduce_sum_f64(acc, local);
            });
            assert_eq!(pth.read::<f64>(acc), 4950.0);
        });
    }

    #[test]
    fn single_runs_once_per_region() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        with_omp(2, 2, 4, move |pth, omp| {
            for _ in 0..3 {
                let c3 = Arc::clone(&c2);
                omp.parallel(pth, move |c| {
                    c.single(|| {
                        c3.fetch_add(1, Ordering::SeqCst);
                    });
                    c.barrier();
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn pool_reused_across_regions() {
        let cluster = Cluster::build(ClusterConfig::small(2, 2));
        let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
        let rt2 = Arc::clone(&rt);
        let rt3 = Arc::clone(&rt);
        rt.run(move |pth| {
            let omp = Omp::new(Arc::clone(&rt2), 4);
            for _ in 0..5 {
                omp.parallel(pth, |c| {
                    c.pth().compute(10_000);
                    let _ = c.thread_num();
                });
            }
            omp.shutdown(pth);
            0
        })
        .unwrap();
        // 3 workers created once, not per region.
        let st = rt3.stats();
        assert_eq!(st.local_creates + st.remote_creates, 3);
    }

    #[test]
    fn sections_partition_and_barrier() {
        with_omp(2, 2, 3, |pth, omp| {
            let n = 7usize;
            let cells = pth.malloc(8 * n as u64);
            omp.parallel(pth, move |c| {
                c.sections(n, |i| {
                    c.pth().write::<u64>(cells + 8 * i as u64, 100 + i as u64);
                });
                // Past the sections barrier every section is visible.
                for i in 0..n {
                    assert_eq!(c.pth().read::<u64>(cells + 8 * i as u64), 100 + i as u64);
                }
            });
        });
    }

    #[test]
    fn single_thread_team_runs_inline() {
        with_omp(1, 1, 1, |pth, omp| {
            let cell = pth.malloc(8);
            omp.parallel(pth, move |c| {
                assert_eq!(c.num_threads(), 1);
                c.pth().write::<u64>(cell, 5);
            });
            assert_eq!(pth.read::<u64>(cell), 5);
        });
    }
}
