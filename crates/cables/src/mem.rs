//! Dynamic global memory management and GLOBAL static variables.
//!
//! `global_malloc`/`global_free` may be called at any time during
//! execution by any thread — the core capability the paper adds over
//! M4-style systems, where shared memory exists only between `MAIN_INITENV`
//! and termination. Homes are bound lazily at first touch (64 KB
//! granularity on WindowsNT); freed blocks are recycled through a
//! coalescing free list.
//!
//! GLOBAL statics model the paper's `GLOBAL` type qualifier
//! (`_declspec(allocate("GLOBAL_DATA"))`): the variable lives in a
//! dedicated section whose primary copies belong to the first node of the
//! application.

use std::fmt;

use memsim::{GAddr, PAGE_SIZE};
use obs::{Event, Layer};
use sim::Sim;
use svm::sync::SyncEffects;

use crate::config::cost;
use crate::rt::{CablesRt, OpKind, Pth, RtEffects};

/// A `global_free` the allocator could not honor: the address was never
/// returned by [`CablesRt::global_malloc`], was already freed, or points
/// into the middle of a live block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeError {
    /// The address the application tried to free.
    pub addr: GAddr,
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "global_free of unallocated address {}", self.addr)
    }
}

impl std::error::Error for FreeError {}

impl CablesRt {
    /// Allocates `bytes` of global shared memory (`global_malloc`).
    ///
    /// Unlike M4 `G_MALLOC`, this may be called at any point during
    /// execution, from any thread on any node.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn global_malloc(&self, sim: &Sim, bytes: u64) -> GAddr {
        assert!(bytes > 0, "global_malloc of zero bytes");
        let (t0, e) = (sim.now(), self.at(sim));
        // Global allocator state lives in the ACB.
        e.admin_request();
        sim.advance(cost::MALLOC_NS);
        let align = if bytes >= PAGE_SIZE { PAGE_SIZE } else { 8 };
        let fit = self.state.lock().malloc(bytes, align);
        let addr = match fit {
            Some(addr) => GAddr::new(addr),
            None => {
                // Fresh space from the shared heap.
                let addr = self.svm().g_malloc(sim, bytes);
                self.state.lock().allocated.insert(addr.raw(), bytes);
                addr
            }
        };
        let base = addr.raw();
        e.span(Layer::Rt, t0, || Event::GlobalAlloc { base, bytes });
        addr
    }

    /// Bytes currently held on the free list (diagnostics).
    pub fn free_bytes(&self) -> u64 {
        self.state.lock().free_list.values().sum()
    }

    /// Live allocated blocks (diagnostics).
    pub fn live_allocations(&self) -> usize {
        self.state.lock().allocated.len()
    }
}

impl Pth<'_> {
    /// Allocates global shared memory (`global_malloc`).
    pub fn malloc(&self, bytes: u64) -> GAddr {
        self.timed(OpKind::Malloc, |rt, sim| rt.global_malloc(sim, bytes))
    }

    /// Frees a block returned by [`CablesRt::global_malloc`]
    /// (`global_free`). Adjacent free blocks coalesce.
    ///
    /// # Panics
    ///
    /// Panics on a double free or an address that was never allocated.
    /// Use [`Pth::try_free`] for the non-panicking variant.
    pub fn free(&self, addr: GAddr) {
        self.try_free(addr).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Frees a block returned by [`CablesRt::global_malloc`], reporting a
    /// double free or wild free as a typed [`FreeError`] instead of
    /// panicking. The allocator state is untouched on error (the free is
    /// counted in [`RtStats::frees`](crate::RtStats) either way — the call
    /// happened).
    pub fn try_free(&self, addr: GAddr) -> Result<(), FreeError> {
        self.timed(OpKind::Free, |rt, sim| {
            rt.at(sim).admin_request();
            sim.advance(cost::MALLOC_NS);
            rt.state.lock().free(addr.raw()).ok_or(FreeError { addr })
        })
    }

    /// Defines a GLOBAL static variable of `bytes` bytes (the `GLOBAL`
    /// qualifier), returning its address in the GLOBAL_DATA section. The
    /// section's primary copies live on the master node, which this call
    /// establishes eagerly (the paper homes the section on the first node
    /// at initialization).
    ///
    /// Must be called from the master node, before worker threads use the
    /// variable (as with statics in a real executable image).
    ///
    /// # Panics
    ///
    /// Panics when called off the master node, or if the section is full.
    pub fn define_global(&self, bytes: u64) -> GAddr {
        let (rt, sim) = (&self.rt, self.sim);
        assert!(bytes > 0, "GLOBAL variable of zero bytes");
        assert_eq!(
            sim.node(),
            rt.master(),
            "GLOBAL statics are established by the first node"
        );
        let addr = {
            let mut st = rt.state.lock();
            let addr = GAddr::new(st.global_next).align_up(8);
            st.global_next = addr.raw() + bytes;
            assert!(
                st.global_next <= svm::GLOBAL_SECTION_BASE.raw() + svm::GLOBAL_SECTION_BYTES,
                "GLOBAL_DATA section exhausted"
            );
            addr
        };
        // Touch each mapping chunk so the master becomes its home.
        let chunk = rt.cfg.svm.home_granularity_pages * PAGE_SIZE;
        let mut probe = addr.align_down(chunk);
        while probe.raw() < addr.raw() + bytes {
            let cur: u8 = {
                // A write fault homes the chunk on the master.
                rt.svm().read::<u8>(sim, probe)
            };
            rt.svm().write::<u8>(sim, probe, cur);
            probe += chunk;
        }
        addr
    }
}

#[cfg(test)]
mod tests {
    use crate::config::CablesConfig;
    use crate::rt::CablesRt;
    use std::sync::Arc;
    use svm::{Cluster, ClusterConfig};

    fn rt(nodes: usize, cpus: usize) -> Arc<CablesRt> {
        let cluster = Cluster::build(ClusterConfig::small(nodes, cpus));
        CablesRt::new(cluster, CablesConfig::paper())
    }

    #[test]
    fn malloc_returns_distinct_aligned_blocks() {
        let rt = rt(1, 1);
        rt.run(|pth| {
            let a = pth.malloc(100);
            let b = pth.malloc(100);
            assert!(b.raw() >= a.raw() + 100 || a.raw() >= b.raw() + 100);
            assert_eq!(a.raw() % 8, 0);
            let big = pth.malloc(10_000);
            assert_eq!(big.raw() % 4096, 0);
            0
        })
        .unwrap();
    }

    #[test]
    fn free_and_reuse() {
        let rt = rt(1, 1);
        let rt2 = Arc::clone(&rt);
        rt.run(move |pth| {
            let a = pth.malloc(256);
            pth.free(a);
            assert_eq!(rt2.free_bytes(), 256);
            // Reuse the freed block.
            let b = pth.malloc(256);
            assert_eq!(b, a);
            assert_eq!(rt2.free_bytes(), 0);
            0
        })
        .unwrap();
    }

    #[test]
    fn free_coalesces_neighbours() {
        let rt = rt(1, 1);
        let rt2 = Arc::clone(&rt);
        rt.run(move |pth| {
            let a = pth.malloc(64);
            let b = pth.malloc(64);
            let c = pth.malloc(64);
            pth.free(a);
            pth.free(c);
            pth.free(b);
            // One coalesced block despite three frees.
            assert_eq!(rt2.live_allocations(), 0);
            let big = pth.malloc(192);
            assert_eq!(big, a, "coalesced space satisfies a larger request");
            0
        })
        .unwrap();
    }

    #[test]
    fn data_survives_malloc_write_read_cycles() {
        let rt = rt(2, 1);
        rt.run(|pth| {
            let a = pth.malloc(4096);
            for i in 0..32u64 {
                pth.write::<u64>(a + i * 8, i * i);
            }
            for i in 0..32u64 {
                assert_eq!(pth.read::<u64>(a + i * 8), i * i);
            }
            pth.free(a);
            0
        })
        .unwrap();
    }

    #[test]
    fn dynamic_allocation_during_execution() {
        // The capability the paper adds: allocate in the middle of the
        // parallel phase, from a worker thread on a remote node.
        let rt = rt(2, 1);
        rt.run(|pth| {
            let m = pth.rt().mutex_new();
            let slot = pth.malloc(8);
            pth.write::<u64>(slot, 0);
            let worker = pth.create(move |p| {
                let mine = p.malloc(1024);
                p.write::<u64>(mine, 7777);
                p.mutex_lock(m);
                p.write::<u64>(slot, mine.raw());
                p.mutex_unlock(m);
                0
            });
            pth.join(worker);
            pth.mutex_lock(m);
            let addr = pth.read::<u64>(slot);
            pth.mutex_unlock(m);
            assert_ne!(addr, 0);
            assert_eq!(pth.read::<u64>(memsim::GAddr::new(addr)), 7777);
            0
        })
        .unwrap();
    }

    #[test]
    fn global_statics_homed_on_master() {
        let rt = rt(2, 1);
        let rt2 = Arc::clone(&rt);
        rt.run(move |pth| {
            let g = pth.define_global(64);
            pth.write::<u64>(g, 123);
            // The master is the section's home, so its writes land in the
            // primary copy directly and a later-created worker sees them.
            let worker = pth.create(move |p| p.read::<u64>(g));
            assert_eq!(pth.join(worker), 123);
            let _ = rt2;
            0
        })
        .unwrap();
    }

    #[test]
    fn double_free_reports_typed_error() {
        let rt = rt(1, 1);
        rt.run(|pth| {
            let a = pth.malloc(8);
            pth.try_free(a).expect("first free is legal");
            let err = pth.try_free(a).expect_err("double free must be caught");
            assert_eq!(err.addr, a);
            assert!(err
                .to_string()
                .contains("global_free of unallocated address"));
            // The allocator survived: the same block is reusable.
            let b = pth.malloc(8);
            assert_eq!(b, a);
            0
        })
        .unwrap();
    }

    #[test]
    fn wild_free_reports_typed_error() {
        let rt = rt(1, 1);
        rt.run(|pth| {
            let a = pth.malloc(64);
            // Middle of a live block: never a malloc return value.
            let wild = a + 8;
            let err = pth.try_free(wild).expect_err("wild free must be caught");
            assert_eq!(err.addr, wild);
            // Never-allocated address, far off the heap.
            let err2 = pth
                .try_free(memsim::GAddr::new(0xdead_beef_0000))
                .expect_err("unallocated free must be caught");
            assert_eq!(err2.addr.raw(), 0xdead_beef_0000);
            // The original block is still live and freeable.
            pth.try_free(a).expect("live block still freeable");
            0
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "global_free of unallocated address")]
    fn double_free_panics() {
        let rt = rt(1, 1);
        let r = rt.run(|pth| {
            let a = pth.malloc(8);
            pth.free(a);
            pth.free(a);
            0
        });
        if let Err(e) = r {
            panic!("{e}");
        }
    }
}
