//! Hot-path equivalence tests: the bulk access API, the software TLB and
//! the lock-free engine fast path are wall-clock optimizations only — they
//! must not change ANY simulated result. These tests run identical
//! programs through the bulk API and through per-scalar loops over the
//! public scalar API (the bulk API's specification) and require
//! byte-identical memory, identical virtual time and identical
//! protocol/placement output, on both the Base and CableS protocol
//! configurations — and both must land on goldens taken from the slow
//! path (per-scalar loops, no TLB, kernel-locked clock) on the last tree
//! that had one (PR 16), where this file's three-way comparison passed
//! with these constants. `PINNED_SHOW=1` with `--nocapture` prints what a
//! cell observed.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use proptest::prelude::*;

use common::{fnv, show};

use cables_suite::apps::splash::{fft, radix};
use cables_suite::apps::{M4Mode, M4System};
use cables_suite::memsim::{GAddr, Scalar};
use cables_suite::sim::{local_borrows, Sim};
use cables_suite::svm::{Cluster, ClusterConfig, SvmConfig, SvmSystem};

/// Region size in u64 elements: 4 pages, so random ranges straddle page
/// boundaries.
const LEN: u64 = 2048;

/// One random master-side operation over the shared region.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Bulk u64 write of deterministic values at [start, start+len).
    WriteSlice { start: u64, len: u64 },
    /// Bulk fill of a constant at [start, start+len).
    Fill { start: u64, len: u64, v: u64 },
    /// Bulk u64 read of [start, start+len), folded into the checksum.
    ReadSlice { start: u64, len: u64 },
    /// Bulk u8 write at an arbitrary (unaligned) byte range.
    WriteBytes { start: u64, len: u64 },
}

fn decode_ops(raw: &[(u8, u16, u16)], seed: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b)| {
            let start = a as u64 % LEN;
            let len = 1 + b as u64 % (LEN - start);
            match kind % 4 {
                0 => Op::WriteSlice { start, len },
                1 => Op::Fill {
                    start,
                    len,
                    v: seed ^ (kind as u64) << 17,
                },
                2 => Op::ReadSlice { start, len },
                _ => {
                    let bytes = LEN * 8;
                    let start = (a as u64).wrapping_mul(7) % bytes;
                    let len = 1 + (b as u64).wrapping_mul(3) % (bytes - start);
                    Op::WriteBytes { start, len }
                }
            }
        })
        .collect()
}

/// Everything a run can observably produce, for cross-run comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    end_ns: u64,
    memory: Vec<u64>,
    checksum: u64,
    touched_pages: u64,
    misplaced_pages: u64,
    faults: u64,
    fetches: u64,
    diffs: u64,
}

/// The bulk operations of one run: through the bulk API, or through its
/// specification — a loop over `read` / `write`.
struct Mem<'a> {
    s: &'a SvmSystem,
    sim: &'a Sim,
    bulk: bool,
}

impl Mem<'_> {
    fn write_slice<T: Scalar>(&self, addr: GAddr, data: &[T]) {
        if self.bulk {
            return self.s.write_slice(self.sim, addr, data);
        }
        for (i, v) in data.iter().enumerate() {
            self.s.write(self.sim, addr + (i * T::SIZE) as u64, *v);
        }
    }

    fn fill(&self, addr: GAddr, v: u64, count: usize) {
        if self.bulk {
            return self.s.fill(self.sim, addr, v, count);
        }
        for i in 0..count {
            self.s.write(self.sim, addr + (i * 8) as u64, v);
        }
    }

    fn read_slice(&self, addr: GAddr, out: &mut [u64]) {
        if self.bulk {
            return self.s.read_slice(self.sim, addr, out);
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.s.read(self.sim, addr + (i * 8) as u64);
        }
    }
}

/// Runs the random program once, its bulk operations through the bulk
/// API or per scalar; everything else is identical.
fn run_program(base: bool, ops: Vec<Op>, seed: u64, bulk: bool) -> Observed {
    let cfg = if base {
        SvmConfig::base()
    } else {
        SvmConfig::cables()
    };
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let s = Arc::clone(&sys);
    let out: Arc<StdMutex<Option<(Vec<u64>, u64)>>> = Arc::new(StdMutex::new(None));
    let out2 = Arc::clone(&out);
    let end = cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s.g_malloc(sim, LEN * 8);
            let n = 2;
            // A second thread (other node under round-robin placement)
            // writes a few seed-derived words under a lock, so releases
            // produce diffs and some pages end up remotely homed.
            let s2 = Arc::clone(&s);
            s2.clone().create(sim, move |ws| {
                s2.lock(ws, 1);
                for i in 0..8u64 {
                    let w = seed.wrapping_mul(2 * i + 1).wrapping_add(i) % LEN;
                    s2.write::<u64>(ws, a + w * 8, seed ^ (0xAA00 + i));
                }
                s2.unlock(ws, 1);
                s2.barrier(ws, 9, n);
            });
            // Master applies the random bulk ops.
            let m = Mem { s: &s, sim, bulk };
            let mut checksum = 0u64;
            for op in &ops {
                match *op {
                    Op::WriteSlice { start, len } => {
                        let data: Vec<u64> = (0..len)
                            .map(|i| seed ^ (start + i).wrapping_mul(0x9E37))
                            .collect();
                        m.write_slice(a + start * 8, &data);
                    }
                    Op::Fill { start, len, v } => {
                        m.fill(a + start * 8, v, len as usize);
                    }
                    Op::ReadSlice { start, len } => {
                        let mut buf = vec![0u64; len as usize];
                        m.read_slice(a + start * 8, &mut buf);
                        checksum = buf
                            .iter()
                            .fold(checksum, |c, &x| c.rotate_left(7).wrapping_add(x));
                    }
                    Op::WriteBytes { start, len } => {
                        let data: Vec<u8> = (0..len)
                            .map(|i| (seed.wrapping_add(start + i) & 0xFF) as u8)
                            .collect();
                        m.write_slice(a + start, &data);
                    }
                }
            }
            s.lock(sim, 1);
            s.unlock(sim, 1);
            s.barrier(sim, 9, n);
            // Read the entire region back in one bulk op.
            let mut all = vec![0u64; LEN as usize];
            m.read_slice(a, &mut all);
            // Per-scalar oracle within the same run: the bulk read must
            // agree with scalar reads of the same memory.
            for w in (0..LEN).step_by(97) {
                assert_eq!(all[w as usize], s.read::<u64>(sim, a + w * 8));
            }
            *out2.lock().unwrap() = Some((all, checksum));
            s.wait_for_end(sim);
        })
        .expect("hotpath program run");
    let (memory, checksum) = out.lock().unwrap().take().expect("program produced output");
    let placement = sys.placement_report();
    let st = sys.total_stats();
    Observed {
        end_ns: end.as_nanos(),
        memory,
        checksum,
        touched_pages: placement.touched_pages,
        misplaced_pages: placement.misplaced_pages,
        faults: st.read_faults + st.write_faults,
        fetches: st.remote_fetches,
        diffs: st.diffs_sent,
    }
}

/// Per case of `bulk_access_is_equivalent_to_per_scalar`, in generation
/// order: `(end_ns, digest of the whole Observed)` on the slow path.
const PROGRAM_GOLDENS: [(u64, u64); 12] = [
    (1401021, 11371704917197300022),
    (1308520, 3946731774562472233),
    (1308520, 13495850981735977900),
    (1203468, 15232991471848939652),
    (1293520, 4415445094980561999),
    (1293520, 745718214396519927),
    (1059633, 6133960998786688863),
    (1422178, 11050877386515596381),
    (1308520, 8675361608541417616),
    (1293256, 13429374897969287188),
    (1323256, 8724111430237710613),
    (1393678, 6278354824129663977),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random page-straddling bulk ranges: the bulk API and a per-scalar
    /// loop over the scalar API produce byte-identical memory, identical
    /// virtual time and identical placement/protocol counts — the ones
    /// the slow path (no TLB, kernel-locked clock) produced.
    #[test]
    fn bulk_access_is_equivalent_to_per_scalar(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..10),
        seed in any::<u64>(),
        base in any::<bool>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let golden = PROGRAM_GOLDENS[CASE.fetch_add(1, Ordering::Relaxed)];
        let ops = decode_ops(&raw, seed);
        let bulk = run_program(base, ops.clone(), seed, true);
        let scalar = run_program(base, ops, seed, false);
        prop_assert_eq!(&bulk, &scalar);
        let pinned = (bulk.end_ns, fnv(&format!("{bulk:?}")));
        show("program", &pinned);
        prop_assert_eq!(pinned, golden);
    }
}

/// Runs a SPLASH kernel under M4 and returns (SimTime, parallel window,
/// touched pages, misplaced pages, TLB hits, TLB misses, `sim::Local`
/// borrows taken during the run).
fn splash_run(
    mode: M4Mode,
    body: impl FnOnce(&cables_suite::apps::M4Ctx) + Send + 'static,
) -> (u64, Option<u64>, u64, u64, u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig::small(4, 2));
    let sys = match mode {
        M4Mode::Base => M4System::base(Arc::clone(&cluster)),
        M4Mode::Cables => M4System::cables(Arc::clone(&cluster)),
    };
    let before = local_borrows();
    let end = sys.run(body).expect("splash run");
    let borrows = local_borrows().wrapping_sub(before);
    let placement = sys.svm().placement_report();
    let st = sys.svm().engine_stats();
    (
        end.as_nanos(),
        sys.parallel_ns(),
        placement.touched_pages,
        placement.misplaced_pages,
        st.tlb_hits,
        st.tlb_misses,
        borrows,
    )
}

/// `(end_ns, parallel window, touched pages, misplaced pages)` of FFT then
/// RADIX, Base then CableS, on the slow path.
const SPLASH_GOLDENS: [(u64, Option<u64>, u64, u64); 4] = [
    (5497453, Some(3828236), 2, 0),
    (5946144, Some(3824501), 9, 0),
    (11049682365, Some(3885204), 2, 0),
    (11049914951, Some(3939996), 9, 6),
];

/// `(TLB hits, TLB misses)` of the same four runs, in the same order. The
/// TLB moves no simulated number, so these pin only its size, its
/// indexing and its invalidations.
const SPLASH_TLB_GOLDENS: [(u64, u64); 4] = [(3798, 196), (8575, 372), (3813, 199), (8640, 325)];

/// `sim::Local` borrows of the same four runs, in the same order: the
/// host work of the simulator's state accesses, counted exactly. A lever
/// that removes a borrow from the hot path shows here as a counted drop;
/// one that adds a borrow per access, as a counted rise.
const SPLASH_BORROW_GOLDENS: [u64; 4] = [7382, 21660, 8338, 22194];

/// Regression: the hot path must not change the simulated results of the
/// SPLASH kernels — same final SimTime, same parallel window, same Fig-6
/// misplacement as the slow path gave — and the software TLB must count
/// exactly the hits and misses it counted before, and stay hot on FFT
/// (>90%). The runs also take exactly the `sim::Local` borrows they took
/// when these goldens were pinned.
#[test]
fn splash_fast_path_is_deterministic() {
    for (i, mode) in [M4Mode::Base, M4Mode::Cables].into_iter().enumerate() {
        let r = splash_run(mode, |ctx| {
            let p = fft::FftParams {
                m: 8,
                nprocs: 8,
                verify: true,
            };
            let r = fft::fft(ctx, &p);
            let err = r.max_error.expect("verify requested");
            assert!(err < 1e-6, "FFT round-trip error {err}");
        });
        show("fft", &r);
        let pinned = (r.0, r.1, r.2, r.3);
        assert_eq!(pinned, SPLASH_GOLDENS[2 * i], "{mode:?} FFT");
        assert_eq!((r.4, r.5), SPLASH_TLB_GOLDENS[2 * i], "{mode:?} FFT TLB");
        assert_eq!(r.6, SPLASH_BORROW_GOLDENS[2 * i], "{mode:?} FFT borrows");
        assert!(
            r.4 * 10 > (r.4 + r.5) * 9,
            "{mode:?} FFT: TLB hit rate {:.1}% <= 90%",
            r.4 as f64 * 100.0 / (r.4 + r.5) as f64
        );
        let r = splash_run(mode, |ctx| {
            let p = radix::RadixParams::test(8);
            let r = radix::radix(ctx, &p);
            assert!(r.sorted, "RADIX output not sorted");
            assert_eq!(r.key_sum, radix::expected_key_sum(&p));
        });
        show("radix", &r);
        let pinned = (r.0, r.1, r.2, r.3);
        assert_eq!(pinned, SPLASH_GOLDENS[2 * i + 1], "{mode:?} RADIX");
        assert_eq!(
            (r.4, r.5),
            SPLASH_TLB_GOLDENS[2 * i + 1],
            "{mode:?} RADIX TLB"
        );
        assert_eq!(
            r.6,
            SPLASH_BORROW_GOLDENS[2 * i + 1],
            "{mode:?} RADIX borrows"
        );
    }
}
