//! Golden values of the blocking-primitive plumbing: one 4-node tour of
//! every pthreads primitive on its cross-node path, one crash tableau
//! in which a worker node dies holding and waiting on one of everything,
//! and one cell of the runtime paths neither reaches (a broadcast to two
//! nodes, `create_beside`, an auto-detach).
//! End time, counters, per-operation times, summed protocol stats and a
//! digest of the ordered causal-edge list are pinned, so a change to the
//! waiter queues, hand-offs or parks that moves one nanosecond or reorders
//! one edge fails here; the replay tests compare a tree with itself and
//! would pass it.
//!
//! The goldens of `clean_tour` and `crash_with_dead_writer` were taken on
//! the tree before the plumbing was merged (PR 15) and the test file runs
//! unmodified on both sides. `crash_with_dead_reader` is the one cell that
//! tree cannot pass: read holds were an ownerless count there, so the dead
//! reader's hold leaked and the waiting writer deadlocked.

use std::sync::Arc;

use cables::{
    Barrier, CablesConfig, CablesRt, Cond, CtId, Mutex, OpKind, Pth, RwLock, CRASHED_RET,
};
use chaos::{ChaosEngine, FaultPlan, WireFaults};
use memsim::GAddr;
use obs::{EdgeKind, Event};
use svm::{Cluster, ClusterConfig};

const MS: u64 = 1_000_000;
const US: u64 = 1_000;

/// Handles and shared words every thread of a cell uses.
#[derive(Clone, Copy)]
struct Ctx {
    bar: Barrier,
    m: Mutex,
    m2: Mutex,
    mc: Mutex,
    cv: Cond,
    cv_never: Cond,
    rw: RwLock,
    /// `[counter, flag, cell, ct ids...]`, 8 bytes each.
    words: GAddr,
}

impl Ctx {
    fn new(pth: &Pth) -> Ctx {
        let rt = pth.rt();
        let words = pth.malloc(8 * 32);
        for i in 0..32 {
            pth.write::<u64>(words + 8 * i, 0);
        }
        Ctx {
            bar: rt.barrier_new(),
            m: rt.mutex_new(),
            m2: rt.mutex_new(),
            mc: rt.mutex_new(),
            cv: rt.cond_new(),
            cv_never: rt.cond_new(),
            rw: rt.rwlock_new(),
            words,
        }
    }
    fn counter(&self) -> GAddr {
        self.words
    }
    fn flag(&self) -> GAddr {
        self.words + 8
    }
    fn cell(&self) -> GAddr {
        self.words + 16
    }
    fn ct_slot(&self, i: u64) -> GAddr {
        self.words + 8 * (3 + i)
    }
}

/// What one cell runs and under which faults.
struct Cell {
    cpus: usize,
    cfg: CablesConfig,
    chaos: Option<(u64, FaultPlan)>,
    program: Program,
}

#[derive(Clone, Copy)]
enum Program {
    Tour,
    /// The dead holder's hold on the rwlock is a read or a write hold.
    Tableau {
        dead_reader: bool,
    },
    Sides,
}

/// Everything a cell pins.
#[derive(Debug, PartialEq)]
struct Observed {
    end_ns: u64,
    /// Join values in creation order (grant times for crash survivors).
    rets: Vec<u64>,
    rt: String,
    contention: String,
    /// `(count, avg_ns)` per [`OpKind::ALL`].
    ops: Vec<(u64, u64)>,
    nodes: String,
    /// Number of causal edges and FNV-1a digest of the ordered
    /// `(kind, src node, src track, dst node, dst track, t_cause, t_effect,
    /// id)` list.
    edges: (usize, u64),
    /// `(woken tid, wake time, object id)` of every `Recovery` edge.
    recovery: Vec<(u64, u64, u64)>,
    /// `(crashes, recoveries, recovery latencies)`.
    chaos: Option<(u64, u64, Vec<u64>)>,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn run(cell: Cell) -> Observed {
    let cluster = Cluster::build(ClusterConfig::small(4, cell.cpus));
    if let Some((seed, plan)) = cell.chaos {
        cluster.set_chaos(ChaosEngine::new(seed, plan));
    }
    let rt = CablesRt::new(Arc::clone(&cluster), cell.cfg);
    rt.svm().set_obs(true);
    let rets = Arc::new(std::sync::Mutex::new(Vec::new()));
    let r2 = Arc::clone(&rets);
    let program = cell.program;
    let end = rt
        .run(move |pth| {
            *r2.lock().unwrap() = match program {
                Program::Tour => tour(pth),
                Program::Tableau { dead_reader } => tableau(pth, dead_reader),
                Program::Sides => sides(pth),
            };
            0
        })
        .expect("pinned cell runs to completion");
    let sink = rt.svm().obs();
    assert_eq!(sink.dropped_events(), 0, "event buffer clipped");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut n_edges = 0;
    let mut recovery = Vec::new();
    for e in sink.events() {
        if let Event::Edge {
            kind,
            src_node,
            src_track,
            src_ns,
            obj,
        } = e.event
        {
            n_edges += 1;
            let k = EdgeKind::ALL.iter().position(|x| *x == kind).unwrap() as u64;
            for v in [
                k,
                u64::from(src_node),
                src_track,
                u64::from(e.node.0),
                e.track,
                src_ns,
                e.at.as_nanos(),
                obj,
            ] {
                fnv(&mut digest, v);
            }
            if kind == EdgeKind::Recovery {
                recovery.push((e.track, e.at.as_nanos(), obj));
            }
        }
    }
    let ops = rt.op_times();
    let rets = rets.lock().unwrap().clone();
    Observed {
        end_ns: end.as_nanos(),
        rets,
        rt: format!("{:?}", rt.stats()),
        contention: format!("{:?}", rt.contention()),
        ops: OpKind::ALL
            .iter()
            .map(|k| (ops.count(*k), ops.avg_ns(*k).unwrap_or(0)))
            .collect(),
        nodes: format!("{:?}", rt.svm().total_stats()),
        edges: (n_edges, digest),
        recovery,
        chaos: cluster.chaos().map(|c| {
            let s = c.stats();
            (s.crashes, s.recoveries, s.recovery_latency_ns)
        }),
    }
}

// ---------------------------------------------------------------------
// The clean tour: main + 7 workers, two per node, attached on demand.
// ---------------------------------------------------------------------

const TOUR: usize = 8;

fn tour_worker(p: &Pth, x: Ctx, i: u64) -> u64 {
    p.barrier(x.bar, TOUR);
    tour_mutex(p, x, i);
    p.barrier(x.bar, TOUR);
    // Main holds `m2` (a trylock hit) across this phase.
    let miss = i == 1 && !p.mutex_trylock(x.m2);
    p.barrier(x.bar, TOUR);
    let hit = i == 3 && p.mutex_trylock(x.m2);
    if hit {
        p.mutex_unlock(x.m2);
    }
    p.barrier(x.bar, TOUR);
    match i {
        0 | 1 | 3 | 5 => {
            p.mutex_lock(x.mc);
            while p.read::<u64>(x.flag()) == 0 {
                p.cond_wait(x.cv, x.mc).unwrap();
            }
            p.mutex_unlock(x.mc);
        }
        2 => {
            p.mutex_lock(x.mc);
            while p.read::<u64>(x.flag()) == 0 {
                assert!(p.cond_timedwait(x.cv, x.mc, 1_000 * MS).unwrap());
            }
            p.mutex_unlock(x.mc);
        }
        4 => {
            p.mutex_lock(x.mc);
            assert!(!p.cond_timedwait(x.cv_never, x.mc, 2 * MS).unwrap());
            p.mutex_unlock(x.mc);
        }
        _ => {
            // The signaller sits off-master so the ACB round trips are
            // on the wire.
            p.compute(5 * MS);
            p.mutex_lock(x.mc);
            p.write::<u64>(x.flag(), 1);
            p.cond_signal(x.cv);
            p.mutex_unlock(x.mc);
        }
    }
    p.barrier(x.bar, TOUR);
    let mut seen = 0;
    match i {
        1 => {
            p.rwlock_wrlock(x.rw);
            p.write::<u64>(x.cell(), 7);
            p.compute(500 * US);
            p.rwlock_unlock(x.rw);
        }
        // A run of readers queues behind the writer ...
        2 | 3 | 4 => {
            p.compute(100 * US * i);
            p.rwlock_rdlock(x.rw);
            seen = p.read::<u64>(x.cell());
            p.compute(200 * US);
            p.rwlock_unlock(x.rw);
        }
        // ... a writer behind the readers, a reader behind that writer.
        5 => {
            p.compute(450 * US);
            p.rwlock_wrlock(x.rw);
            p.write::<u64>(x.cell(), 8);
            p.compute(50 * US);
            p.rwlock_unlock(x.rw);
        }
        6 => {
            p.compute(480 * US);
            p.rwlock_rdlock(x.rw);
            seen = p.read::<u64>(x.cell());
            p.rwlock_unlock(x.rw);
        }
        _ => {}
    }
    p.barrier(x.bar, TOUR);
    if i == 3 {
        // Create, cancel and join from a worker node: the victim parks
        // in a condition wait and is pulled out by the cancel.
        let victim = p.create(move |q| {
            q.mutex_lock(x.mc);
            match q.cond_wait(x.cv_never, x.mc) {
                Err(_) => 77,
                Ok(()) => 0,
            }
        });
        p.compute(MS);
        p.cancel(victim);
        seen += p.join(victim);
    }
    if i == 0 {
        // Still running when main joins it.
        p.compute(3 * MS);
    }
    1_000 * i + 100 * u64::from(miss) + 200 * u64::from(hit) + seen
}

fn tour_mutex(p: &Pth, x: Ctx, i: u64) {
    for _ in 0..3 {
        p.mutex_lock(x.m);
        let v = p.read::<u64>(x.counter());
        p.compute(20 * US);
        p.write::<u64>(x.counter(), v + 1);
        p.mutex_unlock(x.m);
        p.compute(5 * US * (i + 1));
    }
}

fn tour(pth: &Pth) -> Vec<u64> {
    let x = Ctx::new(pth);
    let kids: Vec<CtId> = (0..TOUR as u64 - 1)
        .map(|i| pth.create(move |p| tour_worker(p, x, i)))
        .collect();
    pth.barrier(x.bar, TOUR);
    tour_mutex(pth, x, 7);
    assert!(pth.mutex_trylock(x.m2), "fresh mutex: local trylock hits");
    pth.barrier(x.bar, TOUR);
    pth.compute(MS);
    pth.mutex_unlock(x.m2);
    pth.barrier(x.bar, TOUR);
    pth.barrier(x.bar, TOUR);
    pth.compute(10 * MS);
    pth.mutex_lock(x.mc);
    pth.write::<u64>(x.flag(), 2);
    pth.cond_broadcast(x.cv);
    pth.mutex_unlock(x.mc);
    pth.barrier(x.bar, TOUR);
    pth.barrier(x.bar, TOUR);
    let mut rets: Vec<u64> = kids.into_iter().map(|k| pth.join(k)).collect();
    assert_eq!(pth.read::<u64>(x.counter()), 3 * TOUR as u64);
    // Everyone has exited into its node's pool: these are dispatches.
    let slow = pth.create(|p| {
        p.compute(MS);
        1
    });
    let fast = pth.create(|_| 2);
    pth.compute(5 * MS);
    rets.push(pth.join(fast));
    rets.push(pth.join(slow));
    rets
}

// ---------------------------------------------------------------------
// The side paths: a broadcast that wakes waiters on two nodes, creates
// beside a sibling (on a full node, and with a void hint), and a worker
// node that detaches when its last thread exits.
// ---------------------------------------------------------------------

fn sides(pth: &Pth) -> Vec<u64> {
    let x = Ctx::new(pth);
    let waiter = move |p: &Pth| {
        p.mutex_lock(x.mc);
        while p.read::<u64>(x.flag()) == 0 {
            p.cond_wait(x.cv, x.mc).unwrap();
        }
        p.mutex_unlock(x.mc);
        10 * u64::from(p.node().0) + 1
    };
    // Two processors per node: `a` fits beside main, `b` attaches node
    // 1, `c` joins it there and `d` lands on the full master.
    let a = pth.create(waiter);
    let b = pth.create(waiter);
    let c = pth.create_beside(b, waiter);
    let d = pth.create_beside(a, waiter);
    // Attaches node 2 and leaves it empty: the node detaches.
    let e = pth.create(|p| {
        p.compute(MS);
        10 * u64::from(p.node().0) + 2
    });
    pth.compute(20 * MS);
    pth.mutex_lock(x.mc);
    pth.write::<u64>(x.flag(), 1);
    pth.cond_broadcast(x.cv);
    pth.mutex_unlock(x.mc);
    let mut rets: Vec<u64> = [a, b, c, d, e].into_iter().map(|k| pth.join(k)).collect();
    // `e` has finished: the hint is void and placement picks as usual.
    let f = pth.create_beside(e, |p| 10 * u64::from(p.node().0) + 3);
    rets.push(pth.join(f));
    rets
}

// ---------------------------------------------------------------------
// The crash tableau: 18 workers round-robin over four pre-attached
// nodes (a processor each, so nobody's compute delays anybody); node 2
// dies at 60 ms. Delays are absolute simulated times.
// ---------------------------------------------------------------------

const CRASH_NODE: u32 = 2;
const CRASH_AT: u64 = 60 * MS;
const WORKERS: u64 = 18;

#[derive(Clone, Copy)]
enum Role {
    /// Stays alive past the crash, touches nothing.
    Filler,
    /// Dies holding `m` and `rw` (write or read per the tableau).
    DeadHolder,
    DeadCondWaiter,
    DeadBarrierArriver,
    /// Dies parked in `join` of a thread that outlives it.
    DeadJoiner,
    /// Exits before the crash (with the pool on: idles in the dead
    /// node's pool).
    EarlyExit,
    /// Queues on `m` at `at`; returns its grant time.
    LockWaiter(u64),
    /// Queues on `rw` at `at`; returns its grant time.
    RwWaiter {
        at: u64,
        write: bool,
    },
    BarrierSurvivor,
    /// Parks in `join` of the dead holder.
    JoinerOfDead,
}

/// Role of worker `i` and the node round-robin placement puts it on.
fn role(i: u64) -> (Role, u32) {
    match i {
        2 => (Role::DeadHolder, 2),
        6 => (Role::DeadCondWaiter, 2),
        10 => (Role::DeadBarrierArriver, 2),
        14 => (Role::DeadJoiner, 2),
        17 => (Role::EarlyExit, 2),
        1 => (Role::LockWaiter(40 * MS), 1),
        3 => (Role::LockWaiter(42 * MS), 3),
        5 => (
            Role::RwWaiter {
                at: 40 * MS,
                write: true,
            },
            1,
        ),
        7 => (
            Role::RwWaiter {
                at: 44 * MS,
                write: false,
            },
            3,
        ),
        9 => (
            Role::RwWaiter {
                at: 45 * MS,
                write: false,
            },
            1,
        ),
        11 | 15 => (Role::BarrierSurvivor, 3),
        13 => (Role::JoinerOfDead, 1),
        _ => (Role::Filler, u32::MAX),
    }
}

/// Computes until absolute simulated time `t`.
fn until(p: &Pth, t: u64) {
    p.compute(t.saturating_sub(p.sim.now().as_nanos()));
}

fn tableau_worker(p: &Pth, x: Ctx, i: u64, dead_reader: bool) -> u64 {
    let (role, node) = role(i);
    if node != u32::MAX {
        assert_eq!(p.node().0, node, "worker {i} placed off its scripted node");
    }
    match role {
        Role::Filler => until(p, 100 * MS),
        Role::DeadHolder => {
            p.mutex_lock(x.m);
            if dead_reader {
                p.rwlock_rdlock(x.rw);
            } else {
                p.rwlock_wrlock(x.rw);
            }
            p.compute(200 * MS);
            // Its clock sprinted past the crash. The cancellation poll
            // orders it behind everyone else's earlier operations, then
            // the first crash checkpoint (the read) unwinds it, holds
            // and all.
            p.test_cancel().unwrap();
            p.read::<u64>(x.cell());
            unreachable!("worker {i} outlived its node");
        }
        Role::DeadCondWaiter => {
            p.mutex_lock(x.mc);
            let _ = p.cond_wait(x.cv_never, x.mc);
        }
        // The fourth participant is the dead holder, which never arrives.
        Role::DeadBarrierArriver => p.barrier(x.bar, 4),
        Role::BarrierSurvivor => {
            p.barrier(x.bar, 4);
            return p.sim.now().as_nanos();
        }
        Role::DeadJoiner => {
            // Worker 0 is a filler on the master.
            p.join(CtId(p.read::<u64>(x.ct_slot(0))));
        }
        Role::EarlyExit => p.compute(MS),
        Role::LockWaiter(at) => {
            until(p, at);
            p.mutex_lock(x.m);
            let v = p.read::<u64>(x.counter());
            p.write::<u64>(x.counter(), v + 1);
            let at = p.sim.now().as_nanos();
            p.mutex_unlock(x.m);
            return at;
        }
        Role::RwWaiter { at, write } => {
            until(p, at);
            if write {
                p.rwlock_wrlock(x.rw);
                p.write::<u64>(x.cell(), 9);
            } else {
                p.rwlock_rdlock(x.rw);
                assert_eq!(p.read::<u64>(x.cell()), 9, "reader ran before the writer");
            }
            let at = p.sim.now().as_nanos();
            p.compute(100 * US);
            p.rwlock_unlock(x.rw);
            return at;
        }
        Role::JoinerOfDead => {
            until(p, 45 * MS);
            let v = p.join(CtId(p.read::<u64>(x.ct_slot(2))));
            assert_eq!(v, CRASHED_RET);
            return p.sim.now().as_nanos();
        }
    }
    i
}

/// Every thread a crash hand-off grants to exits without parking again,
/// and main only joins: the cell then runs the same with or without the
/// stale second wake the parent tree left on crash grantees (see
/// `crash_grantees_park_again_cleanly`).
fn tableau(pth: &Pth, dead_reader: bool) -> Vec<u64> {
    let x = Ctx::new(pth);
    let kids: Vec<CtId> = (0..WORKERS)
        .map(|i| {
            let k = pth.create(move |p| tableau_worker(p, x, i, dead_reader));
            pth.write::<u64>(x.ct_slot(i), k.0);
            k
        })
        .collect();
    let rets: Vec<u64> = kids.into_iter().map(|k| pth.join(k)).collect();
    assert_eq!(pth.read::<u64>(x.counter()), 2, "both lock waiters ran");
    rets
}

fn crash_cell(dead_reader: bool, thread_pool: bool) -> Cell {
    Cell {
        // One processor per thread on the master too, where the crash
        // monitor takes the sixth.
        cpus: 6,
        cfg: CablesConfig {
            thread_pool,
            pre_attach: 4,
            max_threads_per_node: 5,
            ..CablesConfig::paper()
        },
        chaos: Some((
            0x5EED,
            FaultPlan::new()
                .wire(WireFaults {
                    drop_p: 0.02,
                    dup_p: 0.02,
                    jitter_ns: 1_500,
                    ..WireFaults::default()
                })
                .crash(CRASH_NODE, CRASH_AT),
        )),
        program: Program::Tableau { dead_reader },
    }
}

/// Join values of the dead are `CRASHED_RET`, of fillers their index;
/// everything else is pinned per cell.
fn assert_casualties(o: &Observed) {
    for i in 0..WORKERS {
        match role(i) {
            (Role::Filler | Role::EarlyExit, _) => assert_eq!(o.rets[i as usize], i),
            (_, CRASH_NODE) => assert_eq!(o.rets[i as usize], CRASHED_RET, "worker {i}"),
            _ => {}
        }
    }
    let (crashes, recoveries, ref latency) = *o.chaos.as_ref().expect("chaos attached");
    assert_eq!((crashes, recoveries, latency.len()), (1, 1, 1));
}

fn show(name: &str, o: &Observed) {
    if std::env::var_os("PINNED_SHOW").is_some() {
        eprintln!("{name}: {o:#?}");
    }
}

#[test]
fn clean_tour_matches_pinned_goldens() {
    let o = run(Cell {
        cpus: 2,
        cfg: CablesConfig {
            thread_pool: true,
            ..CablesConfig::paper()
        },
        chaos: None,
        program: Program::Tour,
    });
    show("clean_tour", &o);
    assert_eq!(o, golden_tour());
}

#[test]
fn crash_with_dead_writer_matches_pinned_goldens() {
    let o = run(crash_cell(false, false));
    show("dead_writer", &o);
    assert_casualties(&o);
    assert_eq!(o, golden_dead_writer());
}

/// Not pinned on the parent tree: there the dead reader's hold leaks and
/// the engine reports the waiting writer's deadlock.
#[test]
fn crash_with_dead_reader_promotes_the_waiting_writer() {
    let o = run(crash_cell(true, false));
    show("dead_reader", &o);
    assert_casualties(&o);
    // A read hold and a write hold cost the same to take and to recover:
    // the cell lands on the dead-writer goldens to the nanosecond.
    assert_eq!(o, golden_dead_writer());
}

/// Not pinned on the parent tree: there every crash grantee was woken
/// twice, and the stale second wake made its next park return at once —
/// with the pool on, "pooled thread woken without a job".
#[test]
fn crash_grantees_park_again_cleanly() {
    let o = run(crash_cell(false, true));
    show("pooled", &o);
    assert_casualties(&o);
}

#[test]
fn side_paths_match_pinned_goldens() {
    let o = run(Cell {
        cpus: 2,
        cfg: CablesConfig {
            auto_detach: true,
            ..CablesConfig::paper()
        },
        chaos: None,
        program: Program::Sides,
    });
    show("sides", &o);
    assert_eq!(o, golden_sides());
}

fn golden_tour() -> Observed {
    Observed { end_ns: 11070130886, rets: vec![0, 1100, 2007, 3284, 4007, 5000, 6008, 2, 1], rt: "RtStats { local_creates: 1, remote_creates: 7, nodes_attached: 3, nodes_detached: 0, joins: 10, cancels: 1, cond_waits: 7, cond_signals: 1, cond_broadcasts: 1, mallocs: 1, frees: 0, pooled_dispatches: 2 }".into(), contention: "ContentionStats { mutex_waits: 39, mutex_wait_ns: 20095674, mutex_max_waiters: 8, cond_waits: 6, cond_wait_ns: 47390461, cond_max_waiters: 5, barrier_waits: 48, barrier_wait_ns: 33571040492, barrier_max_waiters: 8, rw_waits: 6, rw_wait_ns: 1947892, rw_max_waiters: 5 }".into(), ops: vec![(10, 1103146913), (10, 307700), (36, 532109), (34, 11647), (7, 6912065), (1, 38501), (1, 9000), (48, 699396676), (1, 7000), (0, 0)], nodes: "NodeStats { read_faults: 15, write_faults: 29, remote_fetches: 16, fetch_bytes: 65536, diffs_sent: 21, diff_bytes: 168, notices_applied: 15, placements: 1, migrations: 0, lock_acquires: 41, barrier_waits: 48, diff_batches: 0, batched_diff_bytes: 0 }".into(), edges: (461, 9743236524895054402), recovery: vec![], chaos: None }
}

fn golden_dead_writer() -> Observed {
    Observed { end_ns: 212632214, rets: vec![0, 60015030, 125, 60236862, 4, 60016015, 125, 60155062, 8, 60137204, 125, 60008800, 12, 60000000, 125, 60007800, 16, 17], rt: "RtStats { local_creates: 4, remote_creates: 14, nodes_attached: 0, nodes_detached: 1, joins: 19, cancels: 0, cond_waits: 1, cond_signals: 0, cond_broadcasts: 0, mallocs: 1, frees: 0, pooled_dispatches: 0 }".into(), contention: "ContentionStats { mutex_waits: 4, mutex_wait_ns: 38150539, mutex_max_waiters: 2, cond_waits: 0, cond_wait_ns: 0, cond_max_waiters: 1, barrier_waits: 2, barrier_wait_ns: 76628900, barrier_max_waiters: 3, rw_waits: 4, rw_wait_ns: 51315347, rw_max_waiters: 3 }".into(), ops: vec![(18, 810574), (19, 4734121), (4, 9537634), (2, 16629), (0, 0), (0, 0), (0, 0), (2, 38314450), (1, 7000), (0, 0)], nodes: "NodeStats { read_faults: 3, write_faults: 21, remote_fetches: 3, fetch_bytes: 12288, diffs_sent: 2, diff_bytes: 24, notices_applied: 1, placements: 1, migrations: 0, lock_acquires: 4, barrier_waits: 3, diff_batches: 0, batched_diff_bytes: 0 }".into(), edges: (125, 10104864910775370282), recovery: vec![(3, 60005000, 2), (13, 60007800, 1), (17, 60007800, 1), (1, 61000000, 2)], chaos: Some((1, 1, vec![1000000])) }
}

fn golden_sides() -> Observed {
    Observed { end_ns: 7280205714, rets: vec![1, 11, 11, 1, 22, 3], rt: "RtStats { local_creates: 3, remote_creates: 3, nodes_attached: 2, nodes_detached: 2, joins: 6, cancels: 0, cond_waits: 4, cond_signals: 0, cond_broadcasts: 1, mallocs: 1, frees: 0, pooled_dispatches: 0 }".into(), contention: "ContentionStats { mutex_waits: 9, mutex_wait_ns: 3696474673, mutex_max_waiters: 3, cond_waits: 4, cond_wait_ns: 14656650637, cond_max_waiters: 4, barrier_waits: 0, barrier_wait_ns: 0, barrier_max_waiters: 0, rw_waits: 0, rw_wait_ns: 0, rw_max_waiters: 0 }".into(), ops: vec![(6, 1207454952), (6, 43915), (5, 739226173), (5, 7400), (4, 3664162659), (0, 0), (1, 9000), (0, 0), (1, 7000), (0, 0)], nodes: "NodeStats { read_faults: 2, write_faults: 2, remote_fetches: 2, fetch_bytes: 8192, diffs_sent: 0, diff_bytes: 0, notices_applied: 1, placements: 1, migrations: 0, lock_acquires: 9, barrier_waits: 0, diff_batches: 0, batched_diff_bytes: 0 }".into(), edges: (54, 4684428033430509596), recovery: vec![], chaos: None }
}
