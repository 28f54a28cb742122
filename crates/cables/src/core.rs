//! The runtime's decisions, as a sans-I/O state machine: [`RtState`] is
//! the application control block (ACB) — threads, nodes, the condition,
//! join, rwlock and idle-pool queues, the allocator, the counters — and
//! its `&mut self` transitions return what must happen next (a thread id,
//! a placement, the threads to wake, a [`Recovery`]). `rt.rs` and
//! `sync.rs` perform every effect, in order; no transition spans a
//! scheduling point. The lock and barrier managers are `svm`'s
//! `ProtoState`; crash recovery calls both cores.

use std::collections::BTreeMap;

use memsim::GAddr;
use sim::{IdMap, NodeId, SimTime, Tid};
use svm::WaitQueue;

use crate::rt::{ContentionStats, CtId, OpKind, OpTimes, RtStats, CRASHED_RET};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Running,
    Finished(u64),
}

#[derive(Debug, Clone)]
pub(crate) struct ThreadRec {
    pub sim_tid: Tid,
    pub phase: Phase,
    pub exit_time: SimTime,
    /// Node the thread runs on, or ran on once `phase` is `Finished`.
    pub exit_node: NodeId,
    pub cancel_requested: bool,
}

/// ACB state of one read/write lock. Holds are owner-tracked — the reader
/// set is a queue of threads, one entry per hold — so crash recovery can
/// release a dead reader's hold like a dead writer's.
#[derive(Debug, Default, Clone)]
pub(crate) struct RwState {
    pub writer: Option<Tid>,
    pub readers: WaitQueue,
    /// Waiters, tagged `wants_write`.
    pub waiters: WaitQueue<bool>,
}

impl RwState {
    /// The grant decision, shared by `rw_release` and crash recovery:
    /// once nobody holds the lock the head of the queue gets it — a
    /// writer alone, a reader with the whole run of readers behind it.
    fn promote(&mut self) -> Vec<(Tid, NodeId)> {
        let mut grants = Vec::new();
        if self.writer.is_some() || !self.readers.0.is_empty() {
            return grants;
        }
        while let Some(&(tid, node, write)) = self.waiters.0.front() {
            if write && !grants.is_empty() {
                break;
            }
            self.waiters.0.pop_front();
            grants.push((tid, node));
            if write {
                self.writer = Some(tid);
                break;
            }
            self.readers.push(tid, node, ());
        }
        grants
    }
}

/// A synchronization class with contention counters (`Lock`: a pthreads
/// mutex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    Lock,
    Cond,
    Barrier,
    Rw,
}

/// A join, decided: the thread has finished (its value, exit time, node
/// and engine id), or the caller is queued as a joiner and parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Joined {
    Finished {
        ret: u64,
        at: SimTime,
        node: NodeId,
        tid: Tid,
    },
    Parked,
}

/// What the runtime must perform after a crash ([`RtState::crash`]):
/// the `dead` in thread-id order (the threads a node's recovery retired,
/// or the one that unwound), the barrier arrivals to `forgive` (one per
/// thread this crash retired), the threads to wake (dead ones parked in
/// a runtime queue, joiners of the retired, the dead node's idle pooled
/// workers) and the rwlock grants the dead holds were blocking.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Recovery {
    pub dead: Vec<Tid>,
    pub forgive: u64,
    pub wakes: Vec<Tid>,
    pub rw_grants: Vec<(Tid, NodeId)>,
}

#[derive(Debug, Clone, Default)]
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
    pub pool_shutdown: bool,
    pub tsd: IdMap<(u64, u64), u64>,
    pub next_tsd_key: u64,
    pub global_next: u64,
    pub free_list: BTreeMap<u64, u64>,
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
    /// An empty control block; global allocations start at `global_base`.
    pub fn new(global_base: u64) -> Self {
        RtState {
            global_next: global_base,
            ..RtState::default()
        }
    }

    /// `pthread_start`: the master and the first `pre_attach` of `nodes`
    /// are attached, and `tid` is the initial thread.
    pub fn start(&mut self, master: NodeId, nodes: &[NodeId], pre_attach: usize, tid: Tid) -> CtId {
        assert!(self.attached.is_empty(), "pthread_start called twice");
        self.attach(master);
        // Warm deployments start with their node set attached (the
        // multi-second attach handshakes were paid before this run).
        for &node in nodes {
            if self.attached.len() >= pre_attach {
                break;
            }
            if node != master {
                self.attach(node);
            }
        }
        self.register(master, tid)
    }

    /// A running thread `tid` on `node` gets the next thread id.
    pub fn register(&mut self, node: NodeId, tid: Tid) -> CtId {
        let ct = self.next_ct;
        self.next_ct += 1;
        *self.threads_on.entry(node.0).or_insert(0) += 1;
        let rec = ThreadRec {
            sim_tid: tid,
            phase: Phase::Running,
            exit_time: SimTime::ZERO,
            exit_node: node,
            cancel_requested: false,
        };
        self.threads.insert(ct, rec);
        self.by_tid.insert(tid.0, ct);
        CtId(ct)
    }

    /// The thread id engine thread `tid` runs now.
    pub fn ct_of(&self, tid: Tid) -> CtId {
        CtId(self.by_tid[&tid.0])
    }

    /// The node a create beside `ct` lands on: `ct`'s, while it runs.
    /// Panics if `ct` was never created.
    pub fn beside(&self, ct: CtId) -> Option<NodeId> {
        let rec = self
            .threads
            .get(&ct.0)
            .expect("create beside an unknown thread");
        (rec.phase == Phase::Running).then_some(rec.exit_node)
    }

    pub fn attach(&mut self, node: NodeId) {
        self.attached.push(node);
        self.threads_on.entry(node.0).or_insert(0);
    }

    /// `node` leaves the application; true when it was attached.
    pub fn detach(&mut self, node: NodeId) -> bool {
        let before = self.attached.len();
        self.attached.retain(|n| *n != node);
        self.attached.len() != before
    }

    /// Picks a node for a new thread: round-robin over attached nodes
    /// with fewer than `cap` threads — with `affinity`, the eligible node
    /// with the most home fetches `pull` first, then the fullest — and
    /// else the first of `nodes` neither attached nor `crashed` (to be
    /// attached: the flag), else round-robin over capacity.
    pub fn place(
        &mut self,
        nodes: &[NodeId],
        cap: usize,
        affinity: Option<&[u64]>,
        crashed: impl Fn(NodeId) -> bool,
    ) -> (NodeId, bool) {
        let n = self.attached.len();
        // With affinity, a two-level score: nodes that served the most
        // demand fetches as a home first (threads follow the data), then
        // the fullest node with spare capacity (pack). Packing co-locates
        // consecutively created threads — SPLASH ranks and per-shard
        // worker pools are spawned in sharing order, so spawn adjacency
        // is the cold-start sharing prior. Without, every score ties and
        // the first node with spare capacity wins.
        let mut best: Option<((u64, usize), usize)> = None;
        for idx in (0..n).map(|i| (self.rr + i) % n) {
            let node = self.attached[idx];
            let occ = *self.threads_on.get(&node.0).unwrap_or(&0);
            let pull = |p: &[u64]| (p.get(node.0 as usize).copied().unwrap_or(0), occ);
            let score = affinity.map_or((0, 0), pull);
            if occ < cap && best.is_none_or(|(b, _)| score > b) {
                best = Some((score, idx));
            }
        }
        if let Some((_, idx)) = best {
            self.rr = (idx + 1) % n;
            return (self.attached[idx], false);
        }
        // All attached nodes full: attach the next cluster node, or
        // oversubscribe round-robin if none is left.
        let spare = nodes
            .iter()
            .find(|n| !self.attached.contains(n) && !crashed(**n));
        if let Some(&node) = spare {
            return (node, true);
        }
        let node = self.attached[self.rr % n];
        self.rr = (self.rr + 1) % n;
        (node, false)
    }

    /// Marks `ct` finished with `ret` at `at` on `node` and frees its slot
    /// there: its joiners, and the threads `node` has left. `None` when
    /// it had already finished — a crash recovery and the casualty's own
    /// unwind both retire it, and whichever runs first does the work.
    pub fn retire(
        &mut self,
        ct: CtId,
        ret: u64,
        at: SimTime,
        node: NodeId,
    ) -> Option<(WaitQueue, usize)> {
        let rec = self.threads.get_mut(&ct.0).expect("thread registered");
        if matches!(rec.phase, Phase::Finished(_)) {
            return None;
        }
        rec.phase = Phase::Finished(ret);
        rec.exit_time = at;
        rec.exit_node = node;
        let joiners = self.joiners.remove(&ct.0).unwrap_or_default();
        let cnt = self.threads_on.entry(node.0).or_insert(0);
        *cnt = cnt.saturating_sub(1);
        Some((joiners, *cnt))
    }

    /// `global_malloc` of `bytes` at `align`: the first fit on the free
    /// list, split off and recorded as allocated, or `None` when the
    /// block must come from fresh heap (recorded by the caller).
    pub fn malloc(&mut self, bytes: u64, align: u64) -> Option<u64> {
        self.stats.mallocs += 1;
        let fits = |(&start, &size): (&u64, &u64)| {
            let aligned = GAddr::new(start).align_up(align).raw();
            let pad = aligned - start;
            (size >= pad + bytes).then_some((start, size, aligned, pad))
        };
        let (start, size, aligned, pad) = self.free_list.iter().find_map(fits)?;
        self.free_list.remove(&start);
        if pad > 0 {
            self.free_list.insert(start, pad);
        }
        let tail = size - pad - bytes;
        if tail > 0 {
            self.free_list.insert(aligned + bytes, tail);
        }
        self.allocated.insert(aligned, bytes);
        Some(aligned)
    }

    /// `global_free` of the block at `addr`, coalesced with its free
    /// neighbours; `None` (and nothing changed) when no block starts there.
    pub fn free(&mut self, addr: u64) -> Option<()> {
        self.stats.frees += 1;
        let (mut start, mut size) = (addr, self.allocated.remove(&addr)?);
        if let Some((&prev, &psize)) = self.free_list.range(..start).next_back() {
            if prev + psize == start {
                self.free_list.remove(&prev);
                (start, size) = (prev, size + psize);
            }
        }
        size += self.free_list.remove(&(start + size)).unwrap_or(0);
        self.free_list.insert(start, size);
        Some(())
    }

    /// A running thread other than `me`, for `pthread_end` to wait for.
    pub fn running_other_than(&self, me: Tid) -> Option<Tid> {
        let mut running = self.threads.values().filter(|t| t.phase == Phase::Running);
        running.find(|t| t.sim_tid != me).map(|t| t.sim_tid)
    }

    /// `tid` on `node` joins `ct`: its result, or queued as a joiner.
    /// Panics if `ct` was never created.
    pub fn join(&mut self, ct: CtId, tid: Tid, node: NodeId) -> Joined {
        let rec = self.threads.get(&ct.0).expect("join of unknown thread");
        if let Phase::Finished(ret) = rec.phase {
            self.stats.joins += 1;
            let (at, node, tid) = (rec.exit_time, rec.exit_node, rec.sim_tid);
            return Joined::Finished { ret, at, node, tid };
        }
        self.joiners.entry(ct.0).or_default().push(tid, node, ());
        Joined::Parked
    }

    /// `pthread_cancel(ct)`: flags a running thread once; the target to
    /// wake when it was parked in a condition wait (pulled out here).
    pub fn cancel(&mut self, ct: CtId) -> Option<Tid> {
        self.stats.cancels += 1;
        let rec = self.threads.get_mut(&ct.0)?;
        if rec.phase != Phase::Running || rec.cancel_requested {
            return None;
        }
        rec.cancel_requested = true;
        let tid = rec.sim_tid;
        let conds = self.conds.values_mut();
        conds
            .fold(false, |found, q| q.purge(tid) | found)
            .then_some(tid)
    }

    pub fn cancel_requested(&self, ct: CtId) -> bool {
        self.threads.get(&ct.0).is_some_and(|r| r.cancel_requested)
    }

    /// A fresh synchronization-object id.
    pub fn next_id(&mut self) -> u64 {
        self.next_sync_id += 1;
        self.next_sync_id
    }

    /// The most recently parked idle worker on `node`, taken.
    pub fn pool_take(&mut self, node: NodeId) -> Option<Tid> {
        let idle = self.pool_idle.get_mut(&node.0)?;
        idle.0.pop_back().map(|(tid, ..)| tid)
    }

    /// Idle worker `tid` on `node` takes a job under a new thread id.
    pub fn dispatch(&mut self, node: NodeId, tid: Tid) -> CtId {
        self.stats.pooled_dispatches += 1;
        self.register(node, tid)
    }

    /// Worker `tid` on `node` finished its job and parks idle; false
    /// when the pool is shut down and it must exit instead.
    pub fn pool_idle(&mut self, tid: Tid, node: NodeId) -> bool {
        if !self.pool_shutdown {
            self.pool_idle
                .entry(node.0)
                .or_default()
                .push(tid, node, ());
        }
        !self.pool_shutdown
    }

    /// Worker `tid` was woken by a dispatch: its thread id, or `None`
    /// when the pool is shut down.
    pub fn pool_resume(&self, tid: Tid) -> Option<CtId> {
        (!self.pool_shutdown).then(|| self.ct_of(tid))
    }

    /// Teardown: the pool closes and every idle worker is to be woken.
    pub fn pool_close(&mut self) -> Vec<Tid> {
        self.pool_shutdown = true;
        let idle = self.pool_idle.values_mut().flat_map(|q| q.0.drain(..));
        idle.map(|(tid, ..)| tid).collect()
    }

    /// Whether the crash monitor leaves now: at teardown, or when it is
    /// `done` with its plan. Either way it is forgotten.
    pub fn monitor_leaves(&mut self, done: bool) -> bool {
        let leaves = done || self.monitor_stop;
        if leaves {
            self.monitor = None;
        }
        leaves
    }

    /// `tid` on `node` registers as a waiter of `cond`.
    pub fn cond_wait(&mut self, cond: u64, tid: Tid, node: NodeId) {
        self.stats.cond_waits += 1;
        let depth = self.conds.entry(cond).or_default().push(tid, node, ());
        self.contention.cond_max_waiters = self.contention.cond_max_waiters.max(depth);
    }

    /// A timed-out waiter deregisters.
    pub fn cond_timeout(&mut self, cond: u64, tid: Tid) {
        if let Some(q) = self.conds.get_mut(&cond) {
            q.purge(tid);
        }
    }

    /// Signal (the head waiter) or broadcast (`all`): the waiters to wake.
    pub fn cond_wake(&mut self, cond: u64, all: bool) -> Vec<(Tid, NodeId)> {
        match all {
            true => self.stats.cond_broadcasts += 1,
            false => self.stats.cond_signals += 1,
        }
        let Some(q) = self.conds.get_mut(&cond) else {
            return Vec::new();
        };
        let n = if all { q.0.len() } else { q.0.len().min(1) };
        q.0.drain(..n).map(|(tid, node, ())| (tid, node)).collect()
    }

    /// `tid` on `node` asks for rwlock `id`: read and write differ in the
    /// admission predicate only — a writer needs the lock idle and nobody
    /// queued, a reader needs no writer holding or queued (no writer
    /// starvation). True when it queued and parks.
    pub fn rw_acquire(&mut self, id: u64, tid: Tid, node: NodeId, write: bool) -> bool {
        let r = self.rwlocks.entry(id).or_default();
        let admit = r.writer.is_none()
            && match write {
                true => r.readers.0.is_empty() && r.waiters.0.is_empty(),
                false => r.waiters.0.iter().all(|w| !w.2),
            };
        if !admit {
            let depth = r.waiters.push(tid, node, write);
            self.contention.rw_max_waiters = self.contention.rw_max_waiters.max(depth);
        } else if write {
            r.writer = Some(tid);
        } else {
            r.readers.push(tid, node, ());
        }
        !admit
    }

    pub fn rw_writer(&self, id: u64, tid: Tid) -> bool {
        self.rwlocks.get(&id).is_some_and(|r| r.writer == Some(tid))
    }

    /// `tid` drops its write hold or one read hold of `id`: the grants.
    /// Panics if the lock is unknown or `tid` holds none of it.
    pub fn rw_release(&mut self, id: u64, tid: Tid) -> Vec<(Tid, NodeId)> {
        let r = self.rwlocks.get_mut(&id).expect("unlock of unknown rwlock");
        if r.writer == Some(tid) {
            r.writer = None;
        } else {
            assert!(r.readers.purge(tid), "rwlock unlock without a hold");
        }
        r.promote()
    }

    pub fn op(&mut self, kind: OpKind, ns: u64) {
        self.op_times.add(kind, ns);
    }

    /// A caller enters a mutex lock or a barrier.
    pub fn enter(&mut self, class: Wait) {
        let c = &mut self.contention;
        let (inflight, max) = match class {
            Wait::Lock => (&mut self.mutex_inflight, &mut c.mutex_max_waiters),
            Wait::Barrier => (&mut self.barrier_inflight, &mut c.barrier_max_waiters),
            Wait::Cond | Wait::Rw => unreachable!("{class:?} has no in-flight count"),
        };
        *inflight += 1;
        *max = (*max).max(*inflight);
    }

    /// A wait of `class` that took `ns` completed (a mutex or barrier
    /// caller also leaves its in-flight count).
    pub fn waited(&mut self, class: Wait, ns: u64) {
        let c = &mut self.contention;
        let (waits, wait_ns) = match class {
            Wait::Lock => (&mut c.mutex_waits, &mut c.mutex_wait_ns),
            Wait::Barrier => (&mut c.barrier_waits, &mut c.barrier_wait_ns),
            Wait::Cond => (&mut c.cond_waits, &mut c.cond_wait_ns),
            Wait::Rw => (&mut c.rw_waits, &mut c.rw_wait_ns),
        };
        *waits += 1;
        *wait_ns += ns;
        match class {
            Wait::Lock => self.mutex_inflight -= 1,
            Wait::Barrier => self.barrier_inflight -= 1,
            Wait::Cond | Wait::Rw => {}
        }
    }

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

    /// Releases every rwlock hold — write or read — of the `dead` and
    /// grants whoever [`RwState::promote`] admits next, exactly as a live
    /// unlock would. Sorted-id order keeps replay deterministic.
    fn rw_crash(&mut self, dead: &[Tid]) -> Vec<(Tid, NodeId)> {
        let mut locks: Vec<(&u64, &mut RwState)> = self.rwlocks.iter_mut().collect();
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
    }

    /// A crash at `at` of `node`. Its recovery (`unwound` is `None`)
    /// retires every thread running there with [`CRASHED_RET`] — lowest
    /// id first, each queue edit a per-entry purge — wakes the ones
    /// parked in a runtime queue, their joiners
    /// and the node's idle workers, and detaches the node. A thread that
    /// unwinds on its own (`unwound`: its id and engine thread), before or
    /// after the recovery, leaves the queues it registered in, and retires
    /// itself if the recovery has not. Either way the holds of the dead
    /// on rwlocks pass on. Grantees are woken by their grant alone: a
    /// second wake would sit as a stale token on their next park.
    pub fn crash(&mut self, node: NodeId, at: SimTime, unwound: Option<(CtId, Tid)>) -> Recovery {
        let mut rec = Recovery::default();
        if let Some((ct, tid)) = unwound {
            // It can die queued but not parked: a `cond_wait` registers,
            // then unlocks its mutex, and that unlock is a crash
            // checkpoint.
            self.purge_waiter(tid);
            rec.dead.push(tid);
            rec.rw_grants = self.rw_crash(&rec.dead);
            if let Some((joiners, _)) = self.retire(ct, CRASHED_RET, at, node) {
                rec.forgive = 1;
                rec.wakes.extend(joiners.0.iter().map(|w| w.0));
            }
            return rec;
        }
        let running = self
            .threads
            .iter()
            .filter(|(_, r)| r.phase == Phase::Running);
        let mut victims: Vec<(u64, Tid)> = running
            .filter(|(_, r)| r.exit_node == node)
            .map(|(ct, r)| (*ct, r.sim_tid))
            .collect();
        victims.sort_unstable();
        for &(ct, tid) in &victims {
            if self.purge_waiter(tid) {
                // It sat parked in a queue just emptied: unpark it so it
                // reaches a crash checkpoint and unwinds.
                rec.wakes.push(tid);
            }
            let (joiners, _) = self
                .retire(CtId(ct), CRASHED_RET, at, node)
                .expect("running");
            rec.wakes.extend(joiners.0.iter().map(|w| w.0));
            rec.dead.push(tid);
        }
        rec.forgive = victims.len() as u64;
        rec.rw_grants = self.rw_crash(&rec.dead);
        self.threads_on.insert(node.0, 0);
        // Workers idling in the dead node's pool have no job to die in:
        // unpark them so they see the node gone and leave.
        let idle = self.pool_idle.remove(&node.0).unwrap_or_default();
        rec.wakes.extend(idle.0.iter().map(|w| w.0));
        if self.detach(node) {
            self.stats.nodes_detached += 1;
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dead_readers_purged_hold_lets_the_last_release_promote_the_writer() {
        let mut st = RtState::new(0);
        let (n0, n1) = (NodeId(0), NodeId(1));
        let (dead, reader, writer) = (Tid(1), Tid(2), Tid(3));
        let ct = st.register(n1, dead);
        assert!(!st.rw_acquire(5, dead, n1, false));
        assert!(!st.rw_acquire(5, reader, n0, false));
        assert!(st.rw_acquire(5, writer, n0, true));

        let rec = st.crash(n1, SimTime::ZERO, None);
        assert_eq!((rec.dead, rec.forgive), (vec![dead], 1));
        assert_eq!(rec.rw_grants, vec![], "a live reader still holds");
        assert_eq!(st.rw_release(5, reader), vec![(writer, n0)]);
        assert!(st.rw_writer(5, writer));
        let again = st.retire(ct, 0, SimTime::ZERO, n1);
        assert!(again.is_none(), "retired once");
    }
}
