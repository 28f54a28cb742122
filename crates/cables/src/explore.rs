//! Small-scope exhaustive check of crash recovery over the two cores —
//! the runtime's [`RtState`] and the protocol's lock and barrier managers
//! (`svm::ProtoState`) — with no engine and no simulated time.
//!
//! A test-side interpreter performs the cores' effects on a model of
//! what `rt.rs`, `sync.rs` and `svm`'s `sync.rs` drive: thread states,
//! parks, wakes and crash checkpoints. The world is two nodes and three
//! threads: main `A` on the master, `B` on node 1, and `W`, node 1's
//! one-worker pool, which `A` hands one job. They share one mutex, one
//! condition, one rwlock and one barrier, each thread following a fixed
//! script. Node 1 crashes at every action boundary; the monitor's
//! recovery runs at every later one; a casualty may take up to
//! [`SPRINT`] more checkpoint-free actions (its clock ran ahead) before
//! it must die at its next checkpoint. Every interleaving is explored,
//! breadth first, so a failure prints the shortest schedule that
//! reaches it. Invariants:
//!
//! - no lock or rwlock hold of a dead thread survives its recovery or
//!   its own unwind;
//! - every wake lands on a parked thread — a waiter is woken exactly
//!   once, and no exited thread is woken;
//! - recovery unparks every thread of the dead node, and a schedule
//!   only ends with every thread finished (or idle in the pool);
//! - a joiner of a casualty sees [`CRASHED_RET`];
//! - the barrier discount equals the number of casualties.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use sim::{NodeId, SimTime, Tid};
use svm::{ProtoState, SvmConfig};

use crate::core::{Joined, Phase, RtState};
use crate::rt::{CtId, CRASHED_RET};

const MASTER: NodeId = NodeId(0);
const DOOMED: NodeId = NodeId(1);
const MUTEX: u64 = 1;
const COND: u64 = 2;
const RW: u64 = 3;
const BARRIER: u64 = 4;
/// Checkpoint-free actions a casualty may take after its node crashed.
const SPRINT: u8 = 2;
/// `B`'s return value.
const B_RET: u64 = 1;
/// `W`'s script position while it idles in the pool, or was just woken
/// there.
const POOLED: usize = usize::MAX;

/// One step of a thread's script. `Lock`/`Release`/`Unlock` is the mutex
/// (the unlock is two steps: the RC release takes simulated time, so the
/// crash may fall between them); `Register` is a condition wait's entry
/// (skipping the wait when the flag is set), `UnlockPark` its unlock,
/// after which it parks and, woken, re-locks and re-checks the flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Lock,
    Release,
    Unlock,
    Register { skip: usize },
    UnlockPark,
    Signal,
    RdLock,
    WrLock,
    RwUnlock,
    Barrier,
    Dispatch,
    Join,
    Exit,
}

impl Op {
    /// Whether the interpreter reaches a crash checkpoint before the
    /// step's transition (a casualty cannot take it).
    fn checkpoint_first(self) -> bool {
        !matches!(
            self,
            Op::Register { .. } | Op::RdLock | Op::WrLock | Op::Exit
        )
    }
}

/// `A` signals under the mutex, hands `W` its job, then takes the rwlock
/// for writing, meets `B` at the barrier and joins it.
const SCRIPT_A: &[Op] = &[
    Op::Lock,
    Op::Signal,
    Op::Release,
    Op::Unlock,
    Op::Dispatch,
    Op::WrLock,
    Op::RwUnlock,
    Op::Barrier,
    Op::Join,
];
/// `B` holds a read lock across a condition wait for `A`'s flag.
const SCRIPT_B: &[Op] = &[
    Op::RdLock,
    Op::Lock,
    Op::Register { skip: 5 },
    Op::Release,
    Op::UnlockPark,
    Op::Release,
    Op::Unlock,
    Op::RwUnlock,
    Op::Barrier,
    Op::Exit,
];
/// `W`'s job.
const SCRIPT_W: &[Op] = &[Op::RdLock, Op::RwUnlock, Op::Exit];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Run {
    Ready,
    /// Parked in a queue, waiting for its one wake.
    Parked,
    /// Woken, not yet past its crash checkpoint.
    Woken,
    /// An idle pooled worker (parked, not through `park`).
    Idle,
    Exited,
    /// Unwound at a crash checkpoint.
    Dead,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Thread {
    tid: Tid,
    node: NodeId,
    script: &'static [Op],
    pc: usize,
    run: Run,
    sprint: u8,
    /// Its thread id is running (for `W`: a job was dispatched to it).
    running: bool,
    /// Its thread id was retired by the node's recovery.
    recovered: bool,
    /// Woken between a condition wait's registration and its park: the
    /// park returns at once.
    pending: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Step(usize),
    Resume(usize),
    Checkpoint(usize),
    Crash,
    Recover,
}

#[derive(Clone)]
struct World {
    rt: RtState,
    svm: ProtoState,
    th: [Thread; 3],
    flag: bool,
    crashed: bool,
    recovered: bool,
    casualties: u64,
    /// `B` retired itself with its own value (before any recovery).
    b_exited: bool,
}

type Check = Result<(), String>;

const A: usize = 0;
const B: usize = 1;
const W: usize = 2;
const NAME: [&str; 3] = ["A", "B", "W"];

impl World {
    fn new() -> Self {
        let thread = |tid, node, script| Thread {
            tid: Tid(tid),
            node,
            script,
            pc: 0,
            run: Run::Ready,
            sprint: 0,
            running: true,
            recovered: false,
            pending: false,
        };
        let mut rt = RtState::new(0);
        let mut th = [
            thread(1, MASTER, SCRIPT_A),
            thread(2, DOOMED, SCRIPT_B),
            thread(3, DOOMED, SCRIPT_W),
        ];
        rt.start(MASTER, &[MASTER, DOOMED], 2, th[A].tid);
        rt.register(DOOMED, th[B].tid);
        // `W` finished an earlier job and idles in node 1's pool.
        let ct = rt.register(DOOMED, th[W].tid);
        rt.retire(ct, 0, SimTime::ZERO, DOOMED);
        assert!(rt.pool_idle(th[W].tid, DOOMED));
        (th[W].run, th[W].running, th[W].pc) = (Run::Idle, false, POOLED);
        World {
            rt,
            svm: ProtoState::new(2, SvmConfig::cables(), MASTER),
            th,
            flag: false,
            crashed: false,
            recovered: false,
            casualties: 0,
            b_exited: false,
        }
    }

    fn doomed(&self, t: usize) -> bool {
        self.crashed && self.th[t].node == DOOMED
    }

    fn who(&self, tid: Tid) -> usize {
        self.th
            .iter()
            .position(|t| t.tid == tid)
            .expect("a model thread")
    }

    fn wake(&mut self, tid: Tid) -> Check {
        let t = self.who(tid);
        match self.th[t].run {
            Run::Parked | Run::Idle => {
                self.th[t].run = Run::Woken;
                Ok(())
            }
            Run::Exited | Run::Dead => Err(format!("woke exited {}", NAME[t])),
            Run::Ready if self.registered(t) && !self.th[t].pending => {
                self.th[t].pending = true;
                Ok(())
            }
            Run::Ready | Run::Woken => Err(format!("woke {} twice", NAME[t])),
        }
    }

    /// Whether thread `t` is queued on the condition but not parked yet.
    fn registered(&self, t: usize) -> bool {
        let th = &self.th[t];
        let at = |i: usize| th.script.get(i) == Some(&Op::UnlockPark);
        at(th.pc) || at(th.pc + 1)
    }

    fn wake_all(&mut self, tids: impl IntoIterator<Item = Tid>) -> Check {
        tids.into_iter().try_for_each(|tid| self.wake(tid))
    }

    fn holds_nothing(&self, tid: Tid) -> Check {
        let t = self.who(tid);
        let rw = self.rt.rwlocks.get(&RW);
        let reads = rw.is_some_and(|r| r.readers.0.iter().any(|h| h.0 == tid));
        if self.svm.lock_holder(MUTEX) == Some(tid) {
            return Err(format!("dead {} still holds the mutex", NAME[t]));
        }
        if rw.is_some_and(|r| r.writer == Some(tid)) || reads {
            return Err(format!("dead {} still holds the rwlock", NAME[t]));
        }
        Ok(())
    }

    fn enabled(&self) -> Vec<Act> {
        let mut acts = Vec::new();
        if !self.crashed {
            acts.push(Act::Crash);
        } else if !self.recovered {
            acts.push(Act::Recover);
        }
        for (t, th) in self.th.iter().enumerate() {
            let doomed = self.doomed(t);
            match th.run {
                Run::Ready if th.pc < th.script.len() => {
                    if doomed {
                        acts.push(Act::Checkpoint(t));
                    }
                    let op = th.script[th.pc];
                    if !doomed || (th.sprint > 0 && !op.checkpoint_first()) {
                        acts.push(Act::Step(t));
                    }
                }
                // A pooled worker woken from idle has no checkpoint to pass.
                Run::Woken if doomed && th.pc != POOLED => acts.push(Act::Checkpoint(t)),
                Run::Woken => acts.push(Act::Resume(t)),
                _ => {}
            }
        }
        acts
    }

    fn step(&mut self, act: Act) -> Check {
        match act {
            Act::Crash => {
                self.crashed = true;
                for th in self.th.iter_mut().filter(|th| th.node == DOOMED) {
                    th.sprint = SPRINT;
                }
                Ok(())
            }
            Act::Recover => self.recover(),
            Act::Checkpoint(t) => self.unwind(t),
            Act::Resume(t) => self.resume(t),
            Act::Step(t) => {
                if self.doomed(t) {
                    self.th[t].sprint -= 1;
                }
                self.op(t)
            }
        }
    }

    /// `recover_crash`.
    fn recover(&mut self) -> Check {
        self.recovered = true;
        let rec = self.rt.crash(DOOMED, SimTime::ZERO, None);
        let c = self.svm.crash(&rec.dead, rec.forgive, true);
        for th in self.th.iter_mut() {
            if th.node == DOOMED && th.running && th.run != Run::Dead {
                th.recovered = true;
                self.casualties += 1;
            }
        }
        for (_, (tid, _)) in c.grants {
            self.wake(tid)?;
        }
        self.wake_all(rec.rw_grants.iter().map(|g| g.0))?;
        for (_, (waiters, _)) in c.opened {
            self.wake_all(waiters.0.iter().map(|w| w.0))?;
        }
        let mut wakes = rec.wakes;
        wakes.extend(c.parked);
        wakes.sort_unstable_by_key(|t| t.0);
        wakes.dedup_by_key(|t| t.0);
        self.wake_all(wakes)?;
        for &tid in &rec.dead {
            self.holds_nothing(tid)?;
        }
        let parked = |th: &&Thread| matches!(th.run, Run::Parked | Run::Idle);
        match self.th.iter().filter(|th| th.node == DOOMED).find(parked) {
            Some(th) => Err(format!(
                "{} stays parked on the dead node",
                NAME[self.who(th.tid)]
            )),
            None => Ok(()),
        }
    }

    /// `thread_crashed`: thread `t` dies at its crash checkpoint.
    fn unwind(&mut self, t: usize) -> Check {
        let (tid, node) = (self.th[t].tid, self.th[t].node);
        let ct = self.rt.ct_of(tid);
        let rec = self.rt.crash(node, SimTime::ZERO, Some((ct, tid)));
        let c = self.svm.crash(&rec.dead, rec.forgive, false);
        if self.th[t].running && !self.th[t].recovered {
            self.casualties += 1;
        }
        self.th[t].run = Run::Dead;
        for (_, (tid, _)) in c.grants {
            self.wake(tid)?;
        }
        self.wake_all(rec.rw_grants.iter().map(|g| g.0))?;
        self.wake_all(rec.wakes)?;
        self.holds_nothing(tid)
    }

    /// A woken thread continues past its park's checkpoint.
    fn resume(&mut self, t: usize) -> Check {
        let th = self.th[t];
        self.th[t].run = Run::Ready;
        if th.pc == POOLED {
            // Woken from idle: by a dispatch, or by the dead node's
            // recovery (then it just leaves).
            if self.crashed {
                self.th[t].run = Run::Exited;
                return Ok(());
            }
            let ct = self.rt.pool_resume(th.tid).expect("pool open");
            let rec = &self.rt.threads[&ct.0];
            assert_eq!(rec.phase, Phase::Running, "dispatched job not running");
            self.th[t].pc = 0;
            return Ok(());
        }
        let rw = self.rt.rwlocks.get(&RW);
        let granted = match th.script[th.pc] {
            Op::Lock => self.svm.lock_holder(MUTEX) == Some(th.tid),
            Op::RdLock => rw.is_some_and(|r| r.readers.0.iter().any(|h| h.0 == th.tid)),
            Op::WrLock => rw.is_some_and(|r| r.writer == Some(th.tid)),
            Op::UnlockPark => {
                // Signalled: re-lock and re-check the flag.
                self.th[t].pc = 1;
                return Ok(());
            }
            Op::Join => return Ok(()),
            _ => true,
        };
        if !granted {
            return Err(format!("{} woken without its grant", NAME[t]));
        }
        self.th[t].pc += 1;
        Ok(())
    }

    /// Thread `t` performs the step at its `pc`.
    fn op(&mut self, t: usize) -> Check {
        let Thread { tid, node, pc, .. } = self.th[t];
        let op = self.th[t].script[pc];
        self.th[t].pc += 1;
        // A parked thread stays at its step until it resumes.
        let park = |w: &mut World| (w.th[t].pc, w.th[t].run) = (pc, Run::Parked);
        match op {
            Op::Lock => {
                if !self.svm.lock(MUTEX, tid, node, true).granted {
                    park(self);
                }
            }
            Op::Release => {}
            Op::Unlock | Op::UnlockPark => {
                if let Some((to, _)) = self.svm.unlock(MUTEX, tid) {
                    self.wake(to.0)?;
                }
                if op == Op::UnlockPark {
                    park(self);
                    if std::mem::take(&mut self.th[t].pending) {
                        self.th[t].run = Run::Woken;
                    }
                }
            }
            Op::Register { skip } => match self.flag {
                true => self.th[t].pc = skip,
                false => self.rt.cond_wait(COND, tid, node),
            },
            Op::Signal => {
                self.flag = true;
                let woken = self.rt.cond_wake(COND, false);
                self.wake_all(woken.into_iter().map(|w| w.0))?;
            }
            Op::RdLock | Op::WrLock => {
                if self.rt.rw_acquire(RW, tid, node, op == Op::WrLock) {
                    park(self);
                }
            }
            Op::RwUnlock => {
                let grants = self.rt.rw_release(RW, tid);
                self.wake_all(grants.into_iter().map(|g| g.0))?;
            }
            Op::Barrier => match self.svm.arrive(BARRIER, tid, node, 2, SimTime::ZERO) {
                None => park(self),
                Some((waiters, _)) => self.wake_all(waiters.0.iter().map(|w| w.0))?,
            },
            Op::Dispatch => {
                let worker = match self.rt.attached.contains(&DOOMED) {
                    true => self.rt.pool_take(DOOMED),
                    false => None,
                };
                if let Some(w) = worker {
                    self.rt.dispatch(DOOMED, w);
                    self.th[W].running = true;
                    self.wake(w)?;
                }
            }
            Op::Join => match self.rt.join(CtId(1), tid, node) {
                Joined::Parked => park(self),
                Joined::Finished { ret, .. } => {
                    let want = if self.b_exited { B_RET } else { CRASHED_RET };
                    if ret != want {
                        return Err(format!("join of B returned {ret}, want {want}"));
                    }
                }
            },
            Op::Exit => {
                let ct = self.rt.ct_of(tid);
                let retired = self.rt.retire(ct, B_RET, SimTime::ZERO, node);
                if t == B && !self.recovered {
                    self.b_exited = true;
                }
                if let Some((joiners, _)) = retired {
                    self.wake_all(joiners.0.iter().map(|w| w.0))?;
                }
                self.th[t].running = false;
                if t == W && self.rt.pool_idle(tid, node) {
                    (self.th[t].run, self.th[t].pc) = (Run::Idle, POOLED);
                } else {
                    self.th[t].run = Run::Exited;
                }
            }
        }
        Ok(())
    }

    /// The invariants every state keeps, and a final state's.
    fn check(&self, last: bool) -> Check {
        if self.svm.forgiven != self.casualties {
            let (d, c) = (self.svm.forgiven, self.casualties);
            return Err(format!("barrier discount {d} for {c} casualties"));
        }
        if !last {
            return Ok(());
        }
        let done = |(t, th): (usize, &Thread)| match th.run {
            Run::Exited | Run::Dead => true,
            // Teardown drains the pool. A worker idles on a dead node
            // only when it finished a job its node's recovery had
            // already retired (the recovery itself unparks every idler).
            Run::Idle => true,
            Run::Ready => t == A && th.pc == th.script.len(),
            Run::Parked | Run::Woken => false,
        };
        match self.th.iter().enumerate().find(|th| !done(*th)) {
            Some((t, th)) => Err(format!(
                "{} never finishes ({:?} at {})",
                NAME[t], th.run, th.pc
            )),
            None => Ok(()),
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{:?}{:?}", self.rt, self.svm).hash(&mut h);
        self.th.hash(&mut h);
        (self.flag, self.crashed, self.recovered).hash(&mut h);
        (self.casualties, self.b_exited).hash(&mut h);
        h.finish()
    }
}

/// Explores every schedule breadth first: the number of distinct states,
/// or the shortest failing schedule.
fn explore() -> Result<usize, Vec<String>> {
    let start = World::new();
    let mut seen = HashSet::from([start.fingerprint()]);
    // Schedules as `(parent, action)` links; the queue holds their ends.
    let mut links: Vec<(usize, String)> = vec![(0, String::new())];
    let mut queue = VecDeque::from([(start, 0)]);
    let trace = |links: &Vec<(usize, String)>, mut at: usize, why: String| {
        let mut steps = vec![why];
        while at != 0 {
            steps.push(links[at].1.clone());
            at = links[at].0;
        }
        steps.reverse();
        steps
    };
    while let Some((w, at)) = queue.pop_front() {
        let acts = w.enabled();
        if let Err(why) = w.check(acts.is_empty()) {
            return Err(trace(&links, at, why));
        }
        for act in acts {
            let mut next = w.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| next.step(act))).unwrap_or_else(|e| {
                let msg = e.downcast_ref::<String>().cloned();
                let msg = msg.or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()));
                Err(format!("panicked: {}", msg.unwrap_or_default()))
            });
            let label = match act {
                Act::Step(t) => {
                    let th = &w.th[t];
                    format!("{} {:?}", NAME[t], th.script[th.pc])
                }
                Act::Resume(t) => format!("{} resumes", NAME[t]),
                Act::Checkpoint(t) => format!("{} dies at its checkpoint", NAME[t]),
                Act::Crash => "node 1 crashes".into(),
                Act::Recover => "recovery".into(),
            };
            if let Err(why) = outcome {
                links.push((at, label));
                return Err(trace(&links, links.len() - 1, why));
            }
            if seen.insert(next.fingerprint()) {
                links.push((at, label));
                queue.push_back((next, links.len() - 1));
            }
        }
    }
    Ok(seen.len())
}

#[test]
fn crash_recovery_keeps_every_invariant_at_every_crash_instant() {
    match explore() {
        Ok(states) => assert!(states > 1_000, "explored only {states} states"),
        Err(trace) => panic!(
            "crash recovery invariant violated after:\n  {}",
            trace.join("\n  ")
        ),
    }
}
