//! Small-scope exhaustive check of crash recovery over the synchronisation
//! interpreter — `svm`'s `sync.rs` and this crate's `sync.rs` and `rt.rs`
//! — and the two cores it drives (the runtime's [`RtState`] and the
//! protocol's lock and barrier managers, `svm::ProtoState`), with no
//! engine and no simulated time.
//!
//! The interpreter runs here unchanged: [`World`] is its effects
//! ([`SyncEffects`], [`RtEffects`]) on a model of thread states. A wake
//! lands on a modelled thread, a crash checkpoint unwinds a thread of the
//! dead node (the step that reached it stops there and `rt.rs`'s crash
//! step retires the thread), and time, the wire and obs do nothing. Each
//! script op below runs one step of a blocking call — the call's parks
//! and the ordering points where a crash may land split it — and a parked
//! thread, once woken, runs on from its park: the park's checkpoint, then
//! what follows it.
//!
//! The world is two nodes and three threads: main `A` on the master, `B`
//! on node 1, and `W`, node 1's one-worker pool, which `A` hands one job.
//! They share one mutex, one condition, one rwlock and one barrier, each
//! thread following a fixed script. `B`'s condition wait is timed: it
//! ends by a signal or, at most once per schedule, by a timeout. Node 1
//! crashes at every action boundary; the monitor's recovery runs at every
//! later one; a casualty may take up to [`SPRINT`] more steps (its clock
//! ran ahead) — a step that reaches a checkpoint kills it there — and it
//! may die at a checkpoint between two steps at any time. Every
//! interleaving is explored, breadth first, so a failure prints the
//! shortest schedule that reaches it. Invariants:
//!
//! - no lock or rwlock hold of a dead thread survives its recovery or
//!   its own unwind;
//! - every wake lands on a parked thread — a waiter is woken exactly
//!   once, and no exited or timed-out thread is woken;
//! - recovery unparks every thread of the dead node, and a schedule
//!   only ends with every thread finished (or idle in the pool);
//! - a joiner of a casualty sees [`CRASHED_RET`];
//! - the barrier discount equals the number of casualties.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::LazyLock;

use chaos::CrashUnwind;
use sim::{NodeId, SimTime, Tid};
use svm::sync::{self, SyncEffects};
use svm::{ProtoState, SvmConfig};

use crate::config::CablesConfig;
use crate::core::{Phase, RtState};
use crate::rt::{self, CtId, RtEffects, CRASHED_RET};
use crate::sync::{cond_register, cond_wake, cond_woken, rw_acquire, rw_unlock, Cond, RwLock};

const MASTER: NodeId = NodeId(0);
const DOOMED: NodeId = NodeId(1);
const MUTEX: u64 = 1;
const COND: Cond = Cond(2);
const RW: RwLock = RwLock(3);
const BARRIER: u64 = 4;
/// Steps a casualty may take after its node crashed.
const SPRINT: u8 = 2;
/// `B`'s return value.
const B_RET: u64 = 1;
/// `W`'s script position while it idles in the pool, or was just woken
/// there.
const POOLED: usize = usize::MAX;

/// The paper's runtime, with the idle pool `W` sits in.
static CFG: LazyLock<CablesConfig> = LazyLock::new(|| CablesConfig {
    thread_pool: true,
    ..CablesConfig::paper()
});

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
    /// Woken, not yet past its park's crash checkpoint.
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
    /// The thread runs the step at its script position.
    Step(usize),
    /// A woken thread runs on from its park.
    Woken(usize),
    /// A thread of the crashed node dies at a checkpoint between two
    /// steps (`Pth::compute`'s, say).
    Die(usize),
    /// `B`'s timed condition wait expires.
    Expire,
    Crash,
    /// The crash monitor runs node 1's recovery.
    Monitor,
}

#[derive(Clone)]
struct World {
    rt: RtState,
    svm: ProtoState,
    th: [Thread; 3],
    /// The thread the interpreter runs for; `None` while the crash
    /// monitor (on the master) does.
    cur: Option<usize>,
    flag: bool,
    crashed: bool,
    recovered: bool,
    casualties: u64,
    /// `B` retired itself with its own value (before any recovery).
    b_exited: bool,
    /// `B`'s condition wait timed out (at most once, so the world stays
    /// finite).
    timed_out: bool,
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
        let th = [
            thread(1, MASTER, SCRIPT_A),
            thread(2, DOOMED, SCRIPT_B),
            thread(3, DOOMED, SCRIPT_W),
        ];
        rt.start(MASTER, &[MASTER, DOOMED], 2, th[A].tid);
        rt.register(DOOMED, th[B].tid);
        let ct = rt.register(DOOMED, th[W].tid);
        let mut w = World {
            rt,
            svm: ProtoState::new(2, CFG.svm.clone(), MASTER),
            th,
            cur: Some(W),
            flag: false,
            crashed: false,
            recovered: false,
            casualties: 0,
            b_exited: false,
            timed_out: false,
        };
        // `W` finished an earlier job and idles in node 1's pool.
        assert!(rt::thread_exit(&mut w, ct, 0, true));
        (w.th[W].run, w.th[W].running, w.th[W].pc) = (Run::Idle, false, POOLED);
        w
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

    /// A wake lands on thread `tid`: it must be parked, or queued on the
    /// condition but not parked yet (its park then returns at once).
    fn land(&mut self, tid: Tid) -> Check {
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
            Run::Ready if t == B && self.timed_out => Err("woke timed-out B".into()),
            Run::Ready | Run::Woken => Err(format!("woke {} twice", NAME[t])),
        }
    }

    /// Whether thread `t` is queued on the condition but not parked yet.
    fn registered(&self, t: usize) -> bool {
        let th = &self.th[t];
        let at = |i: usize| th.script.get(i) == Some(&Op::UnlockPark);
        at(th.pc) || at(th.pc + 1)
    }

    fn holds_nothing(&self, tid: Tid) -> Check {
        let t = self.who(tid);
        let rw = self.rt.rwlocks.get(&RW.0);
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
            acts.push(Act::Monitor);
        }
        let b = &self.th[B];
        if !self.timed_out && b.run == Run::Parked && b.script[b.pc] == Op::UnlockPark {
            acts.push(Act::Expire);
        }
        for (t, th) in self.th.iter().enumerate() {
            let doomed = self.doomed(t);
            match th.run {
                Run::Ready if th.pc < th.script.len() => {
                    if doomed {
                        acts.push(Act::Die(t));
                    }
                    if !doomed || th.sprint > 0 {
                        acts.push(Act::Step(t));
                    }
                }
                Run::Woken => acts.push(Act::Woken(t)),
                _ => {}
            }
        }
        acts
    }

    fn act(&mut self, act: Act) -> Check {
        match act {
            Act::Crash => {
                self.crashed = true;
                for th in self.th.iter_mut().filter(|th| th.node == DOOMED) {
                    th.sprint = SPRINT;
                }
                Ok(())
            }
            Act::Monitor => self.monitor(),
            Act::Expire => {
                self.timed_out = true;
                // The park's checkpoint first: on a crashed node B dies
                // there, still queued.
                self.run(B, |w| {
                    w.crash_check();
                    let ct = w.rt.ct_of(w.th[B].tid);
                    cond_woken(w, ct, COND, false).expect("B is not cancelled");
                    (w.th[B].run, w.th[B].pc) = (Run::Ready, 1);
                    Ok(())
                })
            }
            Act::Die(t) => self.run(t, |w| {
                w.crash_check();
                unreachable!("a casualty passed its checkpoint")
            }),
            Act::Woken(t) => self.run(t, |w| w.woken(t)),
            Act::Step(t) => {
                // A casualty's step uses up one of its sprint unless it
                // reached a checkpoint and died there, as `Die` would.
                let doomed = self.doomed(t);
                let done = self.run(t, |w| w.step(t));
                if doomed && self.th[t].run != Run::Dead {
                    self.th[t].sprint -= 1;
                }
                done
            }
        }
    }

    /// Runs `f` as thread `t`. A crash checkpoint it reaches on the dead
    /// node unwinds the thread, and `rt.rs`'s crash step retires it — as
    /// a thread body's catch does in the engine.
    fn run(&mut self, t: usize, f: impl FnOnce(&mut World) -> Check) -> Check {
        self.cur = Some(t);
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(done) => done,
            Err(p) if p.is::<CrashUnwind>() => {
                let tid = self.th[t].tid;
                let ct = self.rt.ct_of(tid);
                if self.th[t].running && !self.th[t].recovered {
                    self.casualties += 1;
                }
                self.th[t].run = Run::Dead;
                rt::crash(self, self.th[t].node, SimTime::ZERO, Some(ct));
                self.holds_nothing(tid)
            }
            Err(p) => resume_unwind(p),
        }
    }

    /// Node 1's recovery, run by the monitor.
    fn monitor(&mut self) -> Check {
        self.recovered = true;
        for th in self.th.iter_mut() {
            if th.node == DOOMED && th.running && th.run != Run::Dead {
                th.recovered = true;
                self.casualties += 1;
            }
        }
        self.cur = None;
        let rec = rt::crash(self, DOOMED, SimTime::ZERO, None);
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

    /// A woken thread runs on from its park: a pooled worker from its idle
    /// block, any other thread from the park's crash checkpoint.
    fn woken(&mut self, t: usize) -> Check {
        let th = self.th[t];
        if th.pc == POOLED {
            // Woken by a dispatch, or by the dead node's recovery (then it
            // just leaves).
            self.th[t].run = match rt::pool_woken(self) {
                None => Run::Exited,
                Some(ct) => {
                    let rec = &self.rt.threads[&ct.0];
                    assert_eq!(rec.phase, Phase::Running, "dispatched job not running");
                    self.th[t].pc = 0;
                    Run::Ready
                }
            };
            return Ok(());
        }
        self.crash_check();
        let rw = self.rt.rwlocks.get(&RW.0);
        let granted = match th.script[th.pc] {
            Op::Lock => self.svm.lock_holder(MUTEX) == Some(th.tid),
            Op::RdLock => rw.is_some_and(|r| r.readers.0.iter().any(|h| h.0 == th.tid)),
            Op::WrLock => rw.is_some_and(|r| r.writer == Some(th.tid)),
            Op::UnlockPark => {
                // Signalled: re-lock and re-check the flag.
                let ct = self.rt.ct_of(th.tid);
                cond_woken(self, ct, COND, true).expect("B is not cancelled");
                (self.th[t].run, self.th[t].pc) = (Run::Ready, 1);
                return Ok(());
            }
            // The join step runs again.
            Op::Join => {
                self.th[t].run = Run::Ready;
                return Ok(());
            }
            _ => true,
        };
        if !granted {
            return Err(format!("{} woken without its grant", NAME[t]));
        }
        (self.th[t].run, self.th[t].pc) = (Run::Ready, th.pc + 1);
        Ok(())
    }

    /// Thread `t` runs the step at its script position; its position moves
    /// on (or it parks) once the step returns.
    fn step(&mut self, t: usize) -> Check {
        let Thread { tid, pc, .. } = self.th[t];
        let op = self.th[t].script[pc];
        let parks = match op {
            Op::Lock => sync::lock(self, MUTEX).1,
            Op::Release => {
                sync::unlock_release(self);
                false
            }
            Op::Unlock | Op::UnlockPark => {
                sync::unlock(self, MUTEX);
                op == Op::UnlockPark
            }
            Op::Register { skip } if self.flag => {
                self.th[t].pc = skip;
                return Ok(());
            }
            Op::Register { .. } => {
                cond_register(self, COND);
                false
            }
            Op::Signal => {
                self.flag = true;
                cond_wake(self, COND, false);
                false
            }
            Op::RdLock | Op::WrLock => rw_acquire(self, RW, op == Op::WrLock),
            Op::RwUnlock => {
                rw_unlock(self, RW);
                false
            }
            Op::Barrier => sync::barrier(self, BARRIER, 2).1,
            Op::Dispatch => {
                // Placement picks node 1 while it is attached.
                if self.rt.attached.contains(&DOOMED) && rt::dispatch(self, DOOMED).is_some() {
                    self.th[W].running = true;
                }
                false
            }
            Op::Join => match rt::joined(self, CtId(1), SimTime::ZERO) {
                None => true,
                Some(ret) => {
                    let want = if self.b_exited { B_RET } else { CRASHED_RET };
                    if ret != want {
                        return Err(format!("join of B returned {ret}, want {want}"));
                    }
                    false
                }
            },
            Op::Exit => {
                let ct = self.rt.ct_of(tid);
                let idle = rt::thread_exit(self, ct, B_RET, t == W);
                if t == B && !self.recovered {
                    self.b_exited = true;
                }
                self.th[t].running = false;
                (self.th[t].run, self.th[t].pc) = match idle {
                    true => (Run::Idle, POOLED),
                    false => (Run::Exited, pc + 1),
                };
                return Ok(());
            }
        };
        if !parks {
            self.th[t].pc += 1;
        } else if std::mem::take(&mut self.th[t].pending) {
            self.th[t].run = Run::Woken;
        } else {
            self.th[t].run = Run::Parked;
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
        (self.casualties, self.b_exited, self.timed_out).hash(&mut h);
        h.finish()
    }
}

/// The interpreter's effects on the model: the thread [`World::cur`]
/// runs, its wakes and crash checkpoints. State only: time, the wire, the
/// RC release and acquire and obs have their one body in the trait,
/// through `SyncEffects::real`, which is `None` here.
impl SyncEffects for World {
    fn cfg(&self) -> &SvmConfig {
        &CFG.svm
    }

    fn node(&self) -> NodeId {
        self.cur.map_or(MASTER, |t| self.th[t].node)
    }

    fn tid(&self) -> Tid {
        self.th[self.cur.expect("a model thread runs")].tid
    }

    fn master(&self) -> NodeId {
        MASTER
    }

    fn with_proto<R>(&mut self, f: impl FnOnce(&mut ProtoState) -> R) -> R {
        f(&mut self.svm)
    }

    /// A thread of the crashed node unwinds.
    fn crash_check(&mut self) {
        if self.cur.is_some_and(|t| self.doomed(t)) {
            panic_any(CrashUnwind);
        }
    }

    /// Every wake must land on a parked thread.
    fn wake(&mut self, tid: Tid, _: SimTime) {
        if let Err(why) = self.land(tid) {
            panic!("{why}");
        }
    }
}

impl RtEffects for World {
    fn rt_cfg(&self) -> &CablesConfig {
        &CFG
    }

    fn with_rt<R>(&mut self, f: impl FnOnce(&mut RtState) -> R) -> R {
        f(&mut self.rt)
    }

    fn node_crashed(&self) -> bool {
        self.cur.is_some_and(|t| self.doomed(t))
    }
}

/// Explores every schedule breadth first: the number of distinct states,
/// or the shortest failing schedule.
fn explore() -> Result<usize, Vec<String>> {
    rt::quiet_crash_unwinds();
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
            let outcome = catch_unwind(AssertUnwindSafe(|| next.act(act))).unwrap_or_else(|e| {
                let msg = e.downcast_ref::<String>().cloned();
                let msg = msg.or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()));
                Err(msg.unwrap_or_default())
            });
            let label = match act {
                Act::Step(t) => {
                    let th = &w.th[t];
                    let died = next.th[t].run == Run::Dead;
                    let died = if died { ", dies at its checkpoint" } else { "" };
                    format!("{} {:?}{died}", NAME[t], th.script[th.pc])
                }
                Act::Woken(t) if next.th[t].run == Run::Dead => {
                    format!("{} dies at its park's checkpoint", NAME[t])
                }
                Act::Woken(t) => format!("{} runs on from its park", NAME[t]),
                Act::Die(t) => format!("{} dies at a checkpoint", NAME[t]),
                Act::Expire => "B's wait times out".into(),
                Act::Crash => "node 1 crashes".into(),
                Act::Monitor => "recovery".into(),
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
        Ok(states) => assert_eq!(states, 53_368, "explored states"),
        Err(trace) => panic!(
            "crash recovery invariant violated after:\n  {}",
            trace.join("\n  ")
        ),
    }
}
