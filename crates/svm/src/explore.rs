//! Small-scope exhaustive check of the protocol core against release
//! consistency, with no engine and no simulated time.
//!
//! `proto.rs`'s interpreter runs here unchanged, its effects performed on
//! an in-memory model of what it drives in the simulator — frames,
//! per-node page tables, NIC regions — and the explorer enumerates every
//! interleaving of two nodes' actions on one two-page chunk: reads and
//! writes (each node owns a word of every page), one lock, one barrier,
//! and a direct chunk migration, up to a fixed number of actions.
//! Shared-memory happens-before is tracked with vector clocks; a schedule
//! stops at its first data race, and in a race-free schedule every read
//! must return the happens-before-latest write to its word. States that
//! are equal up to renaming (frames, regions, version numbers) are
//! explored once. A failure prints the shortest action sequence that
//! reaches it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use memsim::{FaultKind, FrameId, GAddr, PageNum, Prot, PAGE_SIZE};
use sim::{NodeId, SimTime, Tid};
use vmmc::RegionId;

use crate::config::{ProtoMode, SvmConfig};
use crate::core::ProtoState;
use crate::proto::{self, Effects};
use crate::sync::SyncEffects;

/// Nodes, and words per page the programs touch: one per node.
const NODES: usize = 2;
const WORDS: usize = NODES;

/// A node's next action. Node `n` owns word `n` of every page: it writes
/// only that one (false sharing, so concurrent writers are
/// data-race-free) and reads the other node's word, then its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Read(u64),
    Write(u64),
    Lock,
    Unlock,
    Barrier,
    Depart,
    Migrate,
}

/// One word's history for the race check and the expected value: the
/// number of writes so far (each write stores the next number), the last
/// writer and its epoch, and per node the epoch of its last read since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Word {
    value: u64,
    writer: Option<(usize, u32)>,
    reads: [u32; NODES],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Run,
    AtBarrier,
    /// Passed the barrier; the departure (its acquire) joins this clock.
    Departing([u32; NODES]),
}

/// What a schedule step found.
enum Outcome {
    Ok,
    Race,
    Wrong(String),
}

#[derive(Clone)]
struct World {
    core: ProtoState,
    /// The node whose action the interpreter is running.
    node: NodeId,
    pages: u64,
    /// Frame contents (only the touched words).
    frames: Vec<[u64; WORDS]>,
    /// `page table[node][page]`: frame and protection.
    pt: Vec<Vec<Option<(FrameId, Prot)>>>,
    /// Exported regions: frames in offset order.
    regions: Vec<Vec<FrameId>>,
    lock: Option<usize>,
    phase: Vec<Phase>,
    vc: Vec<[u32; NODES]>,
    lock_vc: [u32; NODES],
    bar_vc: [u32; NODES],
    shadow: Vec<[Word; WORDS]>,
}

fn join(a: &mut [u32; NODES], b: &[u32; NODES]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x).max(*y);
    }
}

impl World {
    fn new(cfg: SvmConfig, pages: u64) -> Self {
        let mut vc = vec![[0; NODES]; NODES];
        for (n, v) in vc.iter_mut().enumerate() {
            v[n] = 1;
        }
        World {
            core: ProtoState::new(NODES, cfg, NodeId(0)),
            node: NodeId(0),
            pages,
            frames: Vec::new(),
            pt: vec![vec![None; pages as usize]; NODES],
            regions: Vec::new(),
            lock: None,
            phase: vec![Phase::Run; NODES],
            vc,
            lock_vc: [0; NODES],
            bar_vc: [0; NODES],
            shadow: vec![[Word::default(); WORDS]; pages as usize],
        }
    }

    /// The world as node `n`'s effects.
    fn at(&mut self, n: usize) -> &mut Self {
        self.node = NodeId(n as u32);
        self
    }

    fn region_frame(&self, region: RegionId, off: u64) -> FrameId {
        self.regions[region.0 as usize][(off / PAGE_SIZE) as usize]
    }

    /// Stores `data` at byte `off` of a frame, word by word.
    fn store(&mut self, frame: FrameId, off: u64, data: &[u8]) {
        let words = &mut self.frames[frame.index as usize][(off / 8) as usize..];
        for (w, b) in words.iter_mut().zip(data.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("a word"));
        }
    }

    /// A program's read or write of `word` of `page` on node `n`, faulting
    /// into the interpreter until the mapping allows it.
    fn access(&mut self, n: usize, page: u64, word: usize, write: Option<u64>) -> u64 {
        for _ in 0..4 {
            let kind = if write.is_some() {
                FaultKind::Write
            } else {
                FaultKind::Read
            };
            match self.pt[n][page as usize] {
                Some((f, p)) if p == Prot::ReadWrite || (p == Prot::Read && write.is_none()) => {
                    let frame = &mut self.frames[f.index as usize];
                    if let Some(v) = write {
                        frame[word] = v;
                        let addr = GAddr::new(page * PAGE_SIZE + word as u64 * 8);
                        self.core.mark_dirty(NodeId(n as u32), addr, 8);
                    }
                    return frame[word];
                }
                _ => proto::handle_fault(self.at(n), PageNum::new(page), kind),
            }
        }
        panic!("fault loop on page {page}");
    }

    /// Whether the core would migrate the chunk to `n` now.
    fn can_migrate(&self, n: usize) -> bool {
        let node = NodeId(n as u32);
        self.core.migrate(node, PageNum::new(0)).is_some()
    }

    fn enabled(&self, n: usize) -> Vec<Act> {
        match self.phase[n] {
            Phase::AtBarrier => return Vec::new(),
            Phase::Departing(_) => return vec![Act::Depart],
            Phase::Run => {}
        }
        let mut acts = Vec::new();
        for p in 0..self.pages {
            acts.extend([Act::Read(p), Act::Write(p)]);
        }
        match self.lock {
            None => acts.push(Act::Lock),
            Some(h) if h == n => acts.push(Act::Unlock),
            Some(_) => {}
        }
        acts.push(Act::Barrier);
        if self.core.cfg.mode == ProtoMode::Cables && self.can_migrate(n) {
            acts.push(Act::Migrate);
        }
        acts
    }

    fn step(&mut self, n: usize, act: Act) -> Outcome {
        match act {
            Act::Read(p) => {
                let (other, own) = ((n + 1) % WORDS, n % WORDS);
                let word = self.shadow[p as usize][other];
                if word
                    .writer
                    .is_some_and(|(m, e)| m != n && self.vc[n][m] < e)
                {
                    return Outcome::Race;
                }
                self.shadow[p as usize][other].reads[n] = self.vc[n][n];
                for w in [other, own] {
                    let (got, want) =
                        (self.access(n, p, w, None), self.shadow[p as usize][w].value);
                    if got != want {
                        return Outcome::Wrong(format!("word {w} is {got}, want {want}"));
                    }
                }
            }
            Act::Write(p) => {
                let w = n % WORDS;
                let word = self.shadow[p as usize][w];
                let writer_races = word
                    .writer
                    .is_some_and(|(m, e)| m != n && self.vc[n][m] < e);
                let reader_races = (0..NODES).any(|m| m != n && word.reads[m] > self.vc[n][m]);
                if writer_races || reader_races {
                    return Outcome::Race;
                }
                let value = word.value + 1;
                self.shadow[p as usize][w] = Word {
                    value,
                    writer: Some((n, self.vc[n][n])),
                    reads: [0; NODES],
                };
                self.access(n, p, w, Some(value));
            }
            Act::Lock => {
                self.lock = Some(n);
                join(&mut self.vc[n], &self.lock_vc.clone());
                proto::acquire(self.at(n));
            }
            Act::Unlock => {
                proto::release(self.at(n));
                self.lock_vc = self.vc[n];
                self.vc[n][n] += 1;
                self.lock = None;
            }
            Act::Barrier => {
                proto::release(self.at(n));
                join(&mut self.bar_vc, &self.vc[n].clone());
                self.vc[n][n] += 1;
                self.phase[n] = Phase::AtBarrier;
                if self.phase.iter().all(|p| *p == Phase::AtBarrier) {
                    let episode = std::mem::take(&mut self.bar_vc);
                    self.phase
                        .iter_mut()
                        .for_each(|p| *p = Phase::Departing(episode));
                }
            }
            Act::Depart => {
                let Phase::Departing(episode) = self.phase[n] else {
                    unreachable!()
                };
                join(&mut self.vc[n], &episode);
                self.phase[n] = Phase::Run;
                proto::acquire(self.at(n));
            }
            Act::Migrate => {
                let moved = proto::migrate_home(self.at(n), GAddr::new(0));
                assert!(moved, "migratable");
            }
        }
        Outcome::Ok
    }

    /// A hash of the state up to renaming: frames by first reference,
    /// regions by the frames they resolve to, versions by rank per page,
    /// and history the race check can no longer use forgotten.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let mut ids: HashMap<FrameId, usize> = HashMap::new();
        // A frame's words matter only as "the latest write" or "stale":
        // values only grow, so a stale value never becomes current again.
        let mut canon = |f: FrameId, page: u64, h: &mut DefaultHasher| {
            let next = ids.len();
            let id = *ids.entry(f).or_insert(next);
            id.hash(h);
            if id == next {
                let latest = &self.shadow[page as usize];
                for (v, word) in self.frames[f.index as usize].iter().zip(latest) {
                    (*v == word.value).hash(h);
                }
            }
        };
        for n in 0..NODES {
            for p in 0..self.pages as usize {
                match self.pt[n][p] {
                    Some((f, prot)) => {
                        prot.hash(&mut h);
                        canon(f, p as u64, &mut h);
                    }
                    None => 9u8.hash(&mut h),
                }
            }
        }
        for p in 0..self.pages {
            let Some(d) = self.core.dir.get(&p) else {
                0u8.hash(&mut h);
                continue;
            };
            // Every version of the page the protocol can still compare.
            let mut versions = vec![d.version];
            let pending = |np: &crate::core::NodeProto| {
                let log = &self.core.log[np.log_cursor..];
                log.iter().filter(|e| e.0 == p).map(|e| e.1).max()
            };
            for np in &self.core.nodes {
                versions.extend(np.copies.get(&p).map(|c| c.version));
                versions.extend(pending(np));
            }
            versions.sort_unstable();
            versions.dedup();
            let rank = |v: u64| versions.binary_search(&v).expect("ranked");
            (d.home, rank(d.version)).hash(&mut h);
            if self.core.cfg.write_through_single_writer {
                (d.first_writer, d.multi_writer).hash(&mut h);
            }
            canon(self.region_frame(d.region, d.region_off), p, &mut h);
            for np in &self.core.nodes {
                let copy = np.copies.get(&p);
                copy.map(|c| (rank(c.version), c.dirty.as_ref().map(|b| b[0])))
                    .hash(&mut h);
                pending(np).map(rank).hash(&mut h);
            }
        }
        for np in &self.core.nodes {
            np.dirty_pages.hash(&mut h);
        }
        // Happens-before, per clock component by rank: only the order of
        // the values a join or a race test can still compare matters, and
        // a read or write every node is ordered after is forgotten.
        for m in 0..NODES {
            let ordered = |e: u32| (0..NODES).all(|k| k == m || self.vc[k][m] >= e);
            let words = self.shadow.iter().flatten();
            let writes = words
                .clone()
                .filter_map(|w| w.writer.filter(|&(n, _)| n == m));
            let writes = writes.map(|(_, e)| e).filter(|e| !ordered(*e));
            let reads = words.map(|w| w.reads[m]).filter(|r| *r > 0 && !ordered(*r));
            let departing = self.phase.iter().map(|ph| match ph {
                Phase::Departing(v) => v[m],
                _ => 0,
            });
            let clocks = (0..NODES).map(|k| self.vc[k][m]);
            let base = clocks.clone().min().unwrap_or(0);
            let mut all: Vec<u32> = clocks
                .chain([self.lock_vc[m], self.bar_vc[m]])
                .chain(departing)
                .map(|v| v.max(base))
                .collect();
            let fixed = all.len();
            all.extend(writes.chain(reads));
            let mut ranks = all.clone();
            ranks.sort_unstable();
            ranks.dedup();
            let rank = |v: &u32| ranks.binary_search(v).expect("ranked");
            all[..fixed]
                .iter()
                .map(rank)
                .collect::<Vec<_>>()
                .hash(&mut h);
            for word in self.shadow.iter().flatten() {
                let w = word.writer.filter(|&(n, e)| n == m && !ordered(e));
                w.map(|(_, e)| rank(&e)).hash(&mut h);
                let r = word.reads[m];
                (r > 0 && !ordered(r)).then(|| rank(&r)).hash(&mut h);
            }
        }
        for ph in &self.phase {
            std::mem::discriminant(ph).hash(&mut h);
        }
        self.lock.hash(&mut h);
        h.finish()
    }
}

/// The node running the interpreter; time, the wire and obs do nothing,
/// and nothing parks, so there is no crash to check and no one to wake.
impl SyncEffects for World {
    fn cfg(&self) -> &SvmConfig {
        &self.core.cfg
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn tid(&self) -> Tid {
        Tid(self.node.0 as u64)
    }

    fn master(&self) -> NodeId {
        NodeId(0)
    }

    fn with_proto<R>(&mut self, f: impl FnOnce(&mut ProtoState) -> R) -> R {
        f(&mut self.core)
    }

    fn crash_check(&mut self) {}

    fn wake(&mut self, _: Tid, _: SimTime) {}
}

/// `proto.rs`'s effects on the in-memory model: frames, page tables and
/// regions change.
impl Effects for World {
    fn translate(&self, page: PageNum) -> Option<(FrameId, Prot)> {
        self.pt[self.node.0 as usize][page.index() as usize]
    }

    fn alloc_frame(&mut self, _: &str) -> FrameId {
        self.frames.push([0; WORDS]);
        let index = self.frames.len() as u32 - 1;
        FrameId {
            node: self.node,
            index,
        }
    }

    fn register(
        &mut self,
        extend: Option<RegionId>,
        frames: &[FrameId],
        _: [&'static str; 2],
    ) -> RegionId {
        match extend {
            Some(r) => {
                self.regions[r.0 as usize].extend(frames);
                r
            }
            None => {
                self.regions.push(frames.to_vec());
                RegionId(self.regions.len() as u64 - 1)
            }
        }
    }

    fn map(&mut self, base: PageNum, frames: &[FrameId], _: Option<&str>) {
        for (i, f) in (base.index()..).zip(frames) {
            self.pt[self.node.0 as usize][i as usize] = Some((*f, Prot::None));
        }
    }

    fn set_prot(&mut self, page: u64, prot: Prot, mapped: &str) {
        let n = self.node.0 as usize;
        self.pt[n][page as usize].as_mut().expect(mapped).1 = prot;
    }

    fn copy_frame(&mut self, from: FrameId, to: FrameId) {
        self.frames[to.index as usize] = self.frames[from.index as usize];
    }

    fn read(&self, frame: FrameId, off: u64, len: u64) -> Vec<u8> {
        let words = &self.frames[frame.index as usize][(off / 8) as usize..];
        let words = &words[..(len / 8) as usize];
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn fetch(&mut self, region: RegionId, off: u64, to: FrameId, _: &'static str) -> SimTime {
        self.copy_frame(self.region_frame(region, off), to);
        SimTime::ZERO
    }

    fn write(&mut self, region: RegionId, off: u64, data: &[u8]) -> SimTime {
        self.store(self.region_frame(region, off), off % PAGE_SIZE, data);
        SimTime::ZERO
    }

    fn write_batch(&mut self, region: RegionId, segs: &[(u64, Vec<u8>)], _: SimTime) -> SimTime {
        for (off, data) in segs {
            self.write(region, *off, data);
        }
        SimTime::ZERO
    }
}

/// Explores every schedule of up to `depth` actions from `start`;
/// returns the states expanded, or the first failing schedule found.
fn explore(start: &World, depth: usize) -> Result<usize, Vec<String>> {
    struct Search {
        seen: HashMap<u64, usize>,
        trace: Vec<String>,
    }
    fn dfs(w: &World, left: usize, s: &mut Search) -> Result<(), Vec<String>> {
        if left == 0 {
            return Ok(());
        }
        let fp = w.fingerprint();
        if s.seen.get(&fp).is_some_and(|&l| l >= left) {
            return Ok(());
        }
        s.seen.insert(fp, left);
        for n in 0..NODES {
            for act in w.enabled(n) {
                let mut next = w.clone();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| next.step(n, act))).unwrap_or_else(|e| {
                        let msg = e.downcast_ref::<String>().cloned();
                        let msg = msg.or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()));
                        Outcome::Wrong(format!("panicked: {}", msg.unwrap_or_default()))
                    });
                s.trace.push(format!("n{n} {act:?}"));
                match outcome {
                    Outcome::Race => {}
                    Outcome::Wrong(why) => {
                        let last = s.trace.pop().expect("pushed");
                        s.trace.push(format!("{last}: {why}"));
                        return Err(std::mem::take(&mut s.trace));
                    }
                    Outcome::Ok => dfs(&next, left - 1, s)?,
                }
                s.trace.pop();
            }
        }
        Ok(())
    }
    let mut s = Search {
        seen: HashMap::new(),
        trace: Vec::new(),
    };
    dfs(start, depth, &mut s).map(|()| s.seen.len())
}

/// Explores to `depth`; on a failure, panics with the shortest failing
/// schedule.
fn check(cfg: SvmConfig, depth: usize) -> usize {
    let pages = cfg.home_granularity_pages.max(2);
    let start = World::new(cfg, pages);
    if let Ok(states) = explore(&start, depth) {
        return states;
    }
    let trace = (1..=depth)
        .find_map(|d| explore(&start, d).err())
        .expect("a failure within the depth");
    panic!(
        "release consistency violated after:\n  {}",
        trace.join("\n  ")
    );
}

fn small(cfg: SvmConfig) -> SvmConfig {
    SvmConfig {
        home_granularity_pages: 2,
        ..cfg
    }
}

#[test]
fn every_drf_read_sees_the_latest_write_on_a_cables_chunk() {
    assert_eq!(check(small(SvmConfig::cables()), 8), 50_878);
}

#[test]
fn every_drf_read_sees_the_latest_write_with_batching() {
    let cfg = SvmConfig {
        batch_diffs: true,
        ..small(SvmConfig::cables())
    };
    assert_eq!(check(cfg, 8), 50_878);
}

#[test]
fn every_drf_read_sees_the_latest_write_on_base_pages() {
    assert_eq!(check(SvmConfig::base(), 8), 23_168);
}
