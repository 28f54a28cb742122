//! PIPE — threaded pipeline: each stage is a thread; items flow through
//! per-stage queues (mutex + condition + shared ring), each stage applying
//! a calculation (Table 5's third legacy pthreads program).

use cables::{Cond, Mutex, Pth};
use memsim::GAddr;

/// PIPE parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeParams {
    /// Pipeline stages (threads).
    pub stages: usize,
    /// Items pushed through the pipeline.
    pub items: u64,
    /// Queue capacity between stages.
    pub capacity: u64,
    /// Simulated per-item computation per stage, ns.
    pub work_ns: u64,
}

impl PipeParams {
    /// A small test-size configuration.
    pub fn test(stages: usize) -> Self {
        PipeParams {
            stages,
            items: 60,
            capacity: 4,
            work_ns: 5_000,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Queue {
    ring: GAddr,
    m: Mutex,
    not_full: Cond,
    not_empty: Cond,
    capacity: u64,
}

impl Queue {
    fn new(pth: &Pth, capacity: u64) -> Self {
        let ring = pth.malloc(8 * (2 + capacity));
        pth.write::<u64>(ring, 0);
        pth.write::<u64>(ring + 8, 0);
        Queue {
            ring,
            m: pth.rt().mutex_new(),
            not_full: pth.rt().cond_new(),
            not_empty: pth.rt().cond_new(),
            capacity,
        }
    }

    fn push(&self, p: &Pth, v: u64) {
        p.mutex_lock(self.m);
        loop {
            let head = p.read::<u64>(self.ring);
            let tail = p.read::<u64>(self.ring + 8);
            if head - tail < self.capacity {
                break;
            }
            p.cond_wait(self.not_full, self.m).expect("pipe cancelled");
        }
        let head = p.read::<u64>(self.ring);
        p.write::<u64>(self.ring + 16 + (head % self.capacity) * 8, v);
        p.write::<u64>(self.ring, head + 1);
        p.cond_signal(self.not_empty);
        p.mutex_unlock(self.m);
    }

    fn pop(&self, p: &Pth) -> u64 {
        p.mutex_lock(self.m);
        loop {
            let head = p.read::<u64>(self.ring);
            let tail = p.read::<u64>(self.ring + 8);
            if head > tail {
                break;
            }
            p.cond_wait(self.not_empty, self.m).expect("pipe cancelled");
        }
        let tail = p.read::<u64>(self.ring + 8);
        let v = p.read::<u64>(self.ring + 16 + (tail % self.capacity) * 8);
        p.write::<u64>(self.ring + 8, tail + 1);
        p.cond_signal(self.not_full);
        p.mutex_unlock(self.m);
        v
    }
}

/// The per-stage calculation: an odd affine step (invertible, so the
/// pipeline result is a deterministic function of the input).
fn stage_fn(stage: usize, v: u64) -> u64 {
    v.wrapping_mul(2 * stage as u64 + 3)
        .wrapping_add(stage as u64 + 1)
}

/// Runs PIPE; returns the sum of items leaving the last stage.
pub fn run_pipe(pth: &Pth, params: PipeParams) -> u64 {
    assert!(params.stages >= 1);
    let queues: Vec<Queue> = (0..params.stages + 1)
        .map(|_| Queue::new(pth, params.capacity))
        .collect();

    let mut stage_threads = Vec::new();
    for s in 0..params.stages {
        let qin = queues[s];
        let qout = queues[s + 1];
        let work = params.work_ns;
        let items = params.items;
        stage_threads.push(pth.create(move |p| {
            for _ in 0..items {
                let v = qin.pop(p);
                p.compute(work);
                qout.push(p, stage_fn(s, v));
            }
            0
        }));
    }

    // Feed the pipeline and drain it from the initial thread.
    let feeder_items = params.items;
    let q0 = queues[0];
    let feeder = pth.create(move |p| {
        for i in 0..feeder_items {
            q0.push(p, i);
        }
        0
    });
    let qlast = queues[params.stages];
    let mut sum = 0u64;
    for _ in 0..params.items {
        sum = sum.wrapping_add(qlast.pop(pth));
    }
    pth.join(feeder);
    for t in stage_threads {
        pth.join(t);
    }
    sum
}

/// Plain-Rust oracle for the pipeline output sum.
pub fn expected_sum(params: PipeParams) -> u64 {
    (0..params.items)
        .map(|i| (0..params.stages).fold(i, |v, s| stage_fn(s, v)))
        .fold(0u64, |a, b| a.wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_fn_composes_deterministically() {
        let p = PipeParams::test(3);
        assert_eq!(expected_sum(p), expected_sum(p));
    }

    #[test]
    fn one_stage_identity_structure() {
        let p = PipeParams {
            stages: 1,
            items: 3,
            capacity: 2,
            work_ns: 0,
        };
        // stage_fn(0, v) = 3v + 1 -> items 0,1,2 -> 1,4,7.
        assert_eq!(expected_sum(p), 12);
    }
}
