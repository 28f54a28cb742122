//! `pthread_once` and thread-specific data: per-application and
//! per-thread ACB state with no waiters of its own (the once flag is
//! guarded by a system lock).

use std::fmt;

use crate::rt::{CablesRt, Pth};

/// A once-control handle (`pthread_once_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Once(pub u64);

/// A thread-specific-data key (`pthread_key_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TsdKey(pub u64);

impl fmt::Display for TsdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key{}", self.0)
    }
}

impl CablesRt {
    /// Creates a once-control object.
    pub fn once_new(&self) -> Once {
        Once(self.sync_id())
    }

    /// Creates a thread-specific-data key (`pthread_key_create`).
    pub fn key_create(&self) -> TsdKey {
        let mut st = self.state.lock();
        st.next_tsd_key += 1;
        TsdKey(st.next_tsd_key)
    }
}

impl Pth<'_> {
    /// Runs `f` exactly once across all threads (`pthread_once`): the
    /// first caller executes it under the once-control's mutex semantics;
    /// everyone returning from `once` observes its effects.
    pub fn once<F: FnOnce(&Pth)>(&self, o: Once, f: F) {
        // The once flag is ACB state guarded by an internal system lock.
        self.rt.svm().lock(self.sim, o.0);
        let first = self.rt.state.lock().once_done.insert(o.0, ()).is_none();
        if first {
            f(self);
        }
        self.rt.svm().unlock(self.sim, o.0);
    }

    /// Stores a thread-specific value (`pthread_setspecific`).
    pub fn set_specific(&self, key: TsdKey, value: u64) {
        self.rt.state.lock().tsd.insert((self.ct.0, key.0), value);
    }

    /// Loads this thread's value for `key` (`pthread_getspecific`).
    pub fn get_specific(&self, key: TsdKey) -> Option<u64> {
        self.rt.state.lock().tsd.get(&(self.ct.0, key.0)).copied()
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
    fn thread_specific_data_is_per_thread() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let key = pth.rt().key_create();
            pth.set_specific(key, 111);
            let mut kids = Vec::new();
            for i in 0..3u64 {
                kids.push(pth.create(move |p| {
                    assert_eq!(p.get_specific(key), None, "fresh thread sees no value");
                    p.set_specific(key, 1000 + i);
                    p.compute(10_000);
                    p.get_specific(key).unwrap()
                }));
            }
            let vals: Vec<u64> = kids.into_iter().map(|k| pth.join(k)).collect();
            assert_eq!(vals, vec![1000, 1001, 1002]);
            assert_eq!(pth.get_specific(key), Some(111));
            let other = pth.rt().key_create();
            assert_eq!(pth.get_specific(other), None);
            0
        })
        .unwrap();
    }

    #[test]
    fn once_runs_exactly_once_and_publishes() {
        let rt = rt(2, 2);
        rt.run(|pth| {
            let o = pth.rt().once_new();
            let cell = pth.malloc(16);
            pth.write::<u64>(cell, 0);
            pth.write::<u64>(cell + 8, 0);
            let mut kids = Vec::new();
            for _ in 0..4 {
                kids.push(pth.create(move |p| {
                    p.once(o, |p| {
                        // Init runs once; count initializations.
                        let runs = p.read::<u64>(cell + 8);
                        p.write::<u64>(cell + 8, runs + 1);
                        p.write::<u64>(cell, 99);
                    });
                    // Every thread past once() sees the initialization.
                    p.read::<u64>(cell)
                }));
            }
            for k in kids {
                assert_eq!(pth.join(k), 99);
            }
            pth.once(o, |_| panic!("must not run again"));
            assert_eq!(pth.read::<u64>(cell + 8), 1, "single initialization");
            0
        })
        .unwrap();
    }
}
