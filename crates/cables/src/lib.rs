//! # cables — Cluster enabled threadS (HPCA 2002 reproduction)
//!
//! CableS provides a single cluster image with respect to **thread and
//! memory management**: a pthreads API over a shared-virtual-memory
//! cluster, with
//!
//! - **dynamic thread management** — `pthread_create`/`join`/`cancel` at
//!   any time; threads placed round-robin (or, an extension, beside a
//!   named sibling: [`Pth::create_beside`]), new cluster nodes attached
//!   on demand and detached when empty (paper §2.2);
//! - **dynamic memory management** — `global_malloc`/`global_free`
//!   anywhere in the program, first-touch home placement (bound by the
//!   WindowsNT 64 KB mapping granularity), double virtual mapping so all
//!   home frames occupy a single NIC registration, transparent GLOBAL
//!   statics (paper §2.1);
//! - **modern synchronization** — mutexes with cached ownership and
//!   competitive spinning, condition wait/signal/broadcast through the
//!   ACB, and a `pthread_barrier` extension for legacy parallel programs
//!   (paper §2.3).
//!
//! This reproduction runs the runtime over a *simulated* cluster
//! ([`svm::Cluster`]) so every cost in the paper's Table 4 is modelled and
//! measurable; see the workspace's `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cables::{CablesConfig, CablesRt};
//! use svm::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::build(ClusterConfig::small(2, 2));
//! let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
//! rt.run(|pth| {
//!     let data = pth.malloc(8);
//!     pth.write::<u64>(data, 1);
//!     let worker = pth.create(move |p| p.read::<u64>(data) + 41);
//!     let got = pth.join(worker);
//!     assert_eq!(got, 42);
//!     pth.free(data);
//!     0
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod core;
mod mem;
mod once_tsd;
mod rt;
mod sync;

pub use config::{cost, CablesConfig};
pub use mem::FreeError;
pub use once_tsd::{Once, TsdKey};
pub use rt::{
    CablesRt, Cancelled, ContentionStats, CtId, OpKind, OpTimes, Pth, RtStats, CRASHED_RET,
};
pub use sync::{Barrier, Cond, Mutex, MutexCondBarrier, RwLock};

#[cfg(test)]
mod explore;
