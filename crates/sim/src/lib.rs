//! # cables-sim — deterministic discrete-event engine
//!
//! Foundation of the CableS (HPCA 2002) reproduction. The paper runs on a
//! real 32-processor cluster; this crate substitutes a deterministic
//! direct-execution simulator: real Rust code runs on simulated nodes and
//! processors, compute and communication charge *virtual time*, and all
//! operations on shared simulation state execute in global timestamp order.
//!
//! Key types:
//!
//! - [`Engine`] — owns the cluster topology (nodes × processors) and the
//!   deterministic scheduler: every simulated thread is a green thread on
//!   the one OS thread that called [`Engine::run`], dispatched in global
//!   `(clock, tid)` order.
//! - [`Sim`] — the per-thread handle: charge compute ([`Sim::advance`]),
//!   order operations ([`Sim::sync_point`]), park/unpark
//!   ([`Sim::block`]/[`Sim::wake`]), spawn threads ([`Sim::spawn_on`]).
//! - [`SimTime`] — nanosecond virtual clock.
//! - [`DetRng`] — deterministic RNG for workloads and policies.
//! - [`IdMap`] / [`IdSet`] — hash containers for integer ids, with a fixed
//!   hasher and so a run-independent iteration order.
//!
//! # Examples
//!
//! ```
//! use cables_sim::{Engine, SimTime};
//!
//! let engine = Engine::new();
//! let node = engine.add_node(2);
//! let end = engine
//!     .run(node, |sim| {
//!         let child = sim.spawn_on(sim.node(), sim.now(), "worker", |s| {
//!             s.advance(5_000);
//!         });
//!         sim.advance(2_000);
//!         sim.wait_exit(child);
//!     })
//!     .unwrap();
//! assert_eq!(end, SimTime::from_micros(5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod carrier;
mod engine;
mod idmap;
mod kernel;
mod rng;
mod sim_handle;
mod time;

pub use engine::Engine;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use kernel::{
    EngineStats, NodeId, SchedCause, SchedEvent, SchedEventKind, SchedHook, Scope, SimError, Tid,
};
pub use rng::DetRng;
pub use sim_handle::Sim;
pub use time::{dur, SimTime};

#[cfg(test)]
mod sendsync {
    use super::*;

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<SimTime>();
        assert_send_sync::<NodeId>();
        assert_send_sync::<Tid>();
    }
}
