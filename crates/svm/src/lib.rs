//! # cables-svm — the GeNIMA-style shared virtual memory protocol
//!
//! A home-based, page-level SVM protocol with release consistency, modelled
//! on GeNIMA (the substrate of the CableS paper). One protocol engine
//! serves both evaluated systems:
//!
//! - [`SvmConfig::base`] — the original tuned system: page-granular
//!   first-touch homes, per-run NIC registration, single-writer
//!   write-through optimization;
//! - [`SvmConfig::cables`] — the memory subsystem CableS layers underneath
//!   its pthreads API: 64 KB-granular home binding (the WindowsNT
//!   remapping restriction) and a single growing home region per node
//!   (double virtual mapping).
//!
//! Shared accesses go through [`SvmSystem::read`] / [`SvmSystem::write`];
//! faults run the protocol (first-touch placement, page fetch, write
//! upgrade); [`SvmSystem::lock`] / [`SvmSystem::unlock`] /
//! [`SvmSystem::barrier`] are the release-consistency synchronization
//! points. [`SvmSystem::placement_report`] quantifies misplaced pages
//! (paper Fig. 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod cluster;
mod config;
mod core;
#[cfg(test)]
mod explore;
mod proto;
#[doc(hidden)]
pub mod sync;

pub use api::SvmSystem;
pub use cluster::{Cluster, ClusterConfig};
pub use config::{cost, ProtoMode, SvmConfig};
#[doc(hidden)]
pub use core::{Crash, Grant, Opened, ProtoState};
pub use core::{NodeStats, PlacementReport, GLOBAL_SECTION_BASE, GLOBAL_SECTION_BYTES, HEAP_BASE};
pub use proto::ProtoError;
#[doc(hidden)]
pub use sync::WaitQueue;
