//! # cables-memsim — simulated node memory and OS virtual-memory model
//!
//! The CableS paper runs on WindowsNT nodes whose MMU and VM system impose
//! the constraints that drive its results — most importantly the **64 KB
//! mapping granularity** that causes misplaced pages (paper Fig. 6). This
//! crate substitutes a software MMU:
//!
//! - [`ClusterMem`] holds every node's physical frames and page tables;
//! - shared accesses go through [`ClusterMem::read_scalar`] /
//!   [`ClusterMem::write_scalar`] and return a [`Fault`] exactly where real
//!   hardware would trap into the DSM protocol's handler; each node's page
//!   table, frames and 512-entry software TLB sit in one `sim::Local`, so a
//!   TLB hit is one borrow-flag check and no refcount;
//! - [`OsVmConfig`] models mapping granularity and per-node memory size,
//!   and [`cost`] the OS operation costs (map, protect, frame, fault entry);
//! - frames can be pinned ([`ClusterMem::pin_frame`]) — the NIC may only
//!   target pinned frames, and pinned bytes are accounted against the OS
//!   limit tracked by the `vmmc` layer.
//!
//! # Examples
//!
//! ```
//! use cables_memsim::{ClusterMem, OsVmConfig, PageNum, Prot};
//! use sim::NodeId;
//!
//! let mem = ClusterMem::new(OsVmConfig::windows_nt());
//! mem.ensure_node(NodeId(0));
//! let frame = mem.alloc_frame(NodeId(0))?;
//! mem.map_page(NodeId(0), PageNum::new(7), frame, Prot::ReadWrite);
//! mem.write_scalar(NodeId(0), PageNum::new(7).base(), 1.5f64)?;
//! assert_eq!(mem.read_scalar::<f64>(NodeId(0), PageNum::new(7).base())?, 1.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod node;
mod scalar;

pub use addr::{pages_covering, GAddr, PageNum, PAGE_SIZE};
pub use node::{
    cost, ClusterMem, CopyStats, Fault, FaultKind, FrameId, MemError, MemStats, OsVmConfig, Prot,
    TlbStats, MAX_NODES,
};
pub use scalar::Scalar;
