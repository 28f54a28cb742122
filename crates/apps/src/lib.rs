//! # cables-apps — the CableS evaluation workloads
//!
//! Everything the paper runs (§3):
//!
//! - **SPLASH-2-style kernels** ([`splash`]) against the [`m4`] facade,
//!   which maps the M4 macros onto either the base SVM system or CableS
//!   (Fig. 5 / Fig. 6 of the paper);
//! - **legacy pthreads programs** ([`pthreads`]): PN, PC and PIPE on the
//!   CableS pthreads API (Table 5);
//! - **OpenMP programs** ([`ompapps`]): FFT, LU and OCEAN in
//!   OpenMP-for-SMP style, lowered through the OdinMP-like [`omp`]
//!   runtime (Tables 5 and 6).
//!
//! All kernels compute real results with deterministic inputs and carry
//! verification oracles, so the benchmark harness double-checks outputs
//! while measuring virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod m4;
pub mod ompapps;
pub mod pthreads;
pub mod service;
pub mod splash;
pub mod util;

pub use m4::{M4Ctx, M4Mode, M4System};
