//! # laminar — practical fine-grained decentralized information flow control
//!
//! A Rust reproduction of *Laminar* (Roy, Porter, Bond, McKinley,
//! Witchel — PLDI 2009): the first DIFC system with a **single set of
//! abstractions for OS resources and heap-allocated objects**.
//! Programmers label data with secrecy and integrity labels and access
//! it inside lexically scoped **security regions**; the runtime (the
//! paper's modified JVM — here this crate plus [`laminar_vm`]) and the
//! OS (a simulated kernel with a Laminar security module —
//! [`laminar_os`]) enforce the labels at run time.
//!
//! ## The pieces
//!
//! * [`Laminar`] — boots the OS with the Laminar LSM and logs principals
//!   in (granting each login shell the user's persistent capabilities).
//! * [`Principal`] — a kernel-thread principal;
//!   [`Principal::secure`] is the `secure {..} catch {..}` construct.
//! * [`Labeled`] — fine-grained labeled heap data with per-access
//!   barriers (static via [`RegionGuard`], dynamic via
//!   [`Labeled::read_dyn`]).
//! * [`RegionGuard`] — the in-region handle: the Fig. 2 library API
//!   (`getCurrentLabel`, `createAndAddCapability`, `removeCapability`,
//!   `copyAndLabel`) plus mediated OS access with lazy label sync.
//! * [`KernelBridge`] — binds a [`laminar_vm::Vm`] MiniVM thread to a
//!   kernel task for the bytecode-level experiments.
//!
//! ## Example: Alice's secret calendar (§3.3)
//!
//! ```
//! use laminar::{Labeled, Laminar, RegionParams};
//! use laminar_difc::{Capability, Label, SecPair};
//! use laminar_os::UserId;
//!
//! # fn main() -> Result<(), laminar::LaminarError> {
//! let system = Laminar::boot();
//! system.add_user(UserId(1), "alice");
//! let alice = system.login(UserId(1))?;
//!
//! // Alice mints her secrecy tag a; the server thread is given only a+.
//! let a = alice.create_tag()?;
//! let sa = Label::singleton(a);
//!
//! // Build the labeled calendar inside a region with {S(a)}.
//! let params = RegionParams::new()
//!     .secrecy(sa.clone())
//!     .grant(Capability::plus(a));
//! let calendar = alice
//!     .secure(&params, |g| Ok(g.new_labeled(vec!["mon 10:00", "tue 13:30"])),
//!             |_| {})?
//!     .expect("region completed");
//!
//! // Inside a region with a's secrecy the data is readable…
//! let n = alice
//!     .secure(&params, |g| calendar.read(g, |c| c.len()), |_| {})?;
//! assert_eq!(n, Some(2));
//!
//! // …but a region without it cannot read, and the violation is
//! // confined to the region (the catch ran; execution continues).
//! let empty = RegionParams::new();
//! let out = alice.secure(&empty, |g| calendar.read(g, |c| c.len()), |_| {})?;
//! assert_eq!(out, None);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod labeled;
mod principal;
mod runtime;
pub mod stats;
mod vmbridge;

pub use error::{LaminarError, LaminarResult};
pub use labeled::Labeled;
pub use principal::{check_region_entry, Principal, RegionGuard, RegionParams};
pub use runtime::{unlabeled, Laminar};
pub use stats::{fault_stats, FaultStats, RuntimeStats};
pub use vmbridge::KernelBridge;

// Re-export the substrate crates so applications depend on one crate.
pub use laminar_difc as difc;
pub use laminar_os as os;
pub use laminar_vm as vm;
