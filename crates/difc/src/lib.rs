//! # laminar-difc — the decentralized information flow control model
//!
//! A faithful, standalone implementation of the DIFC model used by
//! *Laminar: Practical Fine-Grained Decentralized Information Flow
//! Control* (Roy, Porter, Bond, McKinley, Witchel — PLDI 2009), §3.
//!
//! The model has three abstractions:
//!
//! * [`Tag`] — a short, opaque 64-bit token with no inherent meaning.
//! * [`Label`] — an immutable set of tags; subset ordering forms a
//!   lattice whose bottom is the implicit empty label of every unlabeled
//!   resource. Every data object and principal carries a [`SecPair`] of a
//!   secrecy label and an integrity label.
//! * [`Capability`] / [`CapSet`] — per-tag `t+` (classify/endorse) and
//!   `t-` (declassify/drop-endorsement) privileges held by principals.
//!
//! Information flow from `x` to `y` is legal iff `Sx ⊆ Sy` (secrecy —
//! Bell–LaPadula) and `Iy ⊆ Ix` (integrity — Biba); see
//! [`SecPair::can_flow_to`]. Principals change their own labels only
//! explicitly, under the label-change rule checked by
//! [`check_label_change`].
//!
//! This crate is pure model: it has no threads, no OS and no runtime.
//! The [`laminar-os`](https://docs.rs/laminar-os) and `laminar` crates
//! build the enforcement machinery on top of it.
//!
//! ## The hot path: structural checks on shared labels
//!
//! Mirroring the §5 prototype's shared immutable labels, a [`Label`] is
//! a sorted tag slice behind an `Arc`: cloning it shares the slice, and
//! equality and hashing follow its tags. Every enforcement point — VM
//! barriers, LSM hooks, runtime cells and regions — calls the structural
//! checks [`Label::is_subset_of`], [`SecPair::flows_to`] and
//! [`SecPair::can_flow_to`] directly. On the one- and two-tag labels
//! real applications carry, the merge walk costs a few nanoseconds, and
//! two clones of one label return on a pointer compare. Audit records
//! name a pair by its content, [`SecPair::fingerprint`].
//!
//! ## Example: the calendar scenario of §3.3
//!
//! ```
//! use laminar_difc::{CapSet, Capability, Label, SecPair, TagAllocator};
//!
//! let tags = TagAllocator::new();
//! let a = tags.fresh(); // Alice's secrecy tag
//!
//! // Alice's calendar file is labeled {S(a)}.
//! let calendar = SecPair::secrecy_only(Label::singleton(a));
//!
//! // The scheduling server holds only a+ (it may taint itself, but
//! // never declassify).
//! let server_caps = CapSet::from_caps([Capability::plus(a)]);
//!
//! // The server thread taints itself with {S(a)} to read the file...
//! let thread = SecPair::secrecy_only(Label::singleton(a));
//! assert!(calendar.can_flow_to(&thread).is_ok());
//!
//! // ...and afterwards cannot write to the unlabeled network:
//! assert!(thread.can_flow_to(&SecPair::unlabeled()).is_err());
//!
//! // Nor can it shed the taint — it lacks a-:
//! assert!(laminar_difc::check_label_change(
//!     thread.secrecy(), &Label::empty(), &server_caps).is_err());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod caps;
mod error;
mod label;
mod pair;
mod tag;

pub use caps::{CapKind, CapSet, Capability};
pub use error::{FlowError, LabelChangeError};
pub use label::{Label, LabelType};
pub use pair::{check_label_change, check_pair_change, check_region_entry, SecPair};
pub use tag::{Tag, TagAllocator};

// Benchmark compatibility only. The repository benchmark (`perfbench/`)
// still reads these names for its `difc.cache_*`, `difc.interned_*` and
// `difc.flows_to_cached_ns` metrics; they exist until the next benchmark
// change removes those metrics. No enforcement code calls them.

/// Counters of a flow-check memo cache that no longer exists: always
/// zero.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub fast_hits: u64,
    /// Always zero.
    pub misses: u64,
    /// Always zero.
    pub evictions: u64,
}

/// Always [`FlowCacheStats::default`].
#[doc(hidden)]
#[must_use]
pub fn flow_cache_stats() -> FlowCacheStats {
    FlowCacheStats::default()
}

/// Sizes of label intern tables that no longer exist: always zero.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Always zero.
    pub labels: usize,
    /// Always zero.
    pub pairs: usize,
}

/// Always [`InternStats::default`].
#[doc(hidden)]
#[must_use]
pub fn intern_stats() -> InternStats {
    InternStats::default()
}

impl SecPair {
    /// Alias of [`SecPair::flows_to`].
    #[doc(hidden)]
    #[must_use]
    pub fn flows_to_cached(&self, to: &SecPair) -> bool {
        self.flows_to(to)
    }
}
