//! # laminar-util — shared dependency-free utilities
//!
//! The whole workspace must build and test with **zero network access**
//! (registry outages must never block the tier-1 gate), so the few
//! third-party conveniences the seed used are replaced by these small,
//! self-contained modules:
//!
//! * [`rng`] — a deterministic SplitMix64 PRNG with the handful of
//!   sampling helpers the apps, benchmarks and randomized tests need
//!   (replaces `rand`).
//! * [`sync`] — [`Mutex`](sync::Mutex)/[`RwLock`](sync::RwLock) wrappers
//!   over `std::sync` with a `parking_lot`-style guard-returning API
//!   that recovers from poisoning instead of forcing `unwrap()` at every
//!   call site (replaces `parking_lot`), and
//!   [`CachePadded`](sync::CachePadded), which gives a lock word or
//!   counter a 128-byte block of its own.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod rng;
pub mod sync;

pub use rng::SplitMix64;
