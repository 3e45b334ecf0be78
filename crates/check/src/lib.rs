//! mbt-check: a loom-style concurrency model checker for the engine's
//! lock-free core.
//!
//! The workspace's least-verified code is its concurrency layer: the
//! seqlock span ring in `mbt-obs`, and the plan cache's single-flight
//! slot and the admission gate in `mbt-engine`. Their correctness rests on hand-picked atomic
//! `Ordering`s and condvar protocols that ordinary tests cannot falsify —
//! the OS scheduler only ever shows a few interleavings, and TSan only
//! sees the ones it happens to run.
//!
//! This crate closes that gap with two pieces (DESIGN.md §13):
//!
//! * [`sync`] — a **facade** over `std::sync` (`AtomicU64`, `AtomicUsize`,
//!   `Mutex`, `Condvar`, `Arc`, …). In a normal build it re-exports the
//!   std types verbatim: zero cost, zero behaviour change. Under the
//!   `check` feature the same names resolve to instrumented versions
//!   whose every operation is a scheduling point of the model checker.
//!   Production crates (`mbt-obs`, `mbt-engine`) import their primitives
//!   from here — enforced by `cargo xtask lint`'s `sync` pass — so the
//!   checker can never silently lose coverage.
//!
//! * [`sched`] + [`model`] (only under `check`) — a deterministic DFS
//!   **explorer**: model threads run as real OS threads but exactly one
//!   is ever unblocked, and at every instrumented operation the scheduler
//!   decides (a) which thread runs next, under a configurable preemption
//!   bound, and (b) for non-SeqCst atomic loads, *which* store in the
//!   location's modification order is read — release/acquire edges and
//!   per-location coherence are tracked with vector clocks, so a
//!   `Release` publish demoted to `Relaxed` genuinely lets readers
//!   observe stale values. Every decision is recorded; a failing run
//!   prints its schedule string, and [`sched::replay`] re-executes it.
//!   Deadlocks (every live thread blocked), livelocks (step budget
//!   exhausted), and model-thread panics that no `join` consumed are all
//!   reported as failures with their schedule.
//!
//! # Writing a model
//!
//! ```ignore
//! // tests/my_model.rs — gated on the `check` feature
//! use mbt_check::{model, sched};
//!
//! sched::check(|| {
//!     let ring = std::sync::Arc::new(mbt_obs::Ring::<2>::new(1));
//!     let w = {
//!         let ring = ring.clone();
//!         model::spawn(move || { ring.push([1, 2]); })
//!     };
//!     for [a, b] in ring.snapshot() {
//!         assert_eq!(b, 2 * a); // torn reads would break this
//!     }
//!     w.join().unwrap();
//! });
//! ```
//!
//! The model body is itself thread 0; [`model::spawn`]/`join` mirror
//! `std::thread`. `check` panics on the first failing interleaving,
//! printing a schedule string that [`sched::replay`] accepts.
//!
//! # What the memory model covers
//!
//! Atomics are modeled with per-location modification order plus
//! release/acquire vector clocks: relaxed loads may return any
//! coherence-permitted stale store (a DFS branch), acquire loads of
//! release stores synchronize, RMWs always read the newest store and
//! continue release sequences. `SeqCst` is approximated by the execution
//! order itself (a `SeqCst` load reads the newest store), which is
//! *stronger* than C++ SC — models cannot observe store-buffering
//! litmus outcomes, so bugs that need an SC fence to fix are out of
//! scope. Mutexes and condvars are modeled exactly (including poisoning
//! via the real std primitives underneath); `Arc` is re-exported
//! unmodeled.

#![forbid(unsafe_code)]

#[cfg(feature = "check")]
pub mod model;
#[cfg(feature = "check")]
pub mod sched;
#[cfg(feature = "check")]
mod sync_impl;

/// The facade production code imports its concurrency primitives from.
///
/// Normal builds: verbatim `std::sync` re-exports. Under the `check`
/// feature: instrumented types with the same API surface.
pub mod sync {
    #[cfg(not(feature = "check"))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    #[cfg(feature = "check")]
    pub use crate::sync_impl::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    // Unmodeled in check mode (documented in the crate docs): `Arc`'s
    // reference-count races and `OnceLock`'s initialization race are
    // std's problem, not this workspace's protocol logic.
    pub use std::sync::{Arc, LockResult, OnceLock, PoisonError};

    /// Atomic types and the `Ordering` vocabulary.
    pub mod atomic {
        #[cfg(not(feature = "check"))]
        pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        #[cfg(feature = "check")]
        pub use crate::sync_impl::{AtomicU64, AtomicUsize, Ordering};
    }
}
