//! `seal-runtime` — the execution substrate shared by every SEAL stage.
//!
//! Three pieces, all dependency-free on purpose (the workspace must build
//! and verify fully offline):
//!
//! * [`pool`] — a hand-rolled work-stealing thread pool on `std::thread`
//!   (scoped workers, per-worker deques fed from a shared injector,
//!   channel-based result collection) exposing [`par_map_jobs`] /
//!   [`par_map_indexed_jobs`]. Results always come back in input order,
//!   so a caller that merges them sequentially is byte-identical to a
//!   sequential run regardless of the worker count.
//! * [`rng`] — a SplitMix64-seeded xoshiro256** PRNG behind the same
//!   `seed → stream` API the corpus generator previously got from the
//!   external `rand` crate.
//! * [`symbol`] — a global string interner with `Copy` [`Symbol`]s ordered
//!   by content, used for the structural path signatures of `seal-pdg`.
//! * [`panic`] — scoped panic containment ([`catch_task_panic`]) backing
//!   the fault-isolated [`par_map_isolated_jobs`]: one bad batch item
//!   becomes an `Err(TaskPanic)` slot instead of aborting its 999
//!   siblings, and nothing leaks to stderr.
//!
//! Every entry point takes an explicit worker count; [`worker_count`]
//! reads the `SEAL_JOBS` environment variable (default:
//! [`std::thread::available_parallelism`]) for callers that want it.

pub mod panic;
pub mod pool;
pub mod rng;
pub mod symbol;

pub use panic::{catch_task_panic, TaskPanic};
pub use pool::{
    effective_jobs, par_map_indexed_jobs, par_map_isolated_jobs, par_map_jobs, worker_count,
};
pub use symbol::Symbol;
