//! # pdc-threads — shared-memory parallel runtime
//!
//! The programming substrate for the curriculum's shared-memory track
//! (CS31 Pthreads labs, CS87 OpenMP-style loops): a hand-built
//! work-stealing thread pool, fork-join `join`, OpenMP-style
//! `parallel_for` with static/dynamic/guided scheduling, and a small
//! data-parallel slice API (map/reduce/scan/filter) in the spirit of
//! Rayon (see the Rayon README in the course reading list).
//!
//! * [`pool`] — work-stealing thread pool for `'static` tasks, with
//!   steal counters for the load-balancing experiments. Idle workers
//!   park after a bounded spin, so an idle pool costs no CPU. Its
//!   [`pool_map`] is a scoped, chunked map: the items and `f` may borrow
//!   from the caller, the caller runs chunks alongside at most one
//!   helper task per worker, and it returns once every helper is done
//!   with the borrowed data.
//! * [`join`](mod@join) — structured fork-join over scoped threads, plus
//!   depth-limited parallel recursion helpers.
//! * [`parfor`] — `parallel_for` with [`parfor::Schedule`] policies.
//! * [`sliceops`] — parallel map / reduce / scan / filter over slices,
//!   guaranteed to agree with their sequential counterparts.

#![warn(missing_docs)]

pub mod join;
pub mod parfor;
pub mod pool;
pub mod sliceops;

pub use join::join;
pub use parfor::{parallel_for, Schedule};
pub use pool::{pool_map, WorkStealingPool};
