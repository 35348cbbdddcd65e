//! A benchmark of NCExplorer's public API: exploration with and without
//! the serving cache, a live news stream, and the batch index build.
//! Each run draws its inputs from a seed, times calls from outside the
//! program, checks every answer against a reference computed apart from
//! the engine, and reports named metrics.

pub mod checks;
pub mod inputs;
pub mod measure;
pub mod probe;
pub mod reference;
pub mod rng;
pub mod tally;
pub mod workloads;
