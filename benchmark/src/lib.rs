//! The repo benchmark: run / compile / serve workloads over the public
//! `finch` facade, with per-layer attribution measured from outside.  See
//! `README.md` for why each workload exists and how to read the numbers.

pub mod cases;
pub mod data;
pub mod host;
pub mod layers;
pub mod measure;
pub mod reference;
pub mod report;
pub mod rng;
pub mod runner;
pub mod trace;
pub mod workloads;
