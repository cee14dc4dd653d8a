//! Prebuilt experiment configurations for every table and figure of the
//! paper's evaluation, plus the planes added since (I/O fast path, IVC,
//! churn, migration, fleet, fault sweeps).
//!
//! Each experiment has one entry point, `run_*`. All of them except
//! [`apps::run_redis_virtio`] take the observability bundle as their last
//! argument; pass [`Obs::disabled()`](crate::Obs::disabled) to record
//! nothing.

pub mod apps;
pub mod churn;
pub mod faults;
pub mod fleet;
pub mod io;
pub mod ivc;
pub mod latency;
pub mod migrate;
pub mod scaling;
pub mod security;
pub mod tdx;
