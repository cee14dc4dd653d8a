//! # cg-machine — the simulated hardware platform
//!
//! A parameterised model of a many-core Arm-CCA-like server SoC, built for
//! the `coregap` reproduction of core-gapped confidential VMs. It models
//! exactly the hardware behaviour the paper's results depend on:
//!
//! * **Cores and worlds** — each core executes in Normal, Realm, or Root
//!   (monitor) world and is either owned by the host OS or dedicated to the
//!   RMM ([`cpu`]).
//! * **Microarchitectural state** — per-core L1/TLB/branch-predictor
//!   *warmth* (which drives the locality effects behind the paper's
//!   performance results) and *taint* (which drives the leakage analysis in
//!   `cg-attacks`); see [`microarch`].
//! * **Physical memory and granule protection** — a granule map enforcing
//!   which world may access which physical page ([`memory`]).
//! * **Interrupts** — a GIC-like distributor with SGIs (IPIs), PPIs
//!   (per-core timers), SPIs (devices), and per-core virtual-interrupt
//!   *list registers* (`ich_lr<n>`), the structure at the heart of the
//!   paper's fig. 5 ([`gic`]).
//! * **Timers** — per-core generic timers ([`timer`]).
//! * **Timing parameters** — every latency the simulation charges is an
//!   explicit, documented field of [`HwParams`] ([`params`]).
//!
//! The machine is *passive*: methods mutate state and return the costs and
//! interrupt requests implied, and the system event loop in `cg-core` turns
//! those into scheduled events. That keeps every subsystem a deterministic,
//! directly unit-testable state machine.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod gic;
pub mod ids;
pub mod machine;
pub mod memory;
pub mod microarch;
pub mod params;
pub mod timer;

pub use cpu::{Cpu, CpuOwner, World};
pub use gic::{Gic, IntId, ListRegister, LrState};
pub use ids::{CoreId, Domain, RealmId, SecretId};
pub use machine::Machine;
pub use memory::{GranuleAddr, GranuleMap, GranuleState, MemoryError};
pub use microarch::{ComputeLookahead, MicroArch, Structure, TaintLabel};
pub use params::{HwParams, ParamError};
pub use timer::GenericTimer;
