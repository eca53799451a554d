//! # sesame-workloads — the paper's evaluation workloads
//!
//! Drivers reproducing every figure of *Hermannsson & Wittie (ICDCS
//! 1994)*:
//!
//! * [`three_cpu`] — Figure 1, three successive mutex accesses compared
//!   across GWC, entry, and weak/release consistency, cross-checked
//!   against closed forms;
//! * [`task_queue`] — Figure 2, task management through a lock-protected
//!   shared queue (one producer, `N−1` consumers);
//! * [`pipeline`] — Figure 8, the linear pipeline comparing optimistic
//!   GWC, non-optimistic GWC, and entry consistency;
//! * [`bigmesh`] — the 100k-node scaling scenario: independent per-row
//!   token pipelines with row-local mutex groups and pruned multicast;
//! * [`canonical`] — tiny deterministic configurations explored
//!   exhaustively by the `sesame-check` model checker;
//! * [`contention`] — rollback / contention sweeps (the Figure 7 regime at
//!   scale) used by the ablation benches;
//! * [`experiments`] — sweep runners that produce the figures' series;
//! * [`config`] — typed validation of workload parameters
//!   ([`config::ConfigError`]);
//! * [`telemetry`] — scenario drivers wired to the `sesame-telemetry`
//!   collector (metrics snapshots and Chrome-trace timelines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigmesh;
pub mod canonical;
pub mod config;
pub mod contention;
pub mod experiments;
pub mod pipeline;
pub mod task_queue;
pub mod telemetry;
pub mod three_cpu;
pub mod timeline;
