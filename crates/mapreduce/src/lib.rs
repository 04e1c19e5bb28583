//! An in-process MapReduce engine with a simulated cluster clock.
//!
//! This crate is the reproduction's stand-in for the Hadoop 1.1.0 cluster
//! used in the paper's evaluation (13 commodity machines on a 100 Mbit/s
//! LAN). It executes map and reduce tasks on bounded thread pools and tracks
//! a *simulated wall clock* alongside real compute time:
//!
//! * **compute** — each task's real CPU time is measured, and a phase's
//!   duration is the makespan of placing those measured durations onto the
//!   configured number of task slots (LPT list scheduling), which mirrors
//!   how Hadoop schedules a wave of tasks onto a fixed slot pool;
//! * **communication** — shuffle traffic, distributed-cache broadcast, and
//!   job startup are charged analytically from byte counts
//!   ([`skymr_common::ByteSized`]) and the configured link bandwidth.
//!
//! The resulting [`JobMetrics::sim_runtime`] plays the role of the paper's
//! measured "runtime" (Section 7.1: elapsed time from computation start to
//! the global skyline being fully output). Because both the single-reducer
//! bottleneck of MR-GPSRS and the replication overhead of MR-GPMRS flow
//! through the same accounting, the trade-offs the paper measures emerge
//! from mechanics rather than hardcoded constants.
//!
//! # Programming model
//!
//! The API mirrors Hadoop's: a [`MapTask`] is created per input split by a
//! [`MapFactory`] (setup), receives every record of its split
//! ([`MapTask::map`]), and may emit trailing output when the split is
//! exhausted ([`MapTask::finish`] — Hadoop's `cleanup`, which the paper's
//! algorithms use to emit local skylines). Emitted pairs are routed to
//! reducers by a [`Partitioner`], grouped and key-sorted, and handed to
//! [`ReduceTask::reduce`] once per distinct key. [`run_job`] runs one such
//! job over any [`SplitSource`]: pre-split `Vec`s, or an [`FnSplits`]
//! recipe that materializes each split only while a map attempt runs.
//! Jobs can be chained; a [`pipeline::PipelineMetrics`] accumulates
//! per-job metrics.
//!
//! A read-only job-wide value (the paper's Hadoop *Distributed Cache*, used
//! to ship the global bitstring to every node) is modelled by capturing an
//! `Arc` in the factories and declaring its byte size in
//! [`JobConfig::cache_bytes`] so the broadcast is charged to the clock.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod cluster;
pub mod fault;
pub mod job;
pub mod partitioner;
pub mod pipeline;
pub mod pool;
pub mod sched;
pub mod splits;
pub mod storage;
pub mod task;
pub mod trace;

pub use analysis::{assert_schedule_independent, schedule_shake, ShakeCase, ShakeReport};
pub use cluster::{ClusterConfig, JobMetrics, Placement};
pub use fault::{
    BlacklistPolicy, CorruptFetch, FaultKind, FaultPlan, FaultProfile, FaultTolerance, JobError,
    NodeLoss, NodePartition, RetryPolicy, SpeculationPolicy, TaskFault, TaskKind,
};
pub use job::{run_job, JobConfig, JobOutcome};
pub use partitioner::{HashPartitioner, ModuloPartitioner, Partitioner, SingleReducerPartitioner};
pub use pipeline::{Checkpoint, JobSnapshot, PipelineMetrics, Runner, Snapshot};
pub use sched::{
    AdmissionConfig, AdmissionController, ClusterExecutor, FairShareScheduler, FifoScheduler,
    JobCompletion, JobHandle, JobSpec, PriorityScheduler, Reservation, SchedOutcome, SchedReport,
    Scheduler, TenantStats,
};
pub use splits::{FnSplits, SplitData, SplitSource};
pub use storage::{parse_byte_size, StorageConfig};
pub use task::{
    Emitter, JobKey, JobValue, MapFactory, MapTask, OutputCollector, ReduceFactory, ReduceTask,
    TaskContext,
};

pub use skymr_common::{ByteSized, Counters};

/// The telemetry subsystem (re-exported so downstream crates need no
/// direct dependency): span tracing, metrics registry, exporters.
pub use skymr_telemetry as telemetry;
pub use skymr_telemetry::{Collector, MetricsRegistry, TraceDocument};
