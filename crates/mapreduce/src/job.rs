//! The job driver: map phase → shuffle → reduce phase, with Hadoop-style
//! fault tolerance (bounded retries, backoff, speculative execution).
//!
//! [`run_job`] is the one entry point. It runs the phases in order — the
//! map phase, node failure domains, the shuffle, the reduce phase — and a
//! tally collects what each phase charged, so the job's [`JobMetrics`]
//! are built in one place whichever way the job ends.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skymr_common::{decode_pairs, encode_pairs, Counters};

use crate::cluster::{makespan, ClusterConfig, JobMetrics, Placement};
use crate::fault::{
    run_attempts, BlacklistPolicy, CorruptFetch, FailureCause, FaultPlan, FaultTolerance, Inject,
    JobError, RetryPolicy, SpeculationPolicy, TaskExecution, TaskFault, TaskKind,
};
use crate::partitioner::Partitioner;
use crate::pool::run_indexed;
use crate::splits::SplitSource;
use crate::storage::{
    merge::{cascade_stats, external_merge, KWayMerge, MergeStats, RunSource},
    segment::{flip_bit, verify_frames, write_segment, Segment},
    SpillSession,
};
use crate::task::{
    Emitter, JobKey, JobValue, MapFactory, MapTask, OutputCollector, ReduceFactory, ReduceTask,
    TaskContext,
};
use crate::trace::{CorruptEvent, FailKind, JobRecord, NodeLossEvent, TaskModel};
use skymr_telemetry::{Collector, MetricsRegistry};

/// Per-job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name, used in metrics and reports.
    pub name: String,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Bytes of read-only data broadcast to every node before the job
    /// starts (the Hadoop Distributed Cache; the paper ships the global
    /// bitstring this way). Charged to the simulated clock.
    pub cache_bytes: u64,
    /// Fault-injection plan (empty by default).
    pub faults: FaultPlan,
    /// Retry budget and backoff for failed task attempts.
    pub retry: RetryPolicy,
    /// Speculative execution of straggling tasks (off by default).
    pub speculation: Option<SpeculationPolicy>,
    /// Node blacklisting (off by default; needs a cluster [`Placement`]).
    pub blacklist: Option<BlacklistPolicy>,
    /// Telemetry collector the job commits its trace to (off by default).
    /// The metrics registry is built either way; the collector only adds
    /// the span timeline.
    pub collector: Option<Collector>,
}

impl JobConfig {
    /// A job with the given name and reducer count, no cache, no faults,
    /// and the default retry budget.
    pub fn new(name: impl Into<String>, num_reducers: usize) -> Self {
        Self {
            name: name.into(),
            num_reducers,
            cache_bytes: 0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::new(),
            speculation: None,
            blacklist: None,
            collector: None,
        }
    }

    /// Sets the distributed-cache byte charge.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables speculative execution.
    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Enables node blacklisting.
    pub fn with_blacklist(mut self, blacklist: BlacklistPolicy) -> Self {
        self.blacklist = Some(blacklist);
        self
    }

    /// Applies a bundled [`FaultTolerance`] configuration (plan, retry
    /// policy, speculation, and blacklisting in one go — what the
    /// algorithm configs carry).
    pub fn with_fault_tolerance(mut self, ft: &FaultTolerance) -> Self {
        self.faults = ft.plan.clone();
        self.retry = ft.retry.clone();
        self.speculation = ft.speculation.clone();
        self.blacklist = ft.blacklist;
        self
    }

    /// Attaches a telemetry collector: the job commits its span timeline
    /// there on success. `None` leaves tracing off (the default).
    pub fn with_collector(mut self, collector: Option<Collector>) -> Self {
        self.collector = collector;
        self
    }
}

/// Result of a job: per-reducer outputs plus metrics and counters.
#[derive(Debug)]
pub struct JobOutcome<Out> {
    /// Output records, indexed by reducer.
    pub outputs: Vec<Vec<Out>>,
    /// Simulated and measured execution metrics.
    pub metrics: JobMetrics,
    /// Job counters populated by tasks.
    pub counters: Counters,
    /// The job's metrics registry — the structured source the countable
    /// [`JobMetrics`] fields are derived from.
    pub registry: MetricsRegistry,
}

impl<Out> JobOutcome<Out> {
    /// Flattens per-reducer outputs into one vector (reducer order).
    pub fn into_flat_output(self) -> Vec<Out> {
        self.outputs.into_iter().flatten().collect()
    }
}

/// Where one map task's partitioned output lives: in memory (the default
/// engine) or on disk as spill segments (the out-of-core storage plane,
/// engaged when [`crate::StorageConfig::memory_budget`] is set).
enum MapBuckets<K, V> {
    Memory(Vec<Vec<(K, V)>>),
    Spilled(Vec<Segment>),
}

struct MapResult<K, V> {
    buckets: MapBuckets<K, V>,
    /// Wire-size accounting per reducer ([`skymr_common::ByteSized`]) —
    /// identical between the memory and spilled representations, so the
    /// shuffle traffic model never notices spilling.
    bucket_bytes: Vec<u64>,
    records: u64,
}

/// A reducer's input group, handed off to its reduce task's attempts.
type GroupSlot<K, V> = parking_lot::Mutex<Option<BTreeMap<K, Vec<V>>>>;

/// One partitioned batch of map output: per-reducer buckets, their
/// wire-byte sizes, and the record count.
type RoutedBatch<K, V> = (Vec<Vec<(K, V)>>, Vec<u64>, u64);

/// One task's execution record and the fault plan it ran under.
type TaskRun<T> = (TaskExecution<T>, TaskFault);

/// A committed phase: every task's execution record and winning value.
type Committed<T> = (Vec<TaskRun<T>>, Vec<T>);

/// The task (by index) that exhausted its retry budget, aborting the job.
type Failed<T> = Box<(usize, TaskExecution<T>)>;

/// Per-phase fault-tolerance accounting, folded from each task's
/// [`TaskExecution`].
#[derive(Default)]
struct PhaseStats {
    /// Modeled per-task durations as placed on slots: winner compute plus
    /// lost attempts, scaled by the task's straggler slowdown, plus
    /// backoff and the extra per-attempt launch overheads.
    effective: Vec<Duration>,
    retries: u64,
    attempts: u64,
    wasted: Duration,
    backoff: Duration,
    speculative_wins: u64,
}

fn phase_stats<T>(execs: &[TaskRun<T>], overhead: Duration) -> PhaseStats {
    let mut stats = PhaseStats {
        effective: Vec::with_capacity(execs.len()),
        ..PhaseStats::default()
    };
    for (exec, fault) in execs {
        let slowdown = fault.slowdown.max(1.0);
        let busy = (exec.winner_duration + exec.lost_time).mul_f64(slowdown);
        let extra_launches = overhead * exec.attempts.saturating_sub(1);
        stats.effective.push(busy + exec.backoff + extra_launches);
        stats.retries += u64::from(exec.retries());
        stats.attempts += u64::from(exec.attempts);
        stats.wasted += exec.lost_time.mul_f64(slowdown);
        stats.backoff += exec.backoff;
    }
    stats
}

/// Closes a phase: `Err` splits off the first task that exhausted its
/// retry budget; otherwise speculation (when configured) re-runs
/// stragglers through `rerun`, and every task's winning value commits.
fn commit_phase<T: Send>(
    execs: &mut Vec<TaskRun<T>>,
    stats: &mut PhaseStats,
    job: &Job<'_>,
    rerun: impl Fn(usize, u32) -> T + Sync,
) -> Result<Vec<T>, Failed<T>> {
    if let Some(index) = execs.iter().position(|(exec, _)| !exec.succeeded()) {
        return Err(Box::new((index, execs.swap_remove(index).0)));
    }
    if let Some(spec) = &job.config.speculation {
        speculate_phase(execs, stats, spec, job.cluster, rerun);
    }
    Ok(execs
        .iter_mut()
        .map(|(exec, _)| match exec.value.take() {
            Some(value) => value,
            None => unreachable!("every task of a committing phase succeeded"),
        })
        .collect())
}

/// Slots still schedulable once `excluded` nodes (dead or blacklisted) are
/// gone: each slot lives on node `slot % nodes`
/// ([`Placement::node_of_slot`]). At least one slot always survives so the
/// job can limp home rather than deadlock.
fn surviving_slots(total: usize, nodes: usize, excluded: &BTreeSet<usize>) -> usize {
    let n = nodes.max(1);
    (0..total)
        .filter(|&s| !excluded.contains(&Placement::node_of_slot(s, n)))
        .count()
        .max(1)
}

/// Nodes whose strike count has reached the blacklist budget.
fn over_budget(strikes: &BTreeMap<usize, u32>, policy: &BlacklistPolicy) -> BTreeSet<usize> {
    strikes
        .iter()
        .filter(|&(_, &count)| count >= policy.max_failures.max(1))
        .map(|(&node, _)| node)
        .collect()
}

fn median(durations: &[Duration]) -> Duration {
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    sorted.get(mid).copied().unwrap_or(Duration::ZERO)
}

/// Runs speculative backup attempts for one phase.
///
/// Any task whose modeled duration exceeds `policy.slowdown_threshold` ×
/// the phase median gets a backup attempt, really re-executed at full
/// speed (`rerun`). The winner rule is deterministic in simulated time: a
/// backup launched at the median mark wins iff it commits before the
/// straggling original; ties go to the original. Either loser's slot time
/// is charged to `wasted`.
fn speculate_phase<T: Send>(
    execs: &mut [TaskRun<T>],
    stats: &mut PhaseStats,
    policy: &SpeculationPolicy,
    cluster: &ClusterConfig,
    rerun: impl Fn(usize, u32) -> T + Sync,
) {
    if stats.effective.len() < policy.min_phase_tasks {
        return;
    }
    let med = median(&stats.effective);
    if med == Duration::ZERO {
        return;
    }
    let threshold = med.mul_f64(policy.slowdown_threshold.max(1.0));
    let candidates: Vec<usize> = stats
        .effective
        .iter()
        .enumerate()
        .filter(|(_, d)| **d > threshold)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let next_attempts: Vec<u32> = candidates.iter().map(|&i| execs[i].0.attempts).collect();
    let backups = run_indexed(candidates.len(), cluster.host_threads, |c| {
        rerun(candidates[c], next_attempts[c])
    });
    for (c, (value, backup_duration)) in backups.into_iter().enumerate() {
        let i = candidates[c];
        let original = stats.effective[i];
        let backup_finish = med + backup_duration + cluster.task_overhead;
        stats.attempts += 1;
        if backup_finish < original {
            // Backup commits first; the original is killed at that moment,
            // having burnt its slot since the phase started.
            stats.speculative_wins += 1;
            stats.wasted += backup_finish;
            stats.effective[i] = backup_finish;
            execs[i].0.value = Some(value);
        } else {
            // Original commits; the backup ran from the median mark until
            // then (or to completion, whichever came first) for nothing.
            stats.wasted += (original - med).min(backup_duration + cluster.task_overhead);
        }
    }
}

/// Runs one MapReduce job.
///
/// `source` holds the input splits `R_1, …, R_m` — one map task per split,
/// exactly as the paper's job flows show (Figures 3–5). Any
/// [`SplitSource`] works: pre-split `Vec<Vec<In>>` or `[Vec<In>]`, or an
/// [`FnSplits`](crate::splits::FnSplits) recipe from which each map
/// attempt materializes only its own split, for only as long as it runs
/// (how queued jobs under the [`sched`](crate::sched) executor avoid
/// pinning their whole input in RAM while they wait). The reduce phase
/// runs `config.num_reducers` tasks; keys are routed by `partitioner`,
/// sorted, and grouped.
///
/// Task attempts that fail (injected via [`JobConfig::faults`] or a
/// genuinely panicking UDF) are retried under [`JobConfig::retry`]; a task
/// that exhausts its budget aborts the job with a structured [`JobError`]
/// carrying the attempt history and partial metrics.
///
/// ```
/// use skymr_mapreduce::*;
///
/// // Word count: the canonical MapReduce example.
/// struct Wc;
/// struct WcTask;
/// impl MapTask for WcTask {
///     type In = String;
///     type K = String;
///     type V = u64;
///     fn map(&mut self, line: &String, out: &mut Emitter<String, u64>) {
///         for word in line.split_whitespace() {
///             out.emit(word.to_string(), 1);
///         }
///     }
/// }
/// impl MapFactory for Wc {
///     type Task = WcTask;
///     fn create(&self, _: &TaskContext) -> WcTask { WcTask }
/// }
/// struct Sum;
/// struct SumTask;
/// impl ReduceTask for SumTask {
///     type K = String;
///     type V = u64;
///     type Out = (String, u64);
///     fn reduce(&mut self, k: String, vs: Vec<u64>, out: &mut OutputCollector<(String, u64)>) {
///         out.collect((k, vs.iter().sum()));
///     }
/// }
/// impl ReduceFactory for Sum {
///     type Task = SumTask;
///     fn create(&self, _: &TaskContext) -> SumTask { SumTask }
/// }
///
/// # fn main() -> Result<(), JobError> {
/// let splits = vec![vec!["a b a".to_string()], vec!["b".to_string()]];
/// let outcome = run_job(
///     &ClusterConfig::test(),
///     &JobConfig::new("wc", 2),
///     &splits,
///     &Wc,
///     &Sum,
///     &HashPartitioner,
/// )?;
/// let mut counts = outcome.into_flat_output();
/// counts.sort();
/// assert_eq!(counts, vec![("a".to_string(), 2), ("b".to_string(), 2)]);
/// # Ok(())
/// # }
/// ```
pub fn run_job<In, K, V, Out, S, MF, RF, P>(
    cluster: &ClusterConfig,
    config: &JobConfig,
    source: &S,
    map_factory: &MF,
    reduce_factory: &RF,
    partitioner: &P,
) -> Result<JobOutcome<Out>, JobError>
where
    In: Send + Sync,
    K: JobKey,
    V: JobValue + Clone,
    Out: Send,
    S: SplitSource<In> + ?Sized,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    assert!(config.num_reducers > 0, "a job needs at least one reducer");
    let job = Job::new(cluster, config, source);
    let mut tally = Tally::new(&job);

    // ---- Map phase -------------------------------------------------------
    let mapper = Mapper {
        job: &job,
        source,
        factory: map_factory,
        partitioner,
        poison: (0..job.m)
            .map(|i| config.faults.poison_records_for(&config.name, i))
            .collect(),
    };
    let mut maps = match mapper.map_phase(&mut tally) {
        Ok(maps) => maps,
        Err(failed) => return Err(job.abort(TaskKind::Map, *failed, tally)),
    };
    let (lost, recovery) = mapper.regenerate_lost_partitions(&mut maps, &mut tally);
    let map_models = map_task_models(&job, &maps, &mut tally);
    let mut nodes = mapper.node_failure_domains(&mut maps, &map_models, &mut tally);
    // Records retired by the skip protocol, as (task, record) pairs —
    // the job completes without them and reports itself degraded.
    let skipped: Vec<(usize, usize)> = maps
        .skips
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.iter().map(move |&n| (i, n)))
        .collect();

    // ---- Shuffle ---------------------------------------------------------
    let shuffled = mapper.shuffle_phase(maps, &nodes, &mut tally);

    // ---- Reduce phase ----------------------------------------------------
    let reducer = Reducer {
        job: &job,
        factory: reduce_factory,
        shuffled,
    };
    let (reduce_execs, outputs) = match reducer.reduce_phase(&mut tally) {
        Ok(phase) => phase,
        Err(failed) => return Err(job.abort(TaskKind::Reduce, *failed, tally)),
    };
    // Reduce-phase blacklist pass: the final blacklist state covers the
    // whole job.
    nodes.strike(&job, TaskKind::Reduce, &reduce_execs);

    // ---- Telemetry -------------------------------------------------------
    // Assemble the deterministic execution record, derive the metrics
    // registry from it, and emit the span timeline if a collector is
    // attached. The registry is built either way: the countable
    // `JobMetrics` fields are a facade over its counters.
    let shuffled = reducer.shuffled;
    let reduce_models: Vec<TaskModel> = reduce_execs
        .iter()
        .zip(shuffled.io.iter().zip(&shuffled.merge))
        .zip(tally.metrics.per_reducer_bytes.iter().zip(&outputs))
        .map(
            |(((exec, fault), (&(keys, values), merge)), (&bytes, output))| TaskModel {
                records_in: values,
                keys_in: keys,
                records_out: output.len() as u64,
                bytes,
                failures: exec
                    .failures
                    .iter()
                    .map(|f| FailKind::from_cause(&f.cause))
                    .collect(),
                slowdown: fault.slowdown,
                spills: Vec::new(),
                merge: *merge,
            },
        )
        .collect();
    let record = JobRecord {
        name: &config.name,
        cluster,
        retry: &config.retry,
        cache_bytes: config.cache_bytes,
        broadcast_attempts: job.broadcast_attempts,
        broadcast_time: job.broadcast_time,
        shuffle_time: tally.metrics.shuffle_time,
        per_reducer_bytes: &tally.metrics.per_reducer_bytes,
        map: map_models,
        reduce: reduce_models,
        recovery,
        lost,
        corrupt: shuffled.corrupt,
        skipped,
        node_losses: nodes.loss_events,
        reexecuted: nodes.reexecuted,
        maps_reexecuted: tally.metrics.maps_reexecuted,
        nodes_blacklisted: nodes.blacklisted.len() as u64,
        map_attempts: tally.map.attempts,
        map_retries: tally.map.retries,
        reduce_attempts: tally.reduce.attempts,
        reduce_retries: tally.reduce.retries,
        map_spec_wins: tally.map.speculative_wins,
        reduce_spec_wins: tally.reduce.speculative_wins,
        user_counters: job.counters.snapshot().into_iter().collect(),
    };
    let registry = record.build_registry();
    if let Some(collector) = &config.collector {
        record.emit(collector, registry.clone());
    }

    Ok(JobOutcome {
        outputs,
        metrics: tally.job_metrics(&job, Some(&registry)),
        counters: job.counters.clone(),
        registry,
    })
}

/// The job-wide facts every phase reads.
struct Job<'a> {
    /// Host instant the job started: feeds only the advisory
    /// [`JobMetrics::host_wall`].
    started: Instant,
    cluster: &'a ClusterConfig,
    config: &'a JobConfig,
    counters: Counters,
    /// Map tasks (one per split).
    m: usize,
    /// Reduce tasks.
    r: usize,
    /// Split lengths are model facts (skip-bad-records bounds, per-task
    /// records_in); sources report them without materializing any records.
    split_lens: Vec<usize>,
    broadcast_attempts: u32,
    broadcast_time: Duration,
    /// The out-of-core storage plane: with a memory budget set, map output
    /// spills to sorted on-disk segments and reducers stream their input
    /// through an external merge. The session owns the job's spill
    /// directory and removes it on every exit path.
    spill: Option<SpillSession>,
}

impl<'a> Job<'a> {
    fn new<In, S: SplitSource<In> + ?Sized>(
        cluster: &'a ClusterConfig,
        config: &'a JobConfig,
        source: &S,
    ) -> Self {
        let started = Instant::now(); // xtask: allow(clock-discipline) — feeds only metrics.host_wall (advisory); sim_runtime is derived from the cluster cost model
        let m = source.num_splits();
        // The cache broadcast happens before any task launches; failed
        // transfers are re-sent in full, multiplying the charge.
        let broadcast_attempts = config.faults.broadcast_failures_for(&config.name) + 1;
        // Failing to create the spill directory is an environment fault the
        // job cannot work around.
        let spill = cluster.storage.enabled().then(|| {
            SpillSession::create(&cluster.storage, &config.name)
                .expect("storage plane: cannot create spill directory") // xtask: allow(no-unwrap) — an unusable spill root is an environment fault with no in-job recovery
        });
        Self {
            started,
            cluster,
            config,
            counters: Counters::new(),
            m,
            r: config.num_reducers,
            split_lens: (0..m).map(|i| source.split_len(i)).collect(),
            broadcast_attempts,
            broadcast_time: cluster.broadcast_time(config.cache_bytes) * broadcast_attempts,
            spill,
        }
    }

    /// The context a factory creates task `index` of `num_tasks` from.
    fn context(&self, index: usize, num_tasks: usize, attempt: u32) -> TaskContext {
        TaskContext {
            task_index: index,
            num_tasks,
            num_reducers: self.r,
            attempt,
            counters: self.counters.clone(),
        }
    }

    /// The structured error of a job whose `failed` task exhausted its
    /// retry budget, with the metrics charged up to that point.
    fn abort<T>(
        &self,
        task: TaskKind,
        (index, exec): (usize, TaskExecution<T>),
        tally: Tally,
    ) -> JobError {
        JobError {
            job: self.config.name.clone(),
            task,
            index,
            attempts: exec.attempts,
            history: exec.failures,
            counters: self.counters.clone(),
            metrics: Box::new(tally.job_metrics(self, None)),
            payload: exec.payload,
        }
    }
}

/// What the job has charged so far: the [`JobMetrics`] the phases fill in
/// as they go, plus the per-phase task accounting. [`Tally::job_metrics`]
/// completes the metrics on every exit — a job aborted by a failed task
/// reports zero for the phases it never reached.
struct Tally {
    metrics: JobMetrics,
    map: PhaseStats,
    reduce: PhaseStats,
    /// The lost-partition recovery wave (part of the map phase).
    recovery_time: Duration,
    /// Reduce slots left once dead and blacklisted nodes are gone.
    reduce_slots: usize,
}

impl Tally {
    fn new(job: &Job<'_>) -> Self {
        let mut metrics = JobMetrics::empty(&job.config.name, job.m, job.r);
        metrics.cache_bytes = job.config.cache_bytes;
        metrics.broadcast_time = job.broadcast_time;
        metrics.startup_time = job.cluster.job_startup;
        Self {
            metrics,
            map: PhaseStats::default(),
            reduce: PhaseStats::default(),
            recovery_time: Duration::ZERO,
            reduce_slots: job.cluster.reduce_slots,
        }
    }

    /// The job's metrics. A job that completed passes its `registry`, and
    /// every countable field reads its counter there (`JobMetrics` is a
    /// facade over the registry); an aborted job has no registry and
    /// reports what the phases tallied.
    fn job_metrics(self, job: &Job<'_>, registry: Option<&MetricsRegistry>) -> JobMetrics {
        let Self {
            mut metrics,
            map,
            reduce,
            recovery_time,
            reduce_slots,
        } = self;
        let (m, cluster) = (&mut metrics, job.cluster);
        m.map_phase = makespan(&map.effective, cluster.map_slots, cluster.task_overhead)
            + recovery_time
            + m.reexecution_time;
        m.reduce_phase = makespan(&reduce.effective, reduce_slots, cluster.task_overhead);
        m.shuffle_bytes = m.per_reducer_bytes.iter().sum();
        m.sim_runtime =
            m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase;
        m.host_wall = job.started.elapsed();
        m.map_retries = map.retries;
        m.reduce_retries = reduce.retries;
        m.attempts = map.attempts + reduce.attempts;
        m.speculative_wins = map.speculative_wins + reduce.speculative_wins;
        m.wasted_task_time = map.wasted + reduce.wasted;
        m.backoff_time = map.backoff + reduce.backoff;
        m.map_task_durations = map.effective;
        m.reduce_task_durations = reduce.effective;
        if let Some(registry) = registry {
            for (field, key) in [
                (&mut m.map_output_records, "map.records_out"),
                (&mut m.reduce_input_keys, "reduce.input_keys"),
                (&mut m.output_records, "reduce.records_out"),
                (&mut m.map_retries, "map.retries"),
                (&mut m.reduce_retries, "reduce.retries"),
                (&mut m.attempts, "task.attempts"),
                (&mut m.speculative_wins, "task.speculative_wins"),
                (&mut m.nodes_lost, "node.lost"),
                (&mut m.maps_reexecuted, "map.reexecuted"),
                (&mut m.nodes_blacklisted, "node.blacklisted"),
                (&mut m.corrupt_fetches, "shuffle.corrupt_fetches"),
                (&mut m.records_skipped, "map.records_skipped"),
                (&mut m.spill_files, "storage.spill_files"),
                (&mut m.spilled_bytes, "storage.spilled_bytes"),
                (&mut m.merge_passes, "storage.merge_passes"),
            ] {
                *field = registry.counter(key);
            }
        }
        m.degraded = m.records_skipped > 0;
        metrics
    }
}

/// The map phase's product: every task's execution record, its committed
/// output, and the records the skip protocol retired from its split.
struct MapPhase<K, V> {
    execs: Vec<TaskRun<MapResult<K, V>>>,
    outputs: Vec<MapResult<K, V>>,
    skips: Vec<BTreeSet<usize>>,
}

/// The map side of one job, through the shuffle. Every map attempt — first
/// runs, retries, skip rounds, speculative backups and the re-execution
/// waves — goes through [`Mapper::map_attempt`].
struct Mapper<'a, S: ?Sized, MF, P> {
    job: &'a Job<'a>,
    source: &'a S,
    factory: &'a MF,
    partitioner: &'a P,
    /// Scripted poison records per split: the UDF deterministically dies on
    /// these on every attempt, so only the skip-bad-records protocol can
    /// get the task past them.
    poison: Vec<Vec<usize>>,
}

impl<'a, In, K, V, S, MF, P> Mapper<'a, S, MF, P>
where
    In: Send + Sync,
    K: JobKey,
    V: JobValue + Clone,
    S: SplitSource<In> + ?Sized,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    P: Partitioner<K>,
{
    /// Groups one batch of emitted pairs per key and partitions the result
    /// — the shared kernel of the in-memory path and of each spill. The
    /// key-sorted order keeps the downstream pipeline deterministic.
    fn route_batch(&self, pairs: Vec<(K, V)>) -> RoutedBatch<K, V> {
        let r = self.job.r;
        let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            grouped.entry(k).or_default().push(v);
        }
        let mut buckets: Vec<Vec<(K, V)>> = (0..r).map(|_| Vec::new()).collect();
        let mut bucket_bytes = vec![0u64; r];
        let mut records = 0u64;
        for (k, vs) in grouped {
            let dest = self.partitioner.partition(&k, r);
            assert!(dest < r, "partitioner returned reducer {dest} of {r}");
            for v in vs {
                records += 1;
                bucket_bytes[dest] += k.byte_size() + v.byte_size();
                buckets[dest].push((k.clone(), v));
            }
        }
        (buckets, bucket_bytes, records)
    }

    /// One attempt of map task `i`. `skips` holds the records the
    /// skip-bad-records protocol retired; `progress` is the attempt's
    /// progress report to the tracker.
    fn map_attempt(
        &self,
        i: usize,
        attempt: u32,
        inject: Inject,
        skips: &BTreeSet<usize>,
        progress: &AtomicUsize,
    ) -> MapResult<K, V> {
        let job = self.job;
        let mut task = self.factory.create(&job.context(i, job.m, attempt));
        let mut emitter = Emitter::new();
        // Materialized for this attempt only; dropped when it returns.
        let split = self.source.load(i);
        let split: &[In] = &split;
        // Out-of-core state for this attempt. The spill trigger compares
        // the emitter's wire-size accounting against the budget — a pure
        // function of the emitted data, so spill points are identical on
        // every host and every replay of this attempt.
        let spill = job.spill.as_ref().zip(job.cluster.storage.memory_budget);
        let mut spilled: Vec<Segment> = Vec::new();
        let mut bucket_bytes = vec![0u64; job.r];
        let mut records = 0u64;
        let mut spill_now = |session: &SpillSession, emitter: &mut Emitter<K, V>| {
            let (pairs, _) = emitter.drain();
            let (buckets, batch_bytes, batch_records) = self.route_batch(pairs);
            let segment = write_segment(
                session.segment_path(i, attempt),
                &buckets,
                job.cluster.storage.io_chunk,
            )
            .expect("storage plane: spill write failed"); // xtask: allow(no-unwrap) — the panic unwinds this attempt into the retry ladder, the storage plane's recovery path
            for (dest, b) in batch_bytes.into_iter().enumerate() {
                bucket_bytes[dest] += b;
            }
            records += batch_records;
            spilled.push(segment);
        };
        // An injected mid-task crash fires halfway through the split — the
        // attempt genuinely unwinds with part of its work done.
        let crash_at = match inject {
            Inject::MidTaskPanic => Some(split.len() / 2),
            Inject::None => None,
        };
        if crash_at.is_some() && split.is_empty() {
            crate::pool::raise_injected_panic(format!(
                "[fault-injection] map task {i} attempt {attempt} crashed mid-task"
            ));
        }
        for (n, record) in split.iter().enumerate() {
            // The tracker's per-attempt progress report: if this attempt
            // dies, record `n` is the suspect the skip protocol narrows to.
            progress.store(n, Ordering::Relaxed);
            if crash_at == Some(n) {
                crate::pool::raise_injected_panic(format!(
                    "[fault-injection] map task {i} attempt {attempt} crashed mid-task"
                ));
            }
            if skips.contains(&n) {
                continue;
            }
            if self.poison[i].binary_search(&n).is_ok() {
                crate::pool::raise_injected_panic(format!(
                    "[fault-injection] map task {i} attempt {attempt} poisoned at record {n}"
                ));
            }
            task.map(record, &mut emitter);
            if let Some((session, budget)) = spill {
                if emitter.buffered_bytes() >= budget {
                    spill_now(session, &mut emitter);
                }
            }
        }
        task.finish(&mut emitter);
        if let Some((session, _)) = spill {
            // The tail batch always goes to disk too — with a budget set,
            // map RAM never holds the task's full output.
            if !emitter.is_empty() {
                spill_now(session, &mut emitter);
            }
            return MapResult {
                buckets: MapBuckets::Spilled(spilled),
                bucket_bytes,
                records,
            };
        }
        let (pairs, _) = emitter.into_parts();
        let (buckets, bucket_bytes, records) = self.route_batch(pairs);
        MapResult {
            buckets: MapBuckets::Memory(buckets),
            bucket_bytes,
            records,
        }
    }

    /// A clean (never injected) attempt of map task `i`, as speculative
    /// backups and re-execution waves launch it.
    fn clean_map_attempt(
        &self,
        i: usize,
        attempt: u32,
        skips: &BTreeSet<usize>,
    ) -> MapResult<K, V> {
        let progress = AtomicUsize::new(usize::MAX);
        self.map_attempt(i, attempt, Inject::None, skips, &progress)
    }

    /// Runs map task `i` until it commits or its budget runs out, then
    /// applies Hadoop's skip-bad-records protocol: when the budget
    /// exhausts with a panic, the tracker's last progress report names the
    /// suspect record; it enters the skip set and the task re-runs without
    /// it. Scripted attempt failures were consumed by the first round, so
    /// later rounds face only the data. Each round retires one record,
    /// bounding the loop by the split length.
    fn map_task(&self, i: usize) -> (TaskRun<MapResult<K, V>>, BTreeSet<usize>) {
        let (cluster, config) = (self.job.cluster, self.job.config);
        let fault = config.faults.task_fault(&config.name, TaskKind::Map, i);
        let mut skips: BTreeSet<usize> = BTreeSet::new();
        let progress = AtomicUsize::new(usize::MAX);
        // Map inputs are immutable splits, so every attempt can replay.
        let mut exec = run_attempts(
            &fault,
            &config.retry,
            None,
            cluster.progress_timeout,
            |attempt, inject| self.map_attempt(i, attempt, inject, &skips, &progress),
        );
        let mut round_fault = fault;
        round_fault.failures = 0;
        let split_len = self.job.split_lens[i];
        for _round in 0..split_len {
            if exec.succeeded() || !cluster.skip_bad_records {
                break;
            }
            // Only a panicking attempt names a record; lost outputs and
            // hangs are the node's fault, not the data's.
            let panicked = matches!(
                exec.failures.last().map(|f| &f.cause),
                Some(FailureCause::Panic { .. })
            );
            let suspect = progress.load(Ordering::Relaxed);
            if !panicked || suspect >= split_len || !skips.insert(suspect) {
                break;
            }
            progress.store(usize::MAX, Ordering::Relaxed);
            let next = run_attempts(
                &round_fault,
                &config.retry,
                None,
                cluster.progress_timeout,
                |attempt, inject| self.map_attempt(i, attempt, inject, &skips, &progress),
            );
            exec.attempts += next.attempts;
            exec.failures.extend(next.failures);
            exec.lost_time += next.lost_time;
            exec.backoff += next.backoff;
            exec.winner_duration = next.winner_duration;
            exec.value = next.value;
            if next.payload.is_some() {
                exec.payload = next.payload;
            }
        }
        ((exec, fault), skips)
    }

    /// Runs every map task, then speculation. `Err` carries the first task
    /// that exhausted its budget.
    fn map_phase(&self, tally: &mut Tally) -> Result<MapPhase<K, V>, Failed<MapResult<K, V>>> {
        let cluster = self.job.cluster;
        let runs = run_indexed(self.job.m, cluster.host_threads, |i| self.map_task(i));
        let (mut execs, skips): (Vec<_>, Vec<_>) = runs.into_iter().map(|(run, _)| run).unzip();
        tally.metrics.records_skipped =
            skips.iter().map(|s: &BTreeSet<usize>| s.len() as u64).sum();
        tally.map = phase_stats(&execs, cluster.task_overhead);
        let outputs = commit_phase(&mut execs, &mut tally.map, self.job, |i, attempt| {
            self.clean_map_attempt(i, attempt, &skips[i])
        })?;
        Ok(MapPhase {
            execs,
            outputs,
            skips,
        })
    }

    /// Re-executes map `tasks` as one wave of clean attempts whose outputs
    /// replace the committed ones — byte-identical, because inputs replay
    /// and UDFs are pure. Each re-run is charged as one more attempt;
    /// returns the wave's makespan over the `slots` map slots still
    /// schedulable.
    fn reexecute_maps(
        &self,
        tasks: &[usize],
        maps: &mut MapPhase<K, V>,
        stats: &mut PhaseStats,
        slots: usize,
    ) -> Duration {
        if tasks.is_empty() {
            return Duration::ZERO;
        }
        let cluster = self.job.cluster;
        let next_attempts: Vec<u32> = tasks.iter().map(|&i| maps.execs[i].0.attempts).collect();
        let reruns = run_indexed(tasks.len(), cluster.host_threads, |c| {
            let i = tasks[c];
            self.clean_map_attempt(i, next_attempts[c], &maps.skips[i])
        });
        let mut wave: Vec<Duration> = Vec::with_capacity(tasks.len());
        for (&i, (result, duration)) in tasks.iter().zip(reruns) {
            maps.outputs[i] = result;
            wave.push(duration);
        }
        stats.attempts += tasks.len() as u64;
        makespan(&wave, slots, cluster.task_overhead)
    }

    /// Lost shuffle partitions: the affected map tasks re-execute in a
    /// second wave before the shuffle, and their regenerated outputs
    /// replace the lost ones. Returns the lost `(map, reducer)` partitions
    /// and the re-executed tasks.
    fn regenerate_lost_partitions(
        &self,
        maps: &mut MapPhase<K, V>,
        tally: &mut Tally,
    ) -> (Vec<(usize, usize)>, Vec<usize>) {
        let (job, config) = (self.job, self.job.config);
        let lost = config
            .faults
            .lost_partitions_for(&config.name, job.m, job.r);
        let affected: Vec<usize> = lost
            .iter()
            .map(|&(i, _)| i)
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        tally.recovery_time =
            self.reexecute_maps(&affected, maps, &mut tally.map, job.cluster.map_slots);
        tally.map.retries += affected.len() as u64;
        (lost, affected)
    }

    /// Node failure domains. With a placement, every map task's
    /// materialized output has a home node — a pure hash of (seed, job,
    /// kind, index), never the measured LPT schedule. Node losses are
    /// resolved on the deterministic model-tick timeline: completed map
    /// outputs on a dead node are invalidated and re-execute before the
    /// shuffle can finish, in-flight attempts die and retry, and the
    /// heartbeat timeout plus the re-execution wave are charged to the
    /// simulated clock (folded into the map phase).
    fn node_failure_domains(
        &self,
        maps: &mut MapPhase<K, V>,
        map_models: &[TaskModel],
        tally: &mut Tally,
    ) -> Nodes {
        let (cluster, config) = (self.job.cluster, self.job.config);
        let mut nodes = Nodes {
            all: (0..cluster.nodes.max(1)).collect(),
            ..Nodes::default()
        };
        let Some(placement) = &cluster.placement else {
            return nodes;
        };
        nodes.map_homes = (0..self.job.m)
            .map(|i| placement.task_home(&config.name, TaskKind::Map, i, &nodes.all))
            .collect();
        // Map-phase blacklist pass: nodes over the strike budget leave
        // scheduling before the re-execution wave and the reduce phase
        // launch.
        nodes.strike(self.job, TaskKind::Map, &maps.execs);
        let node_losses = config.faults.node_losses_for(&config.name, cluster.nodes);
        tally.metrics.nodes_lost = node_losses.len() as u64;
        if node_losses.is_empty() {
            return nodes;
        }
        let overhead_ticks = crate::trace::ticks_of(cluster.task_overhead);
        let map_ticks: Vec<u64> = map_models
            .iter()
            .map(|t| t.total_ticks(&config.retry, overhead_ticks))
            .collect();
        let (map_places, map_model_end) =
            skymr_telemetry::place::place(&map_ticks, cluster.map_slots, overhead_ticks);
        let heartbeat = crate::trace::ticks_of(cluster.heartbeat_timeout);
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for loss in &node_losses {
            nodes.dead.insert(loss.node);
            // Losses past the end of the map phase land at the shuffle
            // barrier — the moment the missing outputs are discovered.
            let at = loss.at_tick.min(map_model_end);
            nodes.loss_events.push(NodeLossEvent {
                node: loss.node,
                at_tick: at,
                detect_tick: at.saturating_add(heartbeat),
            });
            // Detection is charged once per loss, unconditionally: the
            // tracker waits out the heartbeat timeout before declaring
            // the node dead and rescheduling its work.
            tally.metrics.reexecution_time += cluster.heartbeat_timeout;
            for (i, p) in map_places.iter().enumerate() {
                if nodes.map_homes[i] != loss.node {
                    continue;
                }
                if p.end <= at {
                    // Completed: the materialized output is gone.
                    tally.metrics.maps_reexecuted += 1;
                    affected.insert(i);
                } else if p.start < at {
                    // In-flight: the attempt dies with the node.
                    tally.map.retries += 1;
                    tally.map.wasted += Duration::from_micros(at - p.start);
                    affected.insert(i);
                }
                // Pending tasks simply launch on a surviving node.
            }
        }
        let survivors = nodes.survivors();
        nodes.reexecuted = affected.into_iter().collect();
        // Replacement outputs materialize on surviving nodes.
        for &i in &nodes.reexecuted {
            nodes.map_homes[i] = placement.task_home(&config.name, TaskKind::Map, i, &survivors);
        }
        let slots = surviving_slots(cluster.map_slots, cluster.nodes, &nodes.excluded());
        tally.metrics.reexecution_time +=
            self.reexecute_maps(&nodes.reexecuted, maps, &mut tally.map, slots);
        nodes
    }

    /// The shuffle: every map output crosses to its reducers through the
    /// data-integrity checks, into in-memory group maps or (spill mode) a
    /// per-reducer list of on-disk runs. Charges the transfer, stalls and
    /// recovery to the shuffle clock.
    fn shuffle_phase(
        &self,
        mut maps: MapPhase<K, V>,
        nodes: &Nodes,
        tally: &mut Tally,
    ) -> Shuffled<'a, K, V> {
        let job = self.job;
        let cluster: &ClusterConfig = job.cluster;
        let (config, plan) = (job.config, &job.config.faults);
        let (m, r) = (job.m, job.r);
        // Dead and blacklisted nodes take their slots with them for the rest
        // of the job: the corruption wave below and the reduce phase run on
        // what survives.
        let excluded = nodes.excluded();
        tally.reduce_slots = surviving_slots(cluster.reduce_slots, cluster.nodes, &excluded);

        // ---- Data-plane integrity ----------------------------------------
        // Partition fetches whose frames arrive corrupted, keyed by
        // (map, reducer). One bad fetch is transient: the reducer re-fetches
        // and the second copy verifies. Two bad fetches mean the materialized
        // map output itself is rotten: the producer re-executes (pure UDFs
        // regenerate byte-identical output) before the merge below consumes
        // it, and the wave is charged to the shuffle clock where the
        // corruption was discovered.
        let corrupt_plan: BTreeMap<(usize, usize), CorruptFetch> = plan
            .corrupt_fetches_for(&config.name, m, r)
            .into_iter()
            .map(|c| ((c.map, c.reducer), c))
            .collect();
        let corrupt_reexec: Vec<usize> = corrupt_plan
            .values()
            .filter(|c| c.fetches >= 2)
            .map(|c| c.map)
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        let map_slots = surviving_slots(cluster.map_slots, cluster.nodes, &excluded);
        let corrupt_reexec_time =
            self.reexecute_maps(&corrupt_reexec, &mut maps, &mut tally.map, map_slots);
        tally.map.retries += corrupt_reexec.len() as u64;

        // With a placement, reducers get homes too (over surviving nodes), and
        // only buckets whose producing map task is homed elsewhere cross the
        // network; without one, the closed-form remote fraction applies.
        let survivors = nodes.survivors();
        let reducer_homes: Option<Vec<usize>> = cluster.placement.as_ref().map(|p| {
            (0..r)
                .map(|j| p.task_home(&config.name, TaskKind::Reduce, j, &survivors))
                .collect()
        });
        let mut remote_per_node = vec![0u64; cluster.nodes.max(1)];
        let mut per_reducer_bytes = vec![0u64; r];
        let mut groups: Vec<BTreeMap<K, Vec<V>>> = (0..r).map(|_| BTreeMap::new()).collect();
        // Spill mode: each reducer's input is a priority-ordered list of runs
        // (map index, then spill sequence) merged lazily in the reduce phase;
        // nothing is materialized here.
        let mut reducer_runs: Vec<Vec<(Segment, usize)>> = (0..r).map(|_| Vec::new()).collect();
        // Debug builds tally the mapper-emitted pairs per key so the shuffle
        // can be checked as an exact partition of the map output below.
        let mut emitted: BTreeMap<K, u64> = BTreeMap::new();
        let mut corrupt: Vec<CorruptEvent> = Vec::new();
        let mut refetch_bytes = 0u64;
        // Each failed fetch of partition (i, j) re-transfers its `bytes`.
        let mut refetch = |i: usize, j: usize, c: &CorruptFetch, bytes: u64| {
            let failed = c.fetches.min(2);
            refetch_bytes += bytes * u64::from(failed);
            corrupt.push(CorruptEvent {
                map: i,
                reducer: j,
                fetches: failed,
                reexecuted: c.fetches >= 2,
            });
        };
        for (i, result) in maps.outputs.into_iter().enumerate() {
            for j in 0..r {
                per_reducer_bytes[j] += result.bucket_bytes[j];
                if let Some(homes) = &reducer_homes {
                    if nodes.map_homes[i] != homes[j] {
                        remote_per_node[homes[j]] += result.bucket_bytes[j];
                    }
                }
            }
            match result.buckets {
                MapBuckets::Memory(buckets) => {
                    for (j, bucket) in buckets.into_iter().enumerate() {
                        // Every partition crosses the shuffle boundary as one
                        // checksummed frame; the reduce side verifies before it
                        // consumes a single record, so the codec is load-bearing.
                        let frame = encode_pairs(&bucket);
                        drop(bucket);
                        if let Some(c) = corrupt_plan.get(&(i, j)) {
                            // Deliver the corrupted copy first: flip one seeded bit
                            // and require verification to reject it, then charge the
                            // re-fetch traffic. At-rest corruption (two bad fetches)
                            // already escalated to re-executing the producer above,
                            // so the frame in hand is clean either way.
                            let bit = c.bit_seed % (frame.len() as u64 * 8);
                            let byte = (bit / 8) as usize;
                            let mut bad = frame.clone();
                            bad[byte] ^= 1 << (bit % 8);
                            assert!(
                                decode_pairs::<K, V>(&bad).is_err(),
                                "a single-bit flip must never pass frame verification"
                            );
                            refetch(i, j, c, frame.len() as u64);
                        }
                        let Ok(pairs) = decode_pairs::<K, V>(&frame) else {
                            unreachable!("a freshly encoded frame always verifies");
                        };
                        for (k, v) in pairs {
                            if cfg!(debug_assertions) {
                                *emitted.entry(k.clone()).or_insert(0) += 1;
                            }
                            groups[j].entry(k).or_default().push(v);
                        }
                    }
                }
                MapBuckets::Spilled(segments) => {
                    // The shuffle-phase integrity scan: every partition's
                    // frames are checksum-verified at rest before the merge
                    // consumes a single record. Corruption injection flips a
                    // real bit in the segment file, and verification must
                    // reject it; the re-fetch is modeled by flipping the bit
                    // back (XOR restores the byte) and re-verifying clean.
                    // Two bad fetches already escalated to re-executing the
                    // producer above, so the files in hand regenerate clean.
                    debug_assert_eq!(
                        segments
                            .iter()
                            .flat_map(|s| s.parts.iter())
                            .map(|p| p.records)
                            .sum::<u64>(),
                        result.records,
                        "spill manifests must account for every map output record"
                    );
                    for j in 0..r {
                        if let Some(c) = corrupt_plan.get(&(i, j)) {
                            let target = segments
                                .iter()
                                .find(|s| s.parts.get(j).is_some_and(|p| p.len > 0));
                            if let Some(seg) = target {
                                let meta = &seg.parts[j];
                                flip_bit(&seg.path, meta.offset, meta.len, c.bit_seed)
                                    .expect("storage plane: corruption injection failed"); // xtask: allow(no-unwrap) — scripted-fault machinery; a failing injection must abort the experiment loudly
                                let err = verify_frames(seg, j)
                                    .expect_err("a flipped bit must never pass frame verification"); // xtask: allow(no-unwrap) — asserts the CRC invariant the chaos test exists to prove
                                let restored =
                                    flip_bit(&seg.path, meta.offset, meta.len, c.bit_seed);
                                restored.expect("storage plane: corruption restore failed"); // xtask: allow(no-unwrap) — scripted-fault machinery; a failing restore must abort the experiment loudly
                                assert!(err.is_corruption(), "flip must read as corruption: {err}");
                            }
                            let part_bytes: u64 = segments
                                .iter()
                                .filter_map(|s| s.parts.get(j))
                                .map(|p| p.len)
                                .sum();
                            refetch(i, j, c, part_bytes);
                        }
                        for seg in &segments {
                            if let Err(e) = verify_frames(seg, j) {
                                panic!("storage plane: spill segment failed the shuffle integrity scan after recovery: {e}");
                            }
                        }
                    }
                    for seg in segments {
                        for (j, runs) in reducer_runs.iter_mut().enumerate() {
                            if seg.parts.get(j).is_some_and(|p| p.records > 0) {
                                runs.push((seg.clone(), j));
                            }
                        }
                    }
                }
            }
        }
        if cfg!(debug_assertions) {
            crate::analysis::assert_shuffle_invariants(&emitted, &groups);
        }
        drop(emitted);

        // Per-reducer group facts for the trace model: (distinct keys, values),
        // plus (spill mode) the closed-form merge-cascade cost the model
        // charges — a pure function of the manifests, identical for every
        // attempt of the reducer.
        let (input, io, merge): (_, Vec<(u64, u64)>, Vec<Option<MergeStats>>) =
            match job.spill.as_ref() {
                Some(session) => {
                    let fan_in = cluster.storage.merge_fan_in;
                    let counted = run_indexed(r, cluster.host_threads, |j| {
                        spilled_group_counts::<K, V>(&reducer_runs[j], fan_in)
                    });
                    let (io, merge) = counted
                        .into_iter()
                        .map(|((io, stats), _)| (io, Some(stats)))
                        .unzip();
                    (ReduceInput::Spilled(session, reducer_runs), io, merge)
                }
                None => {
                    let io = groups
                        .iter()
                        .map(|g| {
                            let values: usize = g.values().map(Vec::len).sum();
                            (g.len() as u64, values as u64)
                        })
                        .collect();
                    let slots = groups
                        .into_iter()
                        .map(|g| parking_lot::Mutex::new(Some(g)))
                        .collect();
                    (ReduceInput::Memory(slots), io, vec![None; r])
                }
            };

        // Transient node partitions stall the shuffle barrier for their
        // duration (model ticks); folding the stall into `shuffle_time` shifts
        // everything downstream — trace, sim clock — consistently. Corrupted
        // fetches charge the same way: each failed fetch re-transfers its
        // whole frame (always remote — the local copy is the bad one), and an
        // escalated producer re-execution wave runs before the barrier lifts.
        let partition_ticks: u64 = match &cluster.placement {
            Some(_) => plan
                .node_partitions_for(&config.name, cluster.nodes)
                .iter()
                .map(|p| p.for_ticks)
                .sum(),
            None => 0,
        };
        let refetch_stall =
            Duration::from_secs_f64(refetch_bytes as f64 / cluster.network_bytes_per_sec);
        let transfer = if reducer_homes.is_some() {
            cluster.shuffle_time_placed(&remote_per_node)
        } else {
            cluster.shuffle_time(&per_reducer_bytes)
        };
        tally.metrics.shuffle_time =
            transfer + Duration::from_micros(partition_ticks) + refetch_stall + corrupt_reexec_time;
        tally.metrics.per_reducer_bytes = per_reducer_bytes;
        tally.metrics.reduce_input_keys = io.iter().map(|&(keys, _)| keys).sum();
        tally.metrics.corrupt_fetches = corrupt.iter().map(|c| u64::from(c.fetches)).sum();
        tally.metrics.merge_passes = merge.iter().flatten().map(|s| s.passes).sum();
        Shuffled {
            input,
            io,
            merge,
            corrupt,
        }
    }
}

/// Charges each map task's spill traffic to its modeled duration and
/// builds the per-task models the trace and the node-loss timeline read.
///
/// Spill accounting: on-disk bytes per spill file backing the final
/// shuffle (failed and superseded attempts' files are dropped unread).
/// The charge goes through the disk cost model *before* the phase
/// makespan and the node-loss timeline consume those durations, so
/// spilling slows the simulated job exactly where Hadoop pays for it.
fn map_task_models<K, V>(
    job: &Job<'_>,
    maps: &MapPhase<K, V>,
    tally: &mut Tally,
) -> Vec<TaskModel> {
    let mut models = Vec::with_capacity(job.m);
    for (i, ((exec, fault), res)) in maps.execs.iter().zip(&maps.outputs).enumerate() {
        let spills: Vec<u64> = match &res.buckets {
            MapBuckets::Spilled(segments) => segments.iter().map(Segment::disk_bytes).collect(),
            MapBuckets::Memory(_) => Vec::new(),
        };
        let spilled_bytes: u64 = spills.iter().sum();
        if !spills.is_empty() {
            tally.map.effective[i] += job
                .cluster
                .storage
                .io_time(spilled_bytes, spills.len() as u64);
        }
        tally.metrics.map_output_records += res.records;
        tally.metrics.spill_files += spills.len() as u64;
        tally.metrics.spilled_bytes += spilled_bytes;
        models.push(TaskModel {
            records_in: job.split_lens[i] as u64,
            keys_in: 0,
            records_out: res.records,
            bytes: res.bucket_bytes.iter().sum(),
            failures: exec
                .failures
                .iter()
                .map(|f| FailKind::from_cause(&f.cause))
                .collect(),
            slowdown: fault.slowdown,
            spills,
            merge: None,
        });
    }
    models
}

/// Node failure domains as the map phase leaves them.
#[derive(Default)]
struct Nodes {
    all: Vec<usize>,
    /// Home node of each map task's materialized output (placed clusters
    /// only).
    map_homes: Vec<usize>,
    strikes: BTreeMap<usize, u32>,
    blacklisted: BTreeSet<usize>,
    dead: BTreeSet<usize>,
    loss_events: Vec<NodeLossEvent>,
    /// Map tasks re-executed because their node died.
    reexecuted: Vec<usize>,
}

impl Nodes {
    /// Blacklist pass over one phase: each failed attempt is a strike
    /// against the node it ran on, and nodes over the strike budget leave
    /// scheduling. Needs a placement and a blacklist policy.
    fn strike<T>(&mut self, job: &Job<'_>, kind: TaskKind, execs: &[TaskRun<T>]) {
        let (Some(placement), Some(policy)) = (&job.cluster.placement, &job.config.blacklist)
        else {
            return;
        };
        for (i, (exec, _)) in execs.iter().enumerate() {
            for f in &exec.failures {
                let node = placement.attempt_home(&job.config.name, kind, i, f.attempt, &self.all);
                *self.strikes.entry(node).or_insert(0) += 1;
            }
        }
        self.blacklisted = over_budget(&self.strikes, policy);
    }

    /// Dead and blacklisted nodes.
    fn excluded(&self) -> BTreeSet<usize> {
        self.dead.union(&self.blacklisted).copied().collect()
    }

    /// Nodes that have not died (blacklisted ones included).
    fn survivors(&self) -> Vec<usize> {
        self.all
            .iter()
            .copied()
            .filter(|n| !self.dead.contains(n))
            .collect()
    }
}

/// Every reducer's input as the shuffle leaves it.
enum ReduceInput<'a, K, V> {
    /// Key-sorted group maps, handed to attempts by clone or by move.
    Memory(Vec<GroupSlot<K, V>>),
    /// Each reducer's on-disk runs, in priority order, which every attempt
    /// merges afresh through the job's spill session.
    Spilled(&'a SpillSession, Vec<Vec<(Segment, usize)>>),
}

/// What the shuffle hands the reduce phase.
struct Shuffled<'a, K, V> {
    input: ReduceInput<'a, K, V>,
    /// Per reducer: (distinct keys, values). An injected mid-task crash
    /// fires at key group `keys / 2`, in memory and spilled alike.
    io: Vec<(u64, u64)>,
    /// Per reducer (spill mode): the merge cascade's modeled cost.
    merge: Vec<Option<MergeStats>>,
    corrupt: Vec<CorruptEvent>,
}

/// One reducer's spill runs as external-merge sources.
fn disk_runs<K, V>(runs: &[(Segment, usize)]) -> Vec<RunSource<K, V>> {
    runs.iter()
        .map(|(segment, part)| RunSource::Disk {
            segment: segment.clone(),
            part: *part,
        })
        .collect()
}

/// Spill mode's counting pass over one reducer's runs: its distinct keys
/// and total values — the figures the in-memory engine reads off its group
/// maps, for the trace model and mid-task crash injection — plus the
/// closed-form cost of its merge cascade.
fn spilled_group_counts<K: JobKey, V: JobValue>(
    runs: &[(Segment, usize)],
    fan_in: usize,
) -> ((u64, u64), MergeStats) {
    let sources = disk_runs::<K, V>(runs);
    let run_bytes: Vec<u64> = runs
        .iter()
        .map(|(segment, part)| segment.parts[*part].len)
        .collect();
    let stats = cascade_stats(&run_bytes, fan_in);
    let mut merge = KWayMerge::open(sources).expect("storage plane: cannot open runs for counting"); // xtask: allow(no-unwrap) — every segment passed the shuffle integrity scan
    let mut keys = 0u64;
    let mut values = 0u64;
    let mut last: Option<K> = None;
    loop {
        let next = merge.next_pair().expect("counting merge failed"); // xtask: allow(no-unwrap) — every segment passed the shuffle integrity scan
        let Some((k, _v)) = next else { break };
        values += 1;
        if last.as_ref() != Some(&k) {
            keys += 1;
            last = Some(k);
        }
    }
    ((keys, values), stats)
}

/// The reduce side of one job. Every reduce attempt — first runs, retries
/// and speculative backups — goes through [`Reducer::reduce_attempt`].
struct Reducer<'a, RF, K, V> {
    job: &'a Job<'a>,
    factory: &'a RF,
    shuffled: Shuffled<'a, K, V>,
}

impl<K, V, Out, RF> Reducer<'_, RF, K, V>
where
    K: JobKey,
    V: JobValue + Clone,
    Out: Send,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
{
    /// Runs every reduce task, then speculation; returns the execution
    /// records and the committed outputs. `Err` carries the first task that
    /// exhausted its budget.
    fn reduce_phase(&self, tally: &mut Tally) -> Result<Committed<Vec<Out>>, Failed<Vec<Out>>> {
        let (cluster, config) = (self.job.cluster, self.job.config);
        // Reduce inputs are single-consumer: attempts expected to fail get a
        // clone, the expected winner consumes the original. With speculation
        // on, the input is retained (cloned per attempt) so backup attempts
        // can replay it. Spill mode streams from disk instead, but keeps the
        // same replay budget so the fault ladder behaves identically in both
        // modes.
        let keep_input = config.speculation.is_some();
        let mut execs: Vec<TaskRun<Vec<Out>>> =
            run_indexed(self.job.r, cluster.host_threads, |j| {
                let fault = config.faults.task_fault(&config.name, TaskKind::Reduce, j);
                let scheduled = fault.failures.min(config.retry.attempt_budget());
                // An attempt whose input was consumed cannot be replayed: an
                // *unscheduled* failure of the consuming attempt (a genuine UDF
                // panic) therefore aborts immediately — unlike map tasks, whose
                // splits replay forever.
                let replay_limit = if keep_input {
                    None
                } else {
                    Some(scheduled + 1)
                };
                let exec = run_attempts(
                    &fault,
                    &config.retry,
                    replay_limit,
                    cluster.progress_timeout,
                    |attempt, inject| {
                        self.reduce_attempt(j, attempt, inject, !keep_input && attempt >= scheduled)
                    },
                );
                (exec, fault)
            })
            .into_iter()
            .map(|(run, _)| run)
            .collect();
        tally.reduce = phase_stats(&execs, cluster.task_overhead);
        // Spill mode: the external-merge cascade's disk traffic (reads of
        // every run, intermediate-run writes, one seek per file open) is
        // charged to each reducer's modeled duration before the makespan —
        // the model pays for the merge once, with the closed-form cost every
        // attempt of the reducer incurs identically.
        for (j, model) in self.shuffled.merge.iter().enumerate() {
            if let Some(s) = model {
                tally.reduce.effective[j] += cluster
                    .storage
                    .io_time(s.bytes_read + s.bytes_written, s.seeks);
            }
        }
        let outputs = commit_phase(&mut execs, &mut tally.reduce, self.job, |j, attempt| {
            self.reduce_attempt(j, attempt, Inject::None, false)
        })?;
        Ok((execs, outputs))
    }

    /// One attempt of reduce task `j`. In memory, `take` moves the group
    /// map into the attempt instead of cloning it; spill mode streams the
    /// groups off disk through an external merge on every attempt.
    fn reduce_attempt(&self, j: usize, attempt: u32, inject: Inject, take: bool) -> Vec<Out> {
        match &self.shuffled.input {
            ReduceInput::Memory(slots) => {
                let input = {
                    let mut slot = slots[j].lock();
                    if take {
                        slot.take().unwrap_or_default()
                    } else {
                        (*slot).clone().unwrap_or_default()
                    }
                };
                self.reduce_groups(j, attempt, inject, || input.into_iter())
            }
            ReduceInput::Spilled(session, runs) => {
                self.reduce_groups(j, attempt, inject, || {
                    let storage = &self.job.cluster.storage;
                    let (mut merge, _stats) = external_merge(
                        session,
                        j,
                        disk_runs(&runs[j]),
                        storage.merge_fan_in,
                        storage.io_chunk,
                    )
                    .expect("storage plane: external merge failed"); // xtask: allow(no-unwrap) — the panic unwinds this attempt into the retry ladder, the storage plane's recovery path
                    std::iter::from_fn(move || {
                        merge
                            .next_group()
                            .expect("storage plane: merge read failed") // xtask: allow(no-unwrap) — the panic unwinds this attempt into the retry ladder
                    })
                })
            }
        }
    }

    /// The reduce attempt body over a key-sorted stream of `(key, values)`
    /// groups, opened only once the task exists and the empty-input crash
    /// check has passed.
    fn reduce_groups<I>(
        &self,
        j: usize,
        attempt: u32,
        inject: Inject,
        open: impl FnOnce() -> I,
    ) -> Vec<Out>
    where
        I: Iterator<Item = (K, Vec<V>)>,
    {
        let job = self.job;
        let mut task = self.factory.create(&job.context(j, job.r, attempt));
        let mut out = OutputCollector::new();
        let keys = self.shuffled.io[j].0;
        let crash_at = match inject {
            Inject::MidTaskPanic => Some((keys / 2) as usize),
            Inject::None => None,
        };
        if crash_at.is_some() && keys == 0 {
            crate::pool::raise_injected_panic(format!(
                "[fault-injection] reduce task {j} attempt {attempt} crashed mid-task"
            ));
        }
        for (n, (k, vs)) in open().enumerate() {
            if crash_at == Some(n) {
                crate::pool::raise_injected_panic(format!(
                    "[fault-injection] reduce task {j} attempt {attempt} crashed mid-task"
                ));
            }
            task.reduce(k, vs, &mut out);
        }
        task.finish(&mut out);
        out.into_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::partitioner::{HashPartitioner, ModuloPartitioner};

    /// Word-count: the canonical MapReduce smoke test.
    struct WcMap;
    struct WcMapTask;
    impl MapTask for WcMapTask {
        type In = String;
        type K = String;
        type V = u64;
        fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
            for word in input.split_whitespace() {
                out.emit(word.to_owned(), 1);
            }
        }
    }
    impl MapFactory for WcMap {
        type Task = WcMapTask;
        fn create(&self, _ctx: &TaskContext) -> WcMapTask {
            WcMapTask
        }
    }

    /// Sums the counts of each word, and counts the keys it reduces under
    /// `keys_reduced` — crashed attempts included.
    struct WcReduce;
    struct WcReduceTask {
        counters: Counters,
    }
    impl ReduceTask for WcReduceTask {
        type K = String;
        type V = u64;
        type Out = (String, u64);
        fn reduce(
            &mut self,
            key: String,
            values: Vec<u64>,
            out: &mut OutputCollector<(String, u64)>,
        ) {
            self.counters.add("keys_reduced", 1);
            out.collect((key, values.iter().sum()));
        }
    }
    impl ReduceFactory for WcReduce {
        type Task = WcReduceTask;
        fn create(&self, ctx: &TaskContext) -> WcReduceTask {
            WcReduceTask {
                counters: ctx.counters.clone(),
            }
        }
    }

    fn word_count_config(
        splits: &[Vec<String>],
        config: &JobConfig,
    ) -> Result<JobOutcome<(String, u64)>, JobError> {
        let cluster = ClusterConfig::test();
        run_job(
            &cluster,
            config,
            splits,
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
    }

    fn word_count(
        splits: &[Vec<String>],
        reducers: usize,
        faults: FaultPlan,
    ) -> JobOutcome<(String, u64)> {
        let config = JobConfig::new("wc", reducers).with_faults(faults);
        word_count_config(splits, &config).expect("word count must not abort")
    }

    fn splits() -> Vec<Vec<String>> {
        vec![
            vec!["a b a".into(), "c".into()],
            vec!["b b".into()],
            vec!["a c".into()],
        ]
    }

    fn sorted_counts(outcome: JobOutcome<(String, u64)>) -> Vec<(String, u64)> {
        let mut v = outcome.into_flat_output();
        v.sort();
        v
    }

    fn expected_counts() -> Vec<(String, u64)> {
        vec![
            ("a".to_string(), 3),
            ("b".to_string(), 3),
            ("c".to_string(), 2),
        ]
    }

    #[test]
    fn word_count_single_reducer() {
        let out = word_count(&splits(), 1, FaultPlan::none());
        assert_eq!(out.metrics.map_tasks, 3);
        assert_eq!(out.metrics.reduce_tasks, 1);
        assert_eq!(out.metrics.map_output_records, 8);
        assert_eq!(out.metrics.attempts, 4, "3 map + 1 reduce attempts");
        assert_eq!(out.metrics.wasted_task_time, Duration::ZERO);
        assert_eq!(out.metrics.backoff_time, Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn word_count_multiple_reducers_same_answer() {
        for r in [2, 3, 7] {
            let out = word_count(&splits(), r, FaultPlan::none());
            assert_eq!(
                sorted_counts(out),
                expected_counts(),
                "wrong counts with {r} reducers"
            );
        }
    }

    #[test]
    fn shuffle_bytes_are_positive_and_distributed() {
        let out = word_count(&splits(), 2, FaultPlan::none());
        assert!(out.metrics.shuffle_bytes > 0);
        assert_eq!(out.metrics.per_reducer_bytes.len(), 2);
        assert_eq!(
            out.metrics.per_reducer_bytes.iter().sum::<u64>(),
            out.metrics.shuffle_bytes
        );
    }

    #[test]
    fn map_failures_are_retried_without_changing_output() {
        let out = word_count(&splits(), 2, FaultPlan::fail_maps([0, 2]));
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.metrics.reduce_retries, 0);
        assert_eq!(out.metrics.attempts, 7, "5 map + 2 reduce attempts");
        assert!(out.metrics.wasted_task_time > Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn reduce_failures_are_retried_without_changing_output() {
        let out = word_count(&splits(), 3, FaultPlan::fail_reduces([1]));
        assert_eq!(out.metrics.reduce_retries, 1);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn repeated_failures_of_one_task_are_survived() {
        let plan = FaultPlan::none().with_map_fault(1, TaskFault::lost(3));
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 3);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn mid_task_panics_are_caught_and_retried() {
        let plan = FaultPlan::none()
            .with_map_fault(0, TaskFault::panics(2))
            .with_reduce_fault(0, TaskFault::panics(1));
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.metrics.reduce_retries, 1);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    /// Regression test for the pre-fault-layer accounting bug: the failed
    /// attempt's duration used to be discarded (`let _lost = ...`), so a
    /// retried job could report the same phase time as a clean one. Lost
    /// attempts and backoff are now charged to the simulated clock.
    #[test]
    fn failed_attempts_are_charged_to_the_simulated_clock() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let faulty = word_count(&splits(), 2, FaultPlan::fail_maps([0, 1, 2]));
        assert!(
            faulty.metrics.sim_runtime >= clean.metrics.sim_runtime,
            "lost attempts must not make the job faster: {:?} < {:?}",
            faulty.metrics.sim_runtime,
            clean.metrics.sim_runtime
        );
        assert!(faulty.metrics.backoff_time > Duration::ZERO);
        assert!(faulty.metrics.wasted_task_time > Duration::ZERO);
        // Every map task waited out one 100 ms backoff before its retry, so
        // the phase is strictly dominated by it (clean tasks take µs here).
        assert!(faulty.metrics.map_phase >= Duration::from_millis(100));
        assert!(faulty.metrics.sim_runtime > clean.metrics.sim_runtime);
    }

    #[test]
    fn straggler_slowdown_stretches_the_phase() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::straggler(50.0));
        let slow = word_count(&splits(), 2, plan);
        assert!(
            slow.metrics.map_phase > clean.metrics.map_phase,
            "a 50x straggler must dominate the map makespan"
        );
        assert_eq!(sorted_counts(slow), expected_counts());
    }

    #[test]
    fn speculation_rescues_a_straggler() {
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::straggler(1000.0));
        let config = JobConfig::new("wc", 2)
            .with_faults(plan.clone())
            .with_speculation(SpeculationPolicy::new());
        let speculative = word_count_config(&splits(), &config).expect("job must succeed");
        let plain = word_count(&splits(), 2, plan);
        // Timing noise on the tiny test tasks can occasionally add wins
        // beyond the scripted straggler's, so pin a lower bound only.
        assert!(speculative.metrics.speculative_wins >= 1);
        assert!(speculative.metrics.wasted_task_time > Duration::ZERO);
        assert!(
            speculative.metrics.map_phase < plain.metrics.map_phase,
            "the backup must beat a 1000x straggler"
        );
        assert_eq!(sorted_counts(speculative), expected_counts());
    }

    /// The countable `JobMetrics` fields are a facade over the registry.
    #[test]
    fn registry_backs_the_job_metrics_facade() {
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::lost(2));
        let out = word_count(&splits(), 2, plan);
        let reg = &out.registry;
        assert_eq!(
            reg.counter("map.records_out"),
            out.metrics.map_output_records
        );
        assert_eq!(
            reg.counter("reduce.input_keys"),
            out.metrics.reduce_input_keys
        );
        assert_eq!(
            reg.counter("reduce.records_out"),
            out.metrics.output_records
        );
        assert_eq!(reg.counter("map.retries"), out.metrics.map_retries);
        assert_eq!(reg.counter("task.attempts"), out.metrics.attempts);
        assert_eq!(reg.counter("map.failures.lost_output"), 2);
        let (hist_count, _) = reg
            .histogram("map.task_ticks")
            .map(|h| (h.count(), h.sum()))
            .expect("map task histogram present");
        assert_eq!(hist_count, 3, "one histogram sample per map task");
        assert_eq!(
            reg.gauge("cluster.map_slots"),
            Some(i64::try_from(ClusterConfig::test().map_slots).expect("slots fit"))
        );
    }

    /// With a collector attached, the job emits a span timeline whose
    /// exported bytes are identical run to run.
    #[test]
    fn collector_receives_spans_for_every_task() {
        let render = || {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 2).with_collector(Some(collector.clone()));
            word_count_config(&splits(), &config).expect("job must succeed");
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        let trace = render();
        // (No shuffle spans here: the test cluster's shuffle of a few
        // dozen bytes rounds to zero model ticks.)
        for needle in [
            "\"map[0]\"",
            "\"map[1]\"",
            "\"map[2]\"",
            "\"reduce[0]\"",
            "\"reduce[1]\"",
        ] {
            assert!(trace.contains(needle), "trace must contain {needle}");
        }
        assert_eq!(trace, render(), "trace bytes must be reproducible");
    }

    /// Reduce-side mirror of [`speculation_rescues_a_straggler`]: a backup
    /// attempt beats a straggling reducer, and the *losing* attempt's time
    /// is charged to `wasted_task_time` rather than discarded.
    #[test]
    fn reduce_speculation_charges_the_losing_attempt_as_waste() {
        // Three reducers so the phase median is an un-faulted task (with
        // two, the median *is* the straggler and nothing speculates).
        let plan = FaultPlan::none().with_reduce_fault(0, TaskFault::straggler(1000.0));
        let config = JobConfig::new("wc", 3)
            .with_faults(plan.clone())
            .with_speculation(SpeculationPolicy::new());
        let speculative = word_count_config(&splits(), &config).expect("job must succeed");
        let plain = word_count(&splits(), 3, plan);
        // Hash-partition skew can make more than one reduce task clear the
        // 3x-median bar, and host timing noise on the tiny test maps can
        // occasionally add a map-side win too — so pin only "some backup
        // won on the reduce side" plus the map/reduce/total consistency.
        assert!(speculative.registry.counter("reduce.speculative_wins") >= 1);
        assert_eq!(
            speculative.registry.counter("map.speculative_wins")
                + speculative.registry.counter("reduce.speculative_wins"),
            speculative.metrics.speculative_wins
        );
        assert!(
            speculative.metrics.wasted_task_time > Duration::ZERO,
            "the losing reduce attempt's time must be charged as waste"
        );
        assert!(
            speculative.metrics.reduce_phase < plain.metrics.reduce_phase,
            "the backup must beat a 1000x straggling reducer"
        );
        assert_eq!(sorted_counts(speculative), expected_counts());
    }

    #[test]
    fn lost_partitions_are_regenerated() {
        let plan = FaultPlan::none()
            .with_lost_partition(0, 0)
            .with_lost_partition(2, 1);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 2, "two map tasks re-executed");
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn broadcast_failures_multiply_the_broadcast_charge() {
        let mut cluster = ClusterConfig::test();
        cluster.nodes = 4;
        cluster.network_bytes_per_sec = 1e6;
        let base = JobConfig::new("wc", 1).with_cache_bytes(1_000_000);
        let clean = run_job(
            &cluster,
            &base,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("clean run");
        let flaky = base.with_faults(FaultPlan::none().with_broadcast_failures(2));
        let retried = run_job(
            &cluster,
            &flaky,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("retried run");
        assert_eq!(
            retried.metrics.broadcast_time,
            clean.metrics.broadcast_time * 3
        );
        assert!(retried.metrics.sim_runtime > clean.metrics.sim_runtime);
    }

    #[test]
    fn exhausted_map_retries_return_structured_error() {
        let plan = FaultPlan::none().with_map_fault(
            1,
            TaskFault {
                failures: u32::MAX,
                kind: FaultKind::MidTaskPanic,
                slowdown: 1.0,
            },
        );
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(3));
        let err = word_count_config(&splits(), &config).expect_err("job must abort");
        assert_eq!(err.task, TaskKind::Map);
        assert_eq!(err.index, 1);
        assert_eq!(err.attempts, 3);
        assert_eq!(err.history.len(), 3, "full attempt history");
        assert!(err.died_panicking());
        assert!(err.to_string().contains("map task 1"));
        // Partial metrics still account for the doomed task's attempts.
        assert!(err.metrics.attempts >= 3);
        assert!(err.metrics.sim_runtime > Duration::ZERO);
        // Only startup, broadcast and the map phase were charged.
        let m = &err.metrics;
        assert_eq!(
            m.sim_runtime,
            m.startup_time + m.broadcast_time + m.map_phase
        );
        assert_eq!(m.reduce_phase, Duration::ZERO);
        assert_eq!(m.shuffle_time, Duration::ZERO);
        assert_eq!(m.shuffle_bytes, 0);
    }

    #[test]
    fn exhausted_reduce_retries_return_structured_error() {
        let plan = FaultPlan::none().with_reduce_fault(0, TaskFault::lost(u32::MAX));
        let config = JobConfig::new("wc", 1)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(2));
        let err = word_count_config(&splits(), &config).expect_err("job must abort");
        assert_eq!(err.task, TaskKind::Reduce);
        assert_eq!(err.index, 0);
        assert_eq!(err.attempts, 2);
        assert!(!err.died_panicking(), "lost output is not a panic");
        // The map phase completed; its metrics survive in the error.
        assert_eq!(err.metrics.map_tasks, 3);
        assert!(err.metrics.map_phase > Duration::ZERO);
        assert!(err.metrics.shuffle_bytes > 0);
        // Every phase up to the failed reduce is charged, and the attempts
        // count the three clean map attempts plus the doomed reducer's.
        let m = &err.metrics;
        assert_eq!(
            m.sim_runtime,
            m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase
        );
        assert_eq!(m.attempts, 3 + u64::from(err.attempts));
    }

    /// A genuinely broken UDF (panics on every attempt, nothing injected)
    /// becomes a structured error once the budget is gone — the original
    /// payload stays available for callers that want to re-raise it.
    #[test]
    fn genuine_udf_panic_exhausts_budget_then_surfaces_payload() {
        struct BadMap;
        struct BadMapTask;
        impl MapTask for BadMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, _out: &mut Emitter<u32, u32>) {
                if *input == 3 {
                    panic!("record 3 is poison");
                }
            }
        }
        impl MapFactory for BadMap {
            type Task = BadMapTask;
            fn create(&self, _: &TaskContext) -> BadMapTask {
                BadMapTask
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![1, 2], vec![3, 4]];
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("bad", 1).with_retry(RetryPolicy::new().with_max_attempts(2));
        let err = run_job(
            &cluster,
            &config,
            &splits,
            &BadMap,
            &WcReduceLike,
            &ModuloPartitioner,
        )
        .expect_err("poison record must abort the job");
        assert_eq!((err.task, err.index, err.attempts), (TaskKind::Map, 1, 2));
        assert!(err.last_cause().contains("record 3 is poison"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| err.resume_panic()))
            .expect_err("resume_panic re-raises");
        assert_eq!(
            unwound.downcast_ref::<&str>().copied(),
            Some("record 3 is poison")
        );
    }

    #[test]
    fn seeded_chaos_does_not_change_the_output() {
        let clean = sorted_counts(word_count(&splits(), 2, FaultPlan::none()));
        for seed in 0..8 {
            let out = word_count(&splits(), 2, FaultPlan::seeded(seed));
            assert_eq!(sorted_counts(out), clean, "seed {seed} changed the output");
        }
    }

    #[test]
    fn sim_runtime_includes_all_components() {
        let out = word_count(&splits(), 1, FaultPlan::none());
        let m = &out.metrics;
        assert_eq!(
            m.sim_runtime,
            m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase
        );
        assert!(m.map_phase > Duration::ZERO);
    }

    #[test]
    fn cache_bytes_charge_broadcast() {
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("wc", 1).with_cache_bytes(1_000_000);
        let out = run_job(
            &cluster,
            &config,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("job must succeed");
        assert_eq!(out.metrics.cache_bytes, 1_000_000);
        assert!(out.metrics.broadcast_time > Duration::ZERO);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let empty: Vec<Vec<String>> = vec![vec![], vec![]];
        let out = word_count(&empty, 2, FaultPlan::none());
        assert_eq!(out.metrics.map_output_records, 0);
        assert!(out.into_flat_output().is_empty());
    }

    #[test]
    fn keys_arrive_sorted_at_reducers() {
        struct OrderMap;
        struct OrderMapTask;
        impl MapTask for OrderMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, out: &mut Emitter<u32, u32>) {
                out.emit(*input, *input);
            }
        }
        impl MapFactory for OrderMap {
            type Task = OrderMapTask;
            fn create(&self, _: &TaskContext) -> OrderMapTask {
                OrderMapTask
            }
        }
        struct OrderReduce;
        struct OrderReduceTask {
            last: Option<u32>,
        }
        impl ReduceTask for OrderReduceTask {
            type K = u32;
            type V = u32;
            type Out = u32;
            fn reduce(&mut self, key: u32, _values: Vec<u32>, out: &mut OutputCollector<u32>) {
                if let Some(last) = self.last {
                    assert!(key > last, "keys not sorted: {key} after {last}");
                }
                self.last = Some(key);
                out.collect(key);
            }
        }
        impl ReduceFactory for OrderReduce {
            type Task = OrderReduceTask;
            fn create(&self, _: &TaskContext) -> OrderReduceTask {
                OrderReduceTask { last: None }
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![5, 3, 9], vec![1, 7, 3]];
        let cluster = ClusterConfig::test();
        let out = run_job(
            &cluster,
            &JobConfig::new("order", 2),
            &splits,
            &OrderMap,
            &OrderReduce,
            &ModuloPartitioner,
        )
        .expect("job must succeed");
        let mut keys = out.into_flat_output();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn counters_flow_from_tasks_to_outcome() {
        struct CountingMap;
        struct CountingMapTask {
            counters: Counters,
        }
        impl MapTask for CountingMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, out: &mut Emitter<u32, u32>) {
                self.counters.add("records", 1);
                out.emit(*input % 2, *input);
            }
        }
        impl MapFactory for CountingMap {
            type Task = CountingMapTask;
            fn create(&self, ctx: &TaskContext) -> CountingMapTask {
                CountingMapTask {
                    counters: ctx.counters.clone(),
                }
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5]];
        let cluster = ClusterConfig::test();
        let out = run_job(
            &cluster,
            &JobConfig::new("count", 1),
            &splits,
            &CountingMap,
            &WcReduceLike,
            &ModuloPartitioner,
        )
        .expect("job must succeed");
        assert_eq!(out.counters.get("records"), 5);
    }

    fn word_count_on(
        cluster: &ClusterConfig,
        config: &JobConfig,
    ) -> Result<JobOutcome<(String, u64)>, JobError> {
        run_job(
            cluster,
            config,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
    }

    #[test]
    fn transient_corruption_is_detected_refetched_and_output_preserving() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let plan = FaultPlan::none().with_corrupt_shuffle(0, 0, 1);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(
            out.metrics.corrupt_fetches, 1,
            "one bad fetch, one re-fetch"
        );
        assert_eq!(out.registry.counter("shuffle.corrupt_partitions"), 1);
        assert_eq!(out.registry.counter("shuffle.corrupt_fetches"), 1);
        assert!(
            out.metrics.shuffle_time > clean.metrics.shuffle_time,
            "the re-fetched frame must cost shuffle time"
        );
        assert!(!out.metrics.degraded, "corruption recovery loses nothing");
        assert_eq!(out.metrics.map_retries, 0, "no re-execution for transient");
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn at_rest_corruption_reexecutes_the_producing_map() {
        let plan = FaultPlan::none().with_corrupt_shuffle(1, 0, 2);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.corrupt_fetches, 2, "both fetches were bad");
        assert_eq!(
            out.metrics.map_retries, 1,
            "the producer re-executed once the re-fetch failed too"
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    /// Dead nodes take their map slots with them, so the at-rest
    /// corruption wave re-executes its producers on the slots that survive.
    #[test]
    fn corrupt_reexecution_wave_runs_on_surviving_map_slots() {
        let mut cluster = ClusterConfig::test_placed(5);
        // An overhead far above the tiny tasks' host time makes a wave's
        // makespan a count of tasks per slot.
        cluster.task_overhead = Duration::from_secs(1);
        let overhead = cluster.task_overhead;
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("job must survive")
        };
        // All three producers rot at rest: three re-executions.
        let at_rest = FaultPlan::none()
            .with_corrupt_shuffle(0, 0, 2)
            .with_corrupt_shuffle(1, 0, 2)
            .with_corrupt_shuffle(2, 0, 2);
        let healthy = run(at_rest.clone());
        assert_eq!(healthy.metrics.corrupt_fetches, 6);
        assert!(
            healthy.metrics.shuffle_time < overhead * 2,
            "four map slots run the three re-executions side by side"
        );
        // Two of the four nodes die, leaving two of the four map slots.
        let lossy = run(at_rest
            .with_node_loss(0, u64::MAX / 2)
            .with_node_loss(1, u64::MAX / 2));
        assert_eq!(lossy.metrics.nodes_lost, 2);
        assert_eq!(lossy.metrics.corrupt_fetches, 6);
        assert!(
            lossy.metrics.shuffle_time >= overhead * 2 && lossy.metrics.shuffle_time < overhead * 3,
            "two surviving slots run the three re-executions in two rounds: {:?}",
            lossy.metrics.shuffle_time
        );
        assert_eq!(sorted_counts(lossy), expected_counts());
    }

    #[test]
    fn hung_attempts_are_killed_by_the_progress_timeout_and_retried() {
        let cluster = ClusterConfig::test();
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::hangs(2));
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let out = word_count_on(&cluster, &config).expect("job must survive hangs");
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.registry.counter("map.failures.hang"), 2);
        assert!(
            out.metrics.wasted_task_time >= cluster.progress_timeout * 2,
            "each kill charges the full progress timeout"
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn poison_record_without_skip_policy_aborts_the_job() {
        let plan = FaultPlan::none().with_poison_record(1, 0);
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(3));
        let err = word_count_config(&splits(), &config).expect_err("poison must abort");
        assert_eq!((err.task, err.index, err.attempts), (TaskKind::Map, 1, 3));
        assert!(err.last_cause().contains("poisoned at record 0"));
        assert!(!err.metrics.degraded);
    }

    #[test]
    fn skip_bad_records_narrows_to_the_poison_and_completes_degraded() {
        let mut cluster = ClusterConfig::test();
        cluster.skip_bad_records = true;
        // Poison split 1's only record ("b b"); the surviving input is
        // exactly splits 0 and 2.
        let plan = FaultPlan::none().with_poison_record(1, 0);
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let out = word_count_on(&cluster, &config).expect("skip policy must rescue the job");
        assert!(out.metrics.degraded);
        assert_eq!(out.metrics.records_skipped, 1);
        assert_eq!(out.registry.counter("map.records_skipped"), 1);
        // Budget exhausted once (4 attempts), then one clean skip round.
        assert_eq!(out.metrics.map_retries, 4);
        let reduced: Vec<Vec<String>> = vec![splits()[0].clone(), Vec::new(), splits()[2].clone()];
        let baseline = word_count(&reduced, 2, FaultPlan::none());
        assert_eq!(
            sorted_counts(out),
            sorted_counts(baseline),
            "output must equal the fault-free run minus the poisoned record"
        );
    }

    #[test]
    fn seeded_data_chaos_preserves_output_and_is_replayable() {
        let clean = sorted_counts(word_count(&splits(), 2, FaultPlan::none()));
        for seed in 0..6 {
            let run = || word_count(&splits(), 2, FaultPlan::chaos_data(seed));
            let a = run();
            let b = run();
            assert_eq!(a.metrics.corrupt_fetches, b.metrics.corrupt_fetches);
            assert_eq!(sorted_counts(a), clean, "seed {seed} changed the output");
            assert_eq!(sorted_counts(b), clean, "seed {seed} changed the output");
        }
    }

    #[test]
    fn node_loss_reexecutes_completed_maps_without_changing_output() {
        let cluster = ClusterConfig::test_placed(0xBEEF);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("job must survive a node loss")
        };
        let clean = run(FaultPlan::none());
        assert_eq!(clean.metrics.nodes_lost, 0);
        assert_eq!(clean.metrics.reexecution_time, Duration::ZERO);
        // Kill the node that homes map task 0's output, far past the map
        // phase: its completed output is invalidated and must re-execute.
        let placement = Placement::new(0xBEEF);
        let alive: Vec<usize> = (0..cluster.nodes).collect();
        let victim = placement.task_home("wc", TaskKind::Map, 0, &alive);
        let faulty = run(FaultPlan::none().with_node_loss(victim, u64::MAX / 2));
        assert_eq!(faulty.metrics.nodes_lost, 1);
        assert!(faulty.metrics.maps_reexecuted >= 1, "map 0 lived there");
        assert!(faulty.metrics.reexecution_time >= cluster.heartbeat_timeout);
        assert!(
            faulty.metrics.sim_runtime > clean.metrics.sim_runtime,
            "detection + re-execution must cost simulated time"
        );
        assert_eq!(faulty.registry.counter("node.lost"), 1);
        assert_eq!(
            faulty.registry.counter("map.reexecuted"),
            faulty.metrics.maps_reexecuted
        );
        assert_eq!(sorted_counts(faulty), sorted_counts(clean));
    }

    #[test]
    fn node_events_are_inert_without_a_placement() {
        let plan = FaultPlan::none()
            .with_node_loss(0, 0)
            .with_node_partition(1, 0, 500);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.nodes_lost, 0);
        assert_eq!(out.metrics.maps_reexecuted, 0);
        assert_eq!(out.metrics.reexecution_time, Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn node_partition_stalls_the_shuffle() {
        let cluster = ClusterConfig::test_placed(3);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("job must survive a partition")
        };
        let clean = run(FaultPlan::none());
        let stalled = run(FaultPlan::none().with_node_partition(0, 0, 700));
        assert_eq!(
            stalled.metrics.shuffle_time,
            clean.metrics.shuffle_time + Duration::from_micros(700),
            "the partition window stalls the shuffle barrier"
        );
        assert_eq!(sorted_counts(stalled), sorted_counts(clean));
    }

    #[test]
    fn failing_nodes_are_blacklisted() {
        let cluster = ClusterConfig::test_placed(9);
        let plan = FaultPlan::none()
            .with_map_fault(0, TaskFault::lost(2))
            .with_map_fault(1, TaskFault::lost(1));
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_blacklist(BlacklistPolicy::new().with_max_failures(1));
        let out = word_count_on(&cluster, &config).expect("job must succeed");
        assert!(out.metrics.nodes_blacklisted >= 1, "strikes were recorded");
        assert_eq!(
            out.registry.counter("node.blacklisted"),
            out.metrics.nodes_blacklisted
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn node_chaos_is_replayable_and_output_preserving() {
        let cluster = ClusterConfig::test_placed(11);
        let run = |seed: u64| {
            let config = JobConfig::new("wc", 2).with_faults(FaultPlan::chaos_nodes(seed));
            word_count_on(&cluster, &config).expect("chaos run must succeed")
        };
        for seed in 0..6 {
            let a = run(seed);
            let b = run(seed);
            // The deterministic counters replay exactly; only measured
            // durations may differ between runs.
            assert_eq!(a.metrics.nodes_lost, b.metrics.nodes_lost);
            assert_eq!(a.metrics.maps_reexecuted, b.metrics.maps_reexecuted);
            assert_eq!(sorted_counts(a), expected_counts(), "seed {seed}");
            assert_eq!(sorted_counts(b), expected_counts(), "seed {seed}");
        }
    }

    /// Test cluster with the out-of-core plane forced on: a `budget`-byte
    /// map output buffer spills (almost) every emitted pair.
    fn spill_cluster(budget: u64) -> ClusterConfig {
        let mut cluster = ClusterConfig::test();
        cluster.storage.memory_budget = Some(budget);
        cluster
    }

    #[test]
    fn spill_mode_is_output_identical_and_reports_storage_metrics() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let cluster = spill_cluster(1);
        let out = word_count_on(&cluster, &JobConfig::new("wc", 2)).expect("spill run");
        assert!(out.metrics.spill_files > 0, "a 1-byte budget must spill");
        assert!(out.metrics.spilled_bytes > 0);
        assert!(out.metrics.merge_passes >= 1, "disk runs need a final pass");
        assert_eq!(
            out.registry.counter("storage.spill_files"),
            out.metrics.spill_files
        );
        assert_eq!(
            out.registry.counter("storage.spilled_bytes"),
            out.metrics.spilled_bytes
        );
        assert_eq!(
            out.registry.counter("storage.merge_passes"),
            out.metrics.merge_passes
        );
        // The shuffle model accounts wire bytes, not the representation.
        assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
        assert_eq!(
            out.metrics.reduce_input_keys,
            clean.metrics.reduce_input_keys
        );
        // A clean in-memory run reports no storage traffic at all.
        assert_eq!(clean.metrics.spill_files, 0);
        assert_eq!(clean.metrics.spilled_bytes, 0);
        assert_eq!(clean.metrics.merge_passes, 0);
        assert_eq!(sorted_counts(out), sorted_counts(clean));
    }

    #[test]
    fn spill_mode_survives_faults_and_chaos() {
        let clean = sorted_counts(word_count(&splits(), 2, FaultPlan::none()));
        let cluster = spill_cluster(1);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("spill run must survive")
        };
        let retried = run(FaultPlan::fail_maps([0, 2]));
        assert_eq!(retried.metrics.map_retries, 2);
        assert_eq!(sorted_counts(retried), clean);

        let panicky = run(FaultPlan::none().with_reduce_fault(0, TaskFault::panics(1)));
        assert_eq!(panicky.metrics.reduce_retries, 1);
        assert_eq!(sorted_counts(panicky), clean);

        let regenerated = run(FaultPlan::none().with_lost_partition(0, 0));
        assert_eq!(regenerated.metrics.map_retries, 1);
        assert_eq!(sorted_counts(regenerated), clean);

        for seed in 0..4 {
            let out = run(FaultPlan::seeded(seed));
            assert_eq!(sorted_counts(out), clean, "seed {seed} changed the output");
        }
    }

    /// Spill-mode corruption physically bit-flips the on-disk segment; the
    /// CRC scan must catch it and route into the re-fetch → re-exec ladder.
    #[test]
    fn spill_segment_corruption_routes_into_the_recovery_ladder() {
        let cluster = spill_cluster(1);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("spill run must survive")
        };
        // Transient: the first fetch hits the flipped bit, the re-fetch
        // (bit restored — a clean replica) passes the scan.
        let transient = run(FaultPlan::none().with_corrupt_shuffle(0, 0, 1));
        assert_eq!(transient.metrics.corrupt_fetches, 1);
        assert_eq!(transient.registry.counter("shuffle.corrupt_partitions"), 1);
        assert_eq!(transient.metrics.map_retries, 0);
        assert_eq!(sorted_counts(transient), expected_counts());
        // At rest: both fetches fail the scan, the producing map re-executes
        // and rewrites its segments.
        let at_rest = run(FaultPlan::none().with_corrupt_shuffle(1, 0, 2));
        assert_eq!(at_rest.metrics.corrupt_fetches, 2);
        assert_eq!(at_rest.metrics.map_retries, 1);
        assert_eq!(sorted_counts(at_rest), expected_counts());
    }

    #[test]
    fn spill_runs_emit_storage_spans_reproducibly() {
        let cluster = spill_cluster(1);
        let render = || {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 2).with_collector(Some(collector.clone()));
            word_count_on(&cluster, &config).expect("job must succeed");
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        let trace = render();
        assert!(trace.contains("\"spill[0]\""), "spill span missing");
        assert!(trace.contains("\"merge\""), "merge span missing");
        assert_eq!(trace, render(), "spill trace bytes must be reproducible");
    }

    /// A mid-task reduce crash lands on the same key group in memory and
    /// under spilling: the crashed attempt's share of `keys_reduced` shows
    /// where it died.
    #[test]
    fn reduce_crash_point_matches_in_memory_and_spilled() {
        let plan = FaultPlan::none().with_reduce_fault(0, TaskFault::panics(1));
        let config = JobConfig::new("wc", 1).with_faults(plan);
        let keys_reduced = |cluster: &ClusterConfig| {
            let out = word_count_on(cluster, &config).expect("one crash is within budget");
            assert_eq!(out.metrics.reduce_retries, 1);
            out.counters.get("keys_reduced")
        };
        let in_memory = keys_reduced(&ClusterConfig::test());
        // Keys a, b, c: the crashed attempt reduced key 0 and died at key
        // 3 / 2 = 1; the retry reduced all three.
        assert_eq!(in_memory, 1 + 3);
        assert_eq!(keys_reduced(&spill_cluster(1)), in_memory);
    }

    struct WcReduceLike;
    struct WcReduceLikeTask;
    impl ReduceTask for WcReduceLikeTask {
        type K = u32;
        type V = u32;
        type Out = u32;
        fn reduce(&mut self, _key: u32, values: Vec<u32>, out: &mut OutputCollector<u32>) {
            out.collect(values.into_iter().sum());
        }
    }
    impl ReduceFactory for WcReduceLike {
        type Task = WcReduceLikeTask;
        fn create(&self, _: &TaskContext) -> WcReduceLikeTask {
            WcReduceLikeTask
        }
    }
}
