//! The traced run: each pipeline rebuilt from its public parts, with the
//! stock map/reduce factories wrapped in timing decorators, and spans
//! recorded at every layer boundary the benchmark can see from outside.
//!
//! Spans stay in memory ([`Recorder`]) and are written out once, when the
//! run ends. The run uses one host thread, so spans are serial and a
//! layer's self time is its spans' busy time minus their children's.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use skymr::bitstring::job::generate_bitstring;
use skymr::checkpoint::BitstringStage;
use skymr::gpmrs::{GpmrsMapFactory, GpmrsReduceFactory};
use skymr::gpsrs::{GpsrsMapFactory, GpsrsReduceFactory};
use skymr::groups::plan_groups;
use skymr::{RunInfo, SkylineConfig};
use skymr_baselines::mr_angle::{
    angle_splits, AngleLocalReduceFactory, AngleMapFactory, AngleMergeReduceFactory,
};
use skymr_baselines::mr_bnl::{
    ForwardMapFactory, LocalSkylineReduceFactory, MergeReduceFactory, MergeStrategy,
    PartitionMapFactory,
};
use skymr_baselines::BaselineConfig;
use skymr_common::dataset::canonicalize;
use skymr_common::{ByteSized, Dataset, Error, Tuple};
use skymr_mapreduce::{
    run_job, ClusterConfig, Emitter, JobConfig, JobMetrics, MapFactory, MapTask, ModuloPartitioner,
    OutputCollector, PipelineMetrics, ReduceFactory, ReduceTask, SingleReducerPartitioner,
    TaskContext,
};

use crate::workload::{configs_on, settle, sorted_ids, submit_round, Algo, Bench, Fingerprint};

/// Layers, named after the modules whose calls their spans enclose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The operation itself; its self time is the untraced residual.
    Op,
    /// The rebuilt pipeline's own glue: input splitting, checkpoint
    /// stages, output canonicalization, executor data planes.
    Pipeline,
    Bitstring,
    Groups,
    /// A `run_job` call; its self time is the engine outside UDF calls.
    Job,
    Map,
    Reduce,
    /// A `ClusterExecutor::run` call.
    Sched,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Pipeline => "pipeline",
            Layer::Bitstring => "core.bitstring",
            Layer::Groups => "core.groups",
            Layer::Job => "mapreduce.job",
            Layer::Map => "core.map",
            Layer::Reduce => "core.reduce",
            Layer::Sched => "mapreduce.sched",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. UDF spans aggregate one task: `start`/`end` are its
/// first call's start and last call's end, `busy` the sum of its calls.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    /// UDF spans: tuples the task consumed.
    pub tuples: u64,
    /// Reduce spans: records the task produced.
    pub produced: u64,
}

#[derive(Debug, Default)]
struct RecState {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    state: Mutex<RecState>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            state: Mutex::new(RecState::default()),
        })
    }

    fn at(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.epoch))
    }

    /// Runs `f` inside a span of `layer`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.at(Instant::now());
        let id = {
            let mut s = self.state.lock();
            let id = s.spans.len();
            let (op, parent) = (s.op, s.open.last().copied());
            s.spans.push(Span {
                op,
                id,
                parent,
                layer,
                start_ns: start,
                end_ns: start,
                busy_ns: 0,
                tuples: 0,
                produced: 0,
            });
            s.open.push(id);
            id
        };
        let out = f();
        let end = self.at(Instant::now());
        let mut s = self.state.lock();
        s.open.pop();
        let span = &mut s.spans[id];
        span.end_ns = end;
        span.busy_ns = end.saturating_sub(span.start_ns);
        out
    }

    /// Records one task's aggregated UDF span under the innermost open
    /// span.
    fn task(&self, layer: Layer, clock: &CallClock, tuples: u64, produced: u64) {
        let (Some(first), Some(last)) = (clock.first, clock.last) else {
            return;
        };
        let (start_ns, end_ns) = (self.at(first), self.at(last));
        let mut s = self.state.lock();
        let id = s.spans.len();
        let (op, parent) = (s.op, s.open.last().copied());
        s.spans.push(Span {
            op,
            id,
            parent,
            layer,
            start_ns,
            end_ns,
            busy_ns: nanos(clock.busy),
            tuples,
            produced,
        });
    }

    /// Starts operation `op` and runs it inside its root span.
    pub fn op<T>(&self, op: u32, f: impl FnOnce() -> T) -> T {
        self.state.lock().op = op;
        self.span(Layer::Op, f)
    }

    fn spans_of(&self, op: u32) -> Vec<Span> {
        let s = self.state.lock();
        s.spans.iter().filter(|sp| sp.op == op).copied().collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for sp in &self.state.lock().spans {
            let parent = sp
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"tuples\": {}, \"produced\": {}}}",
                sp.op, sp.id, sp.layer.name(), sp.start_ns, sp.end_ns, sp.busy_ns, sp.tuples, sp.produced
            )?;
        }
        out.flush()
    }
}

/// Tuples carried by a record, so map input and reduce input are counted
/// in the same unit whatever the job's value type.
pub trait Weigh {
    fn tuples(&self) -> u64;
}

impl Weigh for Tuple {
    fn tuples(&self) -> u64 {
        1
    }
}

impl Weigh for (u32, Vec<Tuple>) {
    fn tuples(&self) -> u64 {
        self.1.len() as u64
    }
}

impl Weigh for Vec<(u32, Vec<Tuple>)> {
    fn tuples(&self) -> u64 {
        self.iter().map(Weigh::tuples).sum()
    }
}

/// Host time of one task's UDF calls.
#[derive(Debug, Default)]
struct CallClock {
    first: Option<Instant>,
    last: Option<Instant>,
    busy: Duration,
}

impl CallClock {
    fn stop(&mut self, start: Instant, end: Instant) {
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.busy += end - start;
    }
}

/// A stock map or reduce factory wrapped so that each of its tasks times
/// every `map`/`reduce`/`finish` call (not the task's lifetime, so the
/// engine's work between calls, such as spill drains, stays in
/// `mapreduce.job`).
#[derive(Debug)]
pub struct Timed<F> {
    inner: F,
    rec: Arc<Recorder>,
}

impl<F> Timed<F> {
    pub fn new(inner: F, rec: &Arc<Recorder>) -> Self {
        Self {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

/// A task of a [`Timed`] factory; reports its span when dropped.
#[derive(Debug)]
pub struct TimedTask<T> {
    inner: T,
    layer: Layer,
    rec: Arc<Recorder>,
    clock: CallClock,
    tuples: u64,
    produced: u64,
}

impl<T> TimedTask<T> {
    fn new(inner: T, layer: Layer, rec: &Arc<Recorder>) -> Self {
        Self {
            inner,
            layer,
            rec: Arc::clone(rec),
            clock: CallClock::default(),
            tuples: 0,
            produced: 0,
        }
    }
}

impl<T> Drop for TimedTask<T> {
    fn drop(&mut self) {
        self.rec
            .task(self.layer, &self.clock, self.tuples, self.produced);
    }
}

impl<F> MapFactory for Timed<F>
where
    F: MapFactory,
    <F::Task as MapTask>::In: Weigh,
{
    type Task = TimedTask<F::Task>;
    fn create(&self, ctx: &TaskContext) -> Self::Task {
        TimedTask::new(self.inner.create(ctx), Layer::Map, &self.rec)
    }
}

impl<T> MapTask for TimedTask<T>
where
    T: MapTask,
    T::In: Weigh,
{
    type In = T::In;
    type K = T::K;
    type V = T::V;

    fn map(&mut self, input: &Self::In, out: &mut Emitter<Self::K, Self::V>) {
        let start = Instant::now(); // xtask: allow(udf-determinism) — host clock feeds the advisory core.map span only; the wrapped task's input and emitted pairs are untouched
        self.inner.map(input, out);
        self.clock.stop(start, Instant::now()); // xtask: allow(udf-determinism) — closes the same advisory span; no output depends on it
        self.tuples += input.tuples();
    }

    fn finish(&mut self, out: &mut Emitter<Self::K, Self::V>) {
        let start = Instant::now(); // xtask: allow(udf-determinism) — host clock feeds the advisory core.map span only; the wrapped task's emitted pairs are untouched
        self.inner.finish(out);
        self.clock.stop(start, Instant::now()); // xtask: allow(udf-determinism) — closes the same advisory span; no output depends on it
    }
}

impl<F> ReduceFactory for Timed<F>
where
    F: ReduceFactory,
    <F::Task as ReduceTask>::V: Weigh,
{
    type Task = TimedTask<F::Task>;
    fn create(&self, ctx: &TaskContext) -> Self::Task {
        TimedTask::new(self.inner.create(ctx), Layer::Reduce, &self.rec)
    }
}

impl<T> ReduceTask for TimedTask<T>
where
    T: ReduceTask,
    T::V: Weigh,
{
    type K = T::K;
    type V = T::V;
    type Out = T::Out;

    fn reduce(&mut self, key: Self::K, values: Vec<Self::V>, out: &mut OutputCollector<Self::Out>) {
        self.tuples += values.iter().map(Weigh::tuples).sum::<u64>();
        let before = out.len();
        let start = Instant::now(); // xtask: allow(udf-determinism) — host clock feeds the advisory core.reduce span only; the wrapped task's input and output are untouched
        self.inner.reduce(key, values, out);
        self.clock.stop(start, Instant::now()); // xtask: allow(udf-determinism) — closes the same advisory span; no output depends on it
        self.produced += (out.len() - before) as u64;
    }

    fn finish(&mut self, out: &mut OutputCollector<Self::Out>) {
        let before = out.len();
        let start = Instant::now(); // xtask: allow(udf-determinism) — host clock feeds the advisory core.reduce span only; the wrapped task's output is untouched
        self.inner.finish(out);
        self.clock.stop(start, Instant::now()); // xtask: allow(udf-determinism) — closes the same advisory span; no output depends on it
        self.produced += (out.len() - before) as u64;
    }
}

/// What one rebuilt pipeline produced.
#[derive(Debug)]
pub struct Rebuilt {
    pub fingerprint: Fingerprint,
    /// Every job's metrics, bitstring pre-job included.
    pub jobs: Vec<JobMetrics>,
    /// The jobs this module ran through `run_job` with timed factories.
    pub timed_jobs: usize,
}

fn counters_into(counters: &mut BTreeMap<String, u64>, job: &str, snapshot: BTreeMap<String, u64>) {
    for (k, v) in snapshot {
        counters.insert(format!("{job}.{k}"), v);
    }
}

/// `mr_gpsrs` and `mr_gpmrs`, rebuilt: `generate_bitstring` →
/// (`plan_groups` →) `run_job` with the stock factories, timed.
fn rebuilt_grid(
    rec: &Arc<Recorder>,
    algo: Algo,
    data: &Dataset,
    config: &SkylineConfig,
) -> Result<Rebuilt, Error> {
    let splits = rec.span(Layer::Pipeline, || data.split(config.mappers));
    let mut metrics = PipelineMetrics::new();
    let mut counters = BTreeMap::new();
    let mut runner = config.checkpoint.runner()?;
    let stage = rec.span(Layer::Pipeline, || {
        runner.stage("bitstring", &mut metrics, |metrics| {
            let (bitstring, info, bs_metrics) = rec.span(Layer::Bitstring, || {
                generate_bitstring(&splits, data.dim(), data.len(), config)
            })?;
            metrics.push(bs_metrics);
            Ok(BitstringStage { bitstring, info })
        })
    })?;
    let BitstringStage {
        bitstring,
        info: bs_info,
    } = stage;
    let grid = *bitstring.grid();
    let mut info = RunInfo {
        ppd: bs_info.ppd,
        partitions: grid.num_partitions(),
        non_empty_partitions: bs_info.non_empty,
        surviving_partitions: bs_info.surviving,
        independent_groups: 0,
        buckets: 1,
    };
    let cache_bytes = bitstring.bits().byte_size();
    let bitstring = Arc::new(bitstring);
    let skyline = if algo == Algo::Gpsrs {
        let job = JobConfig::new("gpsrs", 1)
            .with_cache_bytes(cache_bytes)
            .with_fault_tolerance(&config.fault_tolerance)
            .with_collector(config.telemetry.clone());
        rec.span(Layer::Pipeline, || {
            runner.stage("gpsrs", &mut metrics, |metrics| {
                let outcome = metrics.track(rec.span(Layer::Job, || {
                    run_job(
                        &config.cluster,
                        &job,
                        &splits,
                        &Timed::new(
                            GpsrsMapFactory::new(Arc::clone(&bitstring), config.local_algo),
                            rec,
                        ),
                        &Timed::new(GpsrsReduceFactory::new(grid), rec),
                        &SingleReducerPartitioner,
                    )
                }))?;
                counters_into(&mut counters, "gpsrs", outcome.counters.snapshot());
                Ok(canonicalize(outcome.into_flat_output()))
            })
        })?
    } else {
        let plan = rec.span(Layer::Groups, || {
            plan_groups(&bitstring, config.reducers, config.merge_policy)
        });
        info.independent_groups = plan.groups.len();
        info.buckets = plan.num_buckets();
        if plan.num_buckets() == 0 {
            Vec::new()
        } else {
            let plan = Arc::new(plan);
            let job = JobConfig::new("gpmrs", plan.num_buckets())
                .with_cache_bytes(cache_bytes)
                .with_fault_tolerance(&config.fault_tolerance)
                .with_collector(config.telemetry.clone());
            rec.span(Layer::Pipeline, || {
                runner.stage("gpmrs", &mut metrics, |metrics| {
                    let outcome = metrics.track(rec.span(Layer::Job, || {
                        run_job(
                            &config.cluster,
                            &job,
                            &splits,
                            &Timed::new(
                                GpmrsMapFactory::new(
                                    Arc::clone(&bitstring),
                                    Arc::clone(&plan),
                                    config.local_algo,
                                ),
                                rec,
                            ),
                            &Timed::new(
                                GpmrsReduceFactory::new(Arc::clone(&bitstring), Arc::clone(&plan)),
                                rec,
                            ),
                            &ModuloPartitioner,
                        )
                    }))?;
                    counters_into(&mut counters, "gpmrs", outcome.counters.snapshot());
                    Ok(canonicalize(outcome.into_flat_output()))
                })
            })?
        }
    };
    // Releasing the input splits is pipeline glue too.
    rec.span(Layer::Pipeline, || drop(splits));
    let timed_jobs = metrics.jobs.len() - 1;
    Ok(Rebuilt {
        fingerprint: Fingerprint::new(sorted_ids(&skyline), counters, Some(&info), &metrics.jobs),
        jobs: metrics.jobs,
        timed_jobs,
    })
}

/// `mr_bnl` and `mr_angle`, rebuilt: a partitioning job with per-cell
/// local skylines, then a single-reducer merge job.
fn rebuilt_two_phase(
    rec: &Arc<Recorder>,
    algo: Algo,
    data: &Dataset,
    config: &BaselineConfig,
) -> Result<Rebuilt, Error> {
    let splits = rec.span(Layer::Pipeline, || data.split(config.mappers));
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;
    let slots = config.cluster.reduce_slots;
    let (phase1, phase2) = if algo == Algo::Bnl {
        let cells = 1usize.checked_shl(data.dim() as u32).unwrap_or(usize::MAX);
        let job1 = JobConfig::new("mr-bnl-local", cells.min(slots).max(1)).with_fault_tolerance(ft);
        let phase1 = metrics.track(rec.span(Layer::Job, || {
            run_job(
                &config.cluster,
                &job1,
                &splits,
                &Timed::new(PartitionMapFactory, rec),
                &Timed::new(LocalSkylineReduceFactory, rec),
                &ModuloPartitioner,
            )
        }))?;
        let job2 = JobConfig::new("mr-bnl-merge", 1).with_fault_tolerance(ft);
        let phase2 = metrics.track(rec.span(Layer::Job, || {
            run_job(
                &config.cluster,
                &job2,
                &phase1.outputs,
                &Timed::new(ForwardMapFactory, rec),
                &Timed::new(MergeReduceFactory::new(MergeStrategy::PlainBnl), rec),
                &SingleReducerPartitioner,
            )
        }))?;
        (phase1, phase2)
    } else {
        let splits_by_angle = angle_splits(data.dim(), config.angular_partitions);
        let cells: usize = splits_by_angle.iter().product::<usize>().max(1);
        let job1 =
            JobConfig::new("mr-angle-local", cells.min(slots).max(1)).with_fault_tolerance(ft);
        let phase1 = metrics.track(rec.span(Layer::Job, || {
            run_job(
                &config.cluster,
                &job1,
                &splits,
                &Timed::new(AngleMapFactory::new(splits_by_angle), rec),
                &Timed::new(AngleLocalReduceFactory, rec),
                &ModuloPartitioner,
            )
        }))?;
        let job2 = JobConfig::new("mr-angle-merge", 1).with_fault_tolerance(ft);
        let phase2 = metrics.track(rec.span(Layer::Job, || {
            run_job(
                &config.cluster,
                &job2,
                &phase1.outputs,
                &Timed::new(ForwardMapFactory, rec),
                &Timed::new(AngleMergeReduceFactory, rec),
                &SingleReducerPartitioner,
            )
        }))?;
        (phase1, phase2)
    };
    let skyline = rec.span(Layer::Pipeline, || {
        drop((splits, phase1));
        canonicalize(phase2.into_flat_output())
    });
    let timed_jobs = metrics.jobs.len();
    Ok(Rebuilt {
        fingerprint: Fingerprint::new(sorted_ids(&skyline), BTreeMap::new(), None, &metrics.jobs),
        jobs: metrics.jobs,
        timed_jobs,
    })
}

/// Runs the rebuilt pipeline of `algo`.
pub fn rebuilt(
    rec: &Arc<Recorder>,
    algo: Algo,
    data: &Dataset,
    skyline: &SkylineConfig,
    baseline: &BaselineConfig,
) -> Result<Rebuilt, Error> {
    match algo {
        Algo::Gpsrs | Algo::Gpmrs => rebuilt_grid(rec, algo, data, skyline),
        Algo::Bnl | Algo::Angle => rebuilt_two_phase(rec, algo, data, baseline),
    }
}

/// Deterministic counts of one operation: two traced runs of the same
/// seed must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub partitions: u64,
    pub surviving: u64,
    pub buckets: u64,
    pub map_tuples_in: u64,
    pub map_pairs_out: u64,
    pub map_tuple_cmps: u64,
    pub reduce_tuples_in: u64,
    pub reduce_records_out: u64,
    pub reduce_tuple_cmps: u64,
    pub shuffle_bytes: u64,
    pub max_reducer_bytes: u64,
    pub spill_files: u64,
    pub spilled_bytes: u64,
    pub merge_passes: u64,
    pub preemptions: u64,
    pub rejected: u64,
}

impl Counts {
    fn absorb(&mut self, algo: Algo, r: &Rebuilt) {
        let f = &r.fingerprint;
        if let Some(info) = f.info {
            self.partitions += info[1] as u64;
            self.surviving += info[3] as u64;
            // Only MR-GPMRS plans groups; MR-GPSRS's single bucket is fixed.
            if algo == Algo::Gpmrs {
                self.buckets += info[5] as u64;
            }
        }
        let cmps = |suffix: &str| -> u64 {
            f.counters
                .iter()
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        self.map_tuple_cmps += cmps(".map.tuple_cmps");
        self.reduce_tuple_cmps += cmps(".reduce.tuple_cmps");
        let timed = &r.jobs[r.jobs.len() - r.timed_jobs..];
        for j in timed {
            self.map_pairs_out += j.map_output_records;
            self.shuffle_bytes += j.shuffle_bytes;
            let q = j.per_reducer_bytes.iter().copied().max().unwrap_or(0);
            self.max_reducer_bytes = self.max_reducer_bytes.max(q);
        }
        for j in &r.jobs {
            self.spill_files += j.spill_files;
            self.spilled_bytes += j.spilled_bytes;
            self.merge_passes += j.merge_passes;
        }
    }
}

/// One traced operation.
#[derive(Debug)]
pub struct TracedOp {
    pub wall_ns: u64,
    /// Self time per [`Layer`] (index = `Layer as usize`).
    pub self_ns: [u64; 8],
    pub max_reduce_task_ns: u64,
    pub queue_wait_ns: u64,
    pub counts: Counts,
    pub failures: Vec<String>,
    pub prints: Vec<(usize, Algo, Fingerprint)>,
}

/// Runs traced operation `index` of a cycle as operation number `op`.
pub fn traced_op(rec: &Arc<Recorder>, bench: &Bench, index: usize, op: u32) -> TracedOp {
    let mut failures = Vec::new();
    let mut results: Vec<(usize, Algo, Rebuilt)> = Vec::new();
    let mut counts = Counts::default();
    let mut queue_wait = Duration::ZERO;
    rec.op(op, || {
        if bench.workload.tenants == 0 {
            let algo = bench.workload.algos[index];
            let data = &bench.datasets[0];
            match rebuilt(rec, algo, data, &bench.skyline, &bench.baseline) {
                Ok(r) => results.push((0, algo, r)),
                Err(e) => failures.push(format!("{}: {e}", algo.name())),
            }
        } else {
            let (mut exec, handles) = submit_round(bench, |_, algo, data| {
                let (skyline, baseline) = (bench.skyline.clone(), bench.baseline.clone());
                let rec = Arc::clone(rec);
                Box::new(move |cl: &ClusterConfig| {
                    rec.span(Layer::Pipeline, || {
                        let (s, b) = configs_on(cl, &skyline, &baseline);
                        let r = rebuilt(&rec, algo, &data, &s, &b)?;
                        let jobs = r.jobs.clone();
                        Ok((r, jobs))
                    })
                })
            });
            let report = rec.span(Layer::Sched, || exec.run());
            counts.preemptions = report.preemptions;
            counts.rejected = report.rejected;
            for (tenant, algo, handle) in handles {
                match settle(&mut exec, handle) {
                    Ok((r, wait)) => {
                        queue_wait += wait;
                        results.push((tenant, algo, r));
                    }
                    Err(e) => failures.push(format!("{}-t{tenant}: {e}", algo.name())),
                }
            }
        }
    });

    let spans = rec.spans_of(op);
    let (wall_ns, self_ns, max_reduce_task_ns) = layer_times(&spans);
    for sp in &spans {
        match sp.layer {
            Layer::Map => counts.map_tuples_in += sp.tuples,
            Layer::Reduce => {
                counts.reduce_tuples_in += sp.tuples;
                counts.reduce_records_out += sp.produced;
            }
            _ => {}
        }
    }
    let mut prints = Vec::new();
    for (tenant, algo, r) in results {
        counts.absorb(algo, &r);
        if r.fingerprint.ids != bench.oracles[tenant] {
            failures.push(format!(
                "rebuilt {}-t{tenant}: skyline differs from the oracle",
                algo.name()
            ));
        }
        prints.push((tenant, algo, r.fingerprint));
    }
    failures.extend(bench.spill_leftovers());
    TracedOp {
        wall_ns,
        self_ns,
        max_reduce_task_ns,
        queue_wait_ns: nanos(queue_wait),
        counts,
        failures,
        prints,
    }
}

/// `(op wall, self time per layer, slowest reduce task)` of one
/// operation's spans.
fn layer_times(spans: &[Span]) -> (u64, [u64; 8], u64) {
    let mut child_busy: BTreeMap<usize, u64> = BTreeMap::new();
    for sp in spans {
        if let Some(p) = sp.parent {
            *child_busy.entry(p).or_default() += sp.busy_ns;
        }
    }
    let mut self_ns = [0u64; 8];
    let mut wall = 0;
    let mut max_reduce = 0;
    for sp in spans {
        let children = child_busy.get(&sp.id).copied().unwrap_or(0);
        self_ns[sp.layer.index()] += sp.busy_ns.saturating_sub(children);
        match sp.layer {
            Layer::Op => wall += sp.busy_ns,
            Layer::Reduce => max_reduce = max_reduce.max(sp.busy_ns),
            _ => {}
        }
    }
    (wall, self_ns, max_reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, layer, busy_ns| Span {
            op: 0,
            id,
            parent,
            layer,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            tuples: 0,
            produced: 0,
        };
        let spans = [
            span(0, None, Layer::Op, 100),
            span(1, Some(0), Layer::Job, 90),
            span(2, Some(1), Layer::Map, 30),
            span(3, Some(1), Layer::Reduce, 50),
            span(4, Some(1), Layer::Reduce, 5),
        ];
        let (wall, self_ns, max_reduce) = layer_times(&spans);
        assert_eq!(wall, 100);
        assert_eq!(self_ns[Layer::Op.index()], 10);
        assert_eq!(self_ns[Layer::Job.index()], 5);
        assert_eq!(self_ns[Layer::Reduce.index()], 55);
        assert_eq!(max_reduce, 50);
    }
}
