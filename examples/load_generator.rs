//! Load generator: sustained multi-tenant job pressure on one cluster.
//!
//! ```text
//! cargo run -p skymr-examples --release --bin load_generator
//! ```
//!
//! Three tenants push 120 seeded analytics jobs at a small shared slot
//! pool — far more work than the cluster can hold at once. The
//! [`ClusterExecutor`] must degrade gracefully: admit what fits, shed the
//! overflow with structured rejections (never a panic, never a hang), meet
//! or miss deadlines deterministically, and keep the per-tenant accounting
//! honest. The same submission set is replayed under all three scheduling
//! policies (FIFO, fair-share, priority-with-preemption) so their
//! trade-offs are visible side by side, and every job that finishes under
//! more than one policy must produce byte-identical output — scheduling
//! may decide *when*, never *what*.
//!
//! Each job streams its input from a seeded [`skymr_datagen::stream`]
//! recipe through [`FnSplits`]: a queued job holds only `(seed, shape)`,
//! and a split is materialized per map attempt, then dropped.

use std::collections::BTreeMap;
use std::time::Duration;

use skymr_common::{Error, Tuple};
use skymr_datagen::{stream, Distribution};
use skymr_mapreduce::telemetry::export::chrome_trace;
use skymr_mapreduce::{
    run_job, AdmissionConfig, ClusterConfig, ClusterExecutor, Collector, Emitter,
    FairShareScheduler, FifoScheduler, FnSplits, HashPartitioner, JobCompletion, JobConfig,
    JobMetrics, JobSpec, MapFactory, MapTask, OutputCollector, PriorityScheduler, ReduceFactory,
    ReduceTask, Reservation, Scheduler, TaskContext,
};

/// The workload: a coarse grid histogram — every tuple lands in one of
/// 4^dim cells, reducers sum the per-cell counts. Deterministic, cheap,
/// and shaped like the paper's bitstring-generation job.
struct CellCount;
struct CellCountTask;

impl MapTask for CellCountTask {
    type In = Tuple;
    type K = u64;
    type V = u64;
    fn map(&mut self, t: &Tuple, out: &mut Emitter<u64, u64>) {
        let mut cell = 0u64;
        for v in t.values.iter() {
            cell = cell * 4 + (((v * 4.0) as u64).min(3));
        }
        out.emit(cell, 1);
    }
}

impl MapFactory for CellCount {
    type Task = CellCountTask;
    fn create(&self, _: &TaskContext) -> CellCountTask {
        CellCountTask
    }
}

struct SumCells;
struct SumCellsTask;

impl ReduceTask for SumCellsTask {
    type K = u64;
    type V = u64;
    type Out = (u64, u64);
    fn reduce(&mut self, cell: u64, counts: Vec<u64>, out: &mut OutputCollector<(u64, u64)>) {
        out.collect((cell, counts.iter().sum()));
    }
}

impl ReduceFactory for SumCells {
    type Task = SumCellsTask;
    fn create(&self, _: &TaskContext) -> SumCellsTask {
        SumCellsTask
    }
}

/// One job's seeded recipe; everything downstream derives from this.
#[derive(Clone, Copy)]
struct JobRecipe {
    index: usize,
    tenant: &'static str,
    cardinality: usize,
    seed: u64,
    arrival_ms: u64,
    deadline_ms: Option<u64>,
    priority: i32,
}

const TENANTS: [&str; 3] = ["analytics", "batch", "ops"];
const JOBS: usize = 120;
const SPLITS: usize = 3;

fn recipes() -> Vec<JobRecipe> {
    (0..JOBS)
        .map(|i| JobRecipe {
            index: i,
            tenant: TENANTS[i % TENANTS.len()],
            // 600..=3000 tuples, seeded per job.
            cardinality: 600 + (i % 5) * 600,
            seed: 0xBEEF + i as u64,
            // Bursty arrivals: waves of 8 jobs every 10 simulated ms —
            // far faster than the pool can drain them.
            arrival_ms: (i as u64 / 8) * 10,
            // Every 9th job carries a tight deadline some of which the
            // overloaded cluster will deterministically miss.
            deadline_ms: (i % 9 == 0).then_some((i as u64 / 8) * 10 + 150),
            // The ops tenant runs urgent work: under the priority policy
            // it may preempt the other tenants' running attempts.
            priority: if i % TENANTS.len() == 2 { 5 } else { 0 },
        })
        .collect()
}

/// Sorted `(cell, count)` pairs plus the per-job metrics the control
/// plane replays.
type PlaneOutput = Result<(Vec<(u64, u64)>, Vec<JobMetrics>), Error>;

/// The data plane: stream-chunked splits, one MapReduce job, sorted cell
/// counts out. Pure — byte-identical under any schedule.
fn plane(recipe: JobRecipe, cluster: &ClusterConfig) -> PlaneOutput {
    let chunk = recipe.cardinality.div_ceil(SPLITS);
    let lens: Vec<usize> = (0..SPLITS)
        .map(|s| chunk.min(recipe.cardinality - (s * chunk).min(recipe.cardinality)))
        .filter(|&len| len > 0)
        .collect();
    let source = FnSplits::new(lens, move |s| {
        stream(
            Distribution::Independent,
            3,
            recipe.cardinality,
            recipe.seed,
        )
        .chunks(chunk)
        .nth(s)
        .expect("split index within the declared shape")
    });
    let outcome = run_job(
        cluster,
        &JobConfig::new(format!("cells-{}", recipe.index), 2),
        &source,
        &CellCount,
        &SumCells,
        &HashPartitioner,
    )
    .map_err(Error::from)?;
    let mut metrics = outcome.metrics.clone();
    // The host-measured task timings are sub-tick for a workload this
    // small, so the control plane would see an idle cluster no matter how
    // many jobs pile up. Charge each task a deterministic per-record
    // compute model instead (40µs/tuple map, 5µs/tuple reduce): now the
    // slot pool genuinely saturates and the admission queue, deadlines,
    // and preemption all have something to push against.
    let per_map = Duration::from_micros((recipe.cardinality.div_ceil(SPLITS) * 40) as u64);
    let per_reduce = Duration::from_micros((recipe.cardinality * 5 / 2) as u64);
    for d in &mut metrics.map_task_durations {
        *d = per_map;
    }
    for d in &mut metrics.reduce_task_durations {
        *d = per_reduce;
    }
    let mut cells = outcome.into_flat_output();
    cells.sort_unstable();
    Ok((cells, vec![metrics]))
}

/// Replays the whole submission set under one policy. When `trace` names
/// a file, the run's span timeline (admission `queued` spans, `preempt`
/// instants, task attempts) is exported there as a Chrome trace.
fn run_policy(
    policy: impl Scheduler + 'static,
    fingerprints: &mut BTreeMap<usize, Vec<(u64, u64)>>,
    trace: Option<&str>,
) {
    // A small pool under heavy load: 4 map slots, 2 reduce slots, modeled
    // task durations far heavier than the arrival cadence, a 16-deep
    // admission queue, and a memory ledger sized so the deepest backlogs
    // overflow it.
    let mut cluster = ClusterConfig::test();
    cluster.map_slots = 4;
    cluster.reduce_slots = 2;
    cluster.job_startup = Duration::from_millis(1);
    let mut executor = ClusterExecutor::new(cluster)
        .with_admission(AdmissionConfig::with_queue_depth(16).with_memory_capacity(1 << 20))
        .with_scheduler(policy);
    let collector = trace.map(|_| Collector::new());
    if let Some(collector) = &collector {
        executor = executor.with_collector(collector.clone());
    }

    let mut handles = Vec::new();
    for recipe in recipes() {
        let mut spec = JobSpec::new(format!("cells-{:03}", recipe.index), recipe.tenant)
            .arriving_at(Duration::from_millis(recipe.arrival_ms))
            .with_priority(recipe.priority)
            .with_reservation(Reservation::minimal().with_memory((recipe.cardinality * 24) as u64))
            .with_speculation(recipe.index % 4 == 0);
        if let Some(deadline) = recipe.deadline_ms {
            spec = spec.with_deadline(Duration::from_millis(deadline));
        }
        let handle = executor
            .submit(spec, move |cluster: &ClusterConfig| plane(recipe, cluster))
            .expect("minimal reservations are always statically feasible");
        handles.push((recipe.index, handle));
    }

    let report = executor.run();
    print!("{}", report.render());
    if let (Some(path), Some(collector)) = (trace, &collector) {
        let doc = collector.finish();
        std::fs::write(path, chrome_trace(&doc)).expect("trace file is writable");
        println!("  -> span timeline written to {path}");
    }

    let (mut finished, mut rejected, mut cancelled, mut failed) = (0u32, 0u32, 0u32, 0u32);
    let mut queue_wait = Duration::ZERO;
    for (index, handle) in handles {
        match executor.take(handle) {
            JobCompletion::Finished(outcome) => {
                finished += 1;
                queue_wait += outcome.stats.queue_wait;
                // Scheduling decides when, never what: a job finishing
                // under several policies must produce identical bytes.
                let prior = fingerprints.insert(index, outcome.output.clone());
                if let Some(prior) = prior {
                    assert_eq!(
                        prior, outcome.output,
                        "job {index} produced different bytes under a different policy"
                    );
                }
            }
            JobCompletion::Rejected(e) => {
                rejected += 1;
                assert!(matches!(e, Error::AdmissionRejected { .. }));
            }
            JobCompletion::Cancelled(_) => cancelled += 1,
            JobCompletion::Failed(_) => failed += 1,
        }
    }
    assert_eq!(finished + rejected + cancelled + failed, JOBS as u32);
    println!(
        "  -> every job accounted for: {finished} finished, {rejected} rejected, \
         {cancelled} cancelled, {failed} failed; total queue wait {queue_wait:.2?}"
    );

    // The fairness bill, straight from the per-tenant slot-tick ledger.
    let ticks: Vec<u64> = report.tenants.values().map(|t| t.slot_ticks).collect();
    let (min, max) = (
        ticks.iter().copied().min().unwrap_or(0),
        ticks.iter().copied().max().unwrap_or(0),
    );
    if min > 0 {
        println!(
            "  -> tenant slot-tick spread: max/min = {:.2}",
            max as f64 / min as f64
        );
    }
    println!();
}

fn main() {
    println!(
        "{} jobs, {} tenants, bursty arrivals, one small cluster (4 map / 2 reduce slots)\n",
        JOBS,
        TENANTS.len()
    );
    // An optional first argument names a Chrome-trace output file for the
    // priority run (the one with preemptions), e.g. for the CI schema gate.
    let trace = std::env::args().nth(1);
    let mut fingerprints = BTreeMap::new();
    run_policy(FifoScheduler, &mut fingerprints, None);
    run_policy(FairShareScheduler, &mut fingerprints, None);
    run_policy(PriorityScheduler, &mut fingerprints, trace.as_deref());
    println!(
        "{} distinct jobs finished under at least one policy with byte-identical output",
        fingerprints.len()
    );
}
