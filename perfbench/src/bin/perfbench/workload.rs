//! The four workloads, their set-up, the oracle, and one untraced
//! operation through the public pipeline entry points.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skymr::{mr_gpmrs, mr_gpsrs, RunInfo, SkylineConfig, SkylineRun};
use skymr_baselines::{mr_angle, mr_bnl, sfs_skyline, BaselineConfig, BaselineRun, SfsOrder};
use skymr_common::{Dataset, Error};
use skymr_datagen::{generate, Distribution};
use skymr_mapreduce::pool::run_indexed;
use skymr_mapreduce::{
    ClusterConfig, ClusterExecutor, FairShareScheduler, JobCompletion, JobHandle, JobMetrics,
    JobSpec, SchedReport, StorageConfig,
};

/// A pipeline entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Gpsrs,
    Gpmrs,
    Bnl,
    Angle,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Gpsrs => "mr-gpsrs",
            Algo::Gpmrs => "mr-gpmrs",
            Algo::Bnl => "mr-bnl",
            Algo::Angle => "mr-angle",
        }
    }
}

/// One benchmark workload. README.md records why each was chosen.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dist: Distribution,
    pub dim: usize,
    /// Tuples per dataset.
    pub card: usize,
    /// 0: one dataset, and each operation is one call of the next
    /// algorithm in `algos`. `t > 0`: `t` tenants, each with its own
    /// dataset, and each operation is one `ClusterExecutor::run` round in
    /// which every tenant submits every algorithm in `algos`.
    pub tenants: usize,
    pub algos: [Algo; 2],
    /// Per-map-task memory budget; `None` keeps intermediates in memory.
    pub memory_budget: Option<u64>,
}

/// Distance between the seeds of one run's datasets, so that runs with
/// nearby seeds share no tenant dataset.
const DATASET_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "anti6d-reduce",
        dist: Distribution::Anticorrelated,
        dim: 6,
        card: 100_000,
        tenants: 0,
        algos: [Algo::Gpsrs, Algo::Gpmrs],
        memory_budget: None,
    },
    Workload {
        name: "indep1m-map",
        dist: Distribution::Independent,
        dim: 4,
        card: 1_000_000,
        tenants: 0,
        algos: [Algo::Gpsrs, Algo::Gpmrs],
        memory_budget: None,
    },
    Workload {
        name: "shuffle1m-bnl",
        dist: Distribution::Independent,
        dim: 4,
        card: 1_000_000,
        tenants: 0,
        algos: [Algo::Bnl, Algo::Angle],
        memory_budget: None,
    },
    Workload {
        name: "tenants4-spill",
        dist: Distribution::Independent,
        dim: 4,
        card: 50_000,
        tenants: 4,
        algos: [Algo::Bnl, Algo::Gpmrs],
        memory_budget: Some(128 << 10),
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Operations in one cycle: each algorithm once, or one executor round.
    pub fn ops_per_cycle(&self) -> usize {
        if self.tenants == 0 {
            self.algos.len()
        } else {
            1
        }
    }

    /// Seeds of the workload's datasets (one per tenant), all derived from
    /// the run's seed. Dataset 0 uses the seed itself.
    fn dataset_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.tenants.max(1) as u64)
            .map(|k| seed.wrapping_add(k.wrapping_mul(DATASET_SEED_STRIDE)))
            .collect()
    }
}

/// Host threads of every run. The reference box has two cores but is a
/// shared VM whose speed sags under sustained two-core load; one thread
/// keeps run-to-run spread within a few percent (README.md), and layer
/// spans of the traced run stay serial.
pub const HOST_THREADS: usize = 1;

/// External-merge fan-in of the spill workload: wide enough that each
/// reducer merges its spilled runs in one pass. With the default of 8, the
/// intermediate merge-run files' churn made back-to-back runs on a disk
/// mounted with online discard slow down by half (README.md).
const MERGE_FAN_IN: usize = 64;

/// The simulated cluster of every run: the paper's 13-node testbed with
/// host threads and storage pinned explicitly. `ClusterConfig::default()`
/// applies the `SKYMR_MEMORY_BUDGET` / `SKYMR_SPILL_DIR` overrides, which
/// would quietly turn an in-memory workload into a spill run, so the
/// storage plane is replaced wholesale.
pub fn cluster(w: &Workload, spill_dir: &Path) -> ClusterConfig {
    ClusterConfig {
        host_threads: HOST_THREADS,
        storage: StorageConfig {
            memory_budget: w.memory_budget,
            spill_dir: Some(spill_dir.to_path_buf()),
            merge_fan_in: MERGE_FAN_IN,
            ..StorageConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn skyline_config(cluster: &ClusterConfig) -> SkylineConfig {
    SkylineConfig {
        mappers: cluster.map_slots,
        reducers: cluster.reduce_slots,
        cluster: cluster.clone(),
        ..SkylineConfig::default()
    }
}

fn baseline_config(cluster: &ClusterConfig) -> BaselineConfig {
    BaselineConfig {
        mappers: cluster.map_slots,
        angular_partitions: cluster.nodes,
        cluster: cluster.clone(),
        ..BaselineConfig::default()
    }
}

/// Everything an operation needs: the generated datasets, the configs,
/// and (filled in outside every timed region) the oracle skylines.
#[derive(Debug)]
pub struct Bench {
    pub workload: Workload,
    pub datasets: Vec<Arc<Dataset>>,
    pub oracles: Vec<Vec<u64>>,
    pub skyline: SkylineConfig,
    pub baseline: BaselineConfig,
    pub spill_dir: PathBuf,
}

impl Bench {
    /// The set-up `setup_s` times: dataset generation plus config
    /// construction.
    pub fn setup(w: Workload, seed: u64, spill_dir: &Path) -> Self {
        let datasets = w
            .dataset_seeds(seed)
            .into_iter()
            .map(|s| Arc::new(generate(w.dist, w.dim, w.card, s)))
            .collect();
        let cluster = cluster(&w, spill_dir);
        Self {
            workload: w,
            datasets,
            oracles: Vec::new(),
            skyline: skyline_config(&cluster),
            baseline: baseline_config(&cluster),
            spill_dir: spill_dir.to_path_buf(),
        }
    }

    /// Computes each dataset's skyline ids with the centralized SFS
    /// oracle, on every core through the engine's task pool. Never part of
    /// a timed region.
    pub fn compute_oracles(&mut self) {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let datasets = &self.datasets;
        self.oracles = run_indexed(datasets.len(), nproc, |i| {
            sorted_ids(&sfs_skyline(datasets[i].tuples(), SfsOrder::Sum))
        })
        .into_iter()
        .map(|(ids, _)| ids)
        .collect();
    }

    /// Input tuples one operation processes.
    pub fn tuples_per_op(&self) -> u64 {
        let per_dataset = self.workload.card as u64;
        if self.workload.tenants == 0 {
            per_dataset
        } else {
            per_dataset * self.datasets.len() as u64 * self.workload.algos.len() as u64
        }
    }

    /// `Some(reason)` when the benchmark-owned spill directory is not
    /// empty: every job must remove its spill files when it ends.
    pub fn spill_leftovers(&self) -> Option<String> {
        let mut entries = std::fs::read_dir(&self.spill_dir).ok()?;
        entries
            .next()
            .map(|e| format!("spill directory not empty after the operation: {e:?}"))
    }
}

pub fn sorted_ids(tuples: &[skymr_common::Tuple]) -> Vec<u64> {
    let mut ids: Vec<u64> = tuples.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids
}

/// The count fields of one job's metrics: everything that must be equal
/// between two runs of the same pipeline on the same input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCounts {
    pub name: String,
    pub map_tasks: usize,
    pub reduce_tasks: usize,
    pub cache_bytes: u64,
    pub shuffle_bytes: u64,
    pub per_reducer_bytes: Vec<u64>,
    pub map_output_records: u64,
    pub reduce_input_keys: u64,
    pub output_records: u64,
    pub spill_files: u64,
    pub spilled_bytes: u64,
    pub merge_passes: u64,
}

impl From<&JobMetrics> for JobCounts {
    fn from(m: &JobMetrics) -> Self {
        Self {
            name: m.name.clone(),
            map_tasks: m.map_tasks,
            reduce_tasks: m.reduce_tasks,
            cache_bytes: m.cache_bytes,
            shuffle_bytes: m.shuffle_bytes,
            per_reducer_bytes: m.per_reducer_bytes.clone(),
            map_output_records: m.map_output_records,
            reduce_input_keys: m.reduce_input_keys,
            output_records: m.output_records,
            spill_files: m.spill_files,
            spilled_bytes: m.spilled_bytes,
            merge_passes: m.merge_passes,
        }
    }
}

/// What one pipeline run produced, in comparable form: the skyline ids,
/// program counters, structural facts, and per-job counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub ids: Vec<u64>,
    pub counters: BTreeMap<String, u64>,
    /// `(ppd, partitions, non-empty, surviving, groups, buckets)`, for
    /// the grid-partitioning algorithms only.
    pub info: Option<[usize; 6]>,
    pub jobs: Vec<JobCounts>,
}

impl Fingerprint {
    pub fn new(
        ids: Vec<u64>,
        counters: BTreeMap<String, u64>,
        info: Option<&RunInfo>,
        jobs: &[JobMetrics],
    ) -> Self {
        Self {
            ids,
            counters,
            info: info.map(|i| {
                [
                    i.ppd,
                    i.partitions,
                    i.non_empty_partitions,
                    i.surviving_partitions,
                    i.independent_groups,
                    i.buckets,
                ]
            }),
            jobs: jobs.iter().map(JobCounts::from).collect(),
        }
    }

    /// The first part that differs from `other`, for failure messages.
    pub fn diff(&self, other: &Self) -> Option<&'static str> {
        if self.ids != other.ids {
            Some("skyline ids")
        } else if self.counters != other.counters {
            Some("job counters")
        } else if self.info != other.info {
            Some("run info")
        } else if self.jobs != other.jobs {
            Some("job metrics counts")
        } else {
            None
        }
    }
}

/// One entry-point run.
#[derive(Debug)]
pub enum Run {
    Core(SkylineRun),
    Baseline(BaselineRun),
}

impl Run {
    pub fn jobs(&self) -> &[JobMetrics] {
        match self {
            Run::Core(r) => &r.metrics.jobs,
            Run::Baseline(r) => &r.metrics.jobs,
        }
    }

    pub fn sim_runtime(&self) -> Duration {
        match self {
            Run::Core(r) => r.metrics.sim_runtime(),
            Run::Baseline(r) => r.metrics.sim_runtime(),
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Run::Core(r) => Fingerprint::new(
                sorted_ids(&r.skyline),
                r.counters.clone(),
                Some(&r.info),
                &r.metrics.jobs,
            ),
            Run::Baseline(r) => Fingerprint::new(
                sorted_ids(&r.skyline),
                BTreeMap::new(),
                None,
                &r.metrics.jobs,
            ),
        }
    }
}

/// Calls the public entry point of `algo` on the cluster `cluster`.
pub fn call_entry(
    algo: Algo,
    data: &Dataset,
    skyline: &SkylineConfig,
    baseline: &BaselineConfig,
) -> Result<Run, Error> {
    Ok(match algo {
        Algo::Gpsrs => Run::Core(mr_gpsrs(data, skyline)?),
        Algo::Gpmrs => Run::Core(mr_gpmrs(data, skyline)?),
        Algo::Bnl => Run::Baseline(mr_bnl(data, baseline)?),
        Algo::Angle => Run::Baseline(mr_angle(data, baseline)?),
    })
}

/// The configs a data plane derives from the executor's shared cluster.
pub fn configs_on(
    cluster: &ClusterConfig,
    skyline: &SkylineConfig,
    baseline: &BaselineConfig,
) -> (SkylineConfig, BaselineConfig) {
    let mut s = skyline.clone();
    s.cluster = cluster.clone();
    let mut b = baseline.clone();
    b.cluster = cluster.clone();
    (s, b)
}

/// An executor data plane: runs one pipeline on the shared cluster.
pub type Plane<T> = Box<dyn FnOnce(&ClusterConfig) -> Result<(T, Vec<JobMetrics>), Error> + Send>;

/// Submissions of one executor round: `(tenant, algorithm, handle)`.
pub type Round<T> = Vec<(usize, Algo, Result<JobHandle<T>, Error>)>;

/// Submits one job per (tenant, algorithm) to a fresh fair-share
/// executor. `plane` builds each job's data plane.
pub fn submit_round<T, P>(bench: &Bench, mut plane: P) -> (ClusterExecutor, Round<T>)
where
    T: Send + 'static,
    P: FnMut(usize, Algo, Arc<Dataset>) -> Plane<T>,
{
    let mut exec =
        ClusterExecutor::new(bench.skyline.cluster.clone()).with_scheduler(FairShareScheduler);
    let mut handles = Vec::new();
    for (tenant, data) in bench.datasets.iter().enumerate() {
        for algo in bench.workload.algos {
            let spec = JobSpec::new(format!("{}-t{tenant}", algo.name()), format!("t{tenant}"));
            let handle = exec.submit(spec, plane(tenant, algo, Arc::clone(data)));
            handles.push((tenant, algo, handle));
        }
    }
    (exec, handles)
}

/// Resolves one submitted job: its output, or why it did not finish.
pub fn settle<T: Send + 'static>(
    exec: &mut ClusterExecutor,
    handle: Result<JobHandle<T>, Error>,
) -> Result<(T, Duration), String> {
    match handle.map(|h| exec.take(h)) {
        Ok(JobCompletion::Finished(o)) => Ok((o.output, o.stats.queue_wait)),
        Ok(JobCompletion::Rejected(e)) | Err(e) => Err(format!("admission rejected: {e}")),
        Ok(JobCompletion::Cancelled(e)) => Err(format!("cancelled: {e}")),
        Ok(JobCompletion::Failed(e)) => Err(format!("failed: {e}")),
    }
}

/// One untraced operation, measured from outside.
#[derive(Debug)]
pub struct Op {
    pub wall: Duration,
    pub sim: Duration,
    pub failures: Vec<String>,
    /// `(tenant, algorithm, fingerprint)` of every pipeline that finished.
    pub prints: Vec<(usize, Algo, Fingerprint)>,
}

/// Runs operation `index` of a cycle through the public entry points and
/// checks every skyline against the oracle.
pub fn entry_op(bench: &Bench, index: usize) -> Op {
    let mut failures = Vec::new();
    let mut prints = Vec::new();
    let (wall, sim) = if bench.workload.tenants == 0 {
        let algo = bench.workload.algos[index];
        let started = Instant::now();
        let run = call_entry(algo, &bench.datasets[0], &bench.skyline, &bench.baseline);
        let wall = started.elapsed();
        match run {
            Ok(run) => {
                prints.push((0, algo, run.fingerprint()));
                (wall, run.sim_runtime())
            }
            Err(e) => {
                failures.push(format!("{}: {e}", algo.name()));
                (wall, Duration::ZERO)
            }
        }
    } else {
        let started = Instant::now();
        let (mut exec, handles) = submit_round(bench, |_, algo, data| {
            let (skyline, baseline) = (bench.skyline.clone(), bench.baseline.clone());
            Box::new(move |cl: &ClusterConfig| {
                let (s, b) = configs_on(cl, &skyline, &baseline);
                let run = call_entry(algo, &data, &s, &b)?;
                let jobs = run.jobs().to_vec();
                Ok((run, jobs))
            })
        });
        let report: SchedReport = exec.run();
        let settled: Vec<_> = handles
            .into_iter()
            .map(|(t, a, h)| (t, a, settle(&mut exec, h)))
            .collect();
        let wall = started.elapsed();
        for (tenant, algo, result) in settled {
            match result {
                Ok((run, _)) => prints.push((tenant, algo, run.fingerprint())),
                Err(e) => failures.push(format!("{}-t{tenant}: {e}", algo.name())),
            }
        }
        (wall, report.makespan)
    };
    for (tenant, algo, print) in &prints {
        if print.ids != bench.oracles[*tenant] {
            failures.push(format!(
                "{}-t{tenant}: skyline differs from the oracle ({} ids, oracle {})",
                algo.name(),
                print.ids.len(),
                bench.oracles[*tenant].len()
            ));
        }
    }
    failures.extend(bench.spill_leftovers());
    Op {
        wall,
        sim,
        failures,
        prints,
    }
}
