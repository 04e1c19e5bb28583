//! Multi-tenant executor suite: concurrent pipelines on one shared
//! cluster must behave exactly like their standalone runs (scheduling
//! decides *when*, never *what*), fair-share must not starve any tenant,
//! the slot-tick ledger must conserve, and a sustained ≥100-job load must
//! be byte-identical — outputs *and* `sched.*` counters — no matter what
//! order the jobs were submitted in.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use skymr::{mr_gpmrs, mr_gpsrs, SkylineConfig};
use skymr_baselines::{mr_angle, mr_bnl, BaselineConfig};
use skymr_common::{Error, Tuple};
use skymr_datagen::{stream, Distribution};
use skymr_integration_tests::scenario;
use skymr_mapreduce::{
    assert_schedule_independent, run_job, AdmissionConfig, ClusterConfig, ClusterExecutor, Emitter,
    FairShareScheduler, FaultPlan, FaultTolerance, FnSplits, HashPartitioner, JobCompletion,
    JobConfig, JobHandle, JobMetrics, JobSpec, MapFactory, MapTask, OutputCollector, ReduceFactory,
    ReduceTask, TaskContext,
};

/// Serializes the id-sorted skyline to a canonical byte string so the
/// "byte-identical" claim is literal (same idiom as the chaos suite).
fn tuple_bytes(tuples: &[Tuple]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in tuples {
        bytes.extend_from_slice(&t.id.to_le_bytes());
        for v in &t.values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

fn core_config(cluster: &ClusterConfig, seed: u64) -> SkylineConfig {
    let mut config = SkylineConfig::test()
        .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::seeded(seed)));
    config.cluster = cluster.clone();
    config
}

fn baseline_config(cluster: &ClusterConfig, seed: u64) -> BaselineConfig {
    let mut config = BaselineConfig::test()
        .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::seeded(seed)));
    config.cluster = cluster.clone();
    config
}

/// A data-plane-free job: one map-only MapReduce job whose modeled task
/// durations are handed in directly. Lets the scheduling tests run
/// hundreds of jobs without paying for real skyline computation.
fn synthetic_plane(
    value: u64,
    map_ms: Vec<u64>,
) -> impl FnOnce(&ClusterConfig) -> Result<(u64, Vec<JobMetrics>), Error> {
    move |_| {
        let mut m = JobMetrics::empty("p", map_ms.len(), 0);
        m.map_task_durations = map_ms.iter().map(|&v| Duration::from_millis(v)).collect();
        Ok((value, vec![m]))
    }
}

/// A boxed data plane returning canonical skyline bytes.
type BytesPlane =
    Box<dyn FnOnce(&ClusterConfig) -> Result<(Vec<u8>, Vec<JobMetrics>), Error> + Send>;

/// All four pipelines — MR-GPSRS, MR-GPMRS, MR-BNL, MR-Angle — run
/// *concurrently* on one executor, each under its own seeded fault plan,
/// and every one must reproduce its standalone run byte for byte.
#[test]
fn four_concurrent_pipelines_match_their_standalone_runs() {
    let data = Arc::new(scenario(Distribution::Anticorrelated, 3, 400, 701));
    let cluster = ClusterConfig::test();
    let seeds = [0xC0FFEEu64, 0x5EED_0001, 42, 0xDEAD_BEEF];

    let expected = [
        tuple_bytes(
            &mr_gpsrs(&data, &core_config(&cluster, seeds[0]))
                .expect("gpsrs")
                .skyline,
        ),
        tuple_bytes(
            &mr_gpmrs(&data, &core_config(&cluster, seeds[1]))
                .expect("gpmrs")
                .skyline,
        ),
        tuple_bytes(
            &mr_bnl(&data, &baseline_config(&cluster, seeds[2]))
                .expect("bnl")
                .skyline,
        ),
        tuple_bytes(
            &mr_angle(&data, &baseline_config(&cluster, seeds[3]))
                .expect("angle")
                .skyline,
        ),
    ];

    let mut exec = ClusterExecutor::new(cluster);
    let mut handles = Vec::new();
    let submit = |exec: &mut ClusterExecutor,
                  name: &str,
                  tenant: &str,
                  arrival_ms: u64,
                  plane: BytesPlane| {
        let spec = JobSpec::new(name, tenant).arriving_at(Duration::from_millis(arrival_ms));
        exec.submit(spec, plane).expect("statically feasible")
    };
    {
        let data = Arc::clone(&data);
        handles.push(submit(
            &mut exec,
            "gpsrs",
            "core",
            0,
            Box::new(move |cl| {
                let run = mr_gpsrs(&data, &core_config(cl, seeds[0]))?;
                Ok((tuple_bytes(&run.skyline), run.metrics.jobs.clone()))
            }),
        ));
    }
    {
        let data = Arc::clone(&data);
        handles.push(submit(
            &mut exec,
            "gpmrs",
            "core",
            1,
            Box::new(move |cl| {
                let run = mr_gpmrs(&data, &core_config(cl, seeds[1]))?;
                Ok((tuple_bytes(&run.skyline), run.metrics.jobs.clone()))
            }),
        ));
    }
    {
        let data = Arc::clone(&data);
        handles.push(submit(
            &mut exec,
            "bnl",
            "baselines",
            2,
            Box::new(move |cl| {
                let run = mr_bnl(&data, &baseline_config(cl, seeds[2]))?;
                Ok((tuple_bytes(&run.skyline), run.metrics.jobs.clone()))
            }),
        ));
    }
    {
        let data = Arc::clone(&data);
        handles.push(submit(
            &mut exec,
            "angle",
            "baselines",
            3,
            Box::new(move |cl| {
                let run = mr_angle(&data, &baseline_config(cl, seeds[3]))?;
                Ok((tuple_bytes(&run.skyline), run.metrics.jobs.clone()))
            }),
        ));
    }

    let report = exec.run();
    assert_eq!(
        report.completed,
        4,
        "all four pipelines must finish:\n{}",
        report.render()
    );
    for (handle, expected) in handles.into_iter().zip(expected) {
        let outcome = exec.take(handle).unwrap();
        assert_eq!(
            outcome.output, expected,
            "a pipeline diverged from its standalone run under contention"
        );
    }
}

/// The ISSUE's fairness acceptance: under equal weights and equal demand,
/// the max/min per-tenant slot-tick share stays within 2×.
#[test]
fn fair_share_keeps_tenant_slot_ticks_within_two_x() {
    let mut cluster = ClusterConfig::test();
    cluster.map_slots = 2;
    cluster.reduce_slots = 1;
    let mut exec = ClusterExecutor::new(cluster).with_scheduler(FairShareScheduler);
    for tenant in ["a", "b", "c"] {
        for i in 0..4 {
            let spec = JobSpec::new(format!("{tenant}-{i}"), tenant);
            exec.submit(spec, synthetic_plane(0, vec![10, 10]))
                .expect("feasible");
        }
    }
    let report = exec.run();
    assert_eq!(report.completed, 12);
    let ticks: Vec<u64> = report.tenants.values().map(|t| t.slot_ticks).collect();
    let min = ticks.iter().copied().min().expect("three tenants ran");
    let max = ticks.iter().copied().max().expect("three tenants ran");
    assert!(min > 0, "every tenant must get slot time");
    assert!(
        max as f64 / min as f64 <= 2.0,
        "fair share drifted past 2x: tenant slot-ticks {ticks:?}"
    );
}

/// A job fed by seeded stream chunks through [`FnSplits`] must equal the
/// same job fed by fully materialized splits, owned or borrowed as a
/// slice.
#[test]
fn streamed_splits_match_in_memory_splits() {
    struct Grid;
    struct GridTask;
    impl MapTask for GridTask {
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
    impl MapFactory for Grid {
        type Task = GridTask;
        fn create(&self, _: &TaskContext) -> GridTask {
            GridTask
        }
    }
    struct Sum;
    struct SumTask;
    impl ReduceTask for SumTask {
        type K = u64;
        type V = u64;
        type Out = (u64, u64);
        fn reduce(&mut self, cell: u64, counts: Vec<u64>, out: &mut OutputCollector<(u64, u64)>) {
            out.collect((cell, counts.iter().sum()));
        }
    }
    impl ReduceFactory for Sum {
        type Task = SumTask;
        fn create(&self, _: &TaskContext) -> SumTask {
            SumTask
        }
    }

    let (card, chunk, seed) = (1000usize, 250usize, 99u64);
    let cluster = ClusterConfig::test();
    let config = JobConfig::new("grid", 3);

    let splits: Vec<Vec<Tuple>> = stream(Distribution::Independent, 3, card, seed)
        .chunks(chunk)
        .collect();
    let lens: Vec<usize> = splits.iter().map(Vec::len).collect();
    let owned = run_job(&cluster, &config, &splits, &Grid, &Sum, &HashPartitioner)
        .expect("Vec<Vec<_>> run");
    let sliced = run_job(
        &cluster,
        &config,
        splits.as_slice(),
        &Grid,
        &Sum,
        &HashPartitioner,
    )
    .expect("&[Vec<_>] run");

    let source = FnSplits::new(lens, move |s| {
        stream(Distribution::Independent, 3, card, seed)
            .chunks(chunk)
            .nth(s)
            .expect("split index within the declared shape")
    });
    let streamed =
        run_job(&cluster, &config, &source, &Grid, &Sum, &HashPartitioner).expect("streamed run");

    // One `run_job`, three input kinds: the per-reducer outputs and the whole
    // registry must not tell them apart.
    for (kind, run) in [("slice", &sliced), ("FnSplits", &streamed)] {
        assert_eq!(
            run.outputs, owned.outputs,
            "{kind} splits changed the job output"
        );
        assert_eq!(
            run.registry, owned.registry,
            "{kind} splits changed the registry"
        );
    }
}

/// A sustained 120-job load — bursty arrivals, three tenants, a bounded
/// admission queue, scattered deadlines — must produce byte-identical
/// results (terminal states, outputs, scheduling stats, and the full
/// `sched.*` counter registry) regardless of submission order.
#[test]
fn sustained_load_is_submission_order_independent() {
    const JOBS: usize = 120;
    let mut base = ClusterConfig::test();
    base.map_slots = 3;
    base.reduce_slots = 2;
    // The simulated slot shape is held fixed across cases: the pinned
    // sched.* metrics are themselves a function of the cluster shape, so
    // only submission order (and host threads) may vary.
    assert_schedule_independent(4, 0xA11CE, |case| {
        let mut order: Vec<usize> = (0..JOBS).collect();
        case.permute(&mut order);
        let mut exec = ClusterExecutor::new(base.clone())
            .with_admission(AdmissionConfig::with_queue_depth(12))
            .with_scheduler(FairShareScheduler);
        let mut handles: Vec<Option<JobHandle<u64>>> = (0..JOBS).map(|_| None).collect();
        for &i in &order {
            let tenant = ["a", "b", "c"][i % 3];
            let mut spec = JobSpec::new(format!("job-{i:03}"), tenant)
                .arriving_at(Duration::from_millis((i as u64 / 6) * 5));
            if i % 7 == 0 {
                spec = spec.with_deadline(Duration::from_millis((i as u64 / 6) * 5 + 40));
            }
            let plane = synthetic_plane(i as u64, vec![4 + (i % 5) as u64, 3]);
            handles[i] = Some(exec.submit(spec, plane).expect("statically feasible"));
        }
        let report = exec.run();
        let mut bytes = report.render().into_bytes();
        for (name, value) in report.registry.counters() {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        for handle in handles
            .into_iter()
            .map(|h| h.expect("every index submitted"))
        {
            match exec.take(handle) {
                JobCompletion::Finished(outcome) => {
                    bytes.push(b'F');
                    bytes.extend_from_slice(&outcome.output.to_le_bytes());
                    bytes.extend_from_slice(format!("{:?}", outcome.stats).as_bytes());
                }
                JobCompletion::Rejected(e) => {
                    bytes.push(b'R');
                    bytes.extend_from_slice(e.to_string().as_bytes());
                }
                JobCompletion::Cancelled(e) => {
                    bytes.push(b'C');
                    bytes.extend_from_slice(e.to_string().as_bytes());
                }
                JobCompletion::Failed(e) => {
                    bytes.push(b'X');
                    bytes.extend_from_slice(e.to_string().as_bytes());
                }
            }
        }
        bytes
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fair-share never starves: with no deadlines and feasible
    /// reservations, every submitted job completes, no matter the mix of
    /// tenants, arrivals, and durations — and the slot-tick ledger
    /// conserves exactly (per-job sum == per-tenant sum == the pinned
    /// `sched.slot_ticks` counter).
    #[test]
    fn fair_share_never_starves_and_slot_ticks_conserve(
        jobs in proptest::collection::vec(
            (0usize..3, 0u64..20, 1u64..12, 1usize..4),
            1..12,
        ),
    ) {
        let mut cluster = ClusterConfig::test();
        cluster.map_slots = 2;
        cluster.reduce_slots = 1;
        let mut exec = ClusterExecutor::new(cluster).with_scheduler(FairShareScheduler);
        let mut handles = Vec::new();
        for (i, &(tenant, arrival_ms, task_ms, tasks)) in jobs.iter().enumerate() {
            let spec = JobSpec::new(
                format!("j{i}"),
                ["a", "b", "c"][tenant],
            )
            .arriving_at(Duration::from_millis(arrival_ms));
            let plane = synthetic_plane(i as u64, vec![task_ms; tasks]);
            handles.push(exec.submit(spec, plane).expect("statically feasible"));
        }
        let report = exec.run();
        prop_assert_eq!(
            report.completed as usize, jobs.len(),
            "fair share starved a job: {}", report.render()
        );
        let mut per_job = 0u64;
        for handle in handles {
            per_job += exec.take(handle).unwrap().stats.slot_ticks;
        }
        let per_tenant: u64 = report.tenants.values().map(|t| t.slot_ticks).sum();
        prop_assert_eq!(per_job, per_tenant);
        prop_assert_eq!(per_job, report.registry.counter("sched.slot_ticks"));
    }
}
