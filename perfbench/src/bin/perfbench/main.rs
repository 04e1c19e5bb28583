//! `perfbench`: the end-to-end and per-layer benchmark of the skyline
//! pipelines. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--rev <text>]
//! perfbench --self-test --workload <name> --seed <n> [--seed2 <n>]
//! ```
//!
//! One process runs one workload as a closed loop with one client. The
//! last line of standard output is the JSON result object.

mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats::{median, print_result, Metric};
use traced::{traced_op, Counts, Layer, Recorder, TracedOp};
use workload::{entry_op, Bench, Workload};

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 8;
/// Fewest measured operations of an untraced run, even when `--seconds`
/// has passed: with 20 the tail percentile (ten samples beyond it) is at
/// least p50, and its rank does not wander with the machine's speed.
const MIN_OPS: usize = 20;
/// Largest `trace.residual_ratio` a traced run accepts.
pub const RESIDUAL_TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--out <dir>] [--rev <text>] | perfbench --self-test --workload <name> --seed <n> [--seed2 <n>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seed2: Option<u64>,
    seconds: u64,
    trace: bool,
    self_test: bool,
    out: PathBuf,
    rev: String,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: workload::WORKLOADS[0],
            seed: 42,
            seed2: None,
            seconds: 10,
            trace: false,
            self_test: false,
            out: PathBuf::from("perfbench/out"),
            rev: "unknown".to_owned(),
        };
        let mut named = false;
        while let Some(flag) = it.next() {
            if flag == "--self-test" {
                args.self_test = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    args.workload = Workload::find(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                    named = true;
                }
                "--seed" => args.seed = num()?,
                "--seed2" => args.seed2 = Some(num()?),
                "--seconds" => args.seconds = num()?.clamp(1, 120),
                "--trace" => args.trace = num()? != 0,
                "--out" => args.out = PathBuf::from(value),
                "--rev" => args.rev = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !named {
            return Err("--workload is required".to_owned());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A directory the benchmark owns for spill files, removed at the end.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(out: &Path) -> Result<Self, String> {
        let dir = out.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let spill = SpillDir::create(&args.out)?;
    let w = args.workload;
    println!(
        "perfbench: workload={} seed={} trace={} nproc={nproc} host_threads={} rev={}",
        w.name,
        args.seed,
        u8::from(args.trace),
        workload::HOST_THREADS,
        args.rev
    );
    if args.self_test {
        let seed2 = args.seed2.unwrap_or_else(|| args.seed.wrapping_add(1));
        let (failures, counts) = self_test(w, args.seed, seed2, &spill.0);
        for f in &failures {
            println!("self-test FAILED: {f}");
        }
        for c in &counts {
            println!("  counts per operation at seed {}: {c:?}", args.seed);
        }
        if failures.is_empty() {
            println!(
                "self-test ok: {} counts repeat at seed {}, rebuilt pipelines match the entry points, seed {seed2} runs cleanly",
                w.name, args.seed
            );
        }
        return Ok(failures.is_empty());
    }

    let started = Instant::now();
    let mut bench = Bench::setup(w, args.seed, &spill.0);
    let first_setup = started.elapsed().as_secs_f64();
    let resetup = || {
        let started = Instant::now();
        let again = Bench::setup(w, args.seed, &spill.0);
        let secs = started.elapsed().as_secs_f64();
        drop(again);
        secs
    };
    let seconds = Duration::from_secs(args.seconds);
    let (metrics, attempted, failures) = if args.trace {
        bench.compute_oracles();
        traced_report(&bench, seconds, &args.out, args.seed)?
    } else {
        // Half the set-up repetitions run before the measured loop and
        // half after it, so their median spans the run like the
        // operations do.
        let mut setup_s = vec![first_setup];
        setup_s.extend((1..SETUP_REPS / 2).map(|_| resetup()));
        bench.compute_oracles();
        untraced_report(&bench, seconds, setup_s, &resetup)
    };
    for f in &failures {
        println!("FAILED: {f}");
    }
    let failed = failures.iter().filter(|f| f.op).count() as u64;
    let correct = failures.is_empty();
    println!(
        "  {:<36} {:>16} ratio ({failed} of {attempted} operations failed)",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    print_result(&metrics, attempted, failed, correct);
    Ok(correct)
}

/// A failed check; `op` marks a failed operation (counted in
/// `error_rate`), otherwise a failed run-level check.
#[derive(Debug)]
struct Failure {
    op: bool,
    what: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

fn op_failures(list: Vec<String>) -> impl Iterator<Item = Failure> {
    let mut first = true;
    list.into_iter().map(move |what| {
        // One failed operation may report several reasons.
        let op = std::mem::take(&mut first);
        Failure { op, what }
    })
}

/// The end-to-end metrics: a warm-up cycle, then cycles of entry-point
/// operations until `seconds` have passed and `MIN_OPS` have run.
fn untraced_report(
    bench: &Bench,
    seconds: Duration,
    mut setup_s: Vec<f64>,
    resetup: &dyn Fn() -> f64,
) -> (Vec<Metric>, u64, Vec<Failure>) {
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut cycle = |ops: &mut Vec<workload::Op>| {
        for i in 0..bench.workload.ops_per_cycle() {
            let mut op = entry_op(bench, i);
            attempted += 1;
            failures.extend(op_failures(std::mem::take(&mut op.failures)));
            ops.push(op);
        }
    };
    cycle(&mut Vec::new());
    if !stats::reset_peak_rss() {
        println!("note: peak RSS could not be reset; peak_rss_mb includes set-up and the oracle");
    }
    let mut ops = Vec::new();
    let started = Instant::now();
    // Keep going past `seconds` for `MIN_OPS`, but never past three times
    // `seconds`: an input on which every operation is slow must still end.
    while started.elapsed() < seconds || (ops.len() < MIN_OPS && started.elapsed() < 3 * seconds) {
        cycle(&mut ops);
    }
    let walls: Vec<f64> = ops.iter().map(|o| o.wall.as_secs_f64()).collect();
    let sims: Vec<f64> = ops.iter().map(|o| o.sim.as_secs_f64()).collect();
    let (tail, pct) = stats::tail(&walls);
    println!(
        "  op_wall_tail_s is p{pct:.1} of {} operations ({} per cycle: {})",
        walls.len(),
        bench.workload.ops_per_cycle(),
        bench.workload.algos.map(workload::Algo::name).join(" + ")
    );
    let tuples = bench.tuples_per_op() as f64 * ops.len() as f64;
    let peak_rss = stats::peak_rss_mib();
    while setup_s.len() < SETUP_REPS {
        setup_s.push(resetup());
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("op_wall_p50_s", median(&walls), "s"),
        Metric::new("op_wall_tail_s", tail, "s"),
        Metric::new(
            "tuples_per_s",
            tuples / walls.iter().sum::<f64>(),
            "tuples/s",
        ),
        Metric::new("sim_runtime_s", median(&sims), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    (metrics, attempted, failures)
}

/// Traced and untraced cycles of one traced run.
#[derive(Debug, Default)]
struct TracedRun {
    /// Measured traced cycles (warm-up excluded).
    traced: Vec<Vec<TracedOp>>,
    /// Wall of each measured untraced cycle, seconds.
    entry_walls: Vec<f64>,
    attempted: u64,
    failures: Vec<Failure>,
}

/// Alternates an untraced cycle through the entry points with a traced
/// cycle of the rebuilt pipelines, reconciling each rebuilt pipeline with
/// its entry point and each traced cycle's counts with the first.
fn traced_run(
    rec: &Arc<Recorder>,
    bench: &Bench,
    seconds: Duration,
    warmup: bool,
    min_cycles: usize,
) -> TracedRun {
    let mut s = TracedRun::default();
    let mut first_counts: Option<Vec<Counts>> = None;
    let mut op_no = 0u32;
    let mut started = Instant::now();
    for c in 0.. {
        if c >= usize::from(warmup) + min_cycles && started.elapsed() >= seconds {
            break;
        }
        let mut entry_wall = 0.0;
        let mut entry_prints = Vec::new();
        for i in 0..bench.workload.ops_per_cycle() {
            let mut op = entry_op(bench, i);
            s.attempted += 1;
            entry_wall += op.wall.as_secs_f64();
            s.failures
                .extend(op_failures(std::mem::take(&mut op.failures)));
            entry_prints.append(&mut op.prints);
        }
        let mut cycle = Vec::new();
        for i in 0..bench.workload.ops_per_cycle() {
            let mut op = traced_op(rec, bench, i, op_no);
            op_no += 1;
            s.attempted += 1;
            let mut why = std::mem::take(&mut op.failures);
            for (tenant, algo, print) in &op.prints {
                let entry = entry_prints
                    .iter()
                    .find(|(t, a, _)| t == tenant && a == algo);
                match entry.map(|(_, _, e)| print.diff(e)) {
                    Some(None) => {}
                    Some(Some(part)) => why.push(format!(
                        "rebuilt {}-t{tenant} drifted from its entry point: {part} differ",
                        algo.name()
                    )),
                    None => why.push(format!(
                        "{}-t{tenant}: no entry-point run to reconcile with",
                        algo.name()
                    )),
                }
            }
            s.failures.extend(op_failures(why));
            cycle.push(op);
        }
        let counts: Vec<Counts> = cycle.iter().map(|o| o.counts).collect();
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) if *first != counts => s.failures.push(Failure {
                op: false,
                what: format!("counts changed between traced cycles: {first:?} then {counts:?}"),
            }),
            Some(_) => {}
        }
        if warmup && c == 0 {
            started = Instant::now();
        } else {
            s.traced.push(cycle);
            s.entry_walls.push(entry_wall);
        }
    }
    s
}

/// The per-layer metrics of a traced run. Every metric is per operation:
/// the mean over one cycle's operations, and for times the median of
/// that mean over the measured cycles.
fn layer_metrics(s: &TracedRun, ops_per_cycle: usize) -> Vec<Metric> {
    let per_op = |f: &dyn Fn(&TracedOp) -> f64| -> f64 {
        let means: Vec<f64> = s
            .traced
            .iter()
            .map(|c| c.iter().map(f).sum::<f64>() / ops_per_cycle as f64)
            .collect();
        median(&means)
    };
    let secs = |layer: Layer| per_op(&|o: &TracedOp| o.self_ns[layer as usize] as f64 / 1e9);
    let first = s.traced.first().map(Vec::as_slice).unwrap_or_default();
    let count = |f: fn(&Counts) -> u64| -> f64 {
        first.iter().map(|o| f(&o.counts) as f64).sum::<f64>() / ops_per_cycle as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let residuals: Vec<f64> = s
        .traced
        .iter()
        .map(|c| {
            let op_self: u64 = c.iter().map(|o| o.self_ns[Layer::Op as usize]).sum();
            ratio(op_self as f64, c.iter().map(|o| o.wall_ns as f64).sum())
        })
        .collect();
    let traced_walls: Vec<f64> = s
        .traced
        .iter()
        .map(|c| c.iter().map(|o| o.wall_ns as f64 / 1e9).sum())
        .collect();
    let overhead = ratio(median(&traced_walls), median(&s.entry_walls)) - 1.0;
    vec![
        Metric::new("core.bitstring.busy_s", secs(Layer::Bitstring), "s"),
        Metric::new(
            "core.bitstring.partitions",
            count(|c| c.partitions),
            "count",
        ),
        Metric::new("core.bitstring.surviving", count(|c| c.surviving), "count"),
        Metric::new("core.map.busy_s", secs(Layer::Map), "s"),
        Metric::new("core.map.records_in", count(|c| c.map_tuples_in), "tuples"),
        Metric::new("core.map.records_out", count(|c| c.map_pairs_out), "pairs"),
        Metric::new("core.map.tuple_cmps", count(|c| c.map_tuple_cmps), "count"),
        Metric::new("core.reduce.busy_s", secs(Layer::Reduce), "s"),
        Metric::new(
            "core.reduce.max_task_s",
            per_op(&|o: &TracedOp| o.max_reduce_task_ns as f64 / 1e9),
            "s",
        ),
        Metric::new(
            "core.reduce.records_in",
            count(|c| c.reduce_tuples_in),
            "tuples",
        ),
        Metric::new(
            "core.reduce.tuple_cmps",
            count(|c| c.reduce_tuple_cmps),
            "count",
        ),
        Metric::new(
            "core.reduce.out_ratio",
            ratio(
                count(|c| c.reduce_records_out),
                count(|c| c.reduce_tuples_in),
            ),
            "ratio",
        ),
        Metric::new("core.groups.busy_s", secs(Layer::Groups), "s"),
        Metric::new("core.groups.buckets", count(|c| c.buckets), "count"),
        Metric::new("pipeline.self_s", secs(Layer::Pipeline), "s"),
        Metric::new("mapreduce.job.self_s", secs(Layer::Job), "s"),
        Metric::new("mapreduce.shuffle.bytes", count(|c| c.shuffle_bytes), "B"),
        Metric::new(
            "mapreduce.shuffle.replication_rate",
            ratio(count(|c| c.reduce_tuples_in), count(|c| c.map_tuples_in)),
            "ratio",
        ),
        Metric::new(
            "mapreduce.shuffle.max_reducer_bytes",
            count(|c| c.max_reducer_bytes),
            "B",
        ),
        Metric::new(
            "mapreduce.storage.spill_files",
            count(|c| c.spill_files),
            "count",
        ),
        Metric::new(
            "mapreduce.storage.spilled_bytes",
            count(|c| c.spilled_bytes),
            "B",
        ),
        Metric::new(
            "mapreduce.storage.merge_passes",
            count(|c| c.merge_passes),
            "count",
        ),
        Metric::new("mapreduce.sched.self_s", secs(Layer::Sched), "s"),
        Metric::new(
            "mapreduce.sched.queue_wait_s",
            per_op(&|o: &TracedOp| o.queue_wait_ns as f64 / 1e9),
            "s",
        ),
        Metric::new(
            "mapreduce.sched.preemptions",
            count(|c| c.preemptions),
            "count",
        ),
        Metric::new("mapreduce.sched.rejected", count(|c| c.rejected), "count"),
        Metric::new("trace.residual_ratio", median(&residuals), "ratio"),
        Metric::new("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// The per-layer metrics of a traced run; the spans are written to
/// `<out>/trace-<workload>-seed<seed>.jsonl` when it ends.
fn traced_report(
    bench: &Bench,
    seconds: Duration,
    out: &Path,
    seed: u64,
) -> Result<(Vec<Metric>, u64, Vec<Failure>), String> {
    let rec = Recorder::new();
    let mut s = traced_run(&rec, bench, seconds, true, 1);
    let metrics = layer_metrics(&s, bench.workload.ops_per_cycle());
    let residual = metrics
        .iter()
        .find(|m| m.name == "trace.residual_ratio")
        .map_or(0.0, |m| m.value);
    if residual > RESIDUAL_TOLERANCE {
        s.failures.push(Failure {
            op: false,
            what: format!(
                "trace.residual_ratio {residual:.4} exceeds its tolerance {RESIDUAL_TOLERANCE}"
            ),
        });
    }
    let path = out.join(format!("trace-{}-seed{seed}.jsonl", bench.workload.name));
    rec.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "  spans of {} traced cycles written to {}",
        s.traced.len(),
        path.display()
    );
    Ok((metrics, s.attempted, s.failures))
}

/// Count determinism and recomposition: two single-cycle traced runs
/// at `seed` must agree on every count and reconcile with the entry
/// points; one at `seed2` must run cleanly. Returns the failures and the
/// counts of the first.
fn self_test(w: Workload, seed: u64, seed2: u64, spill: &Path) -> (Vec<String>, Vec<Counts>) {
    let mut failures = Vec::new();
    let mut counts = Vec::new();
    for s in [seed, seed, seed2] {
        let mut bench = Bench::setup(w, s, spill);
        bench.compute_oracles();
        let run = traced_run(&Recorder::new(), &bench, Duration::ZERO, false, 1);
        failures.extend(run.failures.iter().map(|f| format!("seed {s}: {f}")));
        let residual = layer_metrics(&run, w.ops_per_cycle())
            .into_iter()
            .find(|m| m.name == "trace.residual_ratio")
            .map_or(0.0, |m| m.value);
        if residual > RESIDUAL_TOLERANCE {
            failures.push(format!(
                "seed {s}: trace.residual_ratio {residual:.4} exceeds {RESIDUAL_TOLERANCE}"
            ));
        }
        let cycle: Vec<Counts> = run.traced[0].iter().map(|o| o.counts).collect();
        counts.push(cycle);
    }
    if counts[0] != counts[1] {
        failures.push(format!(
            "counts differ between two traced runs at seed {seed}: {:?} vs {:?}",
            counts[0], counts[1]
        ));
    }
    (failures, counts.swap_remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk to test size; the spill budget shrinks with it
    /// so every map task still spills.
    fn small(name: &str, card: usize) -> Workload {
        let mut w = Workload::find(name).expect("known workload");
        w.card = card;
        w.memory_budget = w.memory_budget.map(|_| 16 << 10);
        w
    }

    fn check(name: &str, card: usize) {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{name}"));
        let spill = SpillDir::create(&out).expect("spill dir");
        let (failures, counts) = self_test(small(name, card), 7, 8, &spill.0);
        drop(spill);
        let _ = std::fs::remove_dir_all(&out);
        assert!(failures.is_empty(), "{failures:#?}");
        // Only the spill workload touches the storage plane.
        let spills: u64 = counts.iter().map(|c| c.spill_files).sum();
        assert_eq!(spills > 0, name == "tenants4-spill", "{counts:?}");
    }

    #[test]
    fn anti6d_rebuilt_matches_entry_points_and_counts_repeat() {
        check("anti6d-reduce", 3_000);
    }

    #[test]
    fn indep_rebuilt_matches_entry_points_and_counts_repeat() {
        check("indep1m-map", 20_000);
    }

    #[test]
    fn shuffle_rebuilt_matches_entry_points_and_counts_repeat() {
        check("shuffle1m-bnl", 20_000);
    }

    #[test]
    fn tenants_rebuilt_matches_entry_points_and_counts_repeat() {
        check("tenants4-spill", 5_000);
    }

    #[test]
    fn storage_is_pinned_against_the_environment() {
        let w = small("shuffle1m-bnl", 10);
        let cluster = workload::cluster(&w, Path::new("spill"));
        assert_eq!(cluster.storage.memory_budget, None);
        assert_eq!(cluster.host_threads, 1);
        let w = small("tenants4-spill", 10);
        assert!(workload::cluster(&w, Path::new("spill"))
            .storage
            .memory_budget
            .is_some());
    }
}
