//! End-to-end performance harness (`cargo run -p xtask -- bench`).
//!
//! Runs the slotted schedulers over a sweep of paper-like instances
//! three times — with the reference [`Tuning`], the optimized one, and
//! the optimized one with speculative parallel probing
//! (`ProbeParallelism::Workers(threads)`) — interleaved in a single
//! process, and emits a machine-readable `BENCH_PR<n>.json` with
//! per-case wall times, scheduling throughput, and route-cache hit
//! rates.
//!
//! Correctness comes first: before any timing, every case's optimized,
//! parallel-probe, and reference schedules are diffed bitwise
//! (placements, routes, slot times) and their zero-fault executions
//! likewise; `--check` turns any divergence into a non-zero exit, which
//! is what the CI `bench-smoke` job gates on. The measured speedup is
//! reported, never hard-gated against wall-clock — with one exception:
//! when a baseline file is available (`--baseline`, default: the
//! latest committed `BENCH_PR*.json`), any matched **paper-family**
//! row whose best ref-relative speedup (across the opt and par lanes)
//! drops by more than 10% versus that baseline exits non-zero (the
//! in-process ratio is stable under machine-load drift, unlike
//! absolute times; EXPERIMENTS.md, "Reading BENCH_*.json" and
//! "Baseline comparison").

use es_core::diff::{diff_executions, diff_schedules};
use es_core::{
    execute, reset_route_cache_stats, route_cache_stats, BbsaScheduler, LinkBackend, ListConfig,
    ListScheduler, ProbeParallelism, Scheduler, Tuning,
};
use es_runner::Threads;
use es_workload::suite::{Kernel, Platform};
use es_workload::{cell_seed, generate, scale_to_ccr, InstanceConfig, Setting};
use std::time::Instant;

/// One sweep point: a fully instantiated (workload, platform) pair.
struct SweepPoint {
    /// Workload family ("paper" for the random layered sweep, kernel
    /// names for the structured suite).
    family: &'static str,
    /// Platform description.
    platform: String,
    procs: usize,
    ccr: f64,
    tasks: usize,
    seed: u64,
    dag: es_dag::TaskGraph,
    topo: es_net::Topology,
}

/// One measured (scheduler, instance) case.
struct CaseResult {
    scheduler: &'static str,
    family: &'static str,
    platform: String,
    procs: usize,
    ccr: f64,
    tasks: usize,
    seed: u64,
    reps: usize,
    ref_ms: f64,
    opt_ms: f64,
    par_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    identical: bool,
    detail: Option<String>,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        if self.opt_ms > 0.0 {
            self.ref_ms / self.opt_ms
        } else {
            0.0
        }
    }

    fn speedup_par(&self) -> f64 {
        if self.par_ms > 0.0 {
            self.ref_ms / self.par_ms
        } else {
            0.0
        }
    }

    /// Task-placement decisions per second under each tuning.
    fn decisions_per_sec(&self, ms: f64) -> f64 {
        if ms > 0.0 {
            (self.tasks * self.reps) as f64 / (ms / 1000.0)
        } else {
            0.0
        }
    }
}

/// One (link backend, native scheduler) timing row on a paper-family
/// sweep point. These rows carry their own field names (`sched_ms`,
/// not `ref_ms`/`opt_ms`) precisely so [`load_baseline`] of any future
/// file skips them — the main-case baseline gate is unaffected.
struct BackendCase {
    backend: String,
    scheduler: &'static str,
    family: &'static str,
    platform: String,
    procs: usize,
    ccr: f64,
    tasks: usize,
    reps: usize,
    sched_ms: f64,
    makespan: f64,
}

/// Time each pluggable link backend's native scheduler on one sweep
/// point: the backend transforms the instance once (`prepare`), then
/// `reps` scheduling runs are timed — OIHSA (with the backend's
/// switching adaptation) on the slot-family backends, BBSA on fluid.
fn measure_backends(point: &SweepPoint, reps: usize) -> Vec<BackendCase> {
    let mut out = Vec::new();
    for backend in LinkBackend::all() {
        let (dag, topo) = backend.prepare(&point.dag, &point.topo);
        let roster: Vec<(&'static str, Box<dyn Scheduler>)> = match backend {
            LinkBackend::Fluid => vec![("bbsa", Box::new(BbsaScheduler::new()))],
            LinkBackend::SlotQueue | LinkBackend::StoreForward(_) => vec![(
                "oihsa",
                Box::new(ListScheduler::with_config(
                    backend.adapt(ListConfig::oihsa()),
                )),
            )],
        };
        for (name, sched) in roster {
            let mut sched_ms = 0.0;
            let mut makespan = 0.0;
            for _ in 0..reps {
                let t = Instant::now();
                let s = sched
                    .schedule(&dag, &topo)
                    .expect("bench instance schedulable on every backend");
                sched_ms += t.elapsed().as_secs_f64() * 1000.0;
                makespan = s.makespan;
            }
            out.push(BackendCase {
                backend: backend.to_string(),
                scheduler: name,
                family: point.family,
                platform: point.platform.clone(),
                procs: point.procs,
                ccr: point.ccr,
                tasks: point.tasks,
                reps,
                sched_ms,
                makespan,
            });
        }
    }
    out
}

/// One comparable row loaded from a previous `BENCH_PR*.json`.
struct BaselineRow {
    scheduler: String,
    family: String,
    platform: String,
    procs: usize,
    ccr: f64,
    ref_ms: f64,
    opt_ms: f64,
}

impl BaselineRow {
    fn speedup(&self) -> f64 {
        if self.opt_ms > 0.0 {
            self.ref_ms / self.opt_ms
        } else {
            0.0
        }
    }

    fn matches(&self, c: &CaseResult) -> bool {
        self.scheduler == c.scheduler
            && self.family == c.family
            && self.platform == c.platform
            && self.procs == c.procs
            && (self.ccr - c.ccr).abs() < 1e-9
    }
}

/// Latest committed `BENCH_PR*.json` in the working directory (highest
/// PR number), excluding this run's own output file.
fn default_baseline(out_path: &str) -> Option<String> {
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == out_path {
            continue;
        }
        let Some(num) = name
            .strip_prefix("BENCH_PR")
            .and_then(|r| r.strip_suffix(".json"))
        else {
            continue;
        };
        if let Ok(n) = num.parse::<u32>() {
            if best.as_ref().is_none_or(|&(b, _)| n > b) {
                best = Some((n, name));
            }
        }
    }
    best.map(|(_, name)| name)
}

fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let i = obj.find(&pat)? + pat.len();
    let rest = &obj[i..];
    Some(rest[..rest.find('"')?].to_string())
}

fn json_num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = obj.find(&pat)? + pat.len();
    let rest = &obj[i..];
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Parse the `cases` array of a bench JSON written by [`render_json`]
/// (any PR's schema — only the row-identity, `ref_ms`, and `opt_ms`
/// fields are read, so older baselines without `par_ms` load fine).
#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn load_baseline(path: &str) -> Result<Vec<BaselineRow>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let cases_at = text
        .find("\"cases\"")
        .ok_or_else(|| format!("baseline {path}: no \"cases\" array"))?;
    let mut rows = Vec::new();
    let mut rest = &text[cases_at..];
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let obj = &rest[open..=open + close];
        if let (
            Some(scheduler),
            Some(family),
            Some(platform),
            Some(procs),
            Some(ccr),
            Some(ref_ms),
            Some(opt_ms),
        ) = (
            json_str_field(obj, "scheduler"),
            json_str_field(obj, "family"),
            json_str_field(obj, "platform"),
            json_num_field(obj, "procs"),
            json_num_field(obj, "ccr"),
            json_num_field(obj, "ref_ms"),
            json_num_field(obj, "opt_ms"),
        ) {
            rows.push(BaselineRow {
                scheduler,
                family,
                platform,
                procs: procs as usize,
                ccr,
                ref_ms,
                opt_ms,
            });
        }
        rest = &rest[open + close + 1..];
    }
    if rows.is_empty() {
        return Err(format!("baseline {path}: no parseable case rows"));
    }
    Ok(rows)
}

pub fn run(args: &[String]) -> i32 {
    let mut fast = false;
    let mut check = false;
    let mut criterion = false;
    let mut out_path = String::from("BENCH_PR10.json");
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--check" => check = true,
            "--criterion" => criterion = true,
            "--out" => {
                i += 1;
                if let Some(p) = args.get(i) {
                    out_path.clone_from(p);
                } else {
                    eprintln!("--out requires a path");
                    return 2;
                }
            }
            "--baseline" => {
                i += 1;
                if let Some(p) = args.get(i) {
                    baseline_path = Some(p.clone());
                } else {
                    eprintln!("--baseline requires a path");
                    return 2;
                }
            }
            other => {
                eprintln!("unknown bench option `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    let baseline_path = baseline_path.or_else(|| default_baseline(&out_path));
    let baseline = if let Some(p) = &baseline_path {
        match load_baseline(p) {
            Ok(rows) => {
                println!("baseline: {p} ({} rows)", rows.len());
                rows
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else {
        println!("baseline: none found (no BENCH_PR*.json besides the output)");
        Vec::new()
    };
    let threads = Threads::resolve().get();

    let (points, reps) = sweep(fast);
    let configs = [
        ListConfig::ba(),
        ListConfig::ba_static(),
        ListConfig::oihsa(),
        ListConfig::oihsa_probing(),
    ];

    let mut cases: Vec<CaseResult> = Vec::new();
    for point in &points {
        for cfg in configs {
            cases.push(measure(point, cfg, reps, threads));
        }
    }
    // Per-backend rows on the paper-family points only: enough to
    // compare the link models without doubling the sweep's cost.
    let mut backend_cases: Vec<BackendCase> = Vec::new();
    for point in points.iter().filter(|p| p.family == "paper") {
        backend_cases.extend(measure_backends(point, reps));
    }

    let all_identical = cases.iter().all(|c| c.identical);
    let total_ref: f64 = cases.iter().map(|c| c.ref_ms).sum();
    let total_opt: f64 = cases.iter().map(|c| c.opt_ms).sum();
    let total_par: f64 = cases.iter().map(|c| c.par_ms).sum();
    let overall = if total_opt > 0.0 {
        total_ref / total_opt
    } else {
        0.0
    };
    let hits: u64 = cases.iter().map(|c| c.cache_hits).sum();
    let misses: u64 = cases.iter().map(|c| c.cache_misses).sum();
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    let json = render_json(
        &cases,
        &backend_cases,
        fast,
        reps,
        threads,
        baseline_path.as_deref(),
        all_identical,
        total_ref,
        total_opt,
        total_par,
        overall,
        hit_rate,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }

    // Per-row baseline comparison. The printed ratio is baseline
    // opt_ms over this run's opt_ms (wall-clock, >1 = faster now); the
    // *gate* compares each row's best ref-relative speedup across the
    // supported fast tunings (opt and par) against the baseline's,
    // because absolute wall times drift with machine load between
    // sessions while the interleaved in-process ratio isolates whether
    // this PR lost the optimization trajectory. Paper-family rows
    // whose best speedup drops >10% are hard failures; rows under
    // GATE_FLOOR_MS in the baseline are scheduler-jitter noise
    // (EXPERIMENTS.md: "BA-static rows are sub-millisecond and noisy —
    // ignore their ratios") and are only reported, never gated. Rows
    // with no matching baseline entry (e.g. --fast subset vs a full
    // baseline) are skipped.
    const GATE_FLOOR_MS: f64 = 10.0;
    let mut regressions: Vec<String> = Vec::new();
    let mut matched = 0usize;
    for c in &cases {
        let vs_base = baseline.iter().find(|r| r.matches(c)).map(|r| {
            matched += 1;
            let ratio = if c.opt_ms > 0.0 {
                r.opt_ms / c.opt_ms
            } else {
                0.0
            };
            let best = c.speedup().max(c.speedup_par());
            if c.family == "paper" && r.opt_ms >= GATE_FLOOR_MS && best < r.speedup() * 0.90 {
                regressions.push(format!(
                    "{} {} {} procs={} ccr={}: best speedup x{:.2} (opt x{:.2}, par x{:.2}) \
                     vs baseline x{:.2}",
                    c.scheduler,
                    c.family,
                    c.platform,
                    c.procs,
                    c.ccr,
                    best,
                    c.speedup(),
                    c.speedup_par(),
                    r.speedup(),
                ));
            }
            ratio
        });
        println!(
            "{:14} {:14} {:12} procs={:<2} ccr={:<4} tasks={:<4} ref {:8.2}ms opt {:8.2}ms x{:.2} par {:8.2}ms x{:.2} hit-rate {:.0}% {}{}",
            c.scheduler,
            c.family,
            c.platform,
            c.procs,
            c.ccr,
            c.tasks,
            c.ref_ms,
            c.opt_ms,
            c.speedup(),
            c.par_ms,
            c.speedup_par(),
            100.0 * c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
            if c.identical { "ok" } else { "DIVERGED" },
            match vs_base {
                Some(r) => format!(" vs-baseline x{r:.2}"),
                None if baseline.is_empty() => String::new(),
                None => " (no baseline row)".to_string(),
            },
        );
        if let Some(d) = &c.detail {
            println!("    {d}");
        }
    }
    for b in &backend_cases {
        println!(
            "backend {:10} {:6} {:14} {:12} procs={:<2} ccr={:<4} tasks={:<4} \
             sched {:8.2}ms makespan {:.3}",
            b.backend,
            b.scheduler,
            b.family,
            b.platform,
            b.procs,
            b.ccr,
            b.tasks,
            b.sched_ms,
            b.makespan,
        );
    }
    println!(
        "\ntotal: ref {total_ref:.1}ms opt {total_opt:.1}ms par {total_par:.1}ms \
         (threads={threads}) speedup x{overall:.2}; \
         route-cache hit rate {:.1}%; identity {}",
        hit_rate * 100.0,
        if all_identical { "ok" } else { "FAILED" },
    );
    if !baseline.is_empty() {
        println!(
            "baseline match: {matched}/{} rows compared against {}",
            cases.len(),
            baseline_path.as_deref().unwrap_or("?"),
        );
    }
    println!("wrote {out_path}");

    if criterion {
        println!("\nrunning criterion suite (cargo bench -p es-bench)...");
        let status = std::process::Command::new("cargo")
            .args(["bench", "-p", "es-bench"])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("criterion suite failed: {s}");
                if check {
                    return 1;
                }
            }
            Err(e) => {
                eprintln!("cannot spawn cargo bench: {e}");
                if check {
                    return 1;
                }
            }
        }
    }

    if check && !all_identical {
        eprintln!("bench --check: differential identity FAILED");
        return 1;
    }
    if check && !baseline.is_empty() && matched == 0 {
        eprintln!(
            "bench --check: baseline {} matched 0 of {} rows — the regression gate \
             is inert; keep the fast sweep a subset of the committed full grid",
            baseline_path.as_deref().unwrap_or("?"),
            cases.len(),
        );
        return 1;
    }
    if !regressions.is_empty() {
        eprintln!("\nbench: paper-family rows regressed >10% vs baseline:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        return 1;
    }
    0
}

/// The sweep grid: the paper's random layered DAGs on switched WANs
/// plus structured kernels from the suite, spanning low and high CCR
/// and both speed regimes. Full mode is the committed `BENCH_PR*.json`
/// trajectory; fast mode (the CI smoke subset) reuses a strict subset
/// of the full grid's points at `reps = 1` so every fast row matches a
/// committed full-baseline row — which is what keeps the `--check`
/// regression gate live in CI instead of silently comparing nothing.
fn sweep(fast: bool) -> (Vec<SweepPoint>, usize) {
    let mut points = Vec::new();
    let paper = |setting: Setting, procs: usize, ccr: f64, tasks: usize| {
        let seed = cell_seed(0xBE4C_2404, setting, procs, ccr, 0);
        let inst = generate(&InstanceConfig::paper(setting, procs, ccr, seed).with_tasks(tasks));
        SweepPoint {
            family: "paper",
            platform: format!("{setting:?}"),
            procs,
            ccr,
            tasks: inst.dag.task_count(),
            seed,
            dag: inst.dag,
            topo: inst.topo,
        }
    };
    let kernel = |k: Kernel, platform: Platform, procs: usize, ccr: f64, tasks: usize| {
        let seed = cell_seed(0x5EED_04B1, Setting::Heterogeneous, procs, ccr, 0);
        let topo = platform.instantiate(procs, seed);
        let raw = k.instantiate(tasks);
        let dag = scale_to_ccr(&raw, ccr, topo.mean_proc_speed(), topo.mean_link_speed());
        SweepPoint {
            family: k.name(),
            platform: platform.name().to_string(),
            procs,
            ccr,
            tasks: dag.task_count(),
            seed,
            dag,
            topo,
        }
    };
    if fast {
        points.push(paper(Setting::Homogeneous, 16, 2.0, 150));
        points.push(paper(Setting::Heterogeneous, 32, 8.0, 150));
        points.push(kernel(
            Kernel::ForkJoin,
            Platform::WanHeterogeneous,
            32,
            8.0,
            150,
        ));
        (points, 1)
    } else {
        points.push(paper(Setting::Homogeneous, 16, 2.0, 150));
        points.push(paper(Setting::Heterogeneous, 32, 8.0, 150));
        points.push(kernel(
            Kernel::ForkJoin,
            Platform::WanHeterogeneous,
            32,
            8.0,
            150,
        ));
        points.push(kernel(
            Kernel::DivideConquer,
            Platform::WanHomogeneous,
            32,
            8.0,
            150,
        ));
        points.push(kernel(
            Kernel::GaussElim,
            Platform::WanHeterogeneous,
            16,
            5.0,
            150,
        ));
        points.push(kernel(Kernel::Stencil, Platform::FatTree, 16, 5.0, 150));
        (points, 5)
    }
}

/// Minimum wall time each lane should accumulate per case; rows whose
/// single run is small get proportionally more reps (up to
/// [`MAX_REPS`]) so their ratios are statistics, not jitter.
const LANE_TARGET_MS: f64 = 120.0;

/// Upper bound on the adaptive rep count per case.
const MAX_REPS: usize = 41;

/// Measure one (scheduler, instance) case: identity gate first (the
/// reference, optimized, and parallel-probe tunings must agree bit for
/// bit), then interleaved ref/opt/par timed runs — at least the
/// requested `reps`, scaled up for small rows (see [`LANE_TARGET_MS`])
/// and reported as the per-lane median x reps.
fn measure(point: &SweepPoint, cfg: ListConfig, reps: usize, threads: usize) -> CaseResult {
    let par_tuning = Tuning {
        parallel_probe: ProbeParallelism::Workers(threads),
    };
    let run = |tuning: Tuning| {
        ListScheduler::with_config(ListConfig { tuning, ..cfg }).schedule(&point.dag, &point.topo)
    };

    // Identity gate (doubles as warmup).
    let gate = |a: Result<es_core::Schedule, es_core::SchedError>,
                b: Result<es_core::Schedule, es_core::SchedError>,
                label: &str|
     -> (bool, Option<String>) {
        match (a, b) {
            (Ok(opt), Ok(refr)) => {
                if let Some(d) = diff_schedules(&opt, &refr) {
                    (false, Some(format!("{label} schedule diverged: {d}")))
                } else {
                    match (
                        execute(&point.dag, &point.topo, &opt),
                        execute(&point.dag, &point.topo, &refr),
                    ) {
                        (Ok(eo), Ok(er)) => match diff_executions(&eo, &er) {
                            Some(d) => (false, Some(format!("{label} execution diverged: {d}"))),
                            None => (true, None),
                        },
                        (Err(a), Err(b)) if format!("{a:?}") == format!("{b:?}") => (true, None),
                        (a, b) => (
                            false,
                            Some(format!(
                                "{label} execution outcomes differ: {:?} vs {:?}",
                                a.map(|e| e.makespan),
                                b.map(|e| e.makespan)
                            )),
                        ),
                    }
                }
            }
            (Err(a), Err(b)) if format!("{a:?}") == format!("{b:?}") => {
                (true, Some(format!("both tunings error ({label}): {a:?}")))
            }
            (a, b) => (
                false,
                Some(format!(
                    "{label} outcomes differ: {:?} vs {:?}",
                    a.map(|s| s.makespan),
                    b.map(|s| s.makespan)
                )),
            ),
        }
    };
    let (opt_ok, opt_detail) = gate(
        run(Tuning::optimized()),
        run(Tuning::reference()),
        "opt/ref",
    );
    let (par_ok, par_detail) = gate(run(par_tuning), run(Tuning::reference()), "par/ref");
    let identical = opt_ok && par_ok;
    let detail = opt_detail.or(par_detail);

    // Small rows drown in scheduler jitter at a fixed rep count (a
    // sub-millisecond run flips its ratio on one descheduling blip),
    // so scale the rep count until each lane accumulates enough wall
    // time, and report the per-lane median x reps instead of the raw
    // sum — the median is drift-robust and converges on big rows to
    // the same number the sum gave.
    let est_s = {
        let t = Instant::now();
        let _ = run(Tuning::reference());
        t.elapsed().as_secs_f64().max(1e-6)
    };
    let case_reps = reps.max(((LANE_TARGET_MS / 1000.0 / est_s).ceil() as usize).min(MAX_REPS));

    // Interleaved timing: ref, opt, and par alternate so drift hits all
    // three lanes equally, and the starting lane rotates per rep —
    // with a fixed order each lane always runs behind the same
    // predecessor, and the allocator/cache state it inherits skews
    // sub-millisecond rows by several percent in a consistent
    // direction. Rotation cancels that position bias.
    let mut ref_s = Vec::with_capacity(case_reps);
    let mut opt_s = Vec::with_capacity(case_reps);
    let mut par_s = Vec::with_capacity(case_reps);
    let stats_before = {
        reset_route_cache_stats();
        route_cache_stats()
    };
    for r in 0..case_reps {
        for k in 0..3 {
            match (r + k) % 3 {
                0 => {
                    let t = Instant::now();
                    let _ = run(Tuning::reference());
                    ref_s.push(t.elapsed().as_secs_f64());
                }
                1 => {
                    let t = Instant::now();
                    let _ = run(Tuning::optimized());
                    opt_s.push(t.elapsed().as_secs_f64());
                }
                _ => {
                    let t = Instant::now();
                    let _ = run(par_tuning);
                    par_s.push(t.elapsed().as_secs_f64());
                }
            }
        }
    }
    let stats = route_cache_stats();
    // Normalize to `median x requested reps` — the same scale a
    // sum-of-`reps` run reports — so rows stay wall-comparable with
    // committed baselines regardless of how many extra samples the
    // adaptive scaling added.
    let lane_ms = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            f64::midpoint(v[n / 2 - 1], v[n / 2])
        };
        median * reps as f64 * 1000.0
    };

    CaseResult {
        scheduler: cfg.name,
        family: point.family,
        platform: point.platform.clone(),
        procs: point.procs,
        ccr: point.ccr,
        tasks: point.tasks,
        seed: point.seed,
        reps: case_reps,
        ref_ms: lane_ms(ref_s),
        opt_ms: lane_ms(opt_s),
        par_ms: lane_ms(par_s),
        cache_hits: stats.hits - stats_before.hits,
        cache_misses: stats.misses - stats_before.misses,
        identical,
        detail,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cases: &[CaseResult],
    backend_cases: &[BackendCase],
    fast: bool,
    reps: usize,
    threads: usize,
    baseline: Option<&str>,
    all_identical: bool,
    total_ref: f64,
    total_opt: f64,
    total_par: f64,
    overall: f64,
    hit_rate: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"PR10\",\n");
    s.push_str("  \"schema_version\": 3,\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if fast { "fast" } else { "full" }
    ));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!(
        "  \"baseline\": {},\n",
        baseline.map_or_else(|| "null".to_string(), |b| format!("\"{b}\""))
    ));
    s.push_str(&format!(
        "  \"optimized_build\": {},\n",
        !cfg!(debug_assertions)
    ));
    s.push_str(&format!("  \"identity_ok\": {all_identical},\n"));
    s.push_str(&format!("  \"total_ref_ms\": {total_ref:.3},\n"));
    s.push_str(&format!("  \"total_opt_ms\": {total_opt:.3},\n"));
    s.push_str(&format!("  \"total_par_ms\": {total_par:.3},\n"));
    s.push_str(&format!("  \"overall_speedup\": {overall:.4},\n"));
    s.push_str(&format!("  \"route_cache_hit_rate\": {hit_rate:.4},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheduler\": \"{}\", \"family\": \"{}\", \"platform\": \"{}\", \
             \"procs\": {}, \"ccr\": {}, \
             \"tasks\": {}, \"seed\": {}, \"ref_ms\": {:.3}, \"opt_ms\": {:.3}, \
             \"par_ms\": {:.3}, \
             \"speedup\": {:.4}, \"speedup_par\": {:.4}, \"decisions_per_sec_ref\": {:.1}, \
             \"decisions_per_sec_opt\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"identical\": {}}}{}\n",
            c.scheduler,
            c.family,
            c.platform,
            c.procs,
            c.ccr,
            c.tasks,
            c.seed,
            c.ref_ms,
            c.opt_ms,
            c.par_ms,
            c.speedup(),
            c.speedup_par(),
            c.decisions_per_sec(c.ref_ms),
            c.decisions_per_sec(c.opt_ms),
            c.cache_hits,
            c.cache_misses,
            c.identical,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"backend_cases\": [\n");
    for (i, b) in backend_cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"scheduler\": \"{}\", \"family\": \"{}\", \
             \"platform\": \"{}\", \"procs\": {}, \"ccr\": {}, \"tasks\": {}, \
             \"reps\": {}, \"sched_ms\": {:.3}, \"makespan\": {:.4}}}{}\n",
            b.backend,
            b.scheduler,
            b.family,
            b.platform,
            b.procs,
            b.ccr,
            b.tasks,
            b.reps,
            b.sched_ms,
            b.makespan,
            if i + 1 < backend_cases.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
