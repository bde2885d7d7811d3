//! Repository benchmark for the edge schedulers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload probe-wan --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Each workload runs in its own process at `ES_THREADS=1`. The untraced
//! run (`--trace 0`) prints the end-to-end metrics; the traced run
//! (`--trace 1`) prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it give every cell's input
//! fingerprint and the raw, uncalibrated timings. See `perfbench/README.md`.

mod cells;
mod layers;
mod machine;

use cells::{Cell, Digest, Output, Quality};
use machine::{geomean, mean, median, quantile_hd, Sample, NOMINAL_PROBE_MS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !cells::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            cells::WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Calls attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    /// Calls made (cold and timed).
    pub attempted: u64,
    /// Calls that errored, failed the audit, had a non-finite makespan,
    /// or whose digest differed from the first call of their cell.
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Count one call and its verdict.
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{label}: {e}"));
            }
        }
    }
}

/// Check one call against its cell and the cell's reference digest (the
/// first call's, stored on first sight).
pub fn verdict(
    cell: &Cell,
    out: &Result<Output, es_core::SchedError>,
    reference: &mut Option<Digest>,
) -> Result<(), String> {
    let out = out.as_ref().map_err(|e| format!("scheduler error: {e}"))?;
    let d = cell.check(out)?;
    match reference {
        None => {
            *reference = Some(d);
            Ok(())
        }
        Some(r) if r.makespan != d.makespan => Err("makespan differs from the first call".into()),
        Some(r) if r.placement != d.placement => {
            Err("placements differ from the first call".into())
        }
        Some(_) => Ok(()),
    }
}

/// Cells, their first-call digests and quality, and the set-up timings.
struct Setup {
    cells: Vec<Cell>,
    digests: Vec<Option<Digest>>,
    quality: Quality,
    setup_s: f64,
    generate_ms: f64,
}

/// Build the workload and make the first (cold) call of every cell,
/// `SETUP_REPS` times. The first repetition is timed from process
/// start. Checks are made outside the timed region.
fn setup(args: &Args, start: Instant, tally: &mut Tally, probes: &mut Vec<f64>) -> Setup {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut digests: Vec<Option<Digest>> = Vec::new();
    let mut quality = Quality::default();
    let mut cells = Vec::new();
    for rep in 0..SETUP_REPS {
        let before = machine::probe_ms();
        let t0 = if rep == 0 { start } else { Instant::now() };
        let tg = Instant::now();
        let built = cells::build(&args.workload, args.seed).expect("workload validated");
        let gen_raw = tg.elapsed().as_secs_f64() * 1e3;
        let outs: Vec<_> = built.iter().map(|c| c.run(None)).collect();
        let raw_s = t0.elapsed().as_secs_f64();
        let after = machine::probe_ms();
        let probe = 0.5 * (before + after);
        probes.push(probe);
        setup_s.push(raw_s * NOMINAL_PROBE_MS / probe);
        generate_ms.push(gen_raw * NOMINAL_PROBE_MS / probe);
        if rep == 0 {
            digests = vec![None; built.len()];
        }
        for (i, (cell, out)) in built.iter().zip(&outs).enumerate() {
            tally.record(&cell.label, verdict(cell, out, &mut digests[i]));
            if rep == 0 {
                if let Ok(o) = out {
                    let q = cell.quality(o);
                    quality.slr.extend(q.slr);
                    quality.slowdown.extend(q.slowdown);
                }
            }
        }
        cells = built;
    }
    Setup {
        cells,
        digests,
        quality,
        setup_s: median(&setup_s),
        generate_ms: median(&generate_ms),
    }
}

/// Nominal milliseconds of one pass over a workload's cells; the pass
/// count is fixed from it and `--seconds`, never from a measurement, so
/// every run times the same calls.
fn nominal_pass_ms(workload: &str) -> f64 {
    match workload {
        "probe-wan" => 1100.0,
        "static-scale" => 1500.0,
        _ => 370.0,
    }
}

fn passes(args: &Args) -> usize {
    ((args.seconds as f64 * 1e3 / nominal_pass_ms(&args.workload)).round() as usize).max(3)
}

/// The timed passes: every cell once per pass, starting cell rotated per
/// pass so no cell always follows the same predecessor. Returns each
/// cell's samples.
fn timed_passes(s: &mut Setup, passes: usize, tally: &mut Tally) -> Vec<Vec<Sample>> {
    let n = s.cells.len();
    let mut samples = vec![Vec::with_capacity(passes); n];
    for pass in 0..passes {
        for k in 0..n {
            let i = (pass + k) % n;
            let cell = &s.cells[i];
            let (out, sample) = machine::timed(|| cell.run(None));
            samples[i].push(sample);
            tally.record(&cell.label, verdict(cell, &out, &mut s.digests[i]));
        }
    }
    samples
}

/// Geomean over cells of tasks per second at the cell's median time,
/// with each sample's time (ms) taken by `ms`.
fn tasks_per_s(cells: &[Cell], samples: &[Vec<Sample>], ms: impl Fn(&Sample) -> f64) -> f64 {
    let per_cell: Vec<f64> = cells
        .iter()
        .zip(samples)
        .map(|(c, cs)| c.tasks() as f64 / (median(&cs.iter().map(&ms).collect::<Vec<_>>()) / 1e3))
        .collect();
    geomean(&per_cell)
}

fn print_result(correct: bool, tally: &Tally, metrics: &BTreeMap<&str, (f64, &str)>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn main() {
    let start = Instant::now();
    // One probe lane and one thread: `ProbeParallelism::Auto` reads this
    // on every call, so set it before anything schedules.
    std::env::set_var("ES_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut probes = Vec::new();
    let mut s = setup(&args, start, &mut tally, &mut probes);
    let passes = passes(&args);

    println!(
        "# workload {} seed {} passes {passes} cells {} (nominal probe {NOMINAL_PROBE_MS} ms)",
        args.workload,
        args.seed,
        s.cells.len()
    );
    for c in &s.cells {
        println!(
            "# input {:<40} tasks {:>6} edges {:>6} dag {:016x} topo {:016x}",
            c.label,
            c.tasks(),
            c.edges(),
            c.dag_digest(),
            c.topo_digest()
        );
    }

    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    let mut correct;
    if args.trace {
        let report = layers::traced(&s.cells, &mut s.digests, passes, &mut tally, &mut probes);
        correct = report.counts_repeat;
        metrics.insert("workload.generate_ms", (s.generate_ms, "ms"));
        for (k, v, u) in report.metrics {
            metrics.insert(k, (v, u));
        }
    } else {
        let samples = timed_passes(&mut s, passes, &mut tally);
        let mut raw = Vec::new();
        let mut cal = Vec::new();
        for (cell, cs) in s.cells.iter().zip(&samples) {
            let cell_raw: Vec<f64> = cs.iter().map(|x| x.raw_ms).collect();
            let cell_cal: Vec<f64> = cs.iter().map(|x| x.cal_ms()).collect();
            println!(
                "# cell  {:<40} raw_ms {:>9.3} cal_ms {:>9.3}",
                cell.label,
                median(&cell_raw),
                median(&cell_cal)
            );
            probes.extend(cs.iter().map(|x| x.probe_ms));
            raw.extend(cell_raw);
            cal.extend(cell_cal);
        }
        println!(
            "# raw   tasks_per_s {:.1} sched_ms_p50 {:.3} sched_ms_p95 {:.3} calls {}",
            tasks_per_s(&s.cells, &samples, |x| x.raw_ms),
            quantile_hd(&raw, 0.5),
            quantile_hd(&raw, 0.95),
            raw.len()
        );
        metrics.insert(
            "tasks_per_s",
            (tasks_per_s(&s.cells, &samples, |x| x.cal_ms()), "tasks/s"),
        );
        metrics.insert("sched_ms_p50", (quantile_hd(&cal, 0.5), "ms"));
        metrics.insert("sched_ms_p95", (quantile_hd(&cal, 0.95), "ms"));
        metrics.insert("slr_mean", (mean(&s.quality.slr), "ratio"));
        metrics.insert("slowdown_mean", (mean(&s.quality.slowdown), "ratio"));
        metrics.insert(
            "slowdown_p95",
            (quantile_hd(&s.quality.slowdown, 0.95), "ratio"),
        );
        metrics.insert("setup_s", (s.setup_s, "s"));
        metrics.insert("peak_rss_mb", (machine::peak_rss_mb(), "MiB"));
        metrics.insert(
            "success_rate",
            (
                1.0 - tally.failed as f64 / tally.attempted as f64,
                "fraction",
            ),
        );
        correct = true;
    }
    let (lo, hi) = probes
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &p| {
            (lo.min(p), hi.max(p))
        });
    println!(
        "# machine probe_ms median {:.4} min {lo:.4} max {hi:.4} drift_ratio {:.3} samples {}",
        median(&probes),
        hi / lo,
        probes.len()
    );
    if args.trace {
        metrics.insert("machine.cal_ms", (median(&probes), "ms"));
        metrics.insert("machine.drift_ratio", (hi / lo, "ratio"));
    }
    correct &= tally.failed == 0;
    println!(
        "# error_rate {} ({} of {} calls failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    for r in &tally.reasons {
        println!("# FAILED {r}");
    }
    print_result(correct, &tally, &metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::{Kind, Sched};
    use es_core::{arrival_script, ArrivalSpec, ListConfig, OnlineConfig};
    use es_workload::suite::{Kernel, Platform};
    use std::sync::Mutex;

    /// The per-layer metrics that are work counts, or ratios of work
    /// counts: they depend only on the inputs and must repeat exactly.
    const COUNT_METRICS: [&str; 15] = [
        "route.bfs_calls",
        "route.dijkstra_calls",
        "route.relax_calls",
        "route.mean_hops",
        "slot.probe_calls",
        "slot.queue_len_mean",
        "slot.queue_len_max",
        "optimal.shifts_mean",
        "bandwidth.pieces_mean",
        "slotted.route_cache_hits",
        "slotted.route_cache_misses",
        "slotted.route_cache_hit_ratio",
        "online.released_slots",
        "slot.commit_calls",
        "slot.remove_calls",
    ];

    /// The route-cache counters are process-wide: tests that schedule
    /// take turns so one test's calls do not land in another's deltas.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Take the scheduling turn at one probe lane, as `main` runs: with
    /// several lanes, which lane probes which candidate (and so which
    /// lane-local route cache hits) depends on thread timing.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        let turn = SERIAL.lock().expect("no test panicked while scheduling");
        std::env::set_var("ES_THREADS", "1");
        turn
    }

    fn offline(sched: Sched) -> Cell {
        let topo = Platform::FatTree.instantiate(8, 3);
        let dag = es_workload::scale_to_ccr(
            &Kernel::GaussElim.instantiate(40),
            5.0,
            topo.mean_proc_speed(),
            topo.mean_link_speed(),
        );
        Cell {
            label: format!("test/{sched:?}"),
            kind: Kind::Offline { sched, dag },
            topo,
        }
    }

    fn small_cells() -> Vec<Cell> {
        let mut cells: Vec<Cell> = [
            Sched::Ba,
            Sched::OihsaProbe,
            Sched::BaStatic,
            Sched::Oihsa,
            Sched::Bbsa,
        ]
        .into_iter()
        .map(offline)
        .collect();
        cells.push(Cell {
            label: "test/online".into(),
            kind: Kind::Online {
                cfg: OnlineConfig::new(ListConfig::oihsa()),
                jobs: arrival_script(&ArrivalSpec::default_mix(40, 2, 4.0, 5)),
            },
            topo: Platform::WanHomogeneous.instantiate(6, 9),
        });
        cells
    }

    #[test]
    fn corrupted_schedules_are_counted_as_failures() {
        let _turn = serial();
        let cell = offline(Sched::Ba);
        let Ok(Output::Offline(good)) = cell.run(None) else {
            panic!("the test instance schedules");
        };
        let mut reference = None;
        let mut tally = Tally::default();
        let ok = Ok(Output::Offline(good.clone()));
        tally.record(&cell.label, verdict(&cell, &ok, &mut reference));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // A task that starts before its predecessor's data arrives.
        let mut early = good.clone();
        let last = early.tasks.len() - 1;
        early.tasks[last].start = -1.0;
        tally.record(
            &cell.label,
            verdict(&cell, &Ok(Output::Offline(early)), &mut reference),
        );
        // A non-finite makespan.
        let mut nan = good.clone();
        nan.makespan = f64::NAN;
        tally.record(
            &cell.label,
            verdict(&cell, &Ok(Output::Offline(nan)), &mut reference),
        );
        // A valid schedule that is not the one the first call produced.
        let other = offline(Sched::BaStatic).run(None);
        tally.record(&cell.label, verdict(&cell, &other, &mut reference));
        // A scheduler error.
        let err = Err(es_core::SchedError::NoProcessors);
        tally.record(&cell.label, verdict(&cell, &err, &mut reference));
        assert_eq!(
            (tally.attempted, tally.failed),
            (5, 4),
            "{:?}",
            tally.reasons
        );

        tally.record(&cell.label, verdict(&cell, &ok, &mut reference));
        assert_eq!(tally.failed, 4);
    }

    #[test]
    fn traced_counts_repeat_across_runs() {
        let _turn = serial();
        let cells = small_cells();
        let run = || {
            let mut digests = vec![None; cells.len()];
            let mut tally = Tally::default();
            let report = layers::traced(&cells, &mut digests, 1, &mut tally, &mut Vec::new());
            assert!(report.counts_repeat);
            assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
            report.metrics
        };
        let (a, b) = (run(), run());
        for name in COUNT_METRICS {
            let get =
                |m: &[(&str, f64, &str)]| m.iter().find(|x| x.0 == name).map(|x| x.1.to_bits());
            assert!(get(&a).is_some(), "{name} missing");
            assert_eq!(get(&a), get(&b), "{name} differs between traced runs");
        }
        let probes = a
            .iter()
            .find(|x| x.0 == "slot.probe_calls")
            .map_or(0.0, |x| x.1);
        assert!(probes > 0.0, "the replay probed nothing");
    }
}
