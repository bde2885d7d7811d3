//! The traced run: per-layer counts and times, measured from outside by
//! timing calls into the public functions of each crate.
//!
//! Link-layer costs come from replaying every produced schedule onto
//! fresh `SlotQueue`s (or `RateProfile`s for fluid cells) in task start
//! order. Each probe, plan, overlay probe, allocation, commit and
//! removal is timed at the queue state it sees at that point of the
//! replay. Route searches are replayed the same way: a BFS per remote
//! edge for BFS-routed schedulers, a modified Dijkstra whose relax step
//! probes the replayed queues for OIHSA. Every replay runs twice and
//! its counts must agree exactly.

use crate::cells::{Cell, Digest, Kind, Output};
use crate::machine::{self, geomean, mean, median, Sample, NOMINAL_PROBE_MS};
use crate::{verdict, Tally};
use es_core::{
    reset_route_cache_stats, route_cache_stats, CommPlacement, Insertion, ListConfig,
    ListScheduler, ProcSelection, Routing, Schedule, Scheduler,
};
use es_dag::{priority_list, Priority, TaskGraph};
use es_linksched::bandwidth::ArrivalCurve;
use es_linksched::optimal::{plan_optimal_insert_with, InsertScratch};
use es_linksched::{CommId, Flow, RateProfile, Slot, SlotQueue, SlotQueueOverlay};
use es_net::{Hop, Topology};
use es_route::{bfs_route_with, dijkstra_route_with, BfsScratch, DijkstraScratch};
use es_runner::WorkerPool;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each pure link-layer call inside one timed region, so
/// the clock read is amortised.
const OP_REPS: u32 = 4;

/// Work counts of one replay. They depend only on the inputs, so two
/// replays of one schedule must agree exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Remote communications replayed.
    pub routes: u64,
    /// Hops over all replayed routes.
    pub hops: u64,
    /// `bfs_route_with` calls.
    pub bfs_calls: u64,
    /// `dijkstra_route_with` calls.
    pub dijkstra_calls: u64,
    /// Invocations of the relax closure passed to `dijkstra_route_with`.
    pub relax_calls: u64,
    /// `SlotQueue::probe` positions.
    pub probe_calls: u64,
    /// Queue length summed over probe positions.
    pub queue_len_sum: u64,
    /// Longest queue probed.
    pub queue_len_max: u64,
    /// `SlotQueue::commit` calls.
    pub commit_calls: u64,
    /// `SlotQueue::remove_comm` calls.
    pub remove_calls: u64,
    /// `plan_optimal_insert_with` positions.
    pub plan_calls: u64,
    /// Slots the plans would shift.
    pub shifts: u64,
    /// `SlotQueueOverlay::probe` positions.
    pub overlay_calls: u64,
    /// `RateProfile::allocate` calls.
    pub alloc_calls: u64,
    /// Pieces of the allocated flows.
    pub pieces: u64,
}

/// Raw nanoseconds spent per layer in one replay.
#[derive(Clone, Debug, Default)]
pub struct Times {
    bfs: f64,
    dijkstra: f64,
    probe: f64,
    commit: f64,
    remove: f64,
    plan: f64,
    overlay: f64,
    alloc: f64,
    fcommit: f64,
}

/// Which layers a scheduler exercises, so the replay calls only those.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// BFS routing (BA family).
    pub bfs: bool,
    /// Modified-Dijkstra routing and optimal insertion (OIHSA family).
    pub optimal: bool,
    /// Candidate probing through overlays (probing schedulers).
    pub overlay: bool,
}

impl Mode {
    fn of(cfg: &ListConfig) -> Self {
        Self {
            bfs: cfg.routing == Routing::Bfs,
            optimal: cfg.insertion == Insertion::Optimal,
            overlay: cfg.proc_selection == ProcSelection::EarliestFinishProbe,
        }
    }
}

/// One schedule to replay: a whole offline schedule, or one online job
/// placed on the shared platform at `dispatch` and retired at `finish`.
pub struct Job<'a> {
    /// The job's task graph.
    pub dag: &'a TaskGraph,
    /// Its schedule.
    pub sched: &'a Schedule,
    /// Dispatch instant (0 offline).
    pub dispatch: f64,
    /// Retirement instant (infinite offline).
    pub finish: f64,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Tasks in the order the replay places their in-edges: by start time,
/// ties on id.
fn start_order(sched: &Schedule) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sched.tasks.len()).collect();
    order.sort_by(|&a, &b| {
        sched.tasks[a]
            .start
            .total_cmp(&sched.tasks[b].start)
            .then(a.cmp(&b))
    });
    order
}

/// Lemma 2 deferrable time of every slot of `q`, from the final hop
/// times of each communication (`placed[comm]`).
fn deferrable(q: &SlotQueue, placed: &[Option<&[(f64, f64)]>], out: &mut Vec<f64>) {
    out.clear();
    out.extend(q.slots().iter().map(|s| {
        let times = placed[s.comm.0 as usize].expect("queued comms are placed");
        let k = s.seq as usize;
        match times.get(k + 1) {
            Some(&(ns, nf)) => (ns - times[k].0).min(nf - times[k].1).max(0.0),
            None => 0.0,
        }
    }));
}

/// Replay slotted schedules onto fresh gap-indexed queues. With
/// `compaction`, a job's slots are removed once a later job dispatches
/// at or after its finish, as the online engine does; all remaining
/// slots are removed at the end.
pub fn replay_slotted(
    topo: &Topology,
    jobs: &[Job],
    mode: Mode,
    compaction: bool,
) -> (Counts, Times) {
    let mut c = Counts::default();
    let mut t = Times::default();
    let mut queues: Vec<SlotQueue> = (0..topo.link_count())
        .map(|_| SlotQueue::with_gap_index())
        .collect();
    let mut delta: Vec<Vec<Slot>> = vec![Vec::new(); topo.link_count()];
    let mut touched: Vec<usize> = Vec::new();
    let bases: Vec<u64> = jobs
        .iter()
        .scan(0u64, |acc, j| {
            let b = *acc;
            *acc += j.dag.edge_count() as u64;
            Some(b)
        })
        .collect();
    let total = jobs.iter().map(|j| j.dag.edge_count()).sum();
    let mut placed: Vec<Option<&[(f64, f64)]>> = vec![None; total];
    for (j, base) in jobs.iter().zip(&bases) {
        for (e, comm) in j.sched.comms.iter().enumerate() {
            if let CommPlacement::Slotted { times, .. } = comm {
                placed[*base as usize + e] = Some(times);
            }
        }
    }
    let mut bfs = BfsScratch::new();
    let mut dijkstra = DijkstraScratch::new();
    let mut plan_scratch = InsertScratch::new();
    let mut dts = Vec::new();
    let mut live: Vec<usize> = Vec::new();

    let remove_job = |j: usize, queues: &mut [SlotQueue], c: &mut Counts, t: &mut Times| {
        for (e, comm) in jobs[j].sched.comms.iter().enumerate() {
            if let CommPlacement::Slotted { route, .. } = comm {
                let id = CommId(bases[j] + e as u64);
                for hop in route {
                    let s = Instant::now();
                    black_box(queues[hop.link.index()].remove_comm(id));
                    t.remove += ns(s);
                    c.remove_calls += 1;
                }
            }
        }
    };

    for (ji, job) in jobs.iter().enumerate() {
        if compaction {
            let (gone, kept): (Vec<usize>, Vec<usize>) =
                live.iter().partition(|&&l| jobs[l].finish <= job.dispatch);
            for l in gone {
                remove_job(l, &mut queues, &mut c, &mut t);
            }
            live = kept;
        }
        let (dag, sched) = (job.dag, job.sched);
        for task in start_order(sched) {
            for &e in dag.in_edges(es_dag::TaskId(task as u32)) {
                let CommPlacement::Slotted { route, times } = &sched.comms[e.index()] else {
                    continue;
                };
                let comm = CommId(bases[ji] + e.index() as u64);
                let edge = dag.edge(e);
                let ready = sched.tasks[edge.src.index()].finish;
                let from = topo.node_of_proc(sched.tasks[edge.src.index()].proc);
                let to = topo.node_of_proc(sched.tasks[task].proc);
                c.routes += 1;
                c.hops += route.len() as u64;
                if mode.bfs {
                    let s = Instant::now();
                    black_box(bfs_route_with(topo, from, to, &mut bfs));
                    t.bfs += ns(s);
                    c.bfs_calls += 1;
                }
                if mode.optimal {
                    let cost = dag.cost(e);
                    let mut relax = 0u64;
                    let s = Instant::now();
                    black_box(dijkstra_route_with(
                        topo,
                        from,
                        to,
                        (ready, ready),
                        |&(start, finish): &(f64, f64), hop: &Hop| {
                            relax += 1;
                            let d = cost / topo.link_speed(hop.link);
                            let st = queues[hop.link.index()].probe(start, d);
                            (st, (st + d).max(finish))
                        },
                        |s| s.1,
                        &mut dijkstra,
                    ));
                    t.dijkstra += ns(s);
                    c.dijkstra_calls += 1;
                    c.relax_calls += relax;
                }
                for (k, hop) in route.iter().enumerate() {
                    let l = hop.link.index();
                    let (start, end) = times[k];
                    let d = end - start;
                    let bound = if k == 0 { ready } else { times[k - 1].0 };
                    let q = &queues[l];
                    let s = Instant::now();
                    for _ in 0..OP_REPS {
                        black_box(q.probe(black_box(bound), d));
                    }
                    t.probe += ns(s) / f64::from(OP_REPS);
                    c.probe_calls += 1;
                    c.queue_len_sum += q.len() as u64;
                    c.queue_len_max = c.queue_len_max.max(q.len() as u64);
                    if mode.overlay {
                        let ov = SlotQueueOverlay::new(q.slots(), &delta[l]);
                        let s = Instant::now();
                        for _ in 0..OP_REPS {
                            black_box(ov.probe(black_box(bound), d));
                        }
                        t.overlay += ns(s) / f64::from(OP_REPS);
                        c.overlay_calls += 1;
                    }
                    if mode.optimal {
                        deferrable(q, &placed, &mut dts);
                        let s = Instant::now();
                        let plan = plan_optimal_insert_with(q, bound, d, &dts, &mut plan_scratch);
                        t.plan += ns(s);
                        c.plan_calls += 1;
                        c.shifts += plan.shifts.len() as u64;
                    }
                    if delta[l].is_empty() {
                        touched.push(l);
                    }
                    SlotQueueOverlay::commit_into(
                        q.slots(),
                        &mut delta[l],
                        comm,
                        k as u32,
                        start,
                        d,
                    );
                }
            }
            for l in touched.drain(..) {
                for slot in delta[l].drain(..) {
                    let s = Instant::now();
                    queues[l].commit(slot.comm, slot.seq, slot.start, slot.end - slot.start);
                    t.commit += ns(s);
                    c.commit_calls += 1;
                }
            }
        }
        live.push(ji);
    }
    for l in live {
        remove_job(l, &mut queues, &mut c, &mut t);
    }
    (c, t)
}

/// Replay a fluid schedule onto fresh `RateProfile`s: every hop's flow
/// is allocated against the profile as it stands and committed.
pub fn replay_fluid(topo: &Topology, dag: &TaskGraph, sched: &Schedule) -> (Counts, Times) {
    let mut c = Counts::default();
    let mut t = Times::default();
    let mut profiles: Vec<RateProfile> =
        (0..topo.link_count()).map(|_| RateProfile::new()).collect();
    for task in start_order(sched) {
        for &e in dag.in_edges(es_dag::TaskId(task as u32)) {
            let CommPlacement::Fluid { route, .. } = &sched.comms[e.index()] else {
                continue;
            };
            let cost = dag.cost(e);
            let ready = sched.tasks[dag.edge(e).src.index()].finish;
            c.routes += 1;
            c.hops += route.len() as u64;
            let mut prev: Option<(Flow, f64)> = None;
            for hop in route {
                let l = hop.link.index();
                let speed = topo.link_speed(hop.link);
                let arrival = match &prev {
                    None => ArrivalCurve::Instant { at: ready },
                    Some((flow, sp)) => ArrivalCurve::Upstream {
                        flow,
                        speed: *sp,
                        delay: topo.hop_delay(),
                    },
                };
                let s = Instant::now();
                let flow = profiles[l].allocate(speed, arrival, cost);
                t.alloc += ns(s);
                c.alloc_calls += 1;
                c.pieces += flow.pieces.len() as u64;
                let s = Instant::now();
                profiles[l].commit(CommId(e.index() as u64), &flow);
                t.fcommit += ns(s);
                prev = Some((flow, speed));
            }
        }
    }
    (c, t)
}

/// Per-layer metrics of the traced run, and whether every count
/// repeated exactly.
pub struct Report {
    /// Counts agreed across the two replays (and two cache readings).
    pub counts_repeat: bool,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// An in-memory span around one public call.
struct Span {
    name: &'static str,
    cell: usize,
    start_ns: u64,
    end_ns: u64,
}

fn scale(sample: Sample) -> f64 {
    NOMINAL_PROBE_MS / sample.probe_ms
}

/// Run the traced measurement over already set-up cells.
pub fn traced(
    cells: &[Cell],
    digests: &mut [Option<Digest>],
    passes: usize,
    tally: &mut Tally,
    probes: &mut Vec<f64>,
) -> Report {
    let n = cells.len();
    let origin = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut spanned: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cache = [(0u64, 0u64); 2];
    let mut repeat = true;

    // Untraced and traced calls alternate, the untraced one first on
    // even passes; the difference between the two is the tracing
    // overhead. The first two passes also read the route-cache counters.
    let traced_passes = passes.div_ceil(2).max(2);
    for pass in 0..traced_passes {
        for k in 0..n {
            let i = (pass + k) % n;
            let cell = &cells[i];
            for side in 0..2 {
                let with_span = (side + pass) % 2 == 1;
                reset_route_cache_stats();
                let before = route_cache_stats();
                let (out, sample) = machine::timed(|| {
                    if with_span {
                        let s = origin.elapsed().as_nanos() as u64;
                        let out = cell.run(None);
                        spans.push(Span {
                            name: "call",
                            cell: i,
                            start_ns: s,
                            end_ns: origin.elapsed().as_nanos() as u64,
                        });
                        out
                    } else {
                        cell.run(None)
                    }
                });
                let after = route_cache_stats();
                if let (Some(c), false) = (cache.get_mut(pass), with_span) {
                    c.0 += after.hits - before.hits;
                    c.1 += after.misses - before.misses;
                }
                probes.push(sample.probe_ms);
                if with_span {
                    spanned[i].push(sample.cal_ms());
                } else {
                    plain[i].push(sample.cal_ms());
                }
                tally.record(&cell.label, verdict(cell, &out, &mut digests[i]));
            }
        }
    }
    repeat &= cache[0] == cache[1];
    let tps = |v: &[Vec<f64>]| {
        geomean(
            &cells
                .iter()
                .zip(v)
                .map(|(c, s)| c.tasks() as f64 / (median(s) / 1e3))
                .collect::<Vec<_>>(),
        )
    };
    let (tps_plain, tps_spanned) = (tps(&plain), tps(&spanned));

    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut per_sched: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut priority_us = Vec::new();
    let mut audit_ms = Vec::new();
    let mut counts = Counts::default();
    let mut times = Times::default();
    let mut online_run = Vec::new();
    let mut online_iso = Vec::new();
    let mut released = 0u64;
    let mut lanes_ratio = Vec::new();

    for (i, cell) in cells.iter().enumerate() {
        let out = cell.run(None);
        tally.record(&cell.label, verdict(cell, &out, &mut digests[i]));
        let Ok(out) = out else { continue };
        let (_, check) = machine::timed(|| black_box(cell.check(&out)));
        audit_ms.push(check.cal_ms());
        match (&cell.kind, &out) {
            (Kind::Offline { sched, dag }, Output::Offline(s)) => {
                let stem = sched.layer();
                match per_sched.iter_mut().find(|(k, _)| *k == stem) {
                    Some((_, v)) => v.push(median(&plain[i])),
                    None => per_sched.push((stem, vec![median(&plain[i])])),
                }
                const PRIORITY_REPS: usize = 20;
                let (_, p) = machine::timed(|| {
                    for _ in 0..PRIORITY_REPS {
                        black_box(priority_list(black_box(dag), Priority::BottomLevel));
                    }
                });
                priority_us.push(p.cal_ms() * 1e3 / PRIORITY_REPS as f64);
                let replay = || match sched.list_config() {
                    None => replay_fluid(&cell.topo, dag, s),
                    Some(cfg) => {
                        let job = Job {
                            dag,
                            sched: s,
                            dispatch: 0.0,
                            finish: f64::INFINITY,
                        };
                        replay_slotted(&cell.topo, &[job], Mode::of(&cfg), false)
                    }
                };
                let ((c1, t1), sample) = machine::timed(replay);
                let (c2, _) = replay();
                repeat &= c1 == c2;
                accumulate(&mut counts, &mut times, &c1, &t1, scale(sample));
                if sched.probes() {
                    lanes_ratio.push(lanes2_ratio(cell, &mut digests[i], tally));
                }
            }
            (Kind::Online { cfg, jobs }, Output::Online(run)) => {
                online_run.push(median(&plain[i]));
                let iso = ListScheduler::with_config(cfg.scheduler);
                let (_, sample) = machine::timed(|| {
                    for job in jobs {
                        black_box(iso.schedule(&job.dag, &cell.topo).ok());
                    }
                });
                online_iso.push(sample.cal_ms());
                released += run.released_slots as u64;
                let mut order: Vec<&es_core::JobOutcome> = run.outcomes.iter().collect();
                order.sort_by(|a, b| a.dispatch.total_cmp(&b.dispatch).then(a.job.cmp(&b.job)));
                let replay_jobs: Vec<Job> = order
                    .iter()
                    .map(|o| Job {
                        dag: &jobs[o.job as usize].dag,
                        sched: &o.schedule,
                        dispatch: o.dispatch,
                        finish: o.finish,
                    })
                    .collect();
                let mode = Mode::of(&cfg.scheduler);
                let replay = || replay_slotted(&cell.topo, &replay_jobs, mode, cfg.compaction);
                let ((c1, t1), sample) = machine::timed(replay);
                let (c2, _) = replay();
                repeat &= c1 == c2;
                accumulate(&mut counts, &mut times, &c1, &t1, scale(sample));
            }
            _ => {}
        }
    }

    let per = |v: f64, calls: u64| if calls == 0 { 0.0 } else { v / calls as f64 };
    let c = &counts;
    let t = &times;
    m.push(("dag.priority_us", mean(&priority_us), "us"));
    m.push(("route.bfs_calls", c.bfs_calls as f64, "count"));
    m.push(("route.bfs_us", per(t.bfs, c.bfs_calls) / 1e3, "us"));
    m.push(("route.dijkstra_calls", c.dijkstra_calls as f64, "count"));
    m.push(("route.relax_calls", c.relax_calls as f64, "count"));
    m.push((
        "route.dijkstra_us",
        per(t.dijkstra, c.dijkstra_calls) / 1e3,
        "us",
    ));
    m.push(("route.mean_hops", per(c.hops as f64, c.routes), "hops"));
    m.push(("slot.probe_calls", c.probe_calls as f64, "count"));
    m.push(("slot.probe_ns", per(t.probe, c.probe_calls), "ns"));
    m.push((
        "slot.queue_len_mean",
        per(c.queue_len_sum as f64, c.probe_calls),
        "slots",
    ));
    m.push(("slot.queue_len_max", c.queue_len_max as f64, "slots"));
    m.push(("slot.commit_calls", c.commit_calls as f64, "count"));
    m.push(("slot.commit_ns", per(t.commit, c.commit_calls), "ns"));
    m.push(("slot.remove_calls", c.remove_calls as f64, "count"));
    m.push(("slot.remove_ns", per(t.remove, c.remove_calls), "ns"));
    m.push(("optimal.plan_ns", per(t.plan, c.plan_calls), "ns"));
    m.push((
        "optimal.shifts_mean",
        per(c.shifts as f64, c.plan_calls),
        "slots",
    ));
    m.push(("overlay.probe_ns", per(t.overlay, c.overlay_calls), "ns"));
    m.push(("bandwidth.allocate_ns", per(t.alloc, c.alloc_calls), "ns"));
    m.push(("bandwidth.commit_ns", per(t.fcommit, c.alloc_calls), "ns"));
    m.push((
        "bandwidth.pieces_mean",
        per(c.pieces as f64, c.alloc_calls),
        "pieces",
    ));
    let (hits, misses) = cache[0];
    m.push(("slotted.route_cache_hits", hits as f64, "count"));
    m.push(("slotted.route_cache_misses", misses as f64, "count"));
    m.push((
        "slotted.route_cache_hit_ratio",
        per(hits as f64, hits + misses),
        "ratio",
    ));
    for stem in [
        "list.ba_ms",
        "list.oihsa_probe_ms",
        "list.ba_static_ms",
        "list.oihsa_ms",
        "bbsa.ms",
    ] {
        let v = per_sched
            .iter()
            .find(|(k, _)| *k == stem)
            .map_or(0.0, |(_, v)| mean(v));
        m.push((stem, v, "ms"));
    }
    m.push(("list.lanes2_ratio", geomean(&lanes_ratio), "ratio"));
    m.push(("runner.dispatch_us", dispatch_us(), "us"));
    let (run_ms, iso_ms) = (mean(&online_run), mean(&online_iso));
    m.push(("online.run_ms", run_ms, "ms"));
    m.push(("online.isolated_ms", iso_ms, "ms"));
    let share = if run_ms > 0.0 { iso_ms / run_ms } else { 0.0 };
    m.push(("online.isolated_share", share, "ratio"));
    m.push(("online.released_slots", released as f64, "count"));
    m.push(("validate.audit_ms", mean(&audit_ms), "ms"));
    m.push(("trace.tasks_per_s", tps_spanned, "tasks/s"));
    m.push((
        "trace.overhead_pct",
        100.0 * (tps_plain - tps_spanned) / tps_plain,
        "%",
    ));
    let span_ms: f64 = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    let span_cells = spans.iter().map(|s| s.cell).max().map_or(0, |c| c + 1);
    println!(
        "# trace {} spans \"{}\" over {span_cells} cells, {span_ms:.1} ms; untraced tasks_per_s {tps_plain:.1} traced {tps_spanned:.1}",
        spans.len(),
        spans.first().map_or("", |s| s.name),
    );
    println!("# trace counts {counts:?}");
    Report {
        counts_repeat: repeat,
        metrics: m,
    }
}

fn accumulate(c: &mut Counts, t: &mut Times, c1: &Counts, t1: &Times, k: f64) {
    c.routes += c1.routes;
    c.hops += c1.hops;
    c.bfs_calls += c1.bfs_calls;
    c.dijkstra_calls += c1.dijkstra_calls;
    c.relax_calls += c1.relax_calls;
    c.probe_calls += c1.probe_calls;
    c.queue_len_sum += c1.queue_len_sum;
    c.queue_len_max = c.queue_len_max.max(c1.queue_len_max);
    c.commit_calls += c1.commit_calls;
    c.remove_calls += c1.remove_calls;
    c.plan_calls += c1.plan_calls;
    c.shifts += c1.shifts;
    c.overlay_calls += c1.overlay_calls;
    c.alloc_calls += c1.alloc_calls;
    c.pieces += c1.pieces;
    t.bfs += t1.bfs * k;
    t.dijkstra += t1.dijkstra * k;
    t.probe += t1.probe * k;
    t.commit += t1.commit * k;
    t.remove += t1.remove * k;
    t.plan += t1.plan * k;
    t.overlay += t1.overlay * k;
    t.alloc += t1.alloc * k;
    t.fcommit += t1.fcommit * k;
}

/// Calibrated time of the cell at two probe lanes over one lane
/// (`ProbeParallelism::Workers`), median of two alternating pairs. Both
/// results are checked against the cell's reference digest.
fn lanes2_ratio(cell: &Cell, digest: &mut Option<Digest>, tally: &mut Tally) -> f64 {
    let mut one = Vec::new();
    let mut two = Vec::new();
    for rep in 0..2 {
        for side in 0..2 {
            let lanes = if (rep + side) % 2 == 0 { 1 } else { 2 };
            let (out, sample) = machine::timed(|| cell.run(Some(lanes)));
            tally.record(&cell.label, verdict(cell, &out, digest));
            if lanes == 1 { &mut one } else { &mut two }.push(sample.cal_ms());
        }
    }
    median(&two) / median(&one)
}

/// Calibrated cost of one `WorkerPool::run` burst of two trivial items on
/// two lanes, µs (median of 200 bursts).
fn dispatch_us() -> f64 {
    const BURSTS: usize = 200;
    let mut pool = WorkerPool::new(2);
    let job = |lane: usize, item: usize| {
        black_box((lane, item));
    };
    pool.run(2, &job);
    let mut us = Vec::with_capacity(BURSTS);
    let (_, sample) = machine::timed(|| {
        for _ in 0..BURSTS {
            let s = Instant::now();
            pool.run(2, &job);
            us.push(s.elapsed().as_secs_f64() * 1e6);
        }
    });
    median(&us) * scale(sample)
}
