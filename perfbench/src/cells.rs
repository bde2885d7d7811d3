//! The three workloads, their cells (instance x scheduler), and the
//! output check every timed call goes through.

use crate::machine::{splitmix, unit, Fnv};
use es_core::validate::audit;
use es_core::{
    arrival_script, metrics, run_online, ArrivalSpec, BbsaScheduler, CommPlacement, IdealScheduler,
    JobSpec, ListConfig, ListScheduler, OnlineConfig, OnlineRun, ProbeParallelism, SchedError,
    Schedule, Scheduler,
};
use es_dag::{critical_path, TaskGraph, TaskGraphBuilder};
use es_net::Topology;
use es_workload::suite::{Kernel, Platform};
use es_workload::{cell_seed, generate, scale_to_ccr, InstanceConfig, Setting};

/// The benchmark's workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["probe-wan", "static-scale", "online-churn"];

/// One offline scheduler under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// Sinnen's strong BA: earliest-finish probe over every processor.
    Ba,
    /// OIHSA with the earliest-finish probe.
    OihsaProbe,
    /// BA with the contention-blind processor estimate.
    BaStatic,
    /// The paper's OIHSA.
    Oihsa,
    /// The paper's fluid bandwidth-sharing BBSA.
    Bbsa,
}

impl Sched {
    /// Per-layer metric stem of this scheduler's call time.
    pub fn layer(self) -> &'static str {
        match self {
            Sched::Ba => "list.ba_ms",
            Sched::OihsaProbe => "list.oihsa_probe_ms",
            Sched::BaStatic => "list.ba_static_ms",
            Sched::Oihsa => "list.oihsa_ms",
            Sched::Bbsa => "bbsa.ms",
        }
    }

    /// The list-scheduler configuration; `None` for BBSA.
    pub fn list_config(self) -> Option<ListConfig> {
        match self {
            Sched::Ba => Some(ListConfig::ba()),
            Sched::OihsaProbe => Some(ListConfig::oihsa_probing()),
            Sched::BaStatic => Some(ListConfig::ba_static()),
            Sched::Oihsa => Some(ListConfig::oihsa()),
            Sched::Bbsa => None,
        }
    }

    /// Whether the scheduler probes every candidate processor.
    pub fn probes(self) -> bool {
        matches!(self, Sched::Ba | Sched::OihsaProbe)
    }

    /// Schedule through the public entry point. `lanes` overrides the
    /// probe parallelism (`ProbeParallelism::Workers`); `None` keeps
    /// the production default.
    pub fn schedule(
        self,
        dag: &TaskGraph,
        topo: &Topology,
        lanes: Option<usize>,
    ) -> Result<Schedule, SchedError> {
        match (self.list_config(), lanes) {
            (None, _) => BbsaScheduler::new().schedule(dag, topo),
            (Some(_), None) => match self {
                Sched::Ba => ListScheduler::ba(),
                Sched::OihsaProbe => ListScheduler::oihsa_probing(),
                Sched::BaStatic => ListScheduler::ba_static(),
                _ => ListScheduler::oihsa(),
            }
            .schedule(dag, topo),
            (Some(mut cfg), Some(n)) => {
                cfg.tuning.parallel_probe = ProbeParallelism::Workers(n);
                ListScheduler::with_config(cfg).schedule(dag, topo)
            }
        }
    }
}

/// What one cell runs.
pub enum Kind {
    /// One `schedule()` call of an offline scheduler.
    Offline {
        /// The scheduler.
        sched: Sched,
        /// The task graph.
        dag: TaskGraph,
    },
    /// One `run_online()` call over an arrival script.
    Online {
        /// Engine configuration.
        cfg: OnlineConfig,
        /// The arrival script.
        jobs: Vec<JobSpec>,
    },
}

/// One cell: an instance and the scheduler timed on it.
pub struct Cell {
    /// Human-readable coordinates.
    pub label: String,
    /// The call.
    pub kind: Kind,
    /// The platform.
    pub topo: Topology,
}

/// The result of one call.
pub enum Output {
    /// An offline schedule.
    Offline(Schedule),
    /// An online run.
    Online(OnlineRun),
}

/// Bitwise identity of one call's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Bits of the makespan (offline) or horizon (online).
    pub makespan: u64,
    /// Fingerprint of every placement, route and slot time.
    pub placement: u64,
}

/// Schedule quality of one checked call, from deterministic outputs.
#[derive(Clone, Debug, Default)]
pub struct Quality {
    /// Schedule length ratios (one per offline cell, one per online job).
    pub slr: Vec<f64>,
    /// Slowdowns: makespan over the lower bound (offline) or the
    /// engine's per-job SLO slowdown (online).
    pub slowdown: Vec<f64>,
}

impl Cell {
    /// Tasks scheduled by one call.
    pub fn tasks(&self) -> usize {
        match &self.kind {
            Kind::Offline { dag, .. } => dag.task_count(),
            Kind::Online { jobs, .. } => jobs.iter().map(|j| j.dag.task_count()).sum(),
        }
    }

    /// Edges scheduled by one call.
    pub fn edges(&self) -> usize {
        match &self.kind {
            Kind::Offline { dag, .. } => dag.edge_count(),
            Kind::Online { jobs, .. } => jobs.iter().map(|j| j.dag.edge_count()).sum(),
        }
    }

    /// Content digest of the input DAG(s), arrival instants included.
    pub fn dag_digest(&self) -> u64 {
        let mut h = Fnv::default();
        match &self.kind {
            Kind::Offline { dag, .. } => fold_dag(&mut h, dag),
            Kind::Online { jobs, .. } => {
                for j in jobs {
                    h.word(j.id);
                    h.word(u64::from(j.tenant));
                    h.float(j.arrival);
                    fold_dag(&mut h, &j.dag);
                }
            }
        }
        h.finish()
    }

    /// Content digest of the topology.
    pub fn topo_digest(&self) -> u64 {
        let t = &self.topo;
        let mut h = Fnv::default();
        h.word(t.node_count() as u64);
        for p in t.proc_ids() {
            h.word(t.node_of_proc(p).index() as u64);
            h.float(t.proc_speed(p));
        }
        for l in t.link_ids() {
            h.float(t.link_speed(l));
        }
        for n in t.node_ids() {
            for hop in t.hops_from(n) {
                h.word(hop.link.index() as u64);
                h.word(hop.to.index() as u64);
            }
        }
        h.float(t.hop_delay());
        h.finish()
    }

    /// Call the public entry point once.
    pub fn run(&self, lanes: Option<usize>) -> Result<Output, SchedError> {
        match &self.kind {
            Kind::Offline { sched, dag } => {
                sched.schedule(dag, &self.topo, lanes).map(Output::Offline)
            }
            Kind::Online { cfg, jobs } => run_online(cfg, &self.topo, jobs).map(Output::Online),
        }
    }

    /// Check one result: every schedule `audit`-clean and of finite
    /// makespan. Returns its digest, or why it failed.
    pub fn check(&self, out: &Output) -> Result<Digest, String> {
        match (&self.kind, out) {
            (Kind::Offline { dag, .. }, Output::Offline(s)) => {
                check_schedule(dag, &self.topo, s)?;
                let mut h = Fnv::default();
                fold_schedule(&mut h, s);
                Ok(Digest {
                    makespan: s.makespan.to_bits(),
                    placement: h.finish(),
                })
            }
            (Kind::Online { jobs, .. }, Output::Online(run)) => {
                if run.outcomes.len() != jobs.len() {
                    return Err(format!(
                        "{} of {} jobs retired",
                        run.outcomes.len(),
                        jobs.len()
                    ));
                }
                let mut h = Fnv::default();
                for o in &run.outcomes {
                    let job = jobs
                        .iter()
                        .find(|j| j.id == o.job)
                        .ok_or_else(|| format!("unknown job {}", o.job))?;
                    check_schedule(&job.dag, &self.topo, &o.schedule)
                        .map_err(|e| format!("job {}: {e}", o.job))?;
                    if !o.slowdown.is_finite() {
                        return Err(format!("job {}: non-finite slowdown", o.job));
                    }
                    h.word(o.job);
                    for v in [o.dispatch, o.start, o.finish, o.slowdown] {
                        h.float(v);
                    }
                    fold_schedule(&mut h, &o.schedule);
                }
                h.word(run.released_slots as u64);
                if !run.horizon.is_finite() {
                    return Err("non-finite horizon".into());
                }
                Ok(Digest {
                    makespan: run.horizon.to_bits(),
                    placement: h.finish(),
                })
            }
            _ => Err("output kind does not match the cell".into()),
        }
    }

    /// Quality figures of a checked result.
    pub fn quality(&self, out: &Output) -> Quality {
        match (&self.kind, out) {
            (Kind::Offline { dag, .. }, Output::Offline(s)) => Quality {
                slr: vec![metrics(dag, &self.topo, s).slr],
                slowdown: vec![
                    s.makespan
                        / IdealScheduler::new()
                            .schedule(dag, &self.topo)
                            .map_or(f64::NAN, |i| i.makespan),
                ],
            },
            (Kind::Online { jobs, .. }, Output::Online(run)) => Quality {
                slr: run
                    .outcomes
                    .iter()
                    .map(|o| {
                        let dag = &jobs[o.job as usize].dag;
                        o.isolated_makespan / critical_path(dag)
                    })
                    .collect(),
                slowdown: run.outcomes.iter().map(|o| o.slowdown).collect(),
            },
            _ => Quality::default(),
        }
    }
}

/// `audit`-clean and finite, or the first reason it is not.
pub fn check_schedule(dag: &TaskGraph, topo: &Topology, s: &Schedule) -> Result<(), String> {
    if !s.makespan.is_finite() {
        return Err(format!("non-finite makespan {}", s.makespan));
    }
    let report = audit(dag, topo, s);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.diagnostics.first().map_or_else(
            || "audit failed".into(),
            |d| format!("{}: {}", d.code.as_str(), d.message),
        ))
    }
}

fn fold_dag(h: &mut Fnv, dag: &TaskGraph) {
    h.word(dag.task_count() as u64);
    for t in dag.task_ids() {
        h.float(dag.weight(t));
    }
    for e in dag.edge_ids() {
        let edge = dag.edge(e);
        h.word(edge.src.index() as u64);
        h.word(edge.dst.index() as u64);
        h.float(edge.cost);
    }
}

fn fold_schedule(h: &mut Fnv, s: &Schedule) {
    h.float(s.makespan);
    for t in &s.tasks {
        h.word(t.proc.index() as u64);
        h.float(t.start);
        h.float(t.finish);
    }
    for c in &s.comms {
        match c {
            CommPlacement::Local => h.word(0),
            CommPlacement::Slotted { route, times } => {
                h.word(1);
                for (hop, &(a, b)) in route.iter().zip(times) {
                    h.word(hop.link.index() as u64);
                    h.float(a);
                    h.float(b);
                }
            }
            CommPlacement::Fluid { route, flows } => {
                h.word(2);
                for (hop, flow) in route.iter().zip(flows) {
                    h.word(hop.link.index() as u64);
                    for p in &flow.pieces {
                        h.float(p.start);
                        h.float(p.end);
                        h.float(p.rate);
                    }
                }
            }
            CommPlacement::Ideal { delay, arrival } => {
                h.word(3);
                h.float(*delay);
                h.float(*arrival);
            }
        }
    }
}

/// Per-seed jitter of a task graph: every task weight and edge cost is
/// scaled by an independent factor in `[0.8, 1.2)`, so the structure is
/// kept and each seed gives other numbers and so other decisions. A
/// `[0.5, 1.5)` jitter moved `tasks_per_s` on `probe-wan` by 7% between
/// seeds.
fn jitter(dag: &TaskGraph, seed: u64) -> TaskGraph {
    let mut s = seed;
    let mut b = TaskGraphBuilder::with_capacity(dag.task_count(), dag.edge_count());
    for t in dag.task_ids() {
        b.add_task(dag.weight(t) * (0.8 + 0.4 * unit(&mut s)));
    }
    for e in dag.edge_ids() {
        let edge = dag.edge(e);
        b.add_edge(edge.src, edge.dst, edge.cost * (0.8 + 0.4 * unit(&mut s)))
            .expect("copying a valid graph");
    }
    b.build().expect("copying a valid graph")
}

/// Seed of every platform and of the paper DAG structures. They are
/// part of a workload's definition and stay fixed; `--seed` draws task
/// weights, edge costs and the arrival script. Seeded random platforms
/// (heterogeneous speeds) moved schedule length ratios by 20% between
/// seeds, which would swamp the bounds the benchmark sets.
const PLATFORM_SEED: u64 = 0x0E5B_E4C4_0001;

fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix(&mut s)
}

/// `probe-wan`: strong BA and probing OIHSA on ~300-task kernels over
/// three 32-processor platforms at CCR 5 (30 cells). Every task probes
/// every processor and in-edge, so checkpoint/restore, the route cache
/// and the probe path dominate.
fn probe_wan(seed: u64) -> Vec<Cell> {
    const KERNELS: [Kernel; 5] = [
        Kernel::GaussElim,
        Kernel::Fft,
        Kernel::Stencil,
        Kernel::ForkJoin,
        Kernel::Diamond,
    ];
    const PLATFORMS: [Platform; 3] = [
        Platform::WanHeterogeneous,
        Platform::FatTree,
        Platform::Star,
    ];
    let mut cells = Vec::new();
    for (pi, platform) in PLATFORMS.into_iter().enumerate() {
        let topo = platform.instantiate(32, derive(PLATFORM_SEED, pi as u64));
        for (ki, kernel) in KERNELS.into_iter().enumerate() {
            let raw = jitter(
                &kernel.instantiate(300),
                derive(seed, 100 + (pi * 8 + ki) as u64),
            );
            let dag = scale_to_ccr(&raw, 5.0, topo.mean_proc_speed(), topo.mean_link_speed());
            for sched in [Sched::Ba, Sched::OihsaProbe] {
                cells.push(Cell {
                    label: format!("{}/{}/{:?}", kernel.name(), platform.name(), sched),
                    kind: Kind::Offline {
                        sched,
                        dag: dag.clone(),
                    },
                    topo: topo.clone(),
                });
            }
        }
    }
    cells
}

/// `static-scale`: BA-static, OIHSA and BBSA on the paper's layered
/// DAGs at 150, 500 and 1000 tasks over homogeneous and heterogeneous
/// 32-processor WANs at CCR 4. BBSA stops at 500 tasks (about 4 s per
/// call at 1000). One route and one insertion per edge: long link
/// queues, gap scans, shift cascades and fluid profiles dominate.
///
/// The DAG structure is drawn once per size from the fixed seed, like
/// the platforms; `--seed` re-draws its weights and costs. Freshly drawn
/// structures varied the cost of one cell by up to 2.5x between seeds
/// (BBSA at 500 tasks: 120 to 310 ms).
fn static_scale(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (si, size) in [150usize, 500, 1000].into_iter().enumerate() {
        for (pi, setting) in [Setting::Homogeneous, Setting::Heterogeneous]
            .into_iter()
            .enumerate()
        {
            let inst = generate(
                &InstanceConfig::paper(
                    setting,
                    32,
                    4.0,
                    cell_seed(PLATFORM_SEED, setting, 32, 4.0, size),
                )
                .with_tasks(size),
            );
            let raw = jitter(&inst.dag, derive(seed, 200 + (si * 2 + pi) as u64));
            let dag = scale_to_ccr(
                &raw,
                4.0,
                inst.topo.mean_proc_speed(),
                inst.topo.mean_link_speed(),
            );
            for sched in [Sched::BaStatic, Sched::Oihsa, Sched::Bbsa] {
                if sched == Sched::Bbsa && size > 500 {
                    continue;
                }
                cells.push(Cell {
                    label: format!("paper{size}/{setting:?}/{sched:?}"),
                    kind: Kind::Offline {
                        sched,
                        dag: dag.clone(),
                    },
                    topo: inst.topo.clone(),
                });
            }
        }
    }
    cells
}

/// `online-churn`: the online engine under OIHSA and BA-static over
/// one 2000-job arrival script on a 16-processor homogeneous WAN
/// (FIFO, 4 in flight, compaction on). Retirement deletes slots while
/// jobs probe, so queues stay short.
fn online_churn(seed: u64) -> Vec<Cell> {
    let topo = Platform::WanHomogeneous.instantiate(16, derive(PLATFORM_SEED, 1));
    let jobs = arrival_script(&ArrivalSpec::default_mix(2000, 4, 4.0, seed));
    [ListConfig::oihsa(), ListConfig::ba_static()]
        .into_iter()
        .map(|sched| Cell {
            label: format!("online2000/wan-hom/{}", sched.name),
            kind: Kind::Online {
                cfg: OnlineConfig::new(sched),
                jobs: jobs.clone(),
            },
            topo: topo.clone(),
        })
        .collect()
}

/// Build a workload's cells from the seed; `None` for an unknown name.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    match workload {
        "probe-wan" => Some(probe_wan(seed)),
        "static-scale" => Some(static_scale(seed)),
        "online-churn" => Some(online_churn(seed)),
        _ => None,
    }
}
