//! Online multi-DAG scheduling on one shared network (DESIGN.md §15).
//!
//! Everything else in this crate schedules a single DAG offline. This
//! module delivers a *stream* of tenant jobs over time onto one shared
//! topology: a seeded Poisson-like arrival process draws mixed workload
//! families and sizes from the vendored RNG, an admission policy picks
//! the next job whenever a dispatch slot frees up, and the link and
//! processor state persists across jobs so later arrivals contend with
//! everything still in flight. Completed jobs are *retired*: their
//! final communication placements are read back and (with compaction
//! enabled) their link slots released through the
//! [`es_linksched::LinkModel`] trait so long runs do not accrete state.
//!
//! ## Determinism and the compaction invariant
//!
//! Dispatch instants are monotone: a job dispatched at floor `d` can
//! place nothing before `d`, and a job retires only once its finish is
//! `<= d` for some dispatch instant `d`. Every slot of a retired job
//! therefore lies at or before every future probe window, so releasing
//! those slots is bitwise semantics-free — the `integration_online`
//! differential suite pins that compacted and uncompacted runs place
//! every subsequent job identically. Placements are read back at
//! retirement, after which optimal insertion can no longer defer them
//! (deferral only ever touches slots overlapping a future probe
//! window, and a comm's last-hop arrival never moves at all).
//!
//! ## SLO metrics
//!
//! Per job: arrival, dispatch, start, finish, response time
//! (`finish - arrival`), queueing delay (`dispatch - arrival`), and
//! slowdown (response over the job's *isolated* makespan — the same
//! scheduler on an empty platform). Per tenant: mean/P50/P95/max
//! slowdown and mean response/queueing, plus a max/mean fairness ratio
//! across tenants.

use crate::config::ListConfig;
use crate::list::schedule_onto;
use crate::procsched::ProcState;
use crate::schedule::{CommPlacement, SchedError, Schedule};
use crate::slotted::SlottedState;
use es_dag::gen::structured::{chain, diamond_mesh, fft_graph, fork_join, gauss_elim, stencil_1d};
use es_dag::TaskGraph;
use es_linksched::CommId;
use es_net::Topology;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Domain-separation constant folded into [`ArrivalSpec::seed`] so the
/// arrival stream never aliases the instance-generation or fault
/// streams of the same experiment seed.
pub const ONLINE_STREAM: u64 = 0x0a11_ea15_5eed_cafe;

/// Workload family an arriving job is drawn from (the structured DAG
/// kernels, sized by one generic knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobFamily {
    /// Linear pipeline ([`chain`]).
    Chain,
    /// Fork-join fan-out/fan-in ([`fork_join`]).
    ForkJoin,
    /// Gaussian elimination kernel ([`gauss_elim`]).
    GaussElim,
    /// Butterfly FFT ([`fft_graph`]).
    Fft,
    /// 1-D stencil sweep ([`stencil_1d`]).
    Stencil,
    /// Diamond mesh ([`diamond_mesh`]).
    Diamond,
}

impl JobFamily {
    /// Every family, in the fixed order the arrival process draws from.
    pub const ALL: [JobFamily; 6] = [
        JobFamily::Chain,
        JobFamily::ForkJoin,
        JobFamily::GaussElim,
        JobFamily::Fft,
        JobFamily::Stencil,
        JobFamily::Diamond,
    ];

    /// Stable lower-case label (CSV column, manifest key).
    pub fn name(self) -> &'static str {
        match self {
            JobFamily::Chain => "chain",
            JobFamily::ForkJoin => "fork-join",
            JobFamily::GaussElim => "gauss",
            JobFamily::Fft => "fft",
            JobFamily::Stencil => "stencil",
            JobFamily::Diamond => "diamond",
        }
    }

    /// Instantiate the kernel at generic size `size` (>= 1), task
    /// weight `weight`, and communication-to-computation ratio `ccr`
    /// (edge cost = `weight * ccr`).
    pub fn instantiate(self, size: u32, weight: f64, ccr: f64) -> TaskGraph {
        let cost = weight * ccr;
        let s = size.max(1) as usize;
        match self {
            JobFamily::Chain => chain(2 * s, weight, cost),
            JobFamily::ForkJoin => fork_join(s + 1, weight, cost),
            JobFamily::GaussElim => gauss_elim(s + 1, weight, cost),
            JobFamily::Fft => fft_graph(1 << size.clamp(1, 4), weight, cost),
            JobFamily::Stencil => stencil_1d(s, s + 1, weight, cost),
            JobFamily::Diamond => diamond_mesh(s, weight, cost),
        }
    }
}

/// Seeded description of an arrival stream: how many jobs, how many
/// tenants, the Poisson-like mean inter-arrival gap, and the workload
/// mix the per-job draws range over.
#[derive(Clone, Debug)]
pub struct ArrivalSpec {
    /// Number of jobs to deliver.
    pub jobs: usize,
    /// Number of tenants jobs are attributed to (uniform draw).
    pub tenants: u32,
    /// Mean of the exponential inter-arrival gap.
    pub mean_interarrival: f64,
    /// Inclusive range of the generic kernel size knob.
    pub size_range: (u32, u32),
    /// Task-weight range (uniform draw).
    pub weight_range: (f64, f64),
    /// CCR values drawn uniformly (index draw, so exact values).
    pub ccr_values: Vec<f64>,
    /// Stream seed (domain-separated with [`ONLINE_STREAM`]).
    pub seed: u64,
}

impl ArrivalSpec {
    /// The default mixed workload: small-to-medium kernels, three CCR
    /// regimes from compute-bound to communication-bound.
    pub fn default_mix(jobs: usize, tenants: u32, mean_interarrival: f64, seed: u64) -> Self {
        Self {
            jobs,
            tenants,
            mean_interarrival,
            size_range: (2, 4),
            weight_range: (4.0, 12.0),
            ccr_values: vec![0.5, 2.0, 8.0],
            seed,
        }
    }
}

/// One job of the arrival script: a tenant's DAG plus its arrival
/// instant. Fields are public so tests can hand-construct scripts.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Dense job id (dispatch ties break on it; ids are never reused).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Arrival instant (nondecreasing in a generated script).
    pub arrival: f64,
    /// Workload-family label (`"custom"` for hand-built jobs).
    pub label: &'static str,
    /// The job's task graph.
    pub dag: TaskGraph,
}

impl JobSpec {
    /// A hand-built job (label `"custom"`).
    pub fn new(id: u64, tenant: u32, arrival: f64, dag: TaskGraph) -> Self {
        Self {
            id,
            tenant,
            arrival,
            label: "custom",
            dag,
        }
    }
}

/// Total task weight of a DAG (the admission policy's work measure).
pub fn total_work(dag: &TaskGraph) -> f64 {
    dag.task_ids().map(|t| dag.weight(t)).sum()
}

/// Materialise the arrival script of `spec`: one seeded pass drawing,
/// per job and in this fixed order, the inter-arrival gap `u` (mapped
/// through `-ln(1 - u) * mean`), the tenant, the family, the size, the
/// weight, and the CCR index. The draw order is part of the format —
/// the golden-vector test in `integration_online.rs` pins the
/// underlying RNG stream (RETIGHTEN(rand)).
pub fn arrival_script(spec: &ArrivalSpec) -> Vec<JobSpec> {
    assert!(spec.tenants >= 1, "at least one tenant");
    assert!(spec.mean_interarrival > 0.0, "positive mean inter-arrival");
    assert!(!spec.ccr_values.is_empty(), "at least one CCR value");
    let (lo, hi) = spec.size_range;
    assert!(lo >= 1 && lo <= hi, "valid size range");
    let mut rng = StdRng::seed_from_u64(spec.seed ^ ONLINE_STREAM);
    let mut clock = 0.0_f64;
    let mut jobs = Vec::with_capacity(spec.jobs);
    for id in 0..spec.jobs as u64 {
        let u: f64 = rng.random_range(0.0..1.0);
        clock += -(1.0 - u).ln() * spec.mean_interarrival;
        let tenant = rng.random_range(0..spec.tenants);
        let family = JobFamily::ALL[rng.random_range(0..JobFamily::ALL.len())];
        let size = rng.random_range(lo..=hi);
        let weight = rng.random_range(spec.weight_range.0..spec.weight_range.1);
        let ccr = spec.ccr_values[rng.random_range(0..spec.ccr_values.len())];
        jobs.push(JobSpec {
            id,
            tenant,
            arrival: clock,
            label: family.name(),
            dag: family.instantiate(size, weight, ccr),
        });
    }
    jobs
}

/// Admission policy: which waiting job dispatches when a slot frees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// First-come-first-served (lowest job id among the arrived).
    Fifo,
    /// Shortest total work first (ties on job id).
    ShortestWorkFirst,
}

impl Admission {
    /// Both policies, in CLI presentation order.
    pub const ALL: [Admission; 2] = [Admission::Fifo, Admission::ShortestWorkFirst];

    /// Stable lower-case label (CSV column, CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Admission::Fifo => "fifo",
            Admission::ShortestWorkFirst => "swf",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(Admission::Fifo),
            "swf" | "shortest-work-first" => Some(Admission::ShortestWorkFirst),
            _ => None,
        }
    }
}

/// Online engine configuration.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Per-job scheduler (any [`ListConfig`] axis combination).
    pub scheduler: ListConfig,
    /// Admission policy for the waiting queue.
    pub admission: Admission,
    /// Dispatch-slot cap: at most this many jobs in flight at once.
    pub max_inflight: usize,
    /// Release retired jobs' link slots (semantics-free; see module
    /// docs). Off only for the differential oracle.
    pub compaction: bool,
}

impl OnlineConfig {
    /// FIFO admission, four dispatch slots, compaction on.
    pub fn new(scheduler: ListConfig) -> Self {
        Self {
            scheduler,
            admission: Admission::Fifo,
            max_inflight: 4,
            compaction: true,
        }
    }
}

/// Per-job SLO record of one online run.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id from the script.
    pub job: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Workload-family label.
    pub label: &'static str,
    /// Arrival instant.
    pub arrival: f64,
    /// Dispatch instant (the scheduling floor).
    pub dispatch: f64,
    /// Earliest task start (equals `dispatch` for an empty DAG).
    pub start: f64,
    /// Latest task finish.
    pub finish: f64,
    /// `finish - arrival`.
    pub response: f64,
    /// `dispatch - arrival`.
    pub queueing: f64,
    /// Total task weight.
    pub work: f64,
    /// Makespan of the same scheduler on an empty platform.
    pub isolated_makespan: f64,
    /// `response / isolated_makespan` (1.0 when the job is empty).
    pub slowdown: f64,
    /// The job's final schedule, with communication placements read
    /// back at retirement (absolute times on the shared platform).
    pub schedule: Schedule,
}

/// Result of one online run.
#[derive(Clone, Debug)]
pub struct OnlineRun {
    /// One outcome per script job, in job-id order.
    pub outcomes: Vec<JobOutcome>,
    /// Latest finish across all jobs.
    pub horizon: f64,
    /// Link slots released by compaction (0 when disabled).
    pub released_slots: usize,
}

impl OnlineRun {
    /// Per-tenant SLO summaries (ascending tenant id).
    pub fn tenant_fairness(&self) -> Vec<TenantSummary> {
        tenant_fairness(&self.outcomes)
    }

    /// Max/mean ratio of per-tenant mean slowdowns (1.0 = perfectly
    /// fair, 0.0 when there are no jobs).
    pub fn fairness_ratio(&self) -> f64 {
        fairness_ratio(&self.tenant_fairness())
    }

    /// Mean response time across all jobs.
    pub fn mean_response(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.response))
    }

    /// Mean slowdown across all jobs.
    pub fn mean_slowdown(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.slowdown))
    }
}

/// Per-tenant SLO summary.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs attributed to the tenant.
    pub jobs: usize,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Median slowdown (nearest rank).
    pub p50_slowdown: f64,
    /// 95th-percentile slowdown (nearest rank).
    pub p95_slowdown: f64,
    /// Worst slowdown.
    pub max_slowdown: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// Mean queueing delay.
    pub mean_queueing: f64,
}

/// Group outcomes by tenant and summarise (ascending tenant id; the
/// grouping is a `BTreeMap`, so iteration order is deterministic).
pub fn tenant_fairness(outcomes: &[JobOutcome]) -> Vec<TenantSummary> {
    let mut by_tenant: BTreeMap<u32, Vec<&JobOutcome>> = BTreeMap::new();
    for o in outcomes {
        by_tenant.entry(o.tenant).or_default().push(o);
    }
    by_tenant
        .into_iter()
        .map(|(tenant, os)| {
            let mut slowdowns: Vec<f64> = os.iter().map(|o| o.slowdown).collect();
            slowdowns.sort_by(f64::total_cmp);
            TenantSummary {
                tenant,
                jobs: os.len(),
                mean_slowdown: mean(os.iter().map(|o| o.slowdown)),
                p50_slowdown: percentile(&slowdowns, 0.50),
                p95_slowdown: percentile(&slowdowns, 0.95),
                max_slowdown: slowdowns.last().copied().unwrap_or(0.0),
                mean_response: mean(os.iter().map(|o| o.response)),
                mean_queueing: mean(os.iter().map(|o| o.queueing)),
            }
        })
        .collect()
}

/// Max/mean ratio of the per-tenant mean slowdowns.
pub fn fairness_ratio(summaries: &[TenantSummary]) -> f64 {
    if summaries.is_empty() {
        return 0.0;
    }
    let max = summaries
        .iter()
        .map(|s| s.mean_slowdown)
        .fold(0.0_f64, f64::max);
    let mean = mean(summaries.iter().map(|s| s.mean_slowdown));
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0_f64;
    let mut n = 0usize;
    for x in xs {
        sum += x;
        n += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (same
/// convention as the robustness sweep's P95).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A dispatched, not-yet-retired job.
struct Active {
    idx: usize,
    finish: f64,
    comm_base: u64,
    schedule: Schedule,
    dispatch: f64,
}

/// Run the online engine: deliver `jobs` (any order; dispatch sorts by
/// arrival and policy) onto `topo` with persistent platform state.
///
/// Event loop, entirely driven by job data (no wall clock): while jobs
/// wait, compute the next *dispatch instant* `d` — the earliest time
/// both a dispatch slot and a waiting job exist — retire every active
/// job whose finish is `<= d` (reading back final placements, then
/// releasing slots when compaction is on), pick the next job by the
/// admission policy, and schedule it with floor `d` and a fresh
/// [`CommId`] block. Dispatch instants are monotone, which the
/// proptests pin.
pub fn run_online(
    cfg: &OnlineConfig,
    topo: &Topology,
    jobs: &[JobSpec],
) -> Result<OnlineRun, SchedError> {
    assert!(cfg.max_inflight >= 1, "need at least one dispatch slot");
    // Isolated makespans (slowdown denominators): same scheduler, empty
    // platform, job-local comm ids.
    let mut isolated = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut procs = ProcState::new(topo);
        let mut links = SlottedState::new(topo, job.dag.edge_count(), &cfg.scheduler);
        let s = schedule_onto(
            &cfg.scheduler,
            &job.dag,
            topo,
            &mut procs,
            &mut links,
            0,
            0.0,
        )?;
        isolated.push(s.makespan);
    }

    let mut procs = ProcState::new(topo);
    let mut links = SlottedState::new(topo, 0, &cfg.scheduler);
    let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut waiting: Vec<usize> = (0..jobs.len()).collect();
    let mut active: Vec<Active> = Vec::new();
    let mut comm_next = 0_u64;
    let mut released = 0_usize;
    let mut clock = 0.0_f64;

    while !waiting.is_empty() {
        // Earliest instant a dispatch slot is free...
        let t_cap = if active.len() < cfg.max_inflight {
            clock
        } else {
            active
                .iter()
                .map(|a| a.finish)
                .fold(f64::INFINITY, f64::min)
        };
        // ...and a job has arrived.
        let t_arr = waiting
            .iter()
            .map(|&i| jobs[i].arrival)
            .fold(f64::INFINITY, f64::min);
        let d = t_cap.max(t_arr).max(clock);

        retire(
            d,
            &mut active,
            jobs,
            &isolated,
            &mut links,
            cfg.compaction,
            &mut released,
            &mut outcomes,
        );

        // Admission: among the arrived, FIFO takes the lowest id, SWF
        // the least total work (ties on id — `to_bits` keeps the key
        // totally ordered without float comparison pitfalls).
        let pick = waiting
            .iter()
            .copied()
            .filter(|&i| jobs[i].arrival <= d)
            .min_by_key(|&i| match cfg.admission {
                Admission::Fifo => (0_u64, jobs[i].id),
                Admission::ShortestWorkFirst => (total_work(&jobs[i].dag).to_bits(), jobs[i].id),
            })
            .expect("d >= the earliest waiting arrival");
        waiting.retain(|&i| i != pick);

        let job = &jobs[pick];
        let comm_base = comm_next;
        comm_next += job.dag.edge_count() as u64;
        let schedule = schedule_onto(
            &cfg.scheduler,
            &job.dag,
            topo,
            &mut procs,
            &mut links,
            comm_base,
            d,
        )?;
        let finish = schedule.makespan.max(d);
        active.push(Active {
            idx: pick,
            finish,
            comm_base,
            schedule,
            dispatch: d,
        });
        clock = d;
    }
    retire(
        f64::INFINITY,
        &mut active,
        jobs,
        &isolated,
        &mut links,
        cfg.compaction,
        &mut released,
        &mut outcomes,
    );

    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every job retired"))
        .collect();
    let horizon = outcomes.iter().map(|o| o.finish).fold(0.0_f64, f64::max);
    Ok(OnlineRun {
        outcomes,
        horizon,
        released_slots: released,
    })
}

/// Retire every active job with finish `<= d` (ascending finish, ties
/// on job id): read back final communication placements, build the
/// outcome, and — with compaction — release the job's link slots.
#[allow(clippy::too_many_arguments)]
fn retire(
    d: f64,
    active: &mut Vec<Active>,
    jobs: &[JobSpec],
    isolated: &[f64],
    links: &mut SlottedState,
    compaction: bool,
    released: &mut usize,
    outcomes: &mut [Option<JobOutcome>],
) {
    let mut due: Vec<Active> = Vec::new();
    let mut i = 0;
    while i < active.len() {
        if active[i].finish <= d {
            due.push(active.swap_remove(i));
        } else {
            i += 1;
        }
    }
    due.sort_by(|a, b| {
        a.finish
            .total_cmp(&b.finish)
            .then_with(|| jobs[a.idx].id.cmp(&jobs[b.idx].id))
    });
    for mut entry in due {
        let job = &jobs[entry.idx];
        // Final placements: after retirement nothing can defer these
        // slots any more (module docs), so this read is the job's
        // permanent record.
        let tasks = &entry.schedule.tasks;
        let mut remote = Vec::new();
        entry.schedule.comms = job
            .dag
            .edge_ids()
            .map(|e| {
                let edge = job.dag.edge(e);
                if tasks[edge.src.index()].proc == tasks[edge.dst.index()].proc {
                    CommPlacement::Local
                } else {
                    let id = CommId(entry.comm_base + u64::from(e.0));
                    remote.push(id);
                    let (route, times) = links.placement(id);
                    CommPlacement::Slotted { route, times }
                }
            })
            .collect();
        if compaction {
            *released += links.release_comms(&remote);
        }
        let start = entry
            .schedule
            .tasks
            .iter()
            .map(|t| t.start)
            .fold(f64::INFINITY, f64::min);
        let start = if start.is_finite() {
            start
        } else {
            entry.dispatch
        };
        let iso = isolated[entry.idx];
        let response = entry.finish - job.arrival;
        outcomes[entry.idx] = Some(JobOutcome {
            job: job.id,
            tenant: job.tenant,
            label: job.label,
            arrival: job.arrival,
            dispatch: entry.dispatch,
            start,
            finish: entry.finish,
            response,
            queueing: entry.dispatch - job.arrival,
            work: total_work(&job.dag),
            isolated_makespan: iso,
            slowdown: if iso > 0.0 { response / iso } else { 1.0 },
            schedule: entry.schedule,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Scheduler;
    use crate::ListScheduler;
    use es_net::gen::{self, SpeedDist};

    fn star(n: usize) -> Topology {
        gen::star(
            n,
            SpeedDist::Fixed(1.0),
            SpeedDist::Fixed(1.0),
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn arrival_script_is_deterministic_and_monotone() {
        let spec = ArrivalSpec::default_mix(12, 3, 5.0, 42);
        let a = arrival_script(&spec);
        let b = arrival_script(&spec);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.label, y.label);
            assert_eq!(x.dag.task_count(), y.dag.task_count());
        }
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "arrivals nondecreasing");
        }
        assert!(a.iter().all(|j| j.tenant < 3));
        assert!(a.iter().all(|j| j.dag.task_count() >= 2));
    }

    #[test]
    fn single_job_matches_offline_schedule() {
        let spec = ArrivalSpec::default_mix(1, 1, 5.0, 7);
        let jobs = arrival_script(&spec);
        let topo = star(3);
        let cfg = OnlineConfig::new(crate::config::ListConfig::oihsa());
        let run = run_online(&cfg, &topo, &jobs).unwrap();
        let offline = ListScheduler::oihsa()
            .schedule(&jobs[0].dag, &topo)
            .unwrap();
        let o = &run.outcomes[0];
        // The only job dispatches at its arrival; the schedule is the
        // offline one shifted... no — floor(d) with an empty platform
        // only *clamps* start times, and arrival > 0 delays the DAG, so
        // compare the isolated denominator instead and the makespan
        // relative to dispatch.
        assert_eq!(o.isolated_makespan.to_bits(), offline.makespan.to_bits());
        assert_eq!(o.dispatch.to_bits(), jobs[0].arrival.to_bits());
        assert_eq!(o.queueing.to_bits(), 0.0_f64.to_bits());
        assert!((o.finish - o.dispatch) >= offline.makespan - 1e-9);
    }

    #[test]
    fn swf_prefers_the_smaller_job() {
        let big = JobFamily::GaussElim.instantiate(4, 10.0, 1.0);
        let small = JobFamily::Chain.instantiate(1, 1.0, 1.0);
        let jobs = vec![JobSpec::new(0, 0, 0.0, big), JobSpec::new(1, 1, 0.0, small)];
        let topo = star(2);
        let mut cfg = OnlineConfig::new(crate::config::ListConfig::ba());
        cfg.max_inflight = 1;
        cfg.admission = Admission::ShortestWorkFirst;
        let run = run_online(&cfg, &topo, &jobs).unwrap();
        assert_eq!(run.outcomes[1].queueing.to_bits(), 0.0_f64.to_bits());
        assert!(run.outcomes[0].queueing > 0.0, "big job waited");
        cfg.admission = Admission::Fifo;
        let fifo = run_online(&cfg, &topo, &jobs).unwrap();
        assert_eq!(fifo.outcomes[0].queueing.to_bits(), 0.0_f64.to_bits());
        assert!(fifo.outcomes[1].queueing > 0.0, "small job waited");
    }

    #[test]
    fn fairness_summaries_cover_every_tenant() {
        let spec = ArrivalSpec::default_mix(16, 4, 2.0, 11);
        let jobs = arrival_script(&spec);
        let topo = star(3);
        let cfg = OnlineConfig::new(crate::config::ListConfig::ba());
        let run = run_online(&cfg, &topo, &jobs).unwrap();
        let summaries = run.tenant_fairness();
        let total: usize = summaries.iter().map(|s| s.jobs).sum();
        assert_eq!(total, 16);
        for s in &summaries {
            assert!(s.mean_slowdown >= 1.0 - 1e-9, "slowdown >= 1");
            assert!(s.p50_slowdown <= s.p95_slowdown + 1e-12);
            assert!(s.p95_slowdown <= s.max_slowdown + 1e-12);
        }
        assert!(run.fairness_ratio() >= 1.0 - 1e-9);
        assert!(run.horizon > 0.0);
    }

    #[test]
    fn compaction_releases_slots_without_changing_outcomes() {
        let spec = ArrivalSpec::default_mix(10, 2, 1.0, 3);
        let jobs = arrival_script(&spec);
        let topo = star(3);
        let mut cfg = OnlineConfig::new(crate::config::ListConfig::oihsa());
        cfg.max_inflight = 2;
        let with = run_online(&cfg, &topo, &jobs).unwrap();
        cfg.compaction = false;
        let without = run_online(&cfg, &topo, &jobs).unwrap();
        assert!(with.released_slots > 0, "something was compacted");
        assert_eq!(without.released_slots, 0);
        for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
            assert_eq!(a.dispatch.to_bits(), b.dispatch.to_bits());
            for (x, y) in a.schedule.tasks.iter().zip(&b.schedule.tasks) {
                assert_eq!(x, y);
            }
        }
    }
}
