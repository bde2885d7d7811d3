//! Cross-crate robustness integration: perturbed execution must be a
//! conservative extension of plain execution, and failure-aware repair
//! must produce audit-clean schedules after **every** possible single
//! processor or link failure, for every scheduler whose output replays.

use es_core::validate::audit;
use es_core::{
    execute, execute_with, repair, FaultPlan, FaultSpec, IdealScheduler, ListScheduler, Scheduler,
};
use es_dag::gen::structured::{fork_join, gauss_elim, stencil_1d};
use es_dag::TaskGraph;
use es_net::gen::{self, SpeedDist};
use es_net::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every scheduler whose schedules the replay executor accepts (BBSA's
/// fluid placements are rejected by design and exercised elsewhere).
fn replayable_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(ListScheduler::ba()),
        Box::new(ListScheduler::ba_static()),
        Box::new(ListScheduler::oihsa()),
        Box::new(ListScheduler::oihsa_probing()),
        Box::new(IdealScheduler::new()),
    ]
}

fn dags() -> Vec<TaskGraph> {
    vec![
        fork_join(5, 20.0, 15.0),
        gauss_elim(5, 12.0, 8.0),
        stencil_1d(4, 4, 7.0, 5.0),
    ]
}

fn topologies() -> Vec<(&'static str, Topology)> {
    let mut rng = StdRng::seed_from_u64(99);
    let hom = SpeedDist::Fixed(1.0);
    let het = SpeedDist::UniformInt(1, 10);
    vec![
        ("star-hom", gen::star(4, hom, hom, &mut rng)),
        ("star-het", gen::star(4, het, het, &mut rng)),
        ("ring", gen::switch_ring(3, 2, hom, hom, &mut rng)),
        (
            "wan-het",
            gen::random_switched_wan(&gen::WanConfig::heterogeneous(8), &mut rng),
        ),
    ]
}

#[test]
fn zero_fault_plan_reproduces_execute_bitwise_for_every_scheduler() {
    for dag in &dags() {
        for (tname, topo) in &topologies() {
            for sched in replayable_schedulers() {
                let s = sched
                    .schedule(dag, topo)
                    .unwrap_or_else(|e| panic!("{} on {tname}: {e}", sched.name()));
                let plain = execute(dag, topo, &s)
                    .unwrap_or_else(|e| panic!("{} on {tname}: {e}", sched.name()));
                let perturbed = execute_with(dag, topo, &s, &FaultPlan::none())
                    .unwrap_or_else(|e| panic!("{} on {tname}: {e}", sched.name()));
                let ctx = format!("{} on {tname}", sched.name());
                assert!(perturbed.is_feasible(), "{ctx}");
                assert_eq!(
                    plain.makespan.to_bits(),
                    perturbed.execution.makespan.to_bits(),
                    "{ctx}: makespan"
                );
                for (i, (a, b)) in plain
                    .tasks
                    .iter()
                    .zip(&perturbed.execution.tasks)
                    .enumerate()
                {
                    assert_eq!(a.proc, b.proc, "{ctx}: task {i} proc");
                    assert_eq!(
                        a.start.to_bits(),
                        b.start.to_bits(),
                        "{ctx}: task {i} start"
                    );
                    assert_eq!(
                        a.finish.to_bits(),
                        b.finish.to_bits(),
                        "{ctx}: task {i} finish"
                    );
                }
                for (e, (ha, hb)) in plain
                    .hop_times
                    .iter()
                    .zip(&perturbed.execution.hop_times)
                    .enumerate()
                {
                    assert_eq!(ha.len(), hb.len(), "{ctx}: edge {e} hop count");
                    for (k, (x, y)) in ha.iter().zip(hb).enumerate() {
                        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{ctx}: e{e} hop {k} start");
                        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{ctx}: e{e} hop {k} finish");
                    }
                }
                // Domination: with no faults the replay never finishes a
                // task later than the schedule promised.
                assert!(
                    perturbed.slack.iter().all(|&s| s >= -1e-9),
                    "{ctx}: negative slack without faults"
                );
            }
        }
    }
}

#[test]
fn soft_only_plan_repair_is_identity() {
    let dag = gauss_elim(5, 12.0, 8.0);
    let mut rng = StdRng::seed_from_u64(7);
    let topo = gen::random_switched_wan(&gen::WanConfig::heterogeneous(8), &mut rng);
    for sched in [ListScheduler::ba_static(), ListScheduler::oihsa()] {
        let s = sched.schedule(&dag, &topo).expect("connected");
        let plan = FaultPlan::seeded(&dag, &topo, &FaultSpec::soft(0.6, s.makespan), 0xD15EA5E);
        assert!(!plan.has_hard_failures());
        let out = repair(&dag, &topo, &s, &plan).expect("identity repair");
        assert!(out.moved_tasks.is_empty());
        assert_eq!(out.rerouted_comms, 0);
        assert!(!out.used_fallback);
        assert_eq!(s.makespan.to_bits(), out.schedule.makespan.to_bits());
        for (a, b) in s.tasks.iter().zip(&out.schedule.tasks) {
            assert_eq!(a.proc, b.proc);
            assert_eq!(a.start.to_bits(), b.start.to_bits());
        }
    }
}

#[test]
fn repair_is_audit_clean_after_every_single_processor_failure() {
    let dag = gauss_elim(5, 12.0, 8.0);
    for (tname, topo) in &topologies() {
        for sched in [ListScheduler::ba_static(), ListScheduler::oihsa()] {
            let s = sched.schedule(&dag, topo).expect("connected");
            for victim in topo.proc_ids() {
                if topo.proc_count() < 2 {
                    continue;
                }
                let fail_at = 0.5 * s.makespan;
                let plan = FaultPlan::kill_processor(topo, victim, fail_at);
                let ctx = format!("{} on {tname}, proc {} dead", sched.name(), victim.index());
                let out = repair(&dag, topo, &s, &plan).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let report = audit(&dag, topo, &out.schedule);
                assert!(report.is_clean(), "{ctx}:\n{}", report.render_human());
                // Nothing may *start* on the dead processor at or after
                // its fail time.
                for (i, t) in out.schedule.tasks.iter().enumerate() {
                    if t.proc == victim {
                        assert!(
                            t.start < fail_at,
                            "{ctx}: task {i} starts at {} on the dead processor",
                            t.start
                        );
                    }
                }
                // The repaired schedule replays.
                execute(&dag, topo, &out.schedule).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
        }
    }
}

#[test]
fn repair_is_audit_clean_after_every_single_link_failure() {
    let dag = fork_join(5, 20.0, 15.0);
    for (tname, topo) in &topologies() {
        for sched in [ListScheduler::ba_static(), ListScheduler::oihsa()] {
            let s = sched.schedule(&dag, topo).expect("connected");
            for victim in topo.link_ids() {
                let plan = FaultPlan::kill_link(topo, victim, 0.3 * s.makespan);
                let ctx = format!("{} on {tname}, link {} dead", sched.name(), victim.index());
                let out = match repair(&dag, topo, &s, &plan) {
                    Ok(o) => o,
                    // A cut that disconnects every processor pair with
                    // pending traffic is allowed to be unroutable only
                    // if it isolates all survivors — not on these
                    // connected fixtures.
                    Err(e) => panic!("{ctx}: {e}"),
                };
                let report = audit(&dag, topo, &out.schedule);
                assert!(report.is_clean(), "{ctx}:\n{}", report.render_human());
                // Every communication was re-planned over the masked
                // topology, so no route may use the dead link.
                for (e, c) in out.schedule.comms.iter().enumerate() {
                    if let es_core::CommPlacement::Slotted { route, .. } = c {
                        assert!(
                            route.iter().all(|h| h.link != victim),
                            "{ctx}: edge {e} routed over the dead link"
                        );
                    }
                }
            }
        }
    }
}

/// ISSUE 4/5 satellite: failure-aware repair must be tuning-invariant.
/// For every single-link failure, `repair_with` under the optimized
/// tuning (route cache + indexed gaps, exercised through the masked
/// repair views) and on two explicit lanes (speculative probing is
/// structurally inert in the probe-free rebuild, which this pins down)
/// must reproduce the reference-tuning repair bit
/// for bit, and the repaired schedule must stay audit-clean.
#[test]
fn repair_cache_equivalence() {
    use es_core::{diff_schedules, repair_with, ProbeParallelism, Tuning};
    let overlay = Tuning {
        parallel_probe: ProbeParallelism::Workers(2),
    };
    for dag in &dags() {
        for (tname, topo) in &topologies() {
            for sched in [ListScheduler::ba_static(), ListScheduler::oihsa()] {
                let s = sched.schedule(dag, topo).expect("connected");
                for victim in topo.link_ids() {
                    let plan = FaultPlan::kill_link(topo, victim, 0.3 * s.makespan);
                    let ctx = format!("{} on {tname}, link {} dead", sched.name(), victim.index());
                    let off = repair_with(dag, topo, &s, &plan, Tuning::reference())
                        .unwrap_or_else(|e| panic!("{ctx} (reference): {e}"));
                    for (label, tuning) in [("cache on", Tuning::optimized()), ("overlay", overlay)]
                    {
                        let on = repair_with(dag, topo, &s, &plan, tuning)
                            .unwrap_or_else(|e| panic!("{ctx} ({label}): {e}"));
                        if let Some(d) = diff_schedules(&on.schedule, &off.schedule) {
                            panic!("{ctx}/{label}: repair diverged under tuning: {d}");
                        }
                        assert_eq!(on.moved_tasks, off.moved_tasks, "{ctx}/{label}: moved set");
                        assert_eq!(
                            on.rerouted_comms, off.rerouted_comms,
                            "{ctx}/{label}: reroutes"
                        );
                        assert_eq!(
                            on.used_fallback, off.used_fallback,
                            "{ctx}/{label}: fallback"
                        );
                        let report = audit(dag, topo, &on.schedule);
                        assert!(
                            report.is_clean(),
                            "{ctx}/{label}:\n{}",
                            report.render_human()
                        );
                    }
                }
            }
        }
    }
}
