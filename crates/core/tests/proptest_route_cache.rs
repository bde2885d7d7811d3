//! Property: the overlay lanes' route cache never serves a stale
//! route. Twin [`SlottedState`]s are driven through identical random
//! sequences of probe cycles, real commits, and schedules against
//! masked repair views of the topology. The optimized twin probes every
//! candidate through one lane's [`OverlayState`] with
//! `ProbeParallelism::Workers(1)`, whose [`ProbeWorkspace`] memoizes
//! the modified-Dijkstra searches the candidates of one cycle share;
//! the reference twin probes by checkpoint → tentative schedule → exact
//! rollback → restore on the committed queues. Every probed arrival and
//! every committed placement must match bit for bit; a cached search
//! surviving a tentative placement, a commit or a topology mask switch
//! would diverge here.

use es_core::config::{Insertion, Routing, Switching};
use es_core::slotted::{OverlayState, ProbeWorkspace, SlottedState};
use es_core::{ListConfig, ProbeParallelism, Tuning};
use es_linksched::CommId;
use es_net::gen::{self, WanConfig};
use es_net::Topology;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One scripted communication request.
#[derive(Clone, Debug)]
struct Req {
    est: f64,
    cost: f64,
    from: usize,
    to: usize,
    candidates: usize,
    optimal: bool,
    /// Schedule this request against the masked view instead of the
    /// full topology (exercises signature-keyed invalidation).
    masked: bool,
}

fn reqs_strategy() -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec(
        (
            0.0f64..50.0,
            0.5f64..40.0,
            0usize..64,
            0usize..64,
            1usize..5,
            prop::bool::ANY,
            0u8..10,
        ),
        1..24,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(est, cost, from, to, candidates, optimal, m)| Req {
                est,
                cost,
                from,
                to,
                candidates,
                optimal,
                masked: m < 3,
            })
            .collect()
    })
}

/// One tentative probe of `comm` from `from` to `to`, either through
/// the lane overlay (optimized twin) or on the committed queues
/// (reference twin, rolled back by the caller). `None` is NoRoute.
fn probe_once(
    st: &mut SlottedState,
    ws: Option<&mut ProbeWorkspace>,
    view: &Topology,
    comm: CommId,
    est: f64,
    cost: f64,
    from: usize,
    to: usize,
) -> Option<u64> {
    let (from, to) = (es_net::ProcId(from as u32), es_net::ProcId(to as u32));
    let got = match ws {
        Some(ws) => OverlayState::new(st.queues(), ws).schedule_comm(
            view,
            comm,
            est,
            cost,
            from,
            to,
            Routing::ModifiedDijkstra,
            Switching::CutThrough,
        ),
        None => st.schedule_comm(
            view,
            comm,
            est,
            cost,
            from,
            to,
            Routing::ModifiedDijkstra,
            Insertion::Basic,
            Switching::CutThrough,
        ),
    };
    got.ok().map(f64::to_bits)
}

/// Drive one twin; returns the final state plus every probed arrival.
fn drive(
    topo: &Topology,
    masked: &Topology,
    reqs: &[Req],
    tuning: Tuning,
) -> (SlottedState, Vec<Option<u64>>) {
    // Ids 0..n are real commits; probes take the block above them.
    let n = reqs.len() as u64;
    let cfg = ListConfig {
        tuning,
        ..ListConfig::oihsa_probing()
    };
    let mut st = SlottedState::new(topo, reqs.len() * 4 + 8, &cfg);
    let overlay = tuning.parallel_probe.uses_overlay();
    let mut ws = ProbeWorkspace::new(topo.link_count());
    let procs = topo.proc_count();
    let mut next = 0u64;
    let mut probes = Vec::new();
    for (serial, r) in reqs.iter().enumerate() {
        let from = r.from % procs;
        let view = if r.masked { masked } else { topo };
        let insertion = if r.optimal {
            Insertion::Optimal
        } else {
            Insertion::Basic
        };
        // Probe cycle over candidate destinations, mirroring
        // pick_by_probe: two in-edges per candidate from two sources,
        // the second probed on top of the first's tentative slots. The
        // lane cache may serve the first edge's search to every
        // candidate, but must not serve the second's: it was expanded
        // over another candidate's tentative slots.
        let from2 = (from + 1 + r.candidates) % procs;
        let cp = st.checkpoint();
        for c in 0..r.candidates {
            let to = (r.to + c) % procs;
            if to == from {
                continue;
            }
            let mut edges = vec![(CommId(n + 2 * next), r.est, r.cost, from)];
            if from2 != to {
                edges.push((CommId(n + 2 * next + 1), r.est, r.cost * 0.5, from2));
            }
            if overlay {
                ws.begin_candidate(serial as u64 + 1);
                for &(comm, est, cost, src) in &edges {
                    probes.push(probe_once(
                        &mut st,
                        Some(&mut ws),
                        view,
                        comm,
                        est,
                        cost,
                        src,
                        to,
                    ));
                }
            } else {
                let mut placed = Vec::new();
                for &(comm, est, cost, src) in &edges {
                    let a = probe_once(&mut st, None, view, comm, est, cost, src, to);
                    if a.is_some() {
                        placed.push(comm);
                    }
                    probes.push(a);
                }
                for &comm in placed.iter().rev() {
                    st.unschedule(comm);
                }
                st.restore(cp);
            }
        }
        // Real commit (mutates the link queues, so any cached search
        // must stop being served afterwards).
        let to = if r.to % procs == from {
            (from + 1) % procs
        } else {
            r.to % procs
        };
        if to != from {
            let comm = CommId(next);
            next += 1;
            let _ = st.schedule_comm(
                view,
                comm,
                r.est,
                r.cost,
                es_net::ProcId(from as u32),
                es_net::ProcId(to as u32),
                Routing::ModifiedDijkstra,
                insertion,
                Switching::CutThrough,
            );
        }
    }
    st.check_invariants().expect("invariants");
    (st, probes)
}

/// Every processor cabled to both of two otherwise unconnected
/// switches: each pair has two disjoint two-hop routes, so a tentative
/// slot on one of them changes which route the modified Dijkstra picks
/// for the next probed edge.
fn dual_homed(procs: usize, hetero: bool, rng: &mut StdRng) -> Topology {
    let mut b = Topology::builder();
    let (sa, sb) = (b.add_switch(), b.add_switch());
    for _ in 0..procs {
        let (p, _) = b.add_processor(1.0);
        for sw in [sa, sb] {
            let speed = if hetero {
                rng.random_range(1.0..4.0)
            } else {
                1.0
            };
            b.add_duplex_cable(p, sw, speed);
        }
    }
    b.build().expect("dual-homed platform")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn route_cache_never_serves_stale_routes(
        procs in 2usize..10,
        seed in any::<u64>(),
        hetero in prop::bool::ANY,
        dual in prop::bool::ANY,
        mask_seed in any::<u64>(),
        reqs in reqs_strategy(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = if hetero {
            WanConfig::heterogeneous(procs)
        } else {
            WanConfig::homogeneous(procs)
        };
        let topo = if dual {
            dual_homed(procs, hetero, &mut rng)
        } else {
            gen::random_switched_wan(&cfg, &mut rng)
        };
        // Mask a pseudo-random subset of links (possibly disconnecting
        // the view — NoRoute results must then match on both sides).
        let masked = topo.masked(|l| (mask_seed >> (l.index() % 61)) & 1 == 1);

        let lane = Tuning {
            parallel_probe: ProbeParallelism::Workers(1),
        };
        let (opt, opt_probes) = drive(&topo, &masked, &reqs, lane);
        let (refr, ref_probes) = drive(&topo, &masked, &reqs, Tuning::reference());
        prop_assert_eq!(opt_probes, ref_probes, "probed arrivals diverged");

        for link in topo.link_ids() {
            let (a, b) = (opt.queue(link), refr.queue(link));
            prop_assert_eq!(a.len(), b.len(), "queue length on link {}", link.index());
            for (x, y) in a.slots().iter().zip(b.slots()) {
                prop_assert_eq!(x.comm, y.comm);
                prop_assert_eq!(x.seq, y.seq);
                prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
                prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
            }
        }
    }
}
