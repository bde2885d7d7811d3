//! Property-based equivalence of [`SlotQueueOverlay`] against direct
//! [`SlotQueue`] mutation: the copy-on-write overlay must answer every
//! probe bitwise identically to a really-mutated queue and, after an
//! arbitrary probe→commit script, merge to the identical slot sequence
//! (which is what makes the overlay probe in `es-core` exact — see
//! DESIGN.md §11). The indexed overlay (gap-index skips over a long
//! base and a long delta) must in turn be bitwise-equal to the plain
//! first-fit fold over its merged slots, and merge in the queue's
//! exact order, on adversarial scripts with zero-duration slots and
//! starts within EPS of existing slot boundaries.

use es_linksched::overlay::{OverlayDelta, SlotQueueOverlay, LONG_DELTA};
use es_linksched::slot::{Slot, SlotQueue, MIN_INDEXED_LEN};
use es_linksched::time::{approx_le, EPS};
use es_linksched::CommId;
use proptest::prelude::*;

/// A base queue built from arbitrary probe/commit requests (first-fit
/// placements never overlap, so the queue is valid by construction).
fn base_strategy() -> impl Strategy<Value = SlotQueue> {
    prop::collection::vec((0.0f64..150.0, 0.1f64..15.0), 0..30).prop_map(|reqs| {
        let mut q = SlotQueue::new();
        for (i, (bound, dur)) in reqs.into_iter().enumerate() {
            let start = q.probe(bound, dur);
            q.commit(CommId(i as u64), 0, start, dur);
        }
        q
    })
}

/// Adversarial probe requests `(kind, x, dur, r)`; see [`request`].
fn adversarial_script(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u8, f64, f64, u64)>> {
    prop::collection::vec((0u8..8, 0.0f64..200.0, 0.0f64..12.0, any::<u64>()), len)
}

/// Turn one scripted request into `(bound, duration)` against the
/// current slots: half the bounds sit within ±1.5 EPS of an existing
/// slot's start or end, and a quarter of the durations are zero (an
/// eighth sub-EPS).
fn request(kind: u8, x: f64, dur: f64, r: u64, slots: &[Slot]) -> (f64, f64) {
    let bound = if kind < 4 || slots.is_empty() {
        x
    } else {
        let s = slots[(r >> 8) as usize % slots.len()];
        let anchor = if kind < 6 { s.end } else { s.start };
        let steps = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5];
        anchor + steps[(r >> 40) as usize % steps.len()] * EPS
    };
    let dur = match r % 8 {
        0 | 1 => 0.0,
        2 => 0.4 * EPS,
        _ => dur,
    };
    (bound, dur)
}

/// The first-fit fold over `slots` from the first one — what a plain
/// (unindexed) overlay probe computes.
fn first_fit<'a>(slots: impl Iterator<Item = &'a Slot>, bound: f64, dur: f64) -> f64 {
    let mut candidate = bound;
    for s in slots {
        if approx_le(candidate + dur, s.start) {
            return candidate;
        }
        if s.end > candidate {
            candidate = s.end;
        }
    }
    candidate
}

/// A gap-indexed base queue built from an adversarial script.
fn indexed_base(ops: &[(u8, f64, f64, u64)]) -> SlotQueue {
    let mut q = SlotQueue::with_gap_index();
    for (i, &(kind, x, dur, r)) in ops.iter().enumerate() {
        let (bound, dur) = request(kind, x, dur, r, q.slots());
        let start = q.probe(bound, dur);
        q.commit(CommId(i as u64), 0, start, dur);
    }
    q
}

proptest! {
    // Enough cases that the EPS-tie cuts the ranks in
    // `SlotQueueOverlay::inert_prefix` exist for actually occur.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The indexed overlay over a long gap-indexed base and a delta
    /// driven past [`LONG_DELTA`] answers every probe bitwise like the
    /// plain fold over its merged slots and like the really mutated
    /// queue, and every probed start commits on both sides. The merged
    /// order equals the queue's after every commit, EPS-tied slots
    /// shorter than EPS (whose starts are not sorted) included.
    #[test]
    fn indexed_overlay_probe_matches_plain_and_mutated_queue(
        base_ops in adversarial_script(MIN_INDEXED_LEN * 2..60),
        script in adversarial_script(LONG_DELTA * 3..90),
    ) {
        let base = indexed_base(&base_ops);
        prop_assert!(base.probe_index().is_some(), "base must engage its gap index");
        let mut real = base.clone();
        let mut delta = OverlayDelta::new();
        for (k, &(kind, x, dur, r)) in script.iter().enumerate() {
            let (bound, dur) = request(kind, x, dur, r, real.slots());
            // A few extra read-only probes around the committed one.
            for b in [bound, 0.0, bound - EPS, bound + dur, x] {
                let ov = SlotQueueOverlay::indexed(&base, &delta);
                let plain = first_fit(ov.iter_merged(), b, dur);
                let indexed = ov.probe(b, dur);
                let want = real.probe(b, dur);
                prop_assert_eq!(plain.to_bits(), want.to_bits(), "plain probe #{} at {}", k, b);
                prop_assert_eq!(indexed.to_bits(), want.to_bits(), "indexed probe #{} at {}", k, b);
            }
            let start = real.probe(bound, dur);
            let comm = CommId(1000 + k as u64);
            let placed = delta.place_first_fit(&base, comm, k as u32, bound, dur);
            prop_assert_eq!(placed.to_bits(), start.to_bits(), "first-fit placement #{}", k);
            real.commit(comm, k as u32, start, dur);
            let ov = SlotQueueOverlay::indexed(&base, &delta);
            prop_assert_eq!(ov.len(), real.len());
            for (i, (a, b)) in ov.iter_merged().zip(real.slots()).enumerate() {
                prop_assert_eq!(a.comm, b.comm, "merged order #{} at {}", k, i);
            }
        }
        prop_assert!(delta.slots().len() >= LONG_DELTA, "delta must engage its prefix-max column");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Same property with well-separated positive durations — the
    /// shape real schedules have — where the skips are long and the
    /// EPS guards rarely fire; both overlays must still agree with the
    /// mutated queue at every step, including an empty delta.
    #[test]
    fn indexed_overlay_probe_matches_on_positive_durations(
        base in prop::collection::vec((0.0f64..300.0, 0.5f64..15.0), MIN_INDEXED_LEN..80),
        script in prop::collection::vec((0.0f64..350.0, 0.5f64..20.0), 0..70),
    ) {
        let mut q = SlotQueue::with_gap_index();
        for (i, (bound, dur)) in base.into_iter().enumerate() {
            let start = q.probe(bound, dur);
            q.commit(CommId(i as u64), 0, start, dur);
        }
        prop_assert!(q.probe_index().is_some(), "base must engage its gap index");
        let mut real = q.clone();
        let mut delta = OverlayDelta::new();
        for (k, (bound, dur)) in script.into_iter().enumerate() {
            let plain = SlotQueueOverlay::new(q.slots(), delta.slots()).probe(bound, dur);
            let indexed = SlotQueueOverlay::indexed(&q, &delta).probe(bound, dur);
            let want = real.probe(bound, dur);
            prop_assert_eq!(plain.to_bits(), want.to_bits());
            prop_assert_eq!(indexed.to_bits(), want.to_bits(), "indexed probe #{}", k);
            let comm = CommId(1000 + k as u64);
            delta.place(&q, comm, k as u32, indexed, dur);
            real.commit(comm, k as u32, want, dur);
        }
        let ov = SlotQueueOverlay::indexed(&q, &delta);
        ov.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ov.len(), real.len());
        for (a, b) in ov.iter_merged().zip(real.slots()) {
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
        }
    }

    /// Drive the same random probe→commit script through a really
    /// mutated clone and through an overlay delta: every probe answer
    /// and the final queues must match bit for bit.
    #[test]
    fn overlay_script_matches_direct_mutation(
        base in base_strategy(),
        script in prop::collection::vec((0.0f64..250.0, 0.1f64..20.0), 0..25),
    ) {
        let mut real = base.clone();
        let mut delta: Vec<Slot> = Vec::new();
        for (k, (bound, dur)) in script.iter().copied().enumerate() {
            let comm = CommId(1000 + k as u64);
            let got = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
            let want = real.probe(bound, dur);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "probe #{} diverged", k);
            SlotQueueOverlay::commit_into(base.slots(), &mut delta, comm, k as u32, got, dur);
            real.commit(comm, k as u32, want, dur);
        }

        let ov = SlotQueueOverlay::new(base.slots(), &delta);
        ov.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ov.len(), real.len());
        for (a, b) in ov.iter_merged().zip(real.slots()) {
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
        }
        // Replaying the delta into a fresh queue (either tuning)
        // reproduces the really-mutated queue exactly.
        for indexed in [false, true] {
            let q = ov.to_queue(indexed);
            q.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(q.len(), real.len());
            for (a, b) in q.slots().iter().zip(real.slots()) {
                prop_assert_eq!(a.comm, b.comm);
                prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
                prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
            }
        }
    }

    /// Interleave overlay commits with *unschedules on the real path*:
    /// after merging a delta into a queue, removing a communication —
    /// by bulk [`SlotQueue::remove_comm`] or by per-slot
    /// [`SlotQueue::remove_slot_at`] — must leave the same bitwise
    /// queue a direct-mutation run produces, and the two removal paths
    /// must agree with each other. Also pins the epoch discipline:
    /// every mutation strictly increases the epoch, probes never do.
    #[test]
    fn unschedule_after_merge_matches_direct_path(
        base in base_strategy(),
        script in prop::collection::vec((0.0f64..250.0, 0.1f64..20.0), 1..20),
        victims in prop::collection::vec(0usize..40, 1..8),
    ) {
        // Build the same final state twice: really-mutated `real`, and
        // overlay delta merged through `to_queue`.
        let mut real = base.clone();
        let mut delta: Vec<Slot> = Vec::new();
        for (k, (bound, dur)) in script.iter().copied().enumerate() {
            let comm = CommId(1000 + k as u64);
            let got = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
            let want = real.probe(bound, dur);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            SlotQueueOverlay::commit_into(base.slots(), &mut delta, comm, k as u32, got, dur);
            real.commit(comm, k as u32, want, dur);
        }
        let mut merged_bulk = SlotQueueOverlay::new(base.slots(), &delta).to_queue(false);
        let mut merged_at = SlotQueueOverlay::new(base.slots(), &delta).to_queue(true);

        // Unschedule a set of comms (some existing, some absent) from
        // all three queues — real and merged_bulk via remove_comm,
        // merged_at via targeted remove_slot_at with the bulk fallback
        // the scheduler uses.
        for &v in &victims {
            let comm = CommId(1000 + v as u64);
            let before_epoch = merged_at.epoch();
            let removed_real = real.remove_comm(comm);
            let removed_bulk = merged_bulk.remove_comm(comm);
            prop_assert_eq!(removed_real, removed_bulk);
            let targets: Vec<Slot> = merged_at
                .slots()
                .iter()
                .filter(|s| s.comm == comm)
                .copied()
                .collect();
            let mut removed_at = 0usize;
            for t in &targets {
                if merged_at.remove_slot_at(t.comm, t.seq, t.start) {
                    removed_at += 1;
                } else {
                    // Scheduler fallback path; must be unreachable here
                    // because targets came from the queue itself.
                    removed_at += merged_at.remove_comm(comm);
                }
            }
            prop_assert_eq!(removed_real, removed_at, "removal paths disagree");
            if removed_at > 0 {
                prop_assert!(merged_at.epoch() > before_epoch, "unschedule must bump the epoch");
            }
            real.check_invariants().map_err(TestCaseError::fail)?;
            merged_at.check_invariants().map_err(TestCaseError::fail)?;
        }

        // All three survivors are bitwise-identical, and probing them
        // (the mask-refill pattern repair uses) agrees too.
        prop_assert_eq!(real.len(), merged_bulk.len());
        prop_assert_eq!(real.len(), merged_at.len());
        for ((a, b), c) in real.slots().iter().zip(merged_bulk.slots()).zip(merged_at.slots()) {
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.comm, c.comm);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.start.to_bits(), c.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
            prop_assert_eq!(a.end.to_bits(), c.end.to_bits());
        }
        for (bound, dur) in [(0.0, 1.0), (10.0, 3.5), (77.0, 0.5)] {
            let epoch_before = real.epoch();
            prop_assert_eq!(real.probe(bound, dur).to_bits(), merged_at.probe(bound, dur).to_bits());
            prop_assert_eq!(real.epoch(), epoch_before, "probe must not bump the epoch");
        }
    }

    /// Probes are read-only: any number of overlays over the same base
    /// and delta agree with each other and leave both untouched.
    #[test]
    fn overlay_probe_is_pure(
        base in base_strategy(),
        bound in 0.0f64..250.0,
        dur in 0.1f64..20.0,
    ) {
        let delta: Vec<Slot> = Vec::new();
        let before: Vec<Slot> = base.slots().to_vec();
        let a = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
        let b = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert_eq!(base.slots().len(), before.len());
        for (x, y) in base.slots().iter().zip(&before) {
            prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
            prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
        }
    }
}
