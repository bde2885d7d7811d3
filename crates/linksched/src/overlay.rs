//! Copy-on-write overlays over [`SlotQueue`] link state.
//!
//! BA-style processor probing tentatively schedules every in-edge of a
//! ready task on *each* candidate processor. Done against the real
//! [`SlotQueue`]s this forces mutate-and-rollback serialization; but in
//! the Sinnen–Sousa contention model the candidates' probes are
//! independent reads of the same base link state, so each candidate can
//! instead work against an **overlay**: the immutable base slot slice
//! shared by all candidates plus a small private delta holding only the
//! slots this candidate tentatively committed. Overlays never touch the
//! base, so any number of candidates probe concurrently and a losing
//! candidate's work is discarded by clearing its delta — no rollback
//! walk, no epoch churn, no gap-index invalidation.
//!
//! Equivalence with the real queue is **by construction**: the overlay
//! answers probes by running [`SlotQueue::probe_reference`]'s exact
//! first-fit fold over the merge of base and delta, and the merge
//! yields slots in precisely the order [`SlotQueue::commit`] would have
//! produced had the delta been committed onto the base (commit inserts
//! at `partition_point(start < new_start - EPS)`, i.e. a later commit
//! sorts *before* existing slots whose start is within EPS — the merge
//! therefore prefers the delta side unless the base slot is strictly
//! earlier). The indexed probe path is bitwise-identical to the
//! reference fold (DESIGN.md §10), so overlay probes are bitwise-equal
//! to probes of the mutated real queue in either tuning.
//!
//! # Indexed overlays (DESIGN.md §11)
//!
//! A plain overlay folds from the first slot of both lists. An overlay
//! built by [`SlotQueueOverlay::indexed`] over a committed queue and an
//! [`OverlayDelta`] skips the leading slots that end below
//! `bound - EPS` on both sides instead — through the queue's own gap
//! index and through the prefix-max column a long delta keeps — so a
//! high fan-in join whose tentative transfers stack dozens of slots on
//! one link no longer rescans them on every probe. The skip is proven
//! answer-neutral in the docs of `SlotQueueOverlay::inert_prefix`.

use crate::slot::{Slot, SlotQueue};
use crate::time::{approx_ge, approx_le, EPS};
use crate::CommId;

/// Delta length from which an [`OverlayDelta`] keeps its prefix-max
/// column. A shorter delta is folded from its first slot: a few extra
/// comparisons per probe are cheaper than column upkeep on every
/// tentative commit.
pub const LONG_DELTA: usize = 16;

/// A read-only view of one link's schedule as seen by one probing
/// candidate: the shared base slots plus the candidate's private delta.
///
/// The delta vector itself lives in the caller's per-worker workspace
/// (clear-don't-drop across candidates); this type borrows both parts,
/// so constructing it is free and many overlays of the same base can
/// exist at once across threads.
#[derive(Clone, Copy, Debug)]
pub struct SlotQueueOverlay<'a> {
    base: &'a [Slot],
    delta: &'a [Slot],
    /// The committed queue behind `base` when built by
    /// [`SlotQueueOverlay::indexed`]: an empty delta then probes it
    /// directly, through its own gap index and SoA columns.
    queue: Option<&'a SlotQueue>,
    /// Prefix maxima of `base` ends ([`SlotQueue::probe_index`]);
    /// empty when the base has no usable index.
    base_pme: &'a [f64],
    /// Prefix maxima of `delta` ends; empty while the delta is short.
    delta_pme: &'a [f64],
}

impl<'a> SlotQueueOverlay<'a> {
    /// View `base` (the real queue's slots) through `delta` (this
    /// candidate's tentative commits, maintained by
    /// [`SlotQueueOverlay::commit_into`]). Probes fold from the first
    /// slot of both lists.
    pub fn new(base: &'a [Slot], delta: &'a [Slot]) -> Self {
        Self {
            base,
            delta,
            queue: None,
            base_pme: &[],
            delta_pme: &[],
        }
    }

    /// View the committed `queue` through `delta` with both gap
    /// indexes armed (module docs). Probes are bitwise-equal to those
    /// of [`SlotQueueOverlay::new`] over the same slots.
    pub fn indexed(queue: &'a SlotQueue, delta: &'a OverlayDelta) -> Self {
        Self {
            base: queue.slots(),
            delta: &delta.slots,
            queue: Some(queue),
            base_pme: queue.probe_index().unwrap_or(&[]),
            delta_pme: &delta.pme,
        }
    }

    /// Total number of slots in the merged view.
    pub fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True when both base and delta are empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.delta.is_empty()
    }

    /// The merged slots in the order the real queue would hold them
    /// after committing the delta onto the base.
    pub fn iter_merged(&self) -> Merged<'a> {
        Merged {
            base: self.base,
            delta: self.delta,
        }
    }

    /// Earliest start `>= bound` of an idle interval of length
    /// `duration` — [`SlotQueue::probe_reference`]'s first-fit fold
    /// over the merged view, bitwise-equal to probing the mutated real
    /// queue.
    pub fn probe(&self, bound: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0);
        if self.delta.is_empty() {
            if let Some(q) = self.queue {
                return q.probe(bound, duration);
            }
        }
        let merged = if self.base_pme.is_empty() && self.delta_pme.is_empty() {
            self.iter_merged()
        } else {
            let (i, j) = self.inert_prefix(bound);
            Merged {
                base: &self.base[i..],
                delta: &self.delta[j..],
            }
        };
        let mut candidate = bound;
        for s in merged {
            if approx_le(candidate + duration, s.start) {
                return candidate;
            }
            if s.end > candidate {
                candidate = s.end;
            }
        }
        candidate
    }

    /// The prefix pair `(i, j)` a probe at `bound` skips: `base[..i]`
    /// and `delta[..j]`. Both bounds start at the gap indexes' verdict —
    /// every skipped slot ends below `bound - EPS`, so it can neither
    /// fit the transfer (its start lies below the candidate, which
    /// never drops below `bound`) nor raise the candidate; this is the
    /// argument [`SlotQueue::probe`]'s own skip rests on. Skipping
    /// prefixes of *two* lists is exact only if the full merge passes
    /// through `(i, j)`, i.e. emits every skipped slot before every
    /// kept one; otherwise the kept slots could fold in another order.
    /// Two checks, on the same floating-point expressions
    /// [`Merged`] evaluates, prove it:
    ///
    /// * every skipped base slot starts at or below `base_pme[i - 1]`,
    ///   so `base_pme[i - 1] < delta[j].start - EPS` makes each of them
    ///   merge before the delta head;
    /// * every skipped delta slot starts at or below `delta_pme[j - 1]`,
    ///   so `delta_pme[j - 1] - EPS <= base[i].start` makes each of them
    ///   merge before the base head.
    ///
    /// A failed check shrinks the offending side to the prefix that
    /// passes, which changes the other side's head, so the two run to
    /// a fixed point (`(0, 0)` passes trivially). On schedules with
    /// positive durations it settles in one or two rounds.
    fn inert_prefix(&self, bound: f64) -> (usize, usize) {
        let lim = bound - EPS;
        let mut i = self.base_pme.partition_point(|&e| e < lim);
        let mut j = self.delta_pme.partition_point(|&e| e < lim);
        loop {
            if i > 0 {
                if let Some(d) = self.delta.get(j) {
                    let cut = d.start - EPS;
                    if self.base_pme[i - 1] >= cut {
                        i = self.base_pme[..i].partition_point(|&e| e < cut);
                    }
                }
            }
            if j > 0 {
                if let Some(b) = self.base.get(i) {
                    if self.delta_pme[j - 1] - EPS > b.start {
                        j = self.delta_pme[..j].partition_point(|&e| e - EPS <= b.start);
                        continue;
                    }
                }
            }
            return (i, j);
        }
    }

    /// Tentatively insert a slot `[start, start + duration)` into
    /// `delta`, exactly where [`SlotQueue::commit`] would sort it.
    ///
    /// An associated function rather than a method because probing
    /// borrows many overlays immutably at once (one per route hop)
    /// while commits need `&mut` on a single delta.
    ///
    /// # Panics
    /// Panics if the new slot overlaps a merged neighbour by more than
    /// EPS — same contract as [`SlotQueue::commit`]: only commit starts
    /// obtained from [`SlotQueueOverlay::probe`].
    pub fn commit_into(
        base: &[Slot],
        delta: &mut Vec<Slot>,
        comm: CommId,
        seq: u32,
        start: f64,
        duration: f64,
    ) {
        insert_checked(base, delta, comm, seq, start, duration);
    }

    /// Replay the merged view into a fresh [`SlotQueue`] (test/debug
    /// helper; the scheduler replays a winning delta through the real
    /// queue's own mutation path instead).
    pub fn to_queue(&self, indexed: bool) -> SlotQueue {
        let mut q = SlotQueue::indexed(indexed);
        for s in self.iter_merged() {
            q.commit(s.comm, s.seq, s.start, s.end - s.start);
        }
        q
    }

    /// Merged-view invariants: sorted within EPS and non-overlapping —
    /// the same checks [`SlotQueue::check_invariants`] applies.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<&Slot> = None;
        for s in self.iter_merged() {
            if !approx_ge(s.end, s.start) {
                return Err(format!(
                    "overlay slot {} has negative length [{}, {})",
                    s.comm, s.start, s.end
                ));
            }
            if let Some(p) = prev {
                if !approx_le(p.end, s.start) {
                    return Err(format!(
                        "overlay slots overlap or are unsorted: {} [{}, {}) then {} [{}, {})",
                        p.comm, p.start, p.end, s.comm, s.start, s.end
                    ));
                }
            }
            prev = Some(s);
        }
        Ok(())
    }
}

/// Insert `[start, start + duration)` into `delta` where
/// [`SlotQueue::commit`] would sort it, after checking it against its
/// merged neighbours; returns the insertion index.
fn insert_checked(
    base: &[Slot],
    delta: &mut Vec<Slot>,
    comm: CommId,
    seq: u32,
    start: f64,
    duration: f64,
) -> usize {
    let end = start + duration;
    let di = delta.partition_point(|s| s.start < start - EPS);
    let bi = base.partition_point(|s| s.start < start - EPS);
    // The merged predecessor/successor of the new slot are among
    // these four (both lists are sorted and non-overlapping).
    for prev in [
        di.checked_sub(1).map(|i| &delta[i]),
        bi.checked_sub(1).map(|i| &base[i]),
    ]
    .into_iter()
    .flatten()
    {
        assert!(
            approx_le(prev.end, start),
            "overlay slot overlap: {comm} [{start}, {end}) vs {} [{}, {})",
            prev.comm,
            prev.start,
            prev.end
        );
    }
    for next in [delta.get(di), base.get(bi)].into_iter().flatten() {
        assert!(
            approx_le(end, next.start),
            "overlay slot overlap: {comm} [{start}, {end}) vs {} [{}, {})",
            next.comm,
            next.start,
            next.end
        );
    }
    delta.insert(
        di,
        Slot {
            comm,
            seq,
            start,
            end,
        },
    );
    di
}

/// One candidate's private delta over one link: its tentative slots in
/// real-queue order plus, once it holds [`LONG_DELTA`] slots, the
/// leftmost prefix maxima of their ends — the same column the
/// committed queue's gap index keeps — which
/// [`SlotQueueOverlay::indexed`] skips through.
#[derive(Clone, Debug, Default)]
pub struct OverlayDelta {
    slots: Vec<Slot>,
    /// Empty while `slots` is shorter than [`LONG_DELTA`]; exactly
    /// `slots.len()` entries from then on.
    pme: Vec<f64>,
}

impl OverlayDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tentative slots in real-queue order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// True when no slot is tentatively placed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every tentative slot, keeping the buffers.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.pme.clear();
    }

    /// [`SlotQueueOverlay::commit_into`] plus prefix-max upkeep: the
    /// column is built once when the delta reaches [`LONG_DELTA`]
    /// slots and refolded from the insertion point after that, with
    /// the same bitwise early exit as the queue's gap index (once a
    /// recomputed entry equals the shifted stored one, the stored tail
    /// is the fold).
    pub fn place(&mut self, base: &[Slot], comm: CommId, seq: u32, start: f64, duration: f64) {
        let di = insert_checked(base, &mut self.slots, comm, seq, start, duration);
        let n = self.slots.len();
        if n < LONG_DELTA {
            return;
        }
        let (from, early) = if self.pme.len() + 1 == n {
            self.pme.insert(di, 0.0);
            (di, true)
        } else {
            self.pme.clear();
            self.pme.resize(n, 0.0);
            (0, false)
        };
        let mut run = if from > 0 {
            self.pme[from - 1]
        } else {
            f64::NEG_INFINITY
        };
        for i in from..n {
            let end = self.slots[i].end;
            if end > run {
                run = end;
            }
            if early && i > from && self.pme[i].to_bits() == run.to_bits() {
                return;
            }
            self.pme[i] = run;
        }
    }
}

/// Iterator over an overlay's merged slots in real-queue order: the
/// base slot goes first only when strictly earlier than the delta head
/// (`b.start < d.start - EPS`); otherwise the delta slot does, because
/// a later [`SlotQueue::commit`] sorts before existing slots whose
/// start is within EPS of its own.
#[derive(Clone, Debug)]
pub struct Merged<'a> {
    base: &'a [Slot],
    delta: &'a [Slot],
}

impl<'a> Iterator for Merged<'a> {
    type Item = &'a Slot;

    fn next(&mut self) -> Option<&'a Slot> {
        match (self.base.first(), self.delta.first()) {
            (Some(b), Some(d)) => {
                if b.start < d.start - EPS {
                    self.base = &self.base[1..];
                    Some(b)
                } else {
                    self.delta = &self.delta[1..];
                    Some(d)
                }
            }
            (Some(b), None) => {
                self.base = &self.base[1..];
                Some(b)
            }
            (None, Some(d)) => {
                self.delta = &self.delta[1..];
                Some(d)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.base.len() + self.delta.len();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> CommId {
        CommId(n)
    }

    /// Drive the same probe→commit script through a real queue and an
    /// overlay over a frozen base; every probe answer and the final
    /// slot sequences must agree bitwise.
    fn assert_script_equivalent(base_commits: &[(u64, f64, f64)], script: &[(f64, f64)]) {
        let mut real = SlotQueue::new();
        for &(id, start, dur) in base_commits {
            real.commit(c(id), 0, start, dur);
        }
        let base: Vec<Slot> = real.slots().to_vec();
        let mut delta: Vec<Slot> = Vec::new();

        for (i, &(bound, dur)) in script.iter().enumerate() {
            let ov = SlotQueueOverlay::new(&base, &delta);
            let a = ov.probe(bound, dur);
            let b = real.probe(bound, dur);
            assert_eq!(a.to_bits(), b.to_bits(), "probe {i}: {a} vs {b}");
            let id = c(1000 + i as u64);
            SlotQueueOverlay::commit_into(&base, &mut delta, id, i as u32, a, dur);
            real.commit(id, i as u32, b, dur);
            SlotQueueOverlay::new(&base, &delta)
                .check_invariants()
                .unwrap();
            real.check_invariants().unwrap();
        }

        let merged: Vec<Slot> = SlotQueueOverlay::new(&base, &delta)
            .iter_merged()
            .copied()
            .collect();
        assert_eq!(merged.len(), real.len());
        for (m, r) in merged.iter().zip(real.slots()) {
            assert_eq!(m.comm, r.comm);
            assert_eq!(m.seq, r.seq);
            assert_eq!(m.start.to_bits(), r.start.to_bits());
            assert_eq!(m.end.to_bits(), r.end.to_bits());
        }
    }

    #[test]
    fn empty_base_and_delta() {
        let ov = SlotQueueOverlay::new(&[], &[]);
        assert!(ov.is_empty());
        assert_eq!(ov.probe(3.0, 2.0), 3.0);
        assert_eq!(ov.iter_merged().count(), 0);
    }

    #[test]
    fn probe_sees_base_and_delta_together() {
        assert_script_equivalent(
            &[(1, 0.0, 2.0), (2, 5.0, 2.0)],
            &[(0.0, 3.0), (0.0, 3.0), (0.0, 1.0), (2.5, 0.4)],
        );
    }

    #[test]
    fn delta_fills_base_gap_and_blocks_it() {
        let mut real = SlotQueue::new();
        real.commit(c(1), 0, 0.0, 2.0);
        real.commit(c(2), 0, 5.0, 2.0);
        let base: Vec<Slot> = real.slots().to_vec();
        let mut delta = Vec::new();
        // Fill the [2,5) gap through the overlay.
        let ov = SlotQueueOverlay::new(&base, &delta);
        assert_eq!(ov.probe(0.0, 3.0), 2.0);
        SlotQueueOverlay::commit_into(&base, &mut delta, c(9), 0, 2.0, 3.0);
        // A second probe must now skip past the delta slot to the tail.
        let ov = SlotQueueOverlay::new(&base, &delta);
        assert_eq!(ov.probe(0.0, 1.0), 7.0);
        // The base itself is untouched.
        assert_eq!(base.len(), 2);
        assert_eq!(real.probe(0.0, 3.0), 2.0, "real queue still sees its gap");
    }

    #[test]
    fn interleaved_probe_commit_matches_real_queue() {
        assert_script_equivalent(
            &[(1, 1.0, 1.5), (2, 4.0, 0.5), (3, 8.0, 2.0), (4, 13.0, 1.0)],
            &[
                (0.0, 1.0),
                (0.0, 1.0),
                (2.0, 1.2),
                (0.0, 0.3),
                (6.0, 1.9),
                (0.0, 5.0),
                (3.0, 0.1),
            ],
        );
    }

    #[test]
    fn pseudo_random_scripts_match_real_queue() {
        let mut x: u64 = 0x0E17_AB1E;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for trial in 0..40 {
            let mut base_commits = Vec::new();
            let mut probe_q = SlotQueue::new();
            for i in 0..(step() % 12) {
                let r = step();
                let bound = (r >> 33) as f64 % 40.0;
                let dur = 0.1 + ((r >> 11) % 50) as f64 / 10.0;
                let start = probe_q.probe(bound, dur);
                probe_q.commit(c(i), 0, start, dur);
                base_commits.push((i, start, dur));
            }
            let mut script = Vec::new();
            for _ in 0..=(step() % 10) {
                let r = step();
                script.push((
                    (r >> 33) as f64 % 50.0,
                    0.1 + ((r >> 11) % 40) as f64 / 10.0,
                ));
            }
            // Base commits are (id, start, dur) with probe-derived
            // starts, so re-committing them in order reproduces the
            // queue inside the helper.
            let commits: Vec<(u64, f64, f64)> = base_commits
                .iter()
                .map(|&(id, start, dur)| (id, start, dur))
                .collect();
            assert_script_equivalent(&commits, &script);
            let _ = trial;
        }
    }

    #[test]
    fn to_queue_round_trips_and_validates() {
        let mut real = SlotQueue::new();
        real.commit(c(1), 0, 0.0, 1.0);
        real.commit(c(2), 0, 3.0, 1.0);
        let base: Vec<Slot> = real.slots().to_vec();
        let mut delta = Vec::new();
        SlotQueueOverlay::commit_into(&base, &mut delta, c(3), 0, 1.0, 1.5);
        let ov = SlotQueueOverlay::new(&base, &delta);
        assert_eq!(ov.len(), 3);
        for indexed in [false, true] {
            let q = ov.to_queue(indexed);
            assert_eq!(q.len(), 3);
            q.check_invariants().unwrap();
            assert_eq!(
                q.probe(0.0, 2.0).to_bits(),
                ov.probe(0.0, 2.0).to_bits(),
                "replayed queue probes like the overlay"
            );
        }
    }

    /// A gap-indexed queue of `n` slots `[3i, 3i + 2)`.
    fn striped(n: u64) -> SlotQueue {
        let mut q = SlotQueue::with_gap_index();
        for i in 0..n {
            q.commit(c(i), 0, 3.0 * i as f64, 2.0);
        }
        q
    }

    #[test]
    fn delta_prefix_max_column_is_the_fold() {
        let base: Vec<Slot> = Vec::new();
        let mut delta = OverlayDelta::new();
        let mut x: u64 = 0x5EED;
        for k in 0..3 * LONG_DELTA as u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Disjoint unit cells in scrambled order, varying lengths,
            // so insertions land everywhere and ends are not monotone
            // in insertion order.
            let cell = ((k * 37) % 97) as f64 * 10.0;
            let dur = ((x >> 33) % 9) as f64;
            delta.place(&base, c(k), 0, cell, dur);
            if delta.slots().len() < LONG_DELTA {
                assert!(delta.pme.is_empty(), "short deltas keep no column");
                continue;
            }
            let mut run = f64::NEG_INFINITY;
            assert_eq!(delta.pme.len(), delta.slots().len());
            for (i, s) in delta.slots().iter().enumerate() {
                if s.end > run {
                    run = s.end;
                }
                assert_eq!(delta.pme[i].to_bits(), run.to_bits(), "step {k}, entry {i}");
            }
        }
        delta.clear();
        assert!(delta.is_empty() && delta.pme.is_empty());
    }

    #[test]
    fn indexed_probe_skips_both_prefixes() {
        let q = striped(12);
        let mut delta = OverlayDelta::new();
        for k in 0..LONG_DELTA as u64 {
            let start = 100.0 + 2.0 * k as f64;
            delta.place(q.slots(), c(100 + k), 0, start, 1.0);
        }
        let ov = SlotQueueOverlay::indexed(&q, &delta);
        // Bound 110: base slots ending below it (all 12 end by 35) and
        // delta slots [100 + 2k, 101 + 2k) ending below it (k < 5)
        // are inert.
        assert_eq!(ov.inert_prefix(110.0), (12, 5));
        let plain = SlotQueueOverlay::new(q.slots(), delta.slots());
        for bound in [0.0, 20.0, 99.0, 110.0, 140.0] {
            for dur in [0.5, 1.0, 3.0] {
                assert_eq!(
                    ov.probe(bound, dur).to_bits(),
                    plain.probe(bound, dur).to_bits(),
                    "bound {bound} dur {dur}"
                );
            }
        }
    }

    #[test]
    fn back_to_back_delta_shrinks_the_base_skip() {
        // A delta slot starting exactly where a base slot ends merges
        // *before* it (starts tie within EPS), so that base slot — and
        // every base slot whose prefix-max end reaches the delta head —
        // must stay in the walk even though it ends below the bound.
        let q = striped(10);
        let mut delta = OverlayDelta::new();
        delta.place(q.slots(), c(99), 0, 2.0, 1.0);
        let ov = SlotQueueOverlay::indexed(&q, &delta);
        assert_eq!(ov.inert_prefix(10.0), (0, 0));
        let plain = SlotQueueOverlay::new(q.slots(), delta.slots());
        assert_eq!(
            ov.probe(10.0, 1.0).to_bits(),
            plain.probe(10.0, 1.0).to_bits()
        );
    }

    #[test]
    fn both_guards_run_to_a_fixed_point() {
        // Base [0,2) [3,5) [6,8) then a tail from 12 on; a long delta
        // of zero-length slots in the first two gaps, a head [8,10)
        // back to back with [6,8), and a zero-length slot at 8 that
        // sorts before the head. At bound 9.5 the indexes would skip
        // base[..3] and delta[..16]; the head [8,10) pulls the base
        // skip back to [6,8), whose start in turn keeps the slot at 8
        // (it merges after [6,8)) in the walk.
        let mut q = SlotQueue::with_gap_index();
        for (i, start) in [0.0, 3.0, 6.0, 12.0, 15.0, 18.0, 21.0, 24.0]
            .into_iter()
            .enumerate()
        {
            q.commit(c(i as u64), 0, start, 2.0);
        }
        let mut delta = OverlayDelta::new();
        let mut k = 100;
        for gap_start in [2.0, 5.0] {
            for step in 1..9 {
                if delta.slots().len() < LONG_DELTA - 1 {
                    delta.place(q.slots(), c(k), 0, gap_start + 0.1 * f64::from(step), 0.0);
                    k += 1;
                }
            }
        }
        delta.place(q.slots(), c(200), 0, 8.0, 2.0);
        delta.place(q.slots(), c(201), 0, 8.0, 0.0);
        assert_eq!(delta.slots().len(), LONG_DELTA + 1);
        let ov = SlotQueueOverlay::indexed(&q, &delta);
        assert_eq!(ov.inert_prefix(9.5), (2, LONG_DELTA - 1));
        let plain = SlotQueueOverlay::new(q.slots(), delta.slots());
        for bound in [8.0 - EPS, 8.0, 9.5, 10.0, 11.0] {
            for dur in [0.0, 1.0, 2.5] {
                assert_eq!(
                    ov.probe(bound, dur).to_bits(),
                    plain.probe(bound, dur).to_bits(),
                    "bound {bound} dur {dur}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlay slot overlap")]
    fn commit_into_panics_on_base_overlap() {
        let mut real = SlotQueue::new();
        real.commit(c(1), 0, 0.0, 3.0);
        let base: Vec<Slot> = real.slots().to_vec();
        let mut delta = Vec::new();
        SlotQueueOverlay::commit_into(&base, &mut delta, c(2), 0, 2.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "overlay slot overlap")]
    fn commit_into_panics_on_delta_overlap() {
        let base: Vec<Slot> = Vec::new();
        let mut delta = Vec::new();
        SlotQueueOverlay::commit_into(&base, &mut delta, c(1), 0, 0.0, 3.0);
        SlotQueueOverlay::commit_into(&base, &mut delta, c(2), 0, 2.0, 2.0);
    }
}
