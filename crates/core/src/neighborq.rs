//! `neighborq` — the first-hop priority queue (§3.2).
//!
//! Each peer keeps its neighbors in a priority queue used to choose the
//! *first hop* `s` of every probe walk. Lower priority number = probed
//! sooner. The paper's rules:
//!
//! * **initialization**: a random permutation of the neighbors, so each has
//!   an equal chance of going first;
//! * **after a successful exchange through `s`**: "decrease the priority
//!   number by a small number like 1 so that it could be chosen in near
//!   future" — the direction through `s` proved fruitful;
//! * **after a failed trial through `s`**: `s` is "replaced at the tail",
//!   waiting for the next probing cycle;
//! * **churn**: newly-arrived neighbors go to "the front … with a maximum
//!   priority value" so they are probed early in maintenance.
//!
//! Degrees are small (a handful to a few dozen), so the queue is a plain
//! vector with linear scans — simpler and faster than a heap at this size.

use prop_engine::SimRng;
use prop_overlay::Slot;

#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: Slot,
    /// Lower = probed sooner.
    priority: i64,
    /// Insertion tiebreak: FIFO among equal priorities.
    seq: u64,
}

/// The first-hop priority queue of one peer.
#[derive(Clone, Debug, Default)]
pub struct NeighborQueue {
    items: Vec<Entry>,
    next_seq: u64,
}

impl NeighborQueue {
    /// Initialize with a random permutation of `neighbors`: priorities
    /// 0, 1, 2, … in shuffled order, giving each neighbor an equal chance
    /// to be probed first.
    pub fn init(neighbors: &[Slot], rng: &mut SimRng) -> Self {
        let mut q = NeighborQueue::default();
        q.reinit(neighbors, rng);
        q
    }

    /// [`NeighborQueue::init`] over this queue's own buffer: the shuffle
    /// runs in place, so a rebuild for a neighborhood no larger than one
    /// the buffer has held allocates nothing. A shuffle draws by length
    /// alone, so the stream is consumed as a shuffle of the slots is.
    pub fn reinit(&mut self, neighbors: &[Slot], rng: &mut SimRng) {
        self.items.clear();
        self.items.extend(neighbors.iter().map(|&slot| Entry { slot, priority: 0, seq: 0 }));
        rng.shuffle(&mut self.items);
        for (i, e) in self.items.iter_mut().enumerate() {
            e.priority = i as i64;
            e.seq = i as u64;
        }
        self.next_seq = neighbors.len() as u64;
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn contains(&self, s: Slot) -> bool {
        self.items.iter().any(|e| e.slot == s)
    }

    /// The neighbor to use as the next probe's first hop.
    pub fn best(&self) -> Option<Slot> {
        self.items.iter().min_by_key(|e| (e.priority, e.seq)).map(|e| e.slot)
    }

    fn min_priority(&self) -> i64 {
        self.items.iter().map(|e| e.priority).min().unwrap_or(0)
    }

    fn max_priority(&self) -> i64 {
        self.items.iter().map(|e| e.priority).max().unwrap_or(0)
    }

    /// A probe through `s` led to an exchange: bump it toward the front.
    pub fn reward(&mut self, s: Slot) {
        if let Some(e) = self.items.iter_mut().find(|e| e.slot == s) {
            e.priority -= 1;
        }
    }

    /// A probe through `s` found no beneficial exchange: move it to the tail.
    pub fn demote(&mut self, s: Slot) {
        let tail = self.max_priority() + 1;
        let seq = self.bump_seq();
        if let Some(e) = self.items.iter_mut().find(|e| e.slot == s) {
            e.priority = tail;
            e.seq = seq;
        }
    }

    /// A new neighbor arrived (churn or PROP-O rewire): front of the queue,
    /// maximum preference, so it is probed early.
    pub fn add_front(&mut self, s: Slot) {
        let mut front = self.min_priority();
        self.push_front(&mut front, s);
    }

    /// Insert `s` one step ahead of `front`, the minimum priority the
    /// caller carries across a run of insertions instead of rescanning.
    fn push_front(&mut self, front: &mut i64, s: Slot) {
        debug_assert!(!self.contains(s), "adding duplicate {s:?}");
        *front -= 1;
        let seq = self.bump_seq();
        self.items.push(Entry { slot: s, priority: *front, seq });
    }

    /// A neighbor departed (churn or PROP-O rewire).
    pub fn remove(&mut self, s: Slot) {
        self.items.retain(|e| e.slot != s);
    }

    /// A rewire in one step: drop the `lost` neighbors, then front-insert
    /// each `gained` one not already queued, in order — what `remove` per
    /// lost and `add_front` per gained slot do, in one pass each.
    pub fn replace(&mut self, lost: &[Slot], gained: &[Slot]) {
        self.items.retain(|e| !lost.contains(&e.slot));
        let mut front = self.min_priority();
        for &s in gained {
            if !self.contains(s) {
                self.push_front(&mut front, s);
            }
        }
    }

    /// Reconcile with `current`, the owner's neighbor list sorted ascending:
    /// entries no longer in it are dropped, the others keep their priority,
    /// and the neighbors not yet queued are front-inserted in ascending
    /// order. O(d log d) for degree `d`: one `retain` that binary-searches
    /// `current` and ticks the position it finds in `seen` (caller-owned
    /// scratch, so nothing is allocated), then one pass over the unticked.
    pub fn resync(&mut self, current: &[Slot], seen: &mut Vec<bool>) {
        seen.clear();
        seen.resize(current.len(), false);
        self.items.retain(|e| {
            let hit = current.binary_search(&e.slot);
            if let Ok(i) = hit {
                seen[i] = true;
            }
            hit.is_ok()
        });
        if self.items.len() == current.len() {
            return; // nothing arrived
        }
        let mut front = self.min_priority();
        for (&s, _) in current.iter().zip(seen.iter()).filter(|&(_, &queued)| !queued) {
            self.push_front(&mut front, s);
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Every entry as `(slot, priority, seq)`, in buffer order — what the
    /// differential twins compare.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(Slot, i64, u64)> {
        self.items.iter().map(|e| (e.slot, e.priority, e.seq)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(xs: &[u32]) -> Vec<Slot> {
        xs.iter().map(|&x| Slot(x)).collect()
    }

    #[test]
    fn init_is_a_permutation() {
        let ns = slots(&[1, 2, 3, 4, 5]);
        let q = NeighborQueue::init(&ns, &mut SimRng::seed_from(1));
        assert_eq!(q.len(), 5);
        for &s in &ns {
            assert!(q.contains(s));
        }
    }

    #[test]
    fn init_order_depends_on_seed() {
        let ns = slots(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let a = NeighborQueue::init(&ns, &mut SimRng::seed_from(1)).best();
        let b = NeighborQueue::init(&ns, &mut SimRng::seed_from(2)).best();
        // Not guaranteed distinct for every pair of seeds, but these two are.
        assert_ne!(a, b);
    }

    #[test]
    fn reinit_over_a_used_buffer_is_init_and_the_slot_shuffle() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from(case);
            let ns: Vec<Slot> = (0..rng.range(0..14u32)).map(|i| Slot(3 * i + 1)).collect();
            let (mut a, mut b, mut c) = (rng.clone(), rng.clone(), rng.clone());
            let fresh = NeighborQueue::init(&ns, &mut a);
            let mut reused = NeighborQueue::init(&slots(&[90, 91, 92, 93]), &mut rng);
            reused.demote(Slot(91));
            reused.add_front(Slot(99));
            reused.reinit(&ns, &mut b);
            assert_eq!(reused.entries(), fresh.entries(), "case {case}");
            // The order is the one a shuffle of the slots themselves gives.
            let mut order = ns.clone();
            c.shuffle(&mut order);
            let want: Vec<_> =
                order.iter().enumerate().map(|(i, &s)| (s, i as i64, i as u64)).collect();
            assert_eq!(fresh.entries(), want, "case {case}");
            reused.add_front(Slot(100));
            assert_eq!(reused.entries().last(), Some(&(Slot(100), -1, ns.len() as u64)));
            let next = a.range(0u64..u64::MAX);
            assert_eq!((b.range(0u64..u64::MAX), c.range(0u64..u64::MAX)), (next, next));
        }
    }

    #[test]
    fn replace_is_remove_and_add_front_one_by_one() {
        for case in 0..128u64 {
            let mut rng = SimRng::seed_from(case);
            let ns: Vec<Slot> = (0..rng.range(1..12u32)).map(Slot).collect();
            let mut q = NeighborQueue::init(&ns, &mut rng);
            for _ in 0..rng.range(0..8u32) {
                let s = *rng.pick(&ns).unwrap();
                if rng.chance(0.5) {
                    q.demote(s);
                } else {
                    q.reward(s);
                }
            }
            // Some of `lost` absent, some of `gained` already queued (and
            // not lost), and sometimes everything lost.
            let how_many = rng.range(0..=ns.len());
            let lost = rng.sample_distinct(&ns, how_many);
            let gained: Vec<Slot> = (0..rng.range(0..5u32)).map(|i| Slot(5 * i + 3)).collect();
            let mut want = q.clone();
            for &s in lost.iter().chain(&[Slot(77)]) {
                want.remove(s);
            }
            for &s in &gained {
                if !want.contains(s) {
                    want.add_front(s);
                }
            }
            q.replace(&[lost.as_slice(), &[Slot(77)]].concat(), &gained);
            assert_eq!(
                q.entries(),
                want.entries(),
                "case {case}: lost {lost:?}, gained {gained:?}"
            );
        }
    }

    #[test]
    fn demote_sends_to_tail() {
        let ns = slots(&[1, 2, 3]);
        let mut q = NeighborQueue::init(&ns, &mut SimRng::seed_from(3));
        let first = q.best().unwrap();
        q.demote(first);
        assert_ne!(q.best().unwrap(), first);
        // Demoting everything cycles back in demotion order.
        let second = q.best().unwrap();
        q.demote(second);
        let third = q.best().unwrap();
        q.demote(third);
        assert_eq!(q.best().unwrap(), first);
    }

    #[test]
    fn reward_moves_toward_front() {
        let ns = slots(&[1, 2, 3]);
        let mut q = NeighborQueue::init(&ns, &mut SimRng::seed_from(4));
        let last = {
            // find the current tail by demoting nothing: max priority item
            let mut items: Vec<Slot> = Vec::new();
            let mut probe = q.clone();
            while let Some(s) = probe.best() {
                items.push(s);
                probe.remove(s);
            }
            *items.last().unwrap()
        };
        // Rewarding the tail three times (2 → −1) lifts it past everyone.
        q.reward(last);
        q.reward(last);
        q.reward(last);
        assert_eq!(q.best().unwrap(), last);
    }

    #[test]
    fn add_front_takes_precedence() {
        let ns = slots(&[1, 2, 3]);
        let mut q = NeighborQueue::init(&ns, &mut SimRng::seed_from(5));
        q.add_front(Slot(9));
        assert_eq!(q.best(), Some(Slot(9)));
    }

    #[test]
    fn remove_then_best_skips_removed() {
        let ns = slots(&[1, 2]);
        let mut q = NeighborQueue::init(&ns, &mut SimRng::seed_from(6));
        let first = q.best().unwrap();
        q.remove(first);
        assert_ne!(q.best().unwrap(), first);
        q.remove(q.best().unwrap());
        assert!(q.is_empty());
        assert_eq!(q.best(), None);
    }

    #[test]
    fn fifo_among_equal_priorities() {
        let mut q = NeighborQueue::default();
        q.add_front(Slot(1)); // priority -1
        q.add_front(Slot(2)); // priority -2
        q.add_front(Slot(3)); // priority -3
        assert_eq!(q.best(), Some(Slot(3)));
        // Demote 3 and 2; 1 becomes best.
        q.demote(Slot(3));
        q.demote(Slot(2));
        assert_eq!(q.best(), Some(Slot(1)));
    }
}
