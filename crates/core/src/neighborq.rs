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
//! The queue is kept in probe order: a ring buffer of entries sorted
//! ascending by `(priority, seq)`, so the next first hop is the front, the
//! minimum priority is the front's and the maximum the back's. On the
//! power-law overlays the benchmark runs, most degrees are small and a few
//! hubs are not: at seed 1 the final `driver_sweep` PROP-O overlay has
//! mean degree 8.0 and maximum 97, and `churn_storm`'s mean 31.7 and
//! maximum 206, with 145 of its 1,000 nodes at degree 50 or more. A trial
//! touches the front: [`NeighborQueue::best`] reads it, a failed first hop
//! leaves it for the back ([`NeighborQueue::demote`]) and a rewarded one
//! moves up past the entries its new key now beats
//! ([`NeighborQueue::reward`]) — O(1) for the front, and only a first hop
//! that is no longer the front (the queue changed while its walk was out)
//! is looked for. Arrivals go to the front, departures are taken out
//! where they stand, and nothing else moves: the order is the one a scan
//! for the minimum `(priority, seq)` would give, entry for entry.
//!
//! A PROP-O rewire ([`NeighborQueue::replace`]) front-inserts its arrivals
//! without looking for them first: the driver keeps every started node's
//! queue equal to its row, and the overlay refuses a rewire that would hand
//! a node a neighbor it already has, so an arrival is never queued already.
//! A debug build checks that on every insertion.

use prop_engine::SimRng;
use prop_overlay::Slot;
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: Slot,
    /// Lower = probed sooner.
    priority: i64,
    /// Insertion tiebreak: FIFO among equal priorities.
    seq: u64,
}

impl Entry {
    /// The probe order: every seq is handed out once, so keys are distinct.
    #[inline]
    fn key(&self) -> (i64, u64) {
        (self.priority, self.seq)
    }
}

/// Epoch-stamped per-slot marks: the scratch of [`NeighborQueue::resync`]
/// and of the PROP-O planner ([`crate::exchange::PlanScratch`]). A driver
/// owns one of each for its whole lifetime; a pass stamps the rows it
/// reads with fresh epochs instead of clearing anything, so its cost is
/// the rows' length, not the overlay's. Two bytes a slot: the stamps are
/// cleared once every 65,535 epochs opened.
#[derive(Clone, Debug, Default)]
pub struct SlotMarks {
    stamps: Vec<u16>,
    epoch: u16,
}

impl SlotMarks {
    /// Cover slots `0..n` (never shrinks) and open `count` fresh epochs at
    /// once, `first .. first + count`; `first` is returned. No slot carries any of them
    /// yet, and none is zero, the stamp of a slot never marked: the stamps
    /// restart from zero before the last of them could wrap.
    #[inline]
    pub(crate) fn open(&mut self, n: usize, count: u16) -> u16 {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.epoch > u16::MAX - count {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        let first = self.epoch + 1;
        self.epoch += count;
        first
    }

    /// The epoch `s` was last marked with (0 if never).
    #[inline]
    pub(crate) fn get(&self, s: Slot) -> u16 {
        self.stamps[s.index()]
    }

    #[inline]
    pub(crate) fn set(&mut self, s: Slot, epoch: u16) {
        self.stamps[s.index()] = epoch;
    }

    #[inline]
    fn is_marked(&self, s: Slot, epoch: u16) -> bool {
        self.stamps.get(s.index()) == Some(&epoch)
    }

    /// The last epoch opened.
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Marks a long way through their epochs, every slot of `0..n` left
    /// stamped with one of the first few, as by an earlier cycle: the next
    /// restart must clear those stamps before the epochs come round again.
    #[cfg(test)]
    pub(crate) fn worn(n: usize, epoch: u16) -> Self {
        SlotMarks { stamps: (0..n).map(|i| 1 + (i % 7) as u16).collect(), epoch }
    }
}

/// The first-hop priority queue of one peer.
#[derive(Clone, Debug, Default)]
pub struct NeighborQueue {
    /// Ascending by `(priority, seq)`: the front is probed next.
    items: VecDeque<Entry>,
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
        let items = self.items.make_contiguous();
        rng.shuffle(items);
        for (i, e) in items.iter_mut().enumerate() {
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
        self.position(s).is_some()
    }

    /// Where `s` stands, looked for from the front, where a trial's first
    /// hop is.
    #[inline]
    fn position(&self, s: Slot) -> Option<usize> {
        self.items.iter().position(|e| e.slot == s)
    }

    /// The neighbor to use as the next probe's first hop.
    #[inline]
    pub fn best(&self) -> Option<Slot> {
        self.items.front().map(|e| e.slot)
    }

    fn min_priority(&self) -> i64 {
        self.items.front().map_or(0, |e| e.priority)
    }

    fn max_priority(&self) -> i64 {
        self.items.back().map_or(0, |e| e.priority)
    }

    /// A probe through `s` led to an exchange: bump it toward the front.
    pub fn reward(&mut self, s: Slot) {
        let Some(mut i) = self.position(s) else { return };
        self.items[i].priority -= 1;
        while i > 0 && self.items[i].key() < self.items[i - 1].key() {
            self.items.swap(i, i - 1);
            i -= 1;
        }
    }

    /// A probe through `s` found no beneficial exchange: move it to the tail.
    pub fn demote(&mut self, s: Slot) {
        let tail = self.max_priority() + 1;
        let seq = self.bump_seq();
        if let Some(i) = self.position(s) {
            let mut e = self.items.remove(i).expect("position is in range");
            e.priority = tail;
            e.seq = seq;
            self.items.push_back(e);
        }
    }

    /// A new neighbor arrived (churn or PROP-O rewire): front of the queue,
    /// maximum preference, so it is probed early.
    pub fn add_front(&mut self, s: Slot) {
        let mut front = self.min_priority();
        self.push_front(&mut front, s);
    }

    /// Insert `s` one step ahead of `front`, the minimum priority the
    /// caller carries across a run of insertions.
    fn push_front(&mut self, front: &mut i64, s: Slot) {
        debug_assert!(!self.contains(s), "adding duplicate {s:?}");
        *front -= 1;
        let seq = self.bump_seq();
        self.items.push_front(Entry { slot: s, priority: *front, seq });
    }

    /// A neighbor departed (churn or PROP-O rewire).
    pub fn remove(&mut self, s: Slot) {
        if let Some(i) = self.position(s) {
            self.items.remove(i);
        }
    }

    /// A rewire in one step: drop the `lost` neighbors, then front-insert
    /// each `gained` one (distinct slots) in order — what `remove` per lost
    /// and `add_front` per gained slot do. Each lost slot is taken out where
    /// it stands; the gained ones are inserted without being looked for.
    ///
    /// Precondition: no gained slot is queued once the lost ones are out.
    /// The one caller, the PROP-O rewire (`PropSim::perform`), meets it by
    /// construction: `LogicalGraph::exchange_neighbors` refuses a gained
    /// slot that is already a neighbor, and a started node's queue holds
    /// exactly its row between events. A debug build checks it per slot.
    pub fn replace(&mut self, lost: &[Slot], gained: &[Slot]) {
        for &s in lost {
            self.remove(s);
        }
        let mut front = self.min_priority();
        for &s in gained {
            self.push_front(&mut front, s);
        }
    }

    /// Reconcile with `current`, the owner's neighbor list sorted ascending:
    /// entries no longer in it are dropped, the others keep their priority,
    /// and the neighbors not yet queued are front-inserted in ascending
    /// order. O(d) for degree `d`, through `marks` (caller-owned, so nothing
    /// is allocated once it covers the slot table): the row is stamped, one
    /// pass keeps the entries whose slot is stamped and clears each stamp
    /// it keeps, and the stamps left are the arrivals.
    pub fn resync(&mut self, current: &[Slot], marks: &mut SlotMarks) {
        let epoch = marks.open(current.last().map_or(0, |s| s.index() + 1), 1);
        for &s in current {
            marks.stamps[s.index()] = epoch;
        }
        // One `remove` per departure: `VecDeque::retain` would swap every
        // entry behind the first one dropped.
        let mut i = 0;
        while let Some(e) = self.items.get(i) {
            if marks.is_marked(e.slot, epoch) {
                marks.stamps[e.slot.index()] = 0;
                i += 1;
            } else {
                self.items.remove(i);
            }
        }
        if self.items.len() == current.len() {
            return; // nothing arrived
        }
        let mut front = self.min_priority();
        for &s in current {
            if marks.is_marked(s, epoch) {
                self.push_front(&mut front, s);
            }
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Every entry as `(slot, priority, seq)`, front to back — what the
    /// differential twins compare.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(Slot, i64, u64)> {
        self.items.iter().map(|e| (e.slot, e.priority, e.seq)).collect()
    }

    /// The representation invariant: keys strictly ascend from front to
    /// back, slots are distinct, and every seq was handed out already.
    #[cfg(test)]
    pub(crate) fn audit(&self) {
        for (a, b) in self.items.iter().zip(self.items.iter().skip(1)) {
            assert!(a.key() < b.key(), "out of probe order: {a:?} before {b:?}");
        }
        let mut slots: Vec<Slot> = self.items.iter().map(|e| e.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), self.items.len(), "a slot is queued twice");
        for e in &self.items {
            assert!(e.seq < self.next_seq, "{e:?} not below next seq {}", self.next_seq);
        }
    }
}

/// The queue as it was before it was kept in probe order, the reference
/// of `probe_order_queue_matches_the_scan_reference`: a plain vector in
/// insertion order, every operation a scan for the entry, the minimum or
/// the maximum, and `resync` a binary search of the row per entry.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
struct ScanQueue {
    items: Vec<Entry>,
    next_seq: u64,
}

#[cfg(test)]
impl ScanQueue {
    fn reinit(&mut self, neighbors: &[Slot], rng: &mut SimRng) {
        self.items.clear();
        self.items.extend(neighbors.iter().map(|&slot| Entry { slot, priority: 0, seq: 0 }));
        rng.shuffle(&mut self.items);
        for (i, e) in self.items.iter_mut().enumerate() {
            e.priority = i as i64;
            e.seq = i as u64;
        }
        self.next_seq = neighbors.len() as u64;
    }

    fn contains(&self, s: Slot) -> bool {
        self.items.iter().any(|e| e.slot == s)
    }

    fn best(&self) -> Option<Slot> {
        self.items.iter().min_by_key(|e| e.key()).map(|e| e.slot)
    }

    fn min_priority(&self) -> i64 {
        self.items.iter().map(|e| e.priority).min().unwrap_or(0)
    }

    fn max_priority(&self) -> i64 {
        self.items.iter().map(|e| e.priority).max().unwrap_or(0)
    }

    fn reward(&mut self, s: Slot) {
        if let Some(e) = self.items.iter_mut().find(|e| e.slot == s) {
            e.priority -= 1;
        }
    }

    fn demote(&mut self, s: Slot) {
        let tail = self.max_priority() + 1;
        let seq = self.bump_seq();
        if let Some(e) = self.items.iter_mut().find(|e| e.slot == s) {
            e.priority = tail;
            e.seq = seq;
        }
    }

    fn add_front(&mut self, s: Slot) {
        let mut front = self.min_priority();
        self.push_front(&mut front, s);
    }

    fn push_front(&mut self, front: &mut i64, s: Slot) {
        *front -= 1;
        let seq = self.bump_seq();
        self.items.push(Entry { slot: s, priority: *front, seq });
    }

    fn remove(&mut self, s: Slot) {
        self.items.retain(|e| e.slot != s);
    }

    fn replace(&mut self, lost: &[Slot], gained: &[Slot]) {
        let mut front = i64::MAX;
        self.items.retain(|e| {
            let keep = !lost.contains(&e.slot);
            if keep {
                front = front.min(e.priority);
            }
            keep
        });
        if self.items.is_empty() {
            front = 0;
        }
        for &s in gained {
            self.push_front(&mut front, s);
        }
    }

    fn resync(&mut self, current: &[Slot], seen: &mut Vec<bool>) {
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
            return;
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

    /// Every entry as `(slot, priority, seq)` in probe order.
    fn entries(&self) -> Vec<(Slot, i64, u64)> {
        let mut v: Vec<_> = self.items.iter().map(|e| (e.slot, e.priority, e.seq)).collect();
        v.sort_unstable_by_key(|&(_, p, q)| (p, q));
        v
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
            assert_eq!(reused.entries().first(), Some(&(Slot(100), -1, ns.len() as u64)));
            let next = a.range(0u64..u64::MAX);
            assert_eq!((b.range(0u64..u64::MAX), c.range(0u64..u64::MAX)), (next, next));
        }
    }

    /// Differential twin for the probe-order queue against the scan queue it
    /// replaced: seeded storms of every operation over the same slots, and
    /// after each one the same `best()`, the same entries in probe order
    /// (the probe-order queue's buffer order) and the same next seq, with
    /// [`NeighborQueue::audit`] holding. Every case the buffer order could
    /// get wrong is counted and must be reached: a reward of a non-front
    /// entry onto a priority another entry holds, a demote of a non-front
    /// slot (the message-level driver's) and of an absent one, a `replace`
    /// inserting one and several slots, a `resync` with departures and
    /// arrivals at once, and a `reinit` over a used buffer. A `replace`
    /// gains only slots outside the queue, its precondition. Checked
    /// against: `add_front` pushing to the back, `reward` without the
    /// reposition, and `demote` not bumping the seq for an absent slot.
    #[test]
    fn probe_order_queue_matches_the_scan_reference() {
        const CASES: u64 = 320;
        const STEPS: usize = 64;
        let mut marks = SlotMarks::default();
        let mut seen = Vec::new();
        let (mut tie, mut demote_inner, mut demote_absent) = (0, 0, 0);
        let (mut replace_one, mut replace_many) = (0, 0);
        let (mut resync_both, mut reinit_used) = (0, 0);
        for case in 0..CASES {
            let mut rng = SimRng::seed_from(0x9e_0000 + case);
            let universe = rng.range(1..40u32);
            let pool: Vec<Slot> = (0..universe + 8).map(Slot).collect();
            let row = |rng: &mut SimRng| {
                let k = rng.range(0..=universe as usize);
                let mut v = rng.sample_distinct(&pool[..universe as usize], k);
                v.sort_unstable();
                v
            };
            let (mut q, mut r) = (NeighborQueue::default(), ScanQueue::default());
            for step in 0..STEPS {
                let queued: Vec<Slot> = r.entries().iter().map(|e| e.0).collect();
                let absent: Vec<Slot> = pool.iter().copied().filter(|&s| !r.contains(s)).collect();
                let op = if step == 0 { 9 } else { rng.range(0..10u32) };
                match op {
                    0 => {
                        if let Some(s) = r.best() {
                            q.reward(s);
                            r.reward(s);
                        }
                    }
                    1 => {
                        if let Some(&s) = rng.pick(&queued) {
                            let e = r.items.iter().find(|e| e.slot == s).unwrap();
                            let onto = e.priority - 1;
                            if r.best() != Some(s)
                                && r.items.iter().any(|o| o.slot != s && o.priority == onto)
                            {
                                tie += 1;
                            }
                            q.reward(s);
                            r.reward(s);
                        }
                    }
                    2 => {
                        if let Some(s) = r.best() {
                            q.demote(s);
                            r.demote(s);
                        }
                    }
                    3 => {
                        if let Some(&s) = rng.pick(&queued) {
                            demote_inner += usize::from(r.best() != Some(s));
                            q.demote(s);
                            r.demote(s);
                        }
                    }
                    4 => {
                        if let Some(&s) = rng.pick(&absent) {
                            demote_absent += 1;
                            q.demote(s);
                            r.demote(s);
                        }
                    }
                    5 => {
                        if let Some(&s) = rng.pick(&absent) {
                            q.add_front(s);
                            r.add_front(s);
                        }
                    }
                    6 => {
                        let s = *rng.pick(&pool).unwrap();
                        q.remove(s);
                        r.remove(s);
                    }
                    7 => {
                        let k = rng.range(0..=queued.len().min(3));
                        let mut lost = rng.sample_distinct(&queued, k);
                        if rng.chance(0.3) {
                            lost.extend(rng.pick(&absent));
                        }
                        let k = rng.range(0..=absent.len().min(3));
                        let gained = rng.sample_distinct(&absent, k);
                        replace_one += usize::from(gained.len() == 1);
                        replace_many += usize::from(gained.len() > 1);
                        q.replace(&lost, &gained);
                        r.replace(&lost, &gained);
                    }
                    8 => {
                        let current = row(&mut rng);
                        let departs = queued.iter().any(|s| current.binary_search(s).is_err());
                        let arrives = current.iter().any(|s| !queued.contains(s));
                        resync_both += usize::from(departs && arrives);
                        q.resync(&current, &mut marks);
                        r.resync(&current, &mut seen);
                    }
                    _ => {
                        reinit_used += usize::from(step > 0);
                        let mut ns = row(&mut rng);
                        rng.shuffle(&mut ns);
                        let (mut a, mut b) = (rng.clone(), rng.clone());
                        q.reinit(&ns, &mut a);
                        r.reinit(&ns, &mut b);
                        let next = a.range(0u64..u64::MAX);
                        assert_eq!(b.range(0u64..u64::MAX), next, "case {case}, step {step}");
                        rng = a;
                    }
                }
                let at = format!("case {case}, step {step} (op {op})");
                q.audit();
                assert_eq!(q.best(), r.best(), "{at}");
                assert_eq!(q.entries(), r.entries(), "{at}");
                assert_eq!(q.next_seq, r.next_seq, "{at}: next seq");
            }
        }
        for (what, hits) in [
            ("reward of a non-front entry onto a tie", tie),
            ("demote of a non-front slot", demote_inner),
            ("demote of an absent slot", demote_absent),
            ("replace inserting one", replace_one),
            ("replace inserting several", replace_many),
            ("resync with departures and arrivals", resync_both),
            ("reinit over a used buffer", reinit_used),
        ] {
            assert!(hits >= 64, "{what} reached only {hits} times");
        }
    }

    #[test]
    fn marks_restart_before_they_wrap() {
        let mut marks = SlotMarks { stamps: Vec::new(), epoch: u16::MAX - 1 };
        let mut q = NeighborQueue::init(&slots(&[1, 2, 3]), &mut SimRng::seed_from(1));
        let want = q.entries();
        for _ in 0..3 {
            q.resync(&slots(&[1, 2, 3]), &mut marks);
            assert_eq!(q.entries(), want);
        }
        assert_eq!(marks.epoch, 2);
        q.resync(&slots(&[2, 3, 4]), &mut marks);
        assert!(!q.contains(Slot(1)));
        assert_eq!(q.best(), Some(Slot(4)));
        q.audit();
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
            // Some of `lost` absent and sometimes everything lost; `gained`
            // only slots outside the queue once `lost` is out (a lost one
            // among them), the precondition.
            let how_many = rng.range(0..=ns.len());
            let lost = rng.sample_distinct(&ns, how_many);
            let outside: Vec<Slot> =
                (0..24).map(Slot).filter(|s| !ns.contains(s) || lost.contains(s)).collect();
            let how_many = rng.range(0..=outside.len().min(5));
            let gained = rng.sample_distinct(&outside, how_many);
            let mut want = q.clone();
            for &s in lost.iter().chain(&[Slot(77)]) {
                want.remove(s);
            }
            for &s in &gained {
                want.add_front(s);
            }
            q.replace(&[lost.as_slice(), &[Slot(77)]].concat(), &gained);
            assert_eq!(
                q.entries(),
                want.entries(),
                "case {case}: lost {lost:?}, gained {gained:?}"
            );
        }
    }

    /// A gained slot still queued breaks `replace`'s precondition; a debug
    /// build stops at the insertion instead of queuing the slot twice.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "adding duplicate s2")]
    fn replace_refuses_a_gained_slot_still_queued() {
        let mut q = NeighborQueue::init(&slots(&[1, 2, 3]), &mut SimRng::seed_from(7));
        q.replace(&slots(&[1]), &slots(&[4, 2]));
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
