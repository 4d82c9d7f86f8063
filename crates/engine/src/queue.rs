//! The pending-event set.
//!
//! [`EventQueue`] is a deterministic **hierarchical timer wheel** (a bucketed
//! calendar queue): 8 levels × 256 slots, one level per byte of the `u64`
//! millisecond clock. Scheduling and popping are amortized O(1) — the cost
//! that made the previous `BinaryHeap` calendar the drivers' wall at million
//! scale (O(log n) per op) is gone. Two details matter for reproducibility,
//! and both are preserved bit-for-bit from the heap implementation (which
//! survives in this file's test module, as the reference the seeded
//! differential tests there pop against):
//!
//! 1. **Stable ordering.** Events pop in `(time, seq)` order, where `seq` is
//!    a monotonically increasing sequence number: same-instant events pop in
//!    the order they were scheduled (FIFO). The wheel keeps this invariant
//!    structurally — buckets are FIFO lists, a cascade drains its source
//!    bucket front-to-back (so every child bucket receives a seq-increasing
//!    subsequence), and a direct placement into some bucket always carries a
//!    larger seq than anything a later cascade could add in front of it,
//!    because cascades into that bucket's window happen *before* the cursor
//!    enters the window and direct placements only after.
//! 2. **One monotonic clock.** [`EventQueue::now`] is the simulation's clock.
//!    Popping an event moves it to the event's timestamp, and a
//!    [`EventQueue::pop_until`] that finds nothing left at or before its
//!    deadline moves it to the deadline: a drained run stands exactly where
//!    it was asked to stop, so [`EventQueue::schedule_in`] counts from the
//!    instant the caller handed in, and back-to-back windows tile the time
//!    axis with no gap. Scheduling strictly before `now` is a logic error
//!    and panics in debug builds (it is clamped to `now` in release builds).
//!
//! ## Layout
//!
//! An event at absolute time `t` lives at level `l` = the index of the
//! most-significant byte in which `t` differs from the placement cursor, in
//! slot `(t >> 8l) & 0xff`. Level-0 buckets are time-homogeneous (every
//! entry shares one exact millisecond); higher-level buckets cover windows
//! of `256^l` ms. When a pop finds level 0 empty it *cascades* the
//! lowest-level first-occupied bucket: its entries re-distribute strictly
//! downward (their shared high bytes become the new sub-cursor), so each
//! event cascades at most 7 times over its whole life.
//!
//! The cursor is not the clock. It is the timestamp of the last popped
//! event and moves only when an event pops; the clock may run ahead of it
//! to a drained deadline. Moving the cursor there too would re-base
//! placements while older events still sit in buckets laid out against the
//! old cursor, and a new same-instant event could land in a lower bucket
//! than an older one and overtake it. Any `t >= now >= cursor` is a valid
//! placement against the cursor, so scheduling needs nothing else.
//!
//! Entries live in a slab (`Vec` + intrusive free list) and buckets are
//! intrusive singly-linked lists, so steady-state churn — pop an event,
//! schedule its successor — touches no allocator at all once the slab has
//! reached its high-water mark. That property is load-bearing for the
//! zero-alloc-per-trial driver guarantee (see `prop-core`'s
//! `alloc_regression` test) and holds regardless of *which* buckets are in
//! use, unlike a per-bucket `VecDeque` design where an idle bucket's first
//! touch allocates.

use crate::time::{Duration, SimTime};

const LEVELS: usize = 8;
const SLOTS: usize = 256;
const SLOT_MASK: u64 = 0xff;
const BUCKETS: usize = LEVELS * SLOTS;
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
}

/// Bucket index for time `t` relative to `cursor`: the level is the
/// most-significant differing byte, the slot is `t`'s byte at that level.
/// `t == cursor` lands at level 0 (slot = low byte).
#[inline]
fn bucket_of(cursor: u64, t: u64) -> usize {
    let diff = cursor ^ t;
    if diff == 0 {
        (t & SLOT_MASK) as usize
    } else {
        let level = (63 - diff.leading_zeros() as usize) / 8;
        let slot = ((t >> (8 * level)) & SLOT_MASK) as usize;
        level * SLOTS + slot
    }
}

struct Node<E> {
    key: Key,
    /// `Some` while pending; `None` marks a slab slot on the free list.
    event: Option<E>,
    next: u32,
}

/// A deterministic pending-event set: a hierarchical timer wheel keyed by
/// `(time, seq)`.
///
/// ```
/// use prop_engine::{EventQueue, SimTime, Duration};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime(25), "later");
/// q.schedule_at(SimTime(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime(10), "sooner")));
/// // The clock advanced; relative scheduling is now anchored at t = 10.
/// q.schedule_in(Duration::from_millis(5), "relative");
/// assert_eq!(q.pop(), Some((SimTime(15), "relative")));
/// assert_eq!(q.pop(), Some((SimTime(25), "later")));
/// ```
pub struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    /// Head of the slab free list (`NIL` when the slab is full).
    free: u32,
    head: Box<[u32; BUCKETS]>,
    tail: Box<[u32; BUCKETS]>,
    /// One bit per bucket: 4 words × 64 bits = 256 slots per level.
    occupancy: [[u64; 4]; LEVELS],
    len: usize,
    /// The public clock: the last popped timestamp or a drained deadline.
    now: SimTime,
    /// Where placements are laid out from: the last popped timestamp.
    cursor: u64,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            head: Box::new([NIL; BUCKETS]),
            tail: Box::new([NIL; BUCKETS]),
            occupancy: [[0; 4]; LEVELS],
            len: 0,
            now: SimTime::ZERO,
            cursor: 0,
            next_seq: 0,
        }
    }

    /// The current simulated instant: the later of the last popped event's
    /// timestamp and the last deadline a [`pop_until`](Self::pop_until)
    /// drained to (`t = 0` before either).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_occupied(&mut self, bucket: usize) {
        self.occupancy[bucket >> 8][(bucket & 255) >> 6] |= 1 << (bucket & 63);
    }

    #[inline]
    fn clear_occupied(&mut self, bucket: usize) {
        self.occupancy[bucket >> 8][(bucket & 255) >> 6] &= !(1 << (bucket & 63));
    }

    /// Smallest occupied slot at `level`, if any.
    #[inline]
    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, &bits) in self.occupancy[level].iter().enumerate() {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Lowest occupied (level, slot) above level 0.
    fn first_occupied_high(&self) -> Option<(usize, usize)> {
        (1..LEVELS).find_map(|l| self.first_occupied(l).map(|s| (l, s)))
    }

    fn alloc_node(&mut self, key: Key, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.key = key;
            node.event = Some(event);
            node.next = NIL;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event queue slab overflow");
            self.nodes.push(Node { key, event: Some(event), next: NIL });
            idx
        }
    }

    /// Append node `idx` at the tail of `bucket` (FIFO).
    fn link(&mut self, bucket: usize, idx: u32) {
        self.nodes[idx as usize].next = NIL;
        if self.head[bucket] == NIL {
            self.head[bucket] = idx;
            self.set_occupied(bucket);
        } else {
            let tail = self.tail[bucket];
            self.nodes[tail as usize].next = idx;
        }
        self.tail[bucket] = idx;
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error: panics in debug builds, clamps to `now` in release.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        let key = Key { time: at, seq: self.next_seq };
        self.next_seq += 1;
        let idx = self.alloc_node(key, event);
        self.link(bucket_of(self.cursor, at.0), idx);
        self.len += 1;
    }

    /// Schedule `event` a relative `delay` after `now`.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next event without popping it.
    ///
    /// O(1) when level 0 is occupied (the common steady-state case);
    /// otherwise a scan of the single lowest-window bucket, whose entries
    /// the very next `pop` cascades anyway — amortized O(1) per pop.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(slot) = self.first_occupied(0) {
            let idx = self.head[slot];
            return Some(self.nodes[idx as usize].key.time);
        }
        let (level, slot) = self.first_occupied_high().expect("non-empty queue has a bucket");
        let mut idx = self.head[level * SLOTS + slot];
        let mut min = u64::MAX;
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            min = min.min(node.key.time.0);
            idx = node.next;
        }
        Some(SimTime(min))
    }

    /// Re-distribute every entry of high-level bucket `(level, slot)` one or
    /// more levels down. All entries share their bytes at and above `level`,
    /// so re-placing them relative to their common window base sends each
    /// strictly below `level`. FIFO drain keeps each destination bucket
    /// seq-ordered.
    fn cascade(&mut self, level: usize, slot: usize) {
        debug_assert!(level > 0);
        let bucket = level * SLOTS + slot;
        let mut idx = self.head[bucket];
        debug_assert!(idx != NIL, "cascading an empty bucket");
        self.head[bucket] = NIL;
        self.tail[bucket] = NIL;
        self.clear_occupied(bucket);
        // The window base must come from the entries themselves, not from
        // the cursor: during a multi-step cascade the cursor's bytes below the
        // original level are stale.
        let shift = 8 * level;
        let base = (self.nodes[idx as usize].key.time.0 >> shift) << shift;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let t = self.nodes[idx as usize].key.time.0;
            debug_assert_eq!(t >> shift << shift, base, "bucket entries share the window");
            self.link(bucket_of(base, t), idx);
            idx = next;
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = self.first_occupied(0) {
                // Any level-0 event precedes every higher-level event, and
                // the smallest occupied slot is the earliest instant.
                let idx = self.head[slot];
                let next = self.nodes[idx as usize].next;
                let key = self.nodes[idx as usize].key;
                let event = self.nodes[idx as usize].event.take().expect("linked node is live");
                self.head[slot] = next;
                if next == NIL {
                    self.tail[slot] = NIL;
                    self.clear_occupied(slot);
                }
                self.nodes[idx as usize].next = self.free;
                self.free = idx;
                self.len -= 1;
                self.now = key.time;
                self.cursor = key.time.0;
                return Some((key.time, event));
            }
            let (level, slot) = self.first_occupied_high().expect("non-empty queue has a bucket");
            self.cascade(level, slot);
        }
    }

    /// Pop the earliest event only if it is scheduled at or before `deadline`.
    /// When none is, the clock moves to `deadline` (never back): a loop of
    /// `pop_until(t)` ends with `now() == t`, so a driver's window ends
    /// where it was asked to and the next window starts there.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    struct HeapEntry<E> {
        key: Key,
        event: E,
    }

    // Manual impls: `E` need not be Ord/Eq, ordering is entirely by `key`.
    impl<E> PartialEq for HeapEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<E> Eq for HeapEntry<E> {}
    impl<E> PartialOrd for HeapEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for HeapEntry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// The pre-wheel `BinaryHeap` calendar, kept as the **reference**: the
    /// differential tests below drive it and [`EventQueue`] through
    /// identical schedules and require identical pop traces, which is what
    /// let the drivers swap queues without re-validating a single
    /// simulation result. O(log n) per op.
    struct BinaryHeapEventQueue<E> {
        heap: BinaryHeap<Reverse<HeapEntry<E>>>,
        now: SimTime,
        next_seq: u64,
    }

    impl<E> BinaryHeapEventQueue<E> {
        fn new() -> Self {
            BinaryHeapEventQueue { heap: BinaryHeap::new(), now: SimTime::ZERO, next_seq: 0 }
        }

        fn now(&self) -> SimTime {
            self.now
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn schedule_at(&mut self, at: SimTime, event: E) {
            debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
            let at = at.max(self.now);
            let key = Key { time: at, seq: self.next_seq };
            self.next_seq += 1;
            self.heap.push(Reverse(HeapEntry { key, event }));
        }

        fn schedule_in(&mut self, delay: Duration, event: E) {
            self.schedule_at(self.now + delay, event);
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.0.key.time)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(entry) = self.heap.pop()?;
            self.now = entry.key.time;
            Some((entry.key.time, entry.event))
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
            match self.peek_time() {
                Some(t) if t <= deadline => self.pop(),
                _ => {
                    self.now = self.now.max(deadline);
                    None
                }
            }
        }
    }

    /// Schedule the same event on both queues.
    fn schedule_both(
        wheel: &mut EventQueue<u32>,
        heap: &mut BinaryHeapEventQueue<u32>,
        at: SimTime,
        event: u32,
    ) {
        wheel.schedule_at(at, event);
        heap.schedule_at(at, event);
    }

    /// The wheel pops exactly as the heap does across seeded random
    /// schedules: same (time, payload) trace, same clock, same length —
    /// same-instant bursts (the FIFO tie-break), sub-slot / one-level /
    /// cascade-forcing delays (up to ~83 hours, wheel level 3), `pop_until`
    /// deadlines, and drained deadlines followed by a relative schedule
    /// that lands beside an older pending event (the clock has moved, the
    /// placement cursor has not, and the newcomer must still pop second).
    #[test]
    fn timer_wheel_matches_heap_reference() {
        for seed in 0..256u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap: BinaryHeapEventQueue<u32> = BinaryHeapEventQueue::new();
            let mut payload = 0u32;
            for _ in 0..200 {
                let now = wheel.now().0;
                match rng.range(0..5u32) {
                    0 => {
                        let span = [256u64, 70_000, 300_000_000][rng.range(0..3usize)];
                        let at = SimTime(now + rng.range(0..span));
                        schedule_both(&mut wheel, &mut heap, at, payload);
                        payload += 1;
                    }
                    1 => {
                        let at = SimTime(now + rng.range(0u64..2_000));
                        for _ in 0..rng.range(1..20u32) {
                            schedule_both(&mut wheel, &mut heap, at, payload);
                            payload += 1;
                        }
                    }
                    2 => {
                        assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                        assert_eq!(wheel.pop(), heap.pop(), "seed {seed}");
                    }
                    3 => {
                        let deadline = SimTime(now + rng.range(0u64..500_000));
                        let popped = wheel.pop_until(deadline);
                        assert_eq!(popped, heap.pop_until(deadline), "seed {seed}");
                        if popped.is_none() {
                            assert_eq!(wheel.now(), deadline, "seed {seed}: drained clock");
                        }
                    }
                    _ => {
                        let Some(next) = heap.peek_time() else { continue };
                        if next.0 == now {
                            continue;
                        }
                        let deadline = SimTime(next.0 - 1);
                        assert_eq!(wheel.pop_until(deadline), None, "seed {seed}");
                        assert_eq!(heap.pop_until(deadline), None, "seed {seed}");
                        assert_eq!(wheel.now(), deadline, "seed {seed}: drained clock");
                        wheel.schedule_in(Duration(1), payload);
                        heap.schedule_in(Duration(1), payload);
                        payload += 1;
                    }
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed}");
                assert_eq!(wheel.now(), heap.now(), "seed {seed}");
            }
            // Drain both to the end: every remaining event pops identically.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h, "seed {seed}");
                if w.is_none() {
                    break;
                }
            }
        }
    }

    /// Schedule-during-pop: a driver-shaped run (every pop reschedules the
    /// popped peer with a backoff-lattice delay, occasionally with a
    /// same-instant companion) pops identically on both queues. Every
    /// seventh step is a whole `run_until` window drained to its deadline,
    /// after which the clock stands at the deadline and a joiner's first
    /// tick is scheduled relative to it, as `PropSim::handle_join` does.
    #[test]
    fn driver_shaped_run_is_identical_on_both_queues() {
        // The paper's probe intervals: 2^k minutes, k ≤ 5.
        let lattice: Vec<u64> = (0..6).map(|k| 60_000u64 << k).collect();
        for seed in 0..256u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap: BinaryHeapEventQueue<u32> = BinaryHeapEventQueue::new();
            // Initial offsets mimic the driver's staggered init timers.
            for p in 0..rng.range(2..40u32) {
                let at = SimTime(rng.range(0u64..60_000));
                schedule_both(&mut wheel, &mut heap, at, p);
            }
            let mut joiner = 2000u32;
            for step in 0..400 {
                if step % 7 == 3 {
                    let deadline = SimTime(wheel.now().0 + rng.range(0u64..120_000));
                    loop {
                        let (w, h) = (wheel.pop_until(deadline), heap.pop_until(deadline));
                        assert_eq!(w, h, "seed {seed}");
                        let Some((t, p)) = w else { break };
                        let at = t + Duration(*rng.pick(&lattice).unwrap());
                        schedule_both(&mut wheel, &mut heap, at, p);
                    }
                    assert_eq!(wheel.now(), deadline, "seed {seed}: drained clock");
                    assert_eq!(heap.now(), deadline, "seed {seed}: drained clock");
                    if rng.chance(0.5) {
                        let offset = Duration(rng.range(0u64..60_000));
                        wheel.schedule_in(offset, joiner);
                        heap.schedule_in(offset, joiner);
                        joiner += 1;
                    }
                    continue;
                }
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h, "seed {seed}");
                let Some((t, p)) = w else { break };
                let at = t + Duration(*rng.pick(&lattice).unwrap());
                schedule_both(&mut wheel, &mut heap, at, p);
                if rng.chance(0.1) {
                    // Same-instant companion event (extra probe after churn).
                    schedule_both(&mut wheel, &mut heap, at, p + 1000);
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed}");
                assert_eq!(wheel.now(), heap.now(), "seed {seed}");
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), 1u8);
        q.pop();
        q.schedule_in(Duration(50), 2u8);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime(150), 2));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "early");
        q.schedule_at(SimTime(100), "late");
        assert_eq!(q.pop_until(SimTime(50)).map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop_until(SimTime(50)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(SimTime(100)).map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn a_drained_deadline_is_the_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "early");
        q.schedule_at(SimTime(500), "late");
        while q.pop_until(SimTime(100)).is_some() {}
        assert_eq!(q.now(), SimTime(100), "a drained run stands at its deadline");
        q.schedule_in(Duration(20), "relative");
        assert_eq!(q.pop(), Some((SimTime(120), "relative")));
        // An earlier deadline never moves the clock back.
        assert_eq!(q.pop_until(SimTime(50)), None);
        assert_eq!(q.now(), SimTime(120));
        assert_eq!(q.pop(), Some((SimTime(500), "late")));
    }

    #[test]
    fn interleaved_scheduling_stays_stable() {
        // Events scheduled from within the run loop keep global (time, seq)
        // order, mimicking peers rescheduling their own timers.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), 0u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 5 {
                q.schedule_at(t + Duration(1), e + 1);
                q.schedule_at(t + Duration(1), e + 100);
            }
        }
        assert_eq!(seen, vec![0, 1, 100, 2, 101, 3, 102, 4, 103, 5, 104]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn far_events_cascade_correctly() {
        // Delays spanning several wheel levels still pop in exact order.
        let mut q = EventQueue::new();
        let times = [
            3u64,
            255,
            256,
            300_000,        // level 2 from t = 0
            70_000_000,     // level 3
            20_000_000_000, // level 4
            u64::MAX / 2,   // level 7
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop() {
            popped.push((t.0, e));
        }
        let expected: Vec<_> = times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn slab_is_reused_after_pops() {
        // Steady-state churn keeps the slab at its high-water mark instead
        // of growing: the free list recycles popped nodes.
        let mut q = EventQueue::new();
        for i in 0..16u64 {
            q.schedule_at(SimTime(i), i);
        }
        let high_water = q.nodes.len();
        for round in 0..100u64 {
            let (t, _) = q.pop().unwrap();
            q.schedule_at(t + Duration(16 + round % 7), round);
            assert_eq!(q.nodes.len(), high_water, "slab grew during steady churn");
        }
        assert_eq!(q.len(), 16);
    }
}
