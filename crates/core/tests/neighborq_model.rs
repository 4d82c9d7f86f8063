//! Model-based test for the `neighborq` priority queue: the production
//! vector-with-priorities implementation must agree, operation for
//! operation, with a straightforward reference model implementing the
//! paper's rules literally.

use prop_core::neighborq::NeighborQueue;
use prop_engine::SimRng;
use prop_overlay::Slot;

const CASES: u64 = 256;

/// Reference model: an explicit list of (priority, arrival) entries.
#[derive(Default)]
struct Model {
    items: Vec<(i64, u64, Slot)>,
    arrivals: u64,
}

impl Model {
    fn best(&self) -> Option<Slot> {
        self.items.iter().min_by_key(|&&(p, a, _)| (p, a)).map(|&(_, _, s)| s)
    }
    fn contains(&self, s: Slot) -> bool {
        self.items.iter().any(|&(_, _, x)| x == s)
    }
    fn reward(&mut self, s: Slot) {
        if let Some(e) = self.items.iter_mut().find(|e| e.2 == s) {
            e.0 -= 1;
        }
    }
    fn demote(&mut self, s: Slot) {
        let tail = self.items.iter().map(|&(p, _, _)| p).max().unwrap_or(0) + 1;
        self.arrivals += 1;
        let a = self.arrivals;
        if let Some(e) = self.items.iter_mut().find(|e| e.2 == s) {
            e.0 = tail;
            e.1 = a;
        }
    }
    fn add_front(&mut self, s: Slot) {
        let front = self.items.iter().map(|&(p, _, _)| p).min().unwrap_or(0) - 1;
        self.arrivals += 1;
        self.items.push((front, self.arrivals, s));
    }
    fn remove(&mut self, s: Slot) {
        self.items.retain(|&(_, _, x)| x != s);
    }
}

#[test]
fn queue_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let init = rng.range(1..10usize);
        let neighbors: Vec<Slot> = (0..init as u32).map(Slot).collect();
        let mut q =
            NeighborQueue::init(&neighbors, &mut SimRng::seed_from(rng.range(0..10_000u64)));
        // Bootstrap the model with the production queue's initial order
        // (the random permutation is the production queue's prerogative;
        // everything after it must agree).
        let mut model = Model::default();
        {
            let mut probe = q.clone();
            let mut prio = 0i64;
            while let Some(s) = probe.best() {
                model.items.push((prio, prio as u64, s));
                model.arrivals = prio as u64;
                prio += 1;
                probe.remove(s);
            }
        }
        assert_eq!(q.best(), model.best(), "case {case}");

        let mut next_new = 1000u32;
        for step in 0..rng.range(1..80usize) {
            let op = rng.range(0..4u32);
            match (op, model.best()) {
                (0, Some(s)) => {
                    q.reward(s);
                    model.reward(s);
                }
                (1, Some(s)) => {
                    q.demote(s);
                    model.demote(s);
                }
                (2, _) => {
                    let s = Slot(next_new);
                    next_new += 1;
                    if !model.contains(s) {
                        q.add_front(s);
                        model.add_front(s);
                    }
                }
                (3, Some(s)) => {
                    q.remove(s);
                    model.remove(s);
                }
                _ => {}
            }
            assert_eq!(q.len(), model.items.len(), "case {case}, step {step}");
            assert_eq!(q.best(), model.best(), "case {case}: divergence at step {step} (op {op})");
        }
    }
}

/// Paper rule smoke: a fresh neighbor is always chosen before anyone else,
/// and a demoted node is always chosen last among the current population.
#[test]
fn front_and_tail_semantics() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let init = rng.range(2..10usize);
        let neighbors: Vec<Slot> = (0..init as u32).map(Slot).collect();
        let mut q =
            NeighborQueue::init(&neighbors, &mut SimRng::seed_from(rng.range(0..10_000u64)));
        let newcomer = Slot(999);
        q.add_front(newcomer);
        assert_eq!(q.best(), Some(newcomer), "case {case}");
        q.demote(newcomer);
        // Cycle through everyone else; the newcomer must come back last.
        let mut seen = Vec::new();
        for _ in 0..init {
            let s = q.best().unwrap();
            assert!(s != newcomer, "case {case}: demoted node surfaced early");
            seen.push(s);
            q.demote(s);
        }
        assert_eq!(q.best(), Some(newcomer), "case {case}");
        assert!(seen.len() == init, "case {case}");
    }
}
