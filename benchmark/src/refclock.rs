//! Host time in reference-speed seconds.
//!
//! The machines this benchmark runs on are a few virtual cores of a shared
//! host, and such a core has speeds: the same pass takes 1.0x, 1.2x or 1.45x
//! as long depending on what the host runs beside it, in phases that last
//! from a second to minutes — longer than any run the contract allows, so no
//! statistic over one run's passes can remove them (the fastest pass of a
//! 20 s run spread 25-31% over ten runs of the same code). What does is
//! measuring the core's speed where the work is measured: a fixed piece of
//! work, the *reference kernel*, is timed at every boundary of a measured
//! interval, and the interval's duration is scaled by how much slower than
//! [`NOMINAL_MS`] the kernel ran around it.
//!
//! The result is the time the interval would have taken on a core that runs
//! the reference kernel in exactly [`NOMINAL_MS`] — the unit of every
//! end-to-end time this benchmark reports. On the undisturbed core of the
//! machine the benchmark was defined on that is wall-clock time. Both sides
//! of a comparison are scaled by the same kernel, which lives here and is
//! never part of a change that claims a gain, so ratios between them are
//! those of the raw times.
//!
//! The kernel is shaped like the code it stands in for — Dijkstra over a
//! small graph with a binary heap, then random reads of a table while
//! breadth-first flooding it — and sized like it, to live in the second-level
//! cache. Measured against a neighbour that alternates computing and
//! streaming through memory, a slow phase slows the kernel crates' run phases
//! 1.1-1.3x as much as the kernel (in logarithms) and their set-up phases
//! 0.4-0.9x as much. That difference stays in the number as noise: the
//! scaled median of a run spreads about half as wide as the raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// What the reference kernel takes on the undisturbed core of the machine
/// the benchmark was defined on. It fixes the unit, nothing else: a machine
/// twice as fast reports the same reference-speed seconds for the same code.
pub const NOMINAL_MS: f64 = 0.47;

const NODES: usize = 768;
const DEGREE: usize = 4;
const SOURCES: usize = 6;
/// Table entries per node: 192 KiB in all, so the kernel lives in the
/// second-level cache as the kernel crates' inner loops mostly do.
const TABLE_ROW: usize = 64;
/// Executions per reading: about 5 ms, long enough to average over what
/// disturbs a core for less than a millisecond.
const REPS: usize = 10;
/// The longest a measured interval runs without a reading, wherever the
/// workload offers a point to take one.
const TICK_EVERY: Duration = Duration::from_millis(60);

/// The fixed input of the reference kernel.
struct Work {
    /// `DEGREE` out-edges per node: `(target, weight)`.
    edges: Vec<(u32, u32)>,
    /// A latency table read at random while flooding.
    table: Vec<u32>,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    queue: Vec<u32>,
    seen: Vec<u32>,
    stamp: u32,
}

impl Work {
    fn new() -> Self {
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut edges = Vec::with_capacity(NODES * DEGREE);
        for u in 0..NODES {
            // A ring edge keeps the graph connected; the rest are random.
            edges.push((((u + 1) % NODES) as u32, 1 + (next() % 50) as u32));
            for _ in 1..DEGREE {
                edges.push(((next() % NODES as u64) as u32, 1 + (next() % 50) as u32));
            }
        }
        let table = (0..NODES * TABLE_ROW).map(|_| (next() % 1000) as u32).collect();
        Work {
            edges,
            table,
            dist: vec![0; NODES],
            heap: BinaryHeap::new(),
            queue: Vec::with_capacity(NODES),
            seen: vec![0; NODES],
            stamp: 0,
        }
    }

    /// Shortest paths from `src`, then a flood from it that sums table
    /// entries along every edge it crosses.
    fn from_source(&mut self, src: u32) -> u64 {
        self.dist.fill(u32::MAX);
        self.dist[src as usize] = 0;
        self.heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.edges[u as usize * DEGREE..(u as usize + 1) * DEGREE] {
                let nd = d + w;
                if nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd;
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        self.stamp += 1;
        self.queue.clear();
        self.queue.push(src);
        self.seen[src as usize] = self.stamp;
        let mut sum = 0u64;
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            for &(v, _) in &self.edges[u * DEGREE..(u + 1) * DEGREE] {
                let at = u * TABLE_ROW + self.dist[v as usize] as usize % TABLE_ROW;
                sum += self.table[at] as u64;
                if self.seen[v as usize] != self.stamp {
                    self.seen[v as usize] = self.stamp;
                    self.queue.push(v);
                }
            }
        }
        sum + self.dist[NODES / 2] as u64
    }

    fn run(&mut self) -> u64 {
        (0..SOURCES).map(|k| self.from_source((k * NODES / SOURCES) as u32)).sum()
    }
}

/// A measured interval, raw and at reference speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub raw_s: f64,
    pub ref_s: f64,
}

impl AddAssign for Lap {
    fn add_assign(&mut self, other: Lap) {
        self.raw_s += other.raw_s;
        self.ref_s += other.ref_s;
    }
}

impl Lap {
    /// `raw` seconds spent inside this interval, at reference speed.
    pub fn scale(&self, raw: f64) -> f64 {
        if self.raw_s > 0.0 {
            raw * self.ref_s / self.raw_s
        } else {
            raw
        }
    }
}

pub struct RefClock {
    work: Work,
    /// Result of the first execution: every later one must repeat it.
    expected: u64,
    /// When the previous reading ended, and what it read.
    last: (Instant, f64),
    /// Intervals closed since the last `split`.
    acc: Lap,
    readings: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        let mut work = Work::new();
        // Twice untimed: page the input in and let the buffers grow.
        work.run();
        let expected = work.run();
        RefClock {
            work,
            expected,
            last: (Instant::now(), NOMINAL_MS),
            acc: Lap::default(),
            readings: Vec::new(),
        }
    }
}

impl RefClock {
    /// Time the kernel: the mean of `REPS` executions, in milliseconds. A
    /// mean, because what interrupts the kernel interrupts the measured work
    /// as well.
    fn read(&mut self) -> f64 {
        // Once untimed, to bring the kernel's input back into the cache: the
        // reading must not depend on how much of it the measured code evicted.
        std::hint::black_box(self.work.run());
        let t = Instant::now();
        for _ in 0..REPS {
            let out = std::hint::black_box(self.work.run());
            assert_eq!(out, self.expected, "the reference kernel is deterministic");
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / REPS as f64;
        self.readings.push(ms);
        ms
    }

    /// Close the interval since the previous reading, scaled by the mean of
    /// the readings at its two ends; neither reading is part of it.
    fn close(&mut self) {
        let raw_s = self.last.0.elapsed().as_secs_f64();
        let before = self.last.1;
        let after = self.read();
        self.acc += Lap { raw_s, ref_s: raw_s * NOMINAL_MS / ((before + after) / 2.0) };
        self.last = (Instant::now(), after);
    }

    /// Start measuring here: what came before is dropped.
    pub fn start(&mut self) {
        let ms = self.read();
        self.last = (Instant::now(), ms);
        self.acc = Lap::default();
    }

    /// A point where the work can be interrupted for a reading: takes one if
    /// the last is older than [`TICK_EVERY`], so that a long phase is scaled
    /// piece by piece, by the speed the core had at the time.
    #[inline]
    pub fn tick(&mut self) {
        if self.due() {
            self.close();
        }
    }

    #[inline]
    pub fn due(&self) -> bool {
        self.last.0.elapsed() >= TICK_EVERY
    }

    /// End a phase: everything measured since `start` or the previous
    /// `split`. The next phase starts here.
    pub fn split(&mut self) -> Lap {
        self.close();
        std::mem::take(&mut self.acc)
    }

    /// Every reading so far, in milliseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_is_scaled_by_the_readings_around_it() {
        let mut clock = RefClock::default();
        clock.start();
        std::thread::sleep(Duration::from_millis(20));
        clock.tick(); // not due yet
        assert_eq!(clock.readings().len(), 1);
        let lap = clock.split();
        assert!(lap.raw_s >= 0.020);
        let r = clock.readings();
        let want = lap.raw_s * NOMINAL_MS / ((r[0] + r[1]) / 2.0);
        assert!((lap.ref_s - want).abs() < 1e-12);
        assert!((lap.scale(lap.raw_s / 2.0) - lap.ref_s / 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_long_phase_is_read_piece_by_piece() {
        let mut clock = RefClock::default();
        clock.start();
        for _ in 0..3 {
            std::thread::sleep(TICK_EVERY);
            clock.tick();
        }
        let lap = clock.split();
        assert_eq!(clock.readings().len(), 5);
        assert!(lap.raw_s >= 3.0 * TICK_EVERY.as_secs_f64());
        // The next phase starts empty.
        assert!(clock.split().raw_s < 0.01);
    }
}
