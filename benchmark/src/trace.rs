//! Spans at the harness → layer boundary.
//!
//! Every call the harness makes into a kernel crate goes through
//! [`Tracer::span`], which times it and charges the time to a [`Kind`] — a
//! `(layer, name)` pair where the layer is the callee's crate. The per-kind
//! totals are always kept (the end-to-end metrics need the time inside
//! `run_until` and inside the measurement calls). Only a traced run also
//! *records* each span — `{id, parent, kind, start_ns, end_ns}` in memory,
//! written out as JSON lines when the run ends — and derives self time as a
//! span's duration minus the part of it its children cover.

use crate::refclock::{Lap, RefClock};
use std::io::Write;
use std::time::Instant;

/// Where a span's time is charged. The layer is the crate the call enters;
/// `harness` is the benchmark's own code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    // Phases of a pass: everything else nests under one of these.
    Setup,
    Run,
    // netsim
    Topo,
    OracleBuild,
    WarmRows,
    // overlay
    OverlayBuild,
    ChurnApply,
    Connectivity,
    // workloads / faults
    TrafficCompile,
    PairGen,
    FaultCompile,
    // core
    SimNew,
    Driver,
    ChurnHandle,
    // metrics
    LookupLatency,
    PathStretch,
    LinkStretch,
    // harness
    Glue,
    Reference,
    Check,
}

/// Number of kinds: arrays indexed by `kind as usize` have this length.
pub const KIND_COUNT: usize = Kind::Check as usize + 1;

impl Kind {
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Setup | Kind::Run | Kind::Glue | Kind::Reference | Kind::Check => "harness",
            Kind::Topo | Kind::OracleBuild | Kind::WarmRows => "netsim",
            Kind::OverlayBuild | Kind::ChurnApply | Kind::Connectivity => "overlay",
            Kind::TrafficCompile | Kind::PairGen => "workloads",
            Kind::FaultCompile => "faults",
            Kind::SimNew | Kind::Driver | Kind::ChurnHandle => "core",
            Kind::LookupLatency | Kind::PathStretch | Kind::LinkStretch => "metrics",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Run => "run",
            Kind::Topo => "generate",
            Kind::OracleBuild => "oracle_build",
            Kind::WarmRows => "warm_rows",
            Kind::OverlayBuild => "build",
            Kind::ChurnApply => "join_leave",
            Kind::Connectivity => "is_connected",
            Kind::TrafficCompile => "compile",
            Kind::PairGen => "uniform_pairs",
            Kind::FaultCompile => "compile",
            Kind::SimNew => "sim_new",
            Kind::Driver => "run_until",
            Kind::ChurnHandle => "handle_join_leave",
            Kind::LookupLatency => "par_avg_lookup_latency",
            Kind::PathStretch => "par_path_stretch",
            Kind::LinkStretch => "link_stretch",
            Kind::Glue => "glue",
            Kind::Reference => "reference_kernel",
            Kind::Check => "check",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Inclusive time and allocator entries of one [`Kind`]. The
/// allocation count stays 0 unless the binary installed
/// `prop_engine::CountingAllocator` (the traced one does).
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub ns: u64,
    pub allocs: u64,
}

/// One kind's recorded spans: inclusive time, self time, count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    pub incl_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

impl Stat {
    pub fn incl_s(&self) -> f64 {
        self.incl_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Ids of the open recorded spans, innermost last.
    open: Vec<u32>,
    totals: [Total; KIND_COUNT],
    clock: RefClock,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open {
    kind: Kind,
    start: Instant,
    allocs: u64,
    /// Index into `spans` when recording.
    slot: Option<usize>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
            totals: [Total::default(); KIND_COUNT],
            clock: RefClock::default(),
        }
    }

    /// Start the reference clock: see [`RefClock::start`]. The kernel's own
    /// time is a span of its own, and outside what the clock measures.
    pub fn clock_start(&mut self) {
        let open = self.begin(Kind::Reference);
        self.clock.start();
        self.end(open);
    }

    /// A point where the clock may take a reading: see [`RefClock::tick`].
    #[inline]
    pub fn clock_tick(&mut self) {
        if self.clock.due() {
            let open = self.begin(Kind::Reference);
            self.clock.tick();
            self.end(open);
        }
    }

    /// End a phase: see [`RefClock::split`].
    pub fn clock_split(&mut self) -> Lap {
        let open = self.begin(Kind::Reference);
        let lap = self.clock.split();
        self.end(open);
        lap
    }

    /// Every reading of the reference kernel so far, in milliseconds.
    pub fn reference_readings(&self) -> &[f64] {
        self.clock.readings()
    }

    /// Switch span recording on or off between passes, dropping the spans
    /// recorded so far; totals are kept either way.
    pub fn set_recording(&mut self, record: bool) {
        assert!(self.open.is_empty(), "no span may be open between passes");
        self.record = record;
        self.spans.clear();
    }

    #[inline]
    pub fn begin(&mut self, kind: Kind) -> Open {
        let start = Instant::now();
        let slot = self.record.then(|| {
            let id = self.spans.len() as u32 + 1;
            let parent = self.open.last().copied().unwrap_or(0);
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { id, parent, kind, start_ns, end_ns: start_ns });
            self.open.push(id);
            id as usize - 1
        });
        Open { kind, start, allocs: prop_engine::allocation_count(), slot }
    }

    /// Close `open`; returns its duration in seconds.
    #[inline]
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        let ns = now.duration_since(open.start).as_nanos() as u64;
        let t = &mut self.totals[open.kind as usize];
        t.ns += ns;
        t.allocs += prop_engine::allocation_count() - open.allocs;
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(slot as u32 + 1), "spans close innermost first");
        }
        ns as f64 * 1e-9
    }

    /// Time one call into a layer.
    #[inline]
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let open = self.begin(kind);
        let out = f();
        self.end(open);
        out
    }

    pub fn total(&self, kind: Kind) -> Total {
        self.totals[kind as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per kind over the recorded spans: inclusive time, and self time — a
    /// span's duration minus the part its child spans cover (children never
    /// overlap: one thread). The reference kernel's readings are nobody's
    /// work: inclusive time leaves out those taken inside the span.
    pub fn stats(&self) -> [Stat; KIND_COUNT] {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        let mut reference_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            let ns = s.end_ns - s.start_ns;
            child_ns[s.parent as usize] += ns;
            if s.kind == Kind::Reference {
                let mut up = s.parent as usize;
                while up != 0 {
                    reference_ns[up] += ns;
                    up = self.spans[up - 1].parent as usize;
                }
            }
        }
        let mut out = [Stat::default(); KIND_COUNT];
        for s in &self.spans {
            let t = &mut out[s.kind as usize];
            let ns = s.end_ns - s.start_ns;
            t.incl_ns += ns - reference_ns[s.id as usize];
            t.self_ns += ns.saturating_sub(child_ns[s.id as usize]);
            t.calls += 1;
        }
        out
    }

    /// One JSON object per recorded span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                workload,
                s.kind.layer(),
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin(Kind::Run);
        tr.span(Kind::Driver, || std::thread::sleep(std::time::Duration::from_millis(5)));
        tr.span(Kind::Glue, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        let stats = tr.stats();
        let run = spans[0].end_ns - spans[0].start_ns;
        let kids = (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(stats[Kind::Run as usize].incl_ns, run);
        assert_eq!(stats[Kind::Run as usize].self_ns, run - kids);
        assert_eq!(stats[Kind::Driver as usize].self_ns, stats[Kind::Driver as usize].incl_ns);
        assert_eq!(tr.total(Kind::Glue).ns, stats[Kind::Glue as usize].incl_ns);
    }

    #[test]
    fn reference_readings_are_left_out_of_inclusive_time() {
        let mut tr = Tracer::new(true);
        tr.clock_start();
        let outer = tr.begin(Kind::Run);
        let inner = tr.begin(Kind::LinkStretch);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let lap = tr.clock_split();
        tr.end(inner);
        tr.end(outer);
        let dur = |k: usize| tr.spans()[k].end_ns - tr.spans()[k].start_ns;
        // Spans: the start's reading, run, link_stretch, the split's reading.
        let stats = tr.stats();
        assert_eq!(stats[Kind::Reference as usize].calls, 2);
        assert_eq!(stats[Kind::LinkStretch as usize].incl_ns, dur(2) - dur(3));
        assert_eq!(stats[Kind::Run as usize].incl_ns, dur(1) - dur(3));
        assert_eq!(stats[Kind::Run as usize].self_ns, dur(1) - dur(2));
        assert!(lap.raw_s >= 0.002 && lap.raw_s * 1e9 <= dur(2) as f64);
    }
}
