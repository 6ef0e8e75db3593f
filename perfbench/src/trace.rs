//! In-memory spans and counters for the traced run.
//!
//! A span wraps one call into a layer's public function: it records the
//! layer name, start, end, the enclosing span on the same thread, and the
//! thread. Counters record exact quantities at the same boundaries. Both
//! stay in memory while the workload runs and are written out once, at
//! exit ([`write_jsonl`]). With tracing off, [`span`] and [`counter`] cost
//! one relaxed atomic load and record nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<Vec<Counter>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One closed span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One exact quantity recorded at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub name: String,
    pub thread: u32,
    pub value: f64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it closes when dropped.
pub struct SpanGuard(Option<(u32, Option<u32>, &'static str, u64)>);

/// Opens a span named after the layer call it wraps.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    SpanGuard(Some((id, parent, name, now_ns())))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.0.take() else { return };
        let end_ns = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let thread = THREAD.with(|t| *t);
        let span = Span { id, parent, name, thread, start_ns, end_ns };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Records a counter value (no-op with tracing off).
pub fn counter(name: impl Into<String>, value: f64) {
    if !enabled() {
        return;
    }
    let thread = THREAD.with(|t| *t);
    let name = name.into();
    COUNTERS.lock().expect("counter store poisoned").push(Counter { name, thread, value });
}

/// Takes every recorded span and counter out of the store.
pub fn take() -> (Vec<Span>, Vec<Counter>) {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("counter store poisoned"));
    (spans, counters)
}

/// A span's self time: its duration minus the part its child spans cover.
/// Children nest on their parent's thread, so their durations never
/// overlap one another.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut covered: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| (s.id, s.duration_ns().saturating_sub(covered.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Durations (ns) of every span with this name, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Total self time (ns) of every span with this name.
pub fn self_total(spans: &[Span], selfs: &HashMap<u32, u64>, name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id] as f64).sum()
}

/// Sum of every counter value with this name.
pub fn counter_sum(counters: &[Counter], name: &str) -> f64 {
    counters.iter().filter(|c| c.name == name).fold(0.0, |acc, c| acc + c.value)
}

/// Every value of the counter with this name, in record order.
pub fn counter_values(counters: &[Counter], name: &str) -> Vec<f64> {
    counters.iter().filter(|c| c.name == name).map(|c| c.value).collect()
}

/// Writes spans then counters, one JSON object per line.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    counters: &[Counter],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    for c in counters {
        writeln!(
            out,
            "{{\"counter\":\"{}\",\"thread\":{},\"value\":{}}}",
            c.name, c.thread, c.value
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", thread: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,60).
        let spans = [
            s(0, None, 0, 100),
            s(1, Some(0), 10, 40),
            s(2, Some(1), 15, 25),
            s(3, Some(0), 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 100 - 30 - 10);
        assert_eq!(selfs[&1], 30 - 10);
        assert_eq!(selfs[&2], 10);
        assert_eq!(selfs[&3], 10);
        // Self times of a tree add up to its root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }
}
