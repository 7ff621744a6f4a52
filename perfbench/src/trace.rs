//! In-memory spans recorded around calls into the layers' public functions.
//!
//! A span has a name (`<layer>.<what>`), a start and end in seconds since
//! the tracer was made, a parent, and the thread that recorded it. Spans
//! opened by the driving thread nest through a stack; spans recorded on pool
//! workers (zoo transforms, checksum verification) take the innermost open
//! span as their parent. Nothing is recorded while recording is off, so the
//! same workload code runs traced and untraced.

use snoopy_embeddings::Transformation;
use snoopy_linalg::{DatasetView, Matrix};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<what>`; roots are `op.<kind>` or `setup`.
    pub name: String,
    /// Seconds since the tracer was made.
    pub start: f64,
    /// Seconds since the tracer was made (`NaN` while open).
    pub end: f64,
    /// Small per-process id of the recording thread.
    pub thread: u64,
    /// Runs beside its siblings instead of inside the parent's critical path
    /// (its time is reported but not counted towards coverage).
    pub concurrent: bool,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

/// The span recorder shared by the harness and the timing wrappers.
pub struct Tracer {
    origin: Instant,
    recording: AtomicBool,
    state: Mutex<State>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            state: Mutex::default(),
        })
    }

    /// Turns recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Whether spans and counters are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Runs `f` with recording off (the benchmark's own output checks),
    /// then restores the previous setting.
    pub fn untraced<R>(&self, f: impl FnOnce() -> R) -> R {
        let was = self.recording.swap(false, Ordering::SeqCst);
        let out = f();
        self.set_recording(was);
        out
    }

    /// Seconds since the tracer was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned: a span push panicked")
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's index (`None` while not recording). The span closes even if
    /// `f` unwinds.
    pub fn span_id<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.recording() {
            return (f(), None);
        }
        struct Close<'t>(&'t Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = self.0.now();
                if let Ok(mut s) = self.0.state.lock() {
                    s.spans[self.1].end = end;
                    s.open.retain(|&i| i != self.1);
                }
            }
        }
        let id = {
            let start = self.now();
            let mut s = self.state();
            let id = s.spans.len();
            let parent = s.open.last().copied();
            s.spans.push(Span {
                parent,
                name: name.to_string(),
                start,
                end: f64::NAN,
                thread: thread_tag(),
                concurrent: false,
            });
            s.open.push(id);
            id
        };
        let close = Close(self, id);
        let out = f();
        drop(close);
        (out, Some(id))
    }

    /// [`Tracer::span_id`] without the index.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_id(name, f).0
    }

    /// Records a finished span under the innermost open span.
    pub fn leaf(&self, name: &str, start: f64, end: f64, concurrent: bool) {
        if !self.recording() {
            return;
        }
        let mut s = self.state();
        let parent = s.open.last().copied();
        s.spans.push(Span { parent, name: name.to_string(), start, end, thread: thread_tag(), concurrent });
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&self, name: &str, value: f64) {
        if self.recording() {
            *self.state().counters.entry(name.to_string()).or_default() += value;
        }
    }

    /// Splits a closed span into consecutive children at timestamps the
    /// program reported (progress events), and moves its existing children
    /// under the new piece that holds their midpoint.
    pub fn split(&self, parent: Option<usize>, pieces: &[(&str, f64, f64)]) {
        let Some(parent) = parent else { return };
        let mut s = self.state();
        let first_new = s.spans.len();
        let thread = s.spans[parent].thread;
        for &(name, start, end) in pieces {
            s.spans.push(Span {
                parent: Some(parent),
                name: name.to_string(),
                start,
                end,
                thread,
                concurrent: false,
            });
        }
        // Children were recorded after their parent; the pieces are in
        // time order, so the one holding a midpoint is found by bisection.
        for i in parent + 1..first_new {
            if s.spans[i].parent != Some(parent) || s.spans[i].concurrent {
                continue;
            }
            let mid = 0.5 * (s.spans[i].start + s.spans[i].end);
            let k = first_new + pieces.partition_point(|piece| piece.2 < mid);
            if k < s.spans.len() && s.spans[k].start <= mid {
                s.spans[i].parent = Some(k);
            }
        }
    }

    /// Self time per span name, coverage and counters of everything
    /// recorded so far.
    pub fn profile(&self) -> Profile {
        let s = self.state();
        profile_of(&s.spans, &s.counters)
    }

    /// Writes every span as a tab-separated table.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let s = self.state();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tthread\tstart_s\tend_s\tconcurrent")?;
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\t{}",
                sp.name, sp.thread, sp.start, sp.end, sp.concurrent
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Aggregated spans: self seconds per span name, split by whether the span
/// sits under an operation (`op.*` root) or under set-up (`setup` root).
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Self seconds per name, under operation roots.
    pub op_self: BTreeMap<String, f64>,
    /// Self seconds per `parent/name` pair, under operation roots.
    pub op_self_under: BTreeMap<String, f64>,
    /// Self seconds per name, under set-up roots.
    pub setup_self: BTreeMap<String, f64>,
    /// Summed duration of the operation roots.
    pub op_wall: f64,
    /// The part of `op_wall` inside non-concurrent layer spans.
    pub covered: f64,
    /// Counters added while recording.
    pub counters: BTreeMap<String, f64>,
}

impl Profile {
    /// Summed self seconds of every operation span whose name starts with
    /// `prefix`.
    pub fn op_prefix(&self, prefix: &str) -> f64 {
        self.op_self.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Self seconds of operation spans named `name` (0 when none).
    pub fn op(&self, name: &str) -> f64 {
        self.op_self.get(name).copied().unwrap_or(0.0)
    }

    /// Counter value (0 when never added).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// A span's self time is its duration minus the union of its children's
/// intervals. Siblings of one name that are all leaves (parallel zoo
/// transforms on pool workers) count as the union of their intervals, so
/// that the per-name totals under one parent add up to its wall time.
fn profile_of(spans: &[Span], counters: &BTreeMap<String, f64>) -> Profile {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, sp) in spans.iter().enumerate() {
        if let Some(p) = sp.parent {
            children[p].push(i);
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let children_union = |i: usize| {
        let sp = &spans[i];
        let iv =
            children[i].iter().filter(|&&c| !spans[c].concurrent).map(|&c| (spans[c].start, spans[c].end));
        union_len(iv.collect(), sp.start, sp.end)
    };

    let mut profile = Profile { counters: counters.clone(), ..Profile::default() };
    for (p, parent) in spans.iter().enumerate() {
        if parent.end.is_nan() {
            continue;
        }
        if parent.parent.is_none() && parent.name.starts_with("op.") {
            profile.op_wall += parent.duration();
        }
        let root = &spans[root_of(p)].name;
        let on_op = root.starts_with("op.");
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &c in &children[p] {
            groups.entry(spans[c].name.as_str()).or_default().push(c);
        }
        for (name, group) in groups {
            let self_time = |c: usize| spans[c].duration() - children_union(c);
            let parallel_leaves =
                group.len() > 1 && group.iter().all(|&c| children[c].is_empty() && !spans[c].concurrent);
            // `serial` leaves out spans that run beside the parent's
            // critical path.
            let (time, serial) = if parallel_leaves {
                let union = union_len(
                    group.iter().map(|&c| (spans[c].start, spans[c].end)).collect(),
                    parent.start,
                    parent.end,
                );
                (union, union)
            } else {
                let serial = group.iter().filter(|&&c| !spans[c].concurrent).map(|&c| self_time(c)).sum();
                (group.iter().map(|&c| self_time(c)).sum(), serial)
            };
            let target = if on_op { &mut profile.op_self } else { &mut profile.setup_self };
            *target.entry(name.to_string()).or_default() += time;
            if on_op {
                *profile.op_self_under.entry(format!("{}/{name}", parent.name)).or_default() += time;
                profile.covered += serial;
            }
        }
    }
    profile
}

/// A zoo member that records an `embeddings.transform` span and its row
/// count around every call, and otherwise forwards to the member it wraps.
pub struct Timed {
    inner: Box<dyn Transformation>,
    tracer: Arc<Tracer>,
}

/// Wraps every member of `zoo` in [`Timed`].
pub fn wrap_zoo(zoo: Vec<Box<dyn Transformation>>, tracer: &Arc<Tracer>) -> Vec<Box<dyn Transformation>> {
    zoo.into_iter()
        .map(|inner| Box::new(Timed { inner, tracer: Arc::clone(tracer) }) as Box<dyn Transformation>)
        .collect()
}

impl Transformation for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn cost_per_sample(&self) -> f64 {
        self.inner.cost_per_sample()
    }

    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        if !self.tracer.recording() {
            return self.inner.transform(x);
        }
        let start = self.tracer.now();
        let out = self.inner.transform(x);
        self.tracer.leaf("embeddings.transform", start, self.tracer.now(), false);
        self.tracer.add("embeddings.transform_rows", x.rows() as f64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &str, start: f64, end: f64) -> Span {
        Span { parent, name: name.to_string(), start, end, thread: 0, concurrent: false }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0), 4.0);
        assert_eq!(union_len(vec![(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
        assert_eq!(union_len(vec![], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, "op.study", 0.0, 10.0),
            span(Some(0), "core.study", 1.0, 9.0),
            // Two parallel transforms: 2..5 and 4..6 cover 4 s of wall.
            span(Some(1), "embeddings.transform", 2.0, 5.0),
            span(Some(1), "embeddings.transform", 4.0, 6.0),
        ];
        let p = profile_of(&spans, &BTreeMap::new());
        assert_eq!(p.op_self["core.study"], 4.0);
        assert_eq!(p.op_self["embeddings.transform"], 4.0);
        assert_eq!(p.op_wall, 10.0);
        assert_eq!(p.covered, 8.0);
        assert_eq!(p.op_prefix("core."), 4.0);
    }

    #[test]
    fn concurrent_spans_are_reported_but_not_covered() {
        let mut verify = span(Some(0), "data.verify", 0.0, 3.0);
        verify.concurrent = true;
        let spans =
            vec![span(None, "op.oocore", 0.0, 4.0), span(Some(0), "knn.shard_scan", 0.0, 4.0), verify];
        let p = profile_of(&spans, &BTreeMap::new());
        assert_eq!(p.op_self["data.verify"], 3.0);
        assert_eq!(p.op_self["knn.shard_scan"], 4.0);
        assert_eq!(p.covered, 4.0);
    }

    #[test]
    fn setup_spans_are_kept_apart() {
        let spans = vec![span(None, "setup", 0.0, 2.0), span(Some(0), "data.generate", 0.0, 1.5)];
        let p = profile_of(&spans, &BTreeMap::new());
        assert_eq!(p.setup_self["data.generate"], 1.5);
        assert!(p.op_self.is_empty());
        assert_eq!(p.op_wall, 0.0);
    }

    #[test]
    fn nothing_is_recorded_while_off_and_split_reparents_by_midpoint() {
        let t = Tracer::new();
        assert_eq!(t.span_id("op.x", || 7), (7, None));
        t.leaf("a.b", 0.0, 1.0, false);
        t.add("c", 1.0);
        assert!(t.profile().counters.is_empty());

        t.set_recording(true);
        let (event, root) = t.span_id("op.serve", || {
            let start = t.now();
            t.leaf("embeddings.transform", start, t.now(), false);
            // A progress event after the transform ends the round.
            t.now()
        });
        let s = t.state().spans[root.unwrap()].clone();
        t.split(root, &[("core.round", s.start, event), ("core.report", event, s.end)]);
        let st = t.state();
        let leaf = st.spans.iter().find(|sp| sp.name == "embeddings.transform").unwrap();
        let round = st.spans.iter().position(|sp| sp.name == "core.round").unwrap();
        assert_eq!(leaf.parent, Some(round));
        assert!(st.open.is_empty());
    }
}
