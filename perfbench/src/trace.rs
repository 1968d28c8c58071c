//! Spans recorded by the benchmark around its calls into the compiler
//! crates' public functions.
//!
//! The program itself is never instrumented (its own telemetry stays
//! off): a span is opened here, the public call runs, the span closes.
//! Spans are kept in memory and written out when the run ends. Every
//! span belongs to a *root* — one traced pass, set-up or probe — whose
//! id all its descendants share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One closed (or still open) span.
struct Span {
    /// Layer call name, `<crate>.<call>`, or a root name.
    name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    parent: Option<usize>,
    /// Index of the root span this span belongs to.
    root: usize,
    /// Offset from the tracer's epoch.
    start: Duration,
    /// Offset from the tracer's epoch (equal to `start` while open).
    end: Duration,
}

/// Span recorder. A disabled tracer runs every closure directly and
/// records only the wall time of its roots, so traced and untraced
/// passes share one code path and are timed the same way.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// `(root, name) → value` counts recorded at layer boundaries.
    counts: Vec<(usize, &'static str, f64)>,
    /// Roots of a disabled tracer: name and wall time.
    untraced_roots: Vec<(&'static str, Duration)>,
    /// Whether a disabled tracer is inside a root.
    in_root: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
            untraced_roots: Vec::new(),
            in_root: false,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { enabled: false, ..Tracer::on() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            if self.in_root {
                return f(self);
            }
            self.in_root = true;
            let start = Instant::now();
            let out = f(self);
            self.untraced_roots.push((name, start.elapsed()));
            self.in_root = false;
            return out;
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        let start = self.epoch.elapsed();
        self.spans.push(Span { name, parent, root, start, end: start });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Record a count against the current root (ignored when disabled or
    /// outside any span).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some(&top)) = (self.enabled, self.stack.last()) {
            self.counts.push((self.spans[top].root, name, value));
        }
    }

    /// Duration of each root named `name`, in recording order.
    pub fn root_durations(&self, name: &str) -> Vec<Duration> {
        let traced = self.spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.name, s.end - s.start));
        traced
            .chain(self.untraced_roots.iter().copied())
            .filter(|&(n, _)| n == name)
            .map(|(_, d)| d)
            .collect()
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap — the tracer is driven
    /// from a single thread).
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per layer name, the median over the roots that call it of the
    /// layer's total self time within one root, in seconds.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut per_root: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            *per_root.entry((s.name, s.root)).or_default() += t.as_secs_f64();
        }
        median_by_name(per_root)
    }

    /// Per count name, the median over the roots that record it of the
    /// root's total.
    pub fn layer_counts(&self) -> BTreeMap<&'static str, f64> {
        let mut per_root: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for &(root, name, v) in &self.counts {
            *per_root.entry((name, root)).or_default() += v;
        }
        median_by_name(per_root)
    }

    /// Self-time table: one row per span name with its call count, total
    /// and self time, and self time as a share of all recorded time.
    pub fn self_time_table(&self) -> String {
        let own = self.self_times();
        let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += (s.end - s.start).as_secs_f64();
            row.2 += t.as_secs_f64();
        }
        let all: f64 = own.iter().map(Duration::as_secs_f64).sum::<f64>().max(f64::MIN_POSITIVE);
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out =
            format!("{:<28}{:>8}{:>12}{:>12}{:>8}\n", "span", "calls", "total ms", "self ms", "self%");
        for (name, (calls, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<28}{calls:>8}{:>12.3}{:>12.3}{:>7.1}%",
                total * 1e3,
                own * 1e3,
                100.0 * own / all
            );
        }
        out
    }

    /// Every span as JSON: id, name, parent, root, start and end in µs
    /// from the run's epoch.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("name", Json::from(s.name)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("root", Json::from(s.root)),
                        ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                        ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
                    ])
                })
                .collect(),
        )
    }
}

fn median_by_name(per_root: BTreeMap<(&'static str, usize), f64>) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), v) in per_root {
        by_name.entry(name).or_default().push(v);
    }
    by_name.into_iter().map(|(k, v)| (k, crate::stats::median(&v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_group_spans() {
        let mut tr = Tracer::on();
        for _ in 0..2 {
            tr.span("pass", |tr| {
                tr.span("child", |_| std::thread::sleep(Duration::from_millis(2)));
                tr.count("things", 3.0);
            });
        }
        let secs = tr.layer_seconds();
        assert!(secs["child"] >= 0.002);
        assert!(secs["pass"] < secs["child"], "parent self time must exclude the child");
        assert_eq!(tr.layer_counts()["things"], 3.0);
        assert_eq!(tr.root_durations("pass").len(), 2);
        assert!(tr.spans.iter().filter(|s| s.name == "child").all(|s| s.parent.is_some()));
    }

    #[test]
    fn a_disabled_tracer_times_its_roots_only() {
        let mut tr = Tracer::off();
        let v = tr.span("pass", |tr| tr.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans.is_empty() && tr.layer_seconds().is_empty());
        assert_eq!(tr.root_durations("pass").len(), 1);
        assert!(tr.root_durations("child").is_empty());
    }
}
