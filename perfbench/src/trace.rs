//! Spans recorded around calls into each layer's public functions.
//!
//! A span has a name (the layer metric it feeds, e.g.
//! `controller.route`), a start and an end, the span that was open
//! when it started (its parent), and the request it served (the index
//! of the reading in flight, or none). Spans are kept in memory and
//! written out once the traced pass ends. A layer's number is the sum
//! of its spans' self times: duration minus the part covered by child
//! spans. Self times of a properly nested tree partition the root
//! span, so the hops plus the root's own self time (`other_s`) sum to
//! the traced total exactly.

use crate::{Json, Layers};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// No parent / no request.
const NONE: u64 = u64::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    request: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// A tracer shared by the generator loop and the links it hands to
/// the federation (all on the one generator thread).
pub type Shared = Rc<RefCell<Tracer>>;

/// Per-name totals: self nanoseconds, span count, and the durations
/// of every span (for call-duration percentiles).
#[derive(Default)]
pub struct Totals {
    pub self_ns: u64,
    pub count: u64,
    pub durations_ns: Vec<u64>,
}

impl Tracer {
    /// A fresh tracer whose clock starts now.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: NONE,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request.unwrap_or(NONE);
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: u32) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx as usize].end_ns = end;
    }

    /// Renames span `idx` once its outcome is known (a push that
    /// turned out to close a window).
    pub fn rename(&mut self, idx: u32, name: &'static str) {
        self.spans[idx as usize].name = name;
    }

    /// Self time, count and durations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.self_ns += dur.saturating_sub(covered);
            t.count += 1;
            t.durations_ns.push(dur);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index name request parent start_ns end_ns` (`-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let request = match s.request {
                NONE => "-".to_string(),
                r => r.to_string(),
            };
            let parent = match s.parent {
                u32::MAX => "-".to_string(),
                p => p.to_string(),
            };
            writeln!(
                w,
                "{i}\t{}\t{request}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// For each span named `name` longer than `threshold_ns`, the name
    /// of the descendant layer (or `name` itself) with the most self
    /// time inside it, tallied: where the slow calls spent their time.
    pub fn attribute_slow(&self, name: &str, threshold_ns: u64) -> BTreeMap<&'static str, u64> {
        // Children lists, then a self-time pass per slow span's subtree.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != u32::MAX {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut tally = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name || s.end_ns - s.start_ns <= threshold_ns {
                continue;
            }
            let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut stack = vec![i as u32];
            while let Some(j) = stack.pop() {
                let span = &self.spans[j as usize];
                let covered: u64 = children[j as usize]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c as usize];
                        c.end_ns - c.start_ns
                    })
                    .sum();
                *per_layer.entry(span.name).or_default() +=
                    (span.end_ns - span.start_ns).saturating_sub(covered);
                stack.extend(&children[j as usize]);
            }
            if let Some((&top, _)) = per_layer.iter().max_by_key(|(_, &ns)| ns) {
                *tally.entry(top).or_default() += 1;
            }
        }
        tally
    }
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(tracer: Option<&Shared>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let idx = t.borrow_mut().enter(name);
            let out = f();
            t.borrow_mut().exit(idx);
            out
        }
    }
}

/// Adds each span name's self time to the per-layer metric of the
/// same name plus `_s` (the root span `pass` feeds `other_s`), sets
/// `traced_total_s`, and records the sum of all self times, which
/// equals the total by construction. Returns the per-name totals.
pub fn span_layers(
    tracer: &Tracer,
    layers: &mut Layers,
    facts: &mut Json,
) -> BTreeMap<&'static str, Totals> {
    let totals = tracer.totals();
    for (name, t) in &totals {
        let metric = match *name {
            "pass" => "other_s".to_string(),
            name => format!("{name}_s"),
        };
        layers.add(&metric, t.self_ns as f64 * 1e-9);
    }
    if let Some(root) = totals.get("pass") {
        layers.set("traced_total_s", root.durations_ns[0] as f64 * 1e-9);
    }
    let hops: u64 = totals.values().map(|t| t.self_ns).sum();
    facts.put("traced_hops_plus_other_s", Json::Num(hops as f64 * 1e-9));
    totals
}
