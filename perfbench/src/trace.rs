//! In-memory spans recorded around calls into each layer's public
//! functions, with self time and a tab-separated dump at the end of a
//! run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One timed call. `parent` indexes the enclosing span of the same
/// thread; spans never cross threads.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one thread. Every thread of a run shares `origin`, so
/// timestamps compare across threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f` inside a span when there is a tracer, else just runs it.
pub fn maybe_span<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// The spans of every thread of a run.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn add(&mut self, tracer: Tracer) {
        self.threads.push(tracer.into_spans());
    }

    fn all(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flatten()
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.all().filter(|s| s.name == name) {
            s.push(span.nanos() as f64 / 1e6);
        }
        s
    }

    pub fn count(&self, name: &str) -> usize {
        self.all().filter(|s| s.name == name).count()
    }

    /// For every span named `parent`, the longest of its children, in ms.
    pub fn slowest_child_ms(&self, parent: &str) -> Samples {
        let mut s = Samples::new();
        for spans in &self.threads {
            let mut slowest: BTreeMap<usize, u64> = BTreeMap::new();
            for span in spans {
                if let Some(p) = span.parent {
                    if spans[p].name == parent {
                        let e = slowest.entry(p).or_insert(0);
                        *e = (*e).max(span.nanos());
                    }
                }
            }
            for v in slowest.values() {
                s.push(*v as f64 / 1e6);
            }
        }
        s
    }

    /// Self time of each span: its duration minus the time its children
    /// cover. Children of one span run one after another on its thread,
    /// so the covered time is the sum of their durations.
    fn self_nanos(spans: &[Span]) -> Vec<u64> {
        let mut child = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child[p] += span.nanos();
            }
        }
        spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.nanos().saturating_sub(*c))
            .collect()
    }

    /// Per span name: count, median duration and median self time (ms).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (Samples, Samples)> = BTreeMap::new();
        for spans in &self.threads {
            for (span, own) in spans.iter().zip(Self::self_nanos(spans)) {
                let e = by_name.entry(span.name).or_default();
                e.0.push(span.nanos() as f64 / 1e6);
                e.1.push(own as f64 / 1e6);
            }
        }
        by_name
            .into_iter()
            .map(|(name, (mut d, mut own))| (name, d.len(), d.median(), own.median()))
            .collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "thread\tid\tparent\treq\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        let mut line = String::new();
        for (t, spans) in self.threads.iter().enumerate() {
            for (i, (s, own)) in spans.iter().zip(Self::self_nanos(spans)).enumerate() {
                line.clear();
                let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
                let _ = writeln!(
                    line,
                    "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                    s.req, s.name, s.start, s.end
                );
                out.write_all(line.as_bytes())?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                req: 0,
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "b",
                req: 0,
                parent: Some(0),
                start: 10,
                end: 40,
            },
            Span {
                name: "c",
                req: 0,
                parent: Some(0),
                start: 50,
                end: 60,
            },
            Span {
                name: "d",
                req: 0,
                parent: Some(1),
                start: 20,
                end: 25,
            },
        ];
        assert_eq!(Trace::self_nanos(&spans), vec![60, 25, 10, 5]);
        let trace = Trace {
            threads: vec![spans],
        };
        let slowest = trace.slowest_child_ms("a");
        assert_eq!(slowest.len(), 1);
        assert!((slowest.clone().quantile(1.0) - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
