//! What the traced pass yields: per-kind call costs, per-node busy time,
//! the driver's own share, a causality check, and the span file.
//!
//! The driver is single-threaded and never calls into one node from inside
//! a call into another, so spans do not nest: a span's self time is its
//! duration, and the wall time between consecutive spans is the driver's
//! own (queue, bookkeeping, op generation, result checks, the stamps).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::driver::{Span, NO_SPAN};
use crate::layers::Kind;

/// Aggregates of one traced repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Calls per kind, whole repetition (client-side timers excluded, so
    /// `Kind::Timer` is `replica.timer`).
    pub calls: [u64; Kind::COUNT],
    /// Nanoseconds inside those calls.
    pub call_ns: [u64; Kind::COUNT],
    /// Nanoseconds each node was busy during the timed part.
    pub node_busy_ns: Vec<u64>,
    /// Nanoseconds of the timed part spent outside every span.
    pub loop_ns: u64,
}

impl Summary {
    /// Summarise `spans` of a group of `nodes` nodes, the first `n` of them
    /// replicas, whose timed part spans the wall stamps `timed`.
    pub fn of(spans: &[Span], n: usize, nodes: usize, timed: (u64, u64)) -> Summary {
        let mut s = Summary {
            calls: [0; Kind::COUNT],
            call_ns: [0; Kind::COUNT],
            node_busy_ns: vec![0; nodes],
            loop_ns: timed.1 - timed.0,
        };
        for span in spans {
            let ns = span.end_ns - span.start_ns;
            let node = span.node as usize;
            if !(span.kind == Kind::Timer && node >= n) {
                s.calls[span.kind as usize] += 1;
                s.call_ns[span.kind as usize] += ns;
            }
            if span.start_ns >= timed.0 && span.end_ns <= timed.1 {
                s.node_busy_ns[node] += ns;
                s.loop_ns -= ns;
            }
        }
        s
    }

    /// Element-wise best of two traced repetitions of the same schedule
    /// (the call counts are identical; interference only adds time).
    pub fn best(&self, other: &Summary) -> Summary {
        let min = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| *x.min(y)).collect()
        };
        Summary {
            calls: self.calls,
            call_ns: min(&self.call_ns, &other.call_ns)
                .try_into()
                .expect("same length"),
            node_busy_ns: min(&self.node_busy_ns, &other.node_busy_ns),
            loop_ns: self.loop_ns.min(other.loop_ns),
        }
    }

    /// Mean microseconds per call of `kind` (0 when it was never called).
    pub fn mean_us(&self, kind: Kind) -> f64 {
        match self.calls[kind as usize] {
            0 => 0.0,
            calls => self.call_ns[kind as usize] as f64 / calls as f64 / 1e3,
        }
    }
}

/// Check the causal structure: parents precede their children, every
/// `replica.*` span has a parent, and every trace roots at a parentless
/// `client.submit` or `boot`.
pub fn check_causality(spans: &[Span], n: usize) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        let name = s.kind.span_name((s.node as usize) < n);
        if s.parent != NO_SPAN && s.parent as usize >= id {
            return Err(format!("span {id} ({name}) precedes its parent"));
        }
        if s.parent == NO_SPAN && name.starts_with("replica.") {
            return Err(format!("span {id} ({name}) has no parent"));
        }
        let root = spans
            .get(s.trace as usize)
            .ok_or_else(|| format!("span {id} ({name}) names a missing trace"))?;
        let rooted = matches!(root.kind, Kind::Submit | Kind::Boot) && root.parent == NO_SPAN;
        if !rooted {
            return Err(format!(
                "span {id} ({name}) does not root at a submit or boot"
            ));
        }
    }
    Ok(())
}

/// Write one JSON object per span to `path` (directories created).
///
/// # Errors
/// Any I/O error, including the final flush.
pub fn write_jsonl(spans: &[Span], n: usize, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let name = s.kind.span_name((s.node as usize) < n);
        let parent = match s.parent {
            NO_SPAN => "null".to_string(),
            p => p.to_string(),
        };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"node\":{},\"span_id\":{id},\"parent_id\":{parent},\"trace_id\":{}}}",
            s.start_ns, s.end_ns, s.node, s.trace
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, node: u16, start: u64, end: u64, parent: u32, trace: u32) -> Span {
        Span {
            kind,
            node,
            start_ns: start,
            end_ns: end,
            parent,
            trace,
        }
    }

    /// boot(replica 0) → submit(client) → request → prepare, one replica.
    fn chain() -> Vec<Span> {
        vec![
            span(Kind::Boot, 0, 0, 10, NO_SPAN, 0),
            span(Kind::Submit, 1, 20, 30, NO_SPAN, 1),
            span(Kind::Request, 0, 40, 70, 1, 1),
            span(Kind::Prepare, 0, 80, 90, 2, 1),
            span(Kind::Timer, 0, 95, 99, 0, 0),
        ]
    }

    #[test]
    fn well_formed_chain_passes() {
        assert_eq!(check_causality(&chain(), 1), Ok(()));
    }

    #[test]
    fn orphan_replica_span_is_rejected() {
        let mut spans = chain();
        spans[2].parent = NO_SPAN;
        let err = check_causality(&spans, 1).unwrap_err();
        assert!(
            err.contains("replica.request") && err.contains("no parent"),
            "{err}"
        );
    }

    #[test]
    fn trace_must_root_at_submit_or_boot() {
        let mut spans = chain();
        spans[3].trace = 2; // a replica.request is not a root
        assert!(check_causality(&spans, 1).is_err());
        let mut spans = chain();
        spans[3].parent = 4; // child recorded before its parent
        assert!(check_causality(&spans, 1).is_err());
    }

    #[test]
    fn summary_splits_busy_and_loop_time() {
        // Timed part [20, 100): submit 10 + request 30 + prepare 10 +
        // timer 4 busy, the other 26 ns are the driver's.
        let s = Summary::of(&chain(), 1, 2, (20, 100));
        assert_eq!(s.node_busy_ns, vec![44, 10]);
        assert_eq!(s.loop_ns, 26);
        assert_eq!(s.calls[Kind::Boot as usize], 1);
        assert_eq!(s.call_ns[Kind::Request as usize], 30);
        assert_eq!(s.mean_us(Kind::Request), 0.03);
        assert_eq!(s.mean_us(Kind::Qc), 0.0);
        let busy: u64 = s.node_busy_ns.iter().sum();
        assert_eq!(busy + s.loop_ns, 80);
    }

    #[test]
    fn best_is_elementwise() {
        let a = Summary::of(&chain(), 1, 2, (20, 100));
        let mut slow = chain();
        slow[2].end_ns = 75; // request took 5 ns longer, the loop 5 ns less
        let b = Summary::of(&slow, 1, 2, (20, 100));
        assert_eq!((b.call_ns[Kind::Request as usize], b.loop_ns), (35, 21));
        for best in [a.best(&b), b.best(&a)] {
            assert_eq!(best.call_ns, a.call_ns);
            assert_eq!(best.node_busy_ns, a.node_busy_ns);
            assert_eq!(best.loop_ns, 21);
        }
    }
}
