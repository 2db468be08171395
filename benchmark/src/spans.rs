//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory while the workload runs and are written out once
//! at the end ([`Recorder::write_tsv`]), so recording costs two clock reads
//! and a vector push. A span's self time is its duration minus the part of
//! its interval that its child spans cover ([`self_times`]).

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `launch.execute`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch (`start` while still open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The benchmark op (invocation) this span belongs to.
    pub op: u64,
    /// Batch index within the op, when the span belongs to one batch.
    pub batch: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An append-only span store with a fixed time origin.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        batch: Option<u32>,
    ) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        span.dur()
    }

    /// Closes span `id` under `name`: for a call whose layer is known only
    /// once it returns (a compile-or-reuse is a compile or a reuse).
    pub fn close_as(&mut self, id: u32, name: &'static str) -> u64 {
        self.spans[id as usize].name = name;
        self.close(id)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated text: one header line, then
    /// `id, parent, name, start_ns, end_ns, op, batch` per span (`-` for
    /// an absent parent or batch).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\top\tbatch")?;
        let opt = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                s.name,
                s.start,
                s.end,
                s.op,
                opt(s.batch)
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals, each clipped to the parent's
/// interval. Overlapping children are counted once, and a child reaching
/// outside its parent only counts inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            op: 0,
            batch: None,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(10, 35, None)]), vec![25]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(35, 45, Some(0)),
        ];
        // Union of the children is [10, 60): 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(50, 150, Some(0)),
            span(190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
    }

    #[test]
    fn recorder_nests_and_writes_every_span() {
        let mut rec = Recorder::default();
        let root = rec.open("root", None, 7, None);
        let child = rec.open("child", Some(root), 7, Some(3));
        rec.close(child);
        rec.close(root);
        let spans = rec.spans();
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let self_ns = self_times(spans);
        assert_eq!(self_ns[0] + self_ns[1], spans[0].dur());
        let mut out = Vec::new();
        rec.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\t0\tchild\t"));
        assert!(text.lines().nth(2).unwrap().ends_with("\t7\t3"));
    }
}
