//! Spans of the traced run. They are recorded from the benchmark's side
//! of each call into the product (spans inside the product are a later
//! change), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use bao_common::json::{Json, ToJson};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Statement index; the spans of one statement share it.
    pub stmt: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        stmt: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once, and a
    /// child is clipped to its parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Share of `root`'s interval that its child spans cover.
    pub fn coverage(&self, root: usize) -> f64 {
        let dur = self.spans[root].dur_ns();
        if dur == 0 {
            return 0.0;
        }
        1.0 - self.self_times_ns()[root] as f64 / dur as f64
    }

    /// Totals per span name, in name order.
    pub fn stages(&self) -> Vec<Stage> {
        let selfs = self.self_times_ns();
        let mut by: BTreeMap<&'static str, Stage> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let st = by.entry(s.name).or_insert_with(|| Stage {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                durs_ns: Vec::new(),
            });
            st.count += 1;
            st.total_ns += s.dur_ns();
            st.self_ns += self_ns;
            st.durs_ns.push(s.dur_ns());
        }
        by.into_values().collect()
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", id.to_json()),
                        ("name", s.name.to_json()),
                        ("start_ns", s.start_ns.to_json()),
                        ("end_ns", s.end_ns.to_json()),
                        ("parent", s.parent.to_json()),
                        ("stmt", s.stmt.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Trace {
        let mut t = Trace::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                stmt: None,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = trace(&[
            ("region", 0, 100, None),
            ("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            ("b", 30, 120, Some(0)),
            ("a.inner", 15, 25, Some(1)),
        ]);
        // Children cover [10, 100) of the region: 90 of 100.
        assert_eq!(t.self_times_ns(), vec![10, 20, 90, 10]);
        assert!((t.coverage(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn leaf_spans_keep_their_whole_duration() {
        let t = trace(&[
            ("region", 0, 50, None),
            ("x", 0, 20, Some(0)),
            ("x", 20, 50, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![0, 20, 30]);
        assert_eq!(t.coverage(0), 1.0);
        let stages = t.stages();
        let x = stages.iter().find(|s| s.name == "x").unwrap();
        assert_eq!((x.count, x.total_ns, x.self_ns), (2, 50, 50));
        assert_eq!(x.durs_ns, vec![20, 30]);
    }

    #[test]
    fn json_keeps_parent_and_statement_links() {
        let mut t = trace(&[("region", 0, 9, None)]);
        t.spans.push(Span {
            name: "sql.parse",
            start_ns: 1,
            end_ns: 2,
            parent: Some(0),
            stmt: Some(7),
        });
        let j = t.to_json();
        let spans = j.as_arr().unwrap();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].get("stmt").and_then(Json::as_u64), Some(7));
        assert_eq!(
            spans[1].get("name").and_then(Json::as_str),
            Some("sql.parse")
        );
    }
}
