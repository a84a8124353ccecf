//! Self time per layer from the harness's span tree.

use e3_telemetry::SpanRecord;
use std::collections::BTreeMap;

/// Total self time per span category, in milliseconds: each span's
/// duration minus the part its children (spans on the same thread that
/// lie inside it) cover.
pub fn self_ms_by_category(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        by_thread.entry(span.tid).or_default().push(span);
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for mut thread in by_thread.into_values() {
        // Parents before their children: earlier start first, and the
        // longer span first on a tie.
        thread.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
        let mut covered = vec![0u64; thread.len()];
        let mut open: Vec<usize> = Vec::new();
        for (index, span) in thread.iter().enumerate() {
            while let Some(&top) = open.last() {
                let parent = thread[top];
                if parent.start_us + parent.dur_us <= span.start_us {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                covered[parent] += span.dur_us;
            }
            open.push(index);
        }
        for (span, covered) in thread.iter().zip(covered) {
            let own = span.dur_us.saturating_sub(covered) as f64 / 1000.0;
            *totals.entry(span.cat.clone()).or_default() += own;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, start_us: u64, dur_us: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            name: cat.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn children_are_subtracted_per_thread() {
        let spans = [
            span("outer", 0, 1000, 1),
            span("inner", 100, 300, 1),
            span("inner", 500, 200, 1),
            // Another thread's span inside the same interval is not a
            // child.
            span("other", 100, 800, 2),
        ];
        let totals = self_ms_by_category(&spans);
        assert_eq!(totals["outer"], 0.5);
        assert_eq!(totals["inner"], 0.5);
        assert_eq!(totals["other"], 0.8);
    }
}
