//! Span streams → per-layer self times.
//!
//! Spans come from two places: the in-process sink shared by the
//! program's own `fit.*`/`classify.*` spans and the benchmark's spans
//! around each public layer call, and the serving daemon's drained
//! `tkdc-trace/v2` file. Both are reduced to the same event list.

use std::collections::BTreeMap;

use tkdc::span::SpanRecord;

/// One enter or exit event.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: String,
    pub tid: u64,
    pub ts_us: u64,
    pub enter: bool,
}

/// A closed span with its self time (duration minus the part covered
/// by its children on the same track).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub self_us: u64,
}

pub fn from_records(records: &[SpanRecord]) -> Vec<Event> {
    records
        .iter()
        .map(|r| Event {
            name: r.name.to_string(),
            tid: r.tid,
            ts_us: r.ts_us,
            enter: r.ph.as_str() == "B",
        })
        .collect()
}

/// Parses `tkdc-trace/v2` JSONL span records; other lines are skipped.
pub fn parse_v2(text: &str) -> Vec<Event> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    }
    text.lines()
        .filter(|l| l.contains("\"kind\":\"span\""))
        .filter_map(|l| {
            Some(Event {
                name: field(l, "\"name\":")?.to_string(),
                tid: field(l, "\"tid\":")?.parse().ok()?,
                ts_us: field(l, "\"ts_us\":")?.parse().ok()?,
                enter: field(l, "\"ph\":")? == "B",
            })
        })
        .collect()
}

/// Renders events as `tkdc-trace/v2` JSONL lines (benchmark-side span
/// names included).
pub fn v2_lines(events: &[Event]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for e in events {
        s.push_str(&format!(
            "{{\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\",\"ph\":\"{}\",\"name\":\"{}\",\"tid\":{},\"ts_us\":{}}}\n",
            if e.enter { "B" } else { "E" },
            e.name,
            e.tid,
            e.ts_us
        ));
    }
    s
}

/// Pairs enters with exits per track (events keep recording order
/// within a track) and computes self times.
pub fn close(events: &[Event]) -> Vec<Span> {
    let mut stacks: BTreeMap<u64, Vec<(usize, u64, u64)>> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let stack = stacks.entry(e.tid).or_default();
        if e.enter {
            stack.push((i, e.ts_us, 0));
            continue;
        }
        let Some((open, start, child_us)) = stack.pop() else {
            continue;
        };
        let dur = e.ts_us.saturating_sub(start);
        if let Some(parent) = stack.last_mut() {
            parent.2 += dur;
        }
        out.push(Span {
            name: events[open].name.clone(),
            tid: e.tid,
            start_us: start,
            dur_us: dur,
            self_us: dur.saturating_sub(child_us),
        });
    }
    out
}

/// Total duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 * 1e-6)
        .sum()
}

/// One row of the per-layer table.
#[derive(Debug, Default, Clone, Copy)]
pub struct Row {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

pub fn table(spans: &[Span]) -> BTreeMap<String, Row> {
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for s in spans {
        let r = rows.entry(s.name.clone()).or_default();
        r.count += 1;
        r.total_us += s.dur_us;
        r.self_us += s.self_us;
    }
    rows
}

/// Renders the table, one layer per line.
pub fn render(title: &str, rows: &BTreeMap<String, Row>) -> String {
    let mut s = format!(
        "{title}\n  {:<34} {:>7} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, r) in rows {
        s.push_str(&format!(
            "  {:<34} {:>7} {:>12.3} {:>12.3}\n",
            name,
            r.count,
            r.total_us as f64 / 1000.0,
            r.self_us as f64 / 1000.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts_us: u64, enter: bool) -> Event {
        Event {
            name: name.to_string(),
            tid,
            ts_us,
            enter,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_track() {
        let evs = vec![
            ev("outer", 1, 0, true),
            ev("inner", 1, 10, true),
            ev("other", 2, 12, true),
            ev("inner", 1, 40, false),
            ev("other", 2, 90, false),
            ev("outer", 1, 100, false),
        ];
        let spans = close(&evs);
        let rows = table(&spans);
        assert_eq!(rows["outer"].total_us, 100);
        assert_eq!(rows["outer"].self_us, 70);
        assert_eq!(rows["inner"].self_us, 30);
        assert_eq!(rows["other"].self_us, 78);
    }

    #[test]
    fn parses_v2_lines() {
        let text = "{\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\",\"ph\":\"B\",\"name\":\"serve.request\",\"tid\":3,\"ts_us\":120}\n\
                    {\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\",\"ph\":\"E\",\"name\":\"serve.request\",\"tid\":3,\"ts_us\":645}";
        let spans = close(&parse_v2(text));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "serve.request");
        assert_eq!(spans[0].dur_us, 525);
    }
}
