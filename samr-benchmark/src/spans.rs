//! In-memory span recording for the traced replay.
//!
//! A span is `{name, start_ns, end_ns, parent, scenario}`; spans nest
//! through an RAII [`Guard`] stack, so a child always closes before its
//! parent. The recorder is thread-local: the traced replay runs on one
//! thread, and every span is opened by this crate around a call into a
//! library layer. Nothing is written until the replay ends.

use serde::Value;
use std::cell::RefCell;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified span name (`partition`, `sim.comm`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Plan id of the scenario the span belongs to, if any.
    pub scenario: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(usize);

fn open(name: &'static str, scenario: Option<usize>) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let scenario = scenario.or_else(|| parent.and_then(|p| r.spans[p].scenario));
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            scenario,
        });
        r.open.push(id);
        Guard(id)
    })
}

/// Open a span nested in the innermost open span; it inherits that
/// span's scenario.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Open a span that marks the work of one planned scenario.
pub fn scenario_span(name: &'static str, scenario: usize) -> Guard {
    open(name, Some(scenario))
}

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans[self.0].end_ns = end_ns;
            // Guards drop in reverse order of creation, so this span is
            // the innermost open one.
            if r.open.last() == Some(&self.0) {
                r.open.pop();
            }
        });
    }
}

/// Take every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Check that the spans form a well-formed forest: every span ends
/// after it starts, its parent was opened before it and encloses it,
/// it shares its parent's scenario when the parent has one, and
/// siblings never overlap.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<u64> = vec![0; spans.len()];
    let mut last_root_end = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let sibling_end = match s.parent {
            None => &mut last_root_end,
            Some(p) => {
                if p >= i {
                    return Err(format!("span {i} ({}) has a later parent {p}", s.name));
                }
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
                if parent.scenario.is_some() && parent.scenario != s.scenario {
                    return Err(format!("span {i} ({}) left its parent's scenario", s.name));
                }
                &mut last_child_end[p]
            }
        };
        if s.start_ns < *sibling_end {
            return Err(format!("span {i} ({}) overlaps a sibling", s.name));
        }
        *sibling_end = s.end_ns;
    }
    Ok(())
}

/// The spans as a JSON value: `{"spans": [{name, start_ns, end_ns,
/// parent, scenario}, …]}`.
pub fn to_value(spans: &[Span]) -> Value {
    let opt = |v: Option<usize>| v.map_or(Value::Null, |x| Value::U64(x as u64));
    let items = spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.to_string())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("parent".into(), opt(s.parent)),
                ("scenario".into(), opt(s.scenario)),
            ])
        })
        .collect();
    Value::Map(vec![("spans".into(), Value::Seq(items))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            scenario: None,
        }
    }

    #[test]
    fn guards_nest_and_children_inherit_the_scenario() {
        take();
        {
            let _root = span("campaign");
            let _sc = scenario_span("engine.scenario", 7);
            let _leaf = span("partition");
        }
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].scenario, Some(7));
        assert_eq!(spans[0].scenario, None);
        check_well_formed(&spans).unwrap();
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("b", 15, 25, Some(1)),
            s("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn malformed_forests_are_rejected() {
        let escaping = vec![s("root", 0, 10, None), s("a", 5, 20, Some(0))];
        assert!(check_well_formed(&escaping).is_err());
        let overlapping = vec![
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("b", 30, 50, Some(0)),
        ];
        assert!(check_well_formed(&overlapping).is_err());
        let backwards = vec![s("root", 10, 5, None)];
        assert!(check_well_formed(&backwards).is_err());
    }
}
