//! Outside-in span timer: wall time and call counts per named layer,
//! with self time (a span minus the timed spans nested inside it).
//!
//! The registry is thread-local and off by default; a disabled span is
//! a direct call. It only reads [`Instant`] and never feeds simulation
//! state, so a traced run's outputs equal an untraced run's.

use std::cell::RefCell;
use std::time::Instant;

/// A registered layer: an index into the registry's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer(usize);

/// Accumulated time and counts of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// Completed spans.
    pub calls: u64,
    /// Wall nanoseconds inside the spans.
    pub total_ns: u64,
    /// Wall nanoseconds inside timed spans nested directly in these.
    pub child_ns: u64,
    /// Work items the layer reported (e.g. PEBS samples ingested).
    pub items: u64,
}

impl Row {
    /// Span time not covered by nested timed spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }
}

struct Frame {
    layer: usize,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Registry {
    enabled: bool,
    names: Vec<String>,
    rows: Vec<Row>,
    stack: Vec<Frame>,
}

thread_local! {
    static REG: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Registers (or finds) the layer called `name`.
pub fn layer(name: &str) -> Layer {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(i) = r.names.iter().position(|n| n == name) {
            return Layer(i);
        }
        r.names.push(name.to_string());
        r.rows.push(Row::default());
        Layer(r.names.len() - 1)
    })
}

/// Clears every row and turns timing on or off.
pub fn reset(enabled: bool) {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "reset inside an open span");
        r.enabled = enabled;
        r.rows.iter_mut().for_each(|row| *row = Row::default());
    });
}

/// Turns timing off and keeps the rows for reading.
pub fn stop() {
    REG.with(|r| r.borrow_mut().enabled = false);
}

/// Runs `f` inside a span of `layer` when timing is on.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let on = REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.stack.push(Frame {
                layer: layer.0,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        r.enabled
    });
    if !on {
        return f();
    }
    let out = f();
    REG.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span frame pushed above");
        let ns = frame.start.elapsed().as_nanos() as u64;
        let row = &mut r.rows[frame.layer];
        row.calls += 1;
        row.total_ns += ns;
        row.child_ns += frame.child_ns;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += ns;
        }
    });
    out
}

/// Adds `n` work items to `layer` when timing is on.
pub fn add_items(layer: Layer, n: u64) {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.rows[layer.0].items += n;
        }
    });
}

/// Every registered layer's name and current row.
pub fn rows() -> Vec<(String, Row)> {
    REG.with(|r| {
        let r = r.borrow();
        r.names
            .iter()
            .cloned()
            .zip(r.rows.iter().copied())
            .collect()
    })
}

/// The current row of the layer called `name` (zero if never registered).
pub fn row(name: &str) -> Row {
    REG.with(|r| {
        let r = r.borrow();
        r.names
            .iter()
            .position(|n| n == name)
            .map_or(Row::default(), |i| r.rows[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        let (outer, inner) = (layer("t.outer"), layer("t.inner"));
        reset(true);
        span(outer, || {
            span(inner, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span(inner, || {});
        });
        let (o, i) = (row("t.outer"), row("t.inner"));
        reset(false);
        assert_eq!((o.calls, i.calls), (1, 2));
        assert_eq!(o.child_ns, i.total_ns);
        assert!(o.total_ns >= i.total_ns && i.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let l = layer("t.off");
        reset(false);
        assert_eq!(span(l, || 7), 7);
        add_items(l, 3);
        assert_eq!(row("t.off"), Row::default());
    }
}
