//! Interchange: JSON (serde) helpers, a typed parse path for untrusted
//! input, and Graphviz DOT export.
//!
//! The string-error [`from_json`] is the convenience path for CLI use; the
//! typed [`from_json_typed`] / [`graph_from_value`] path is what services
//! ingesting untrusted documents should call — it distinguishes syntax
//! errors, shape errors, out-of-range numeric values (with task/point
//! context) and semantic graph violations, instead of flattening everything
//! into one message.

use crate::graph::{TaskGraph, TaskGraphError, TaskNode};
use serde::json::Value;
use std::fmt;
use std::fmt::Write as _;

/// Typed failure modes of parsing a task graph from an interchange document.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// The document is not valid JSON.
    Syntax {
        /// Parser message (includes the byte offset).
        message: String,
    },
    /// The document is valid JSON but not shaped like a task graph
    /// (missing or mistyped `tasks` / `edges` fields).
    Shape {
        /// What was wrong.
        message: String,
    },
    /// A design-point number is out of range: non-finite, non-positive
    /// duration, or negative current. Caught *before* graph construction so
    /// the report can name the exact task and point.
    InvalidValue {
        /// Name of the offending task.
        task: String,
        /// 0-based index of the offending design point.
        point: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The values were well-formed but violate a graph invariant
    /// (cycle, duplicate edge, non-uniform point counts, …).
    Graph(TaskGraphError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { message } => write!(f, "invalid JSON: {message}"),
            Self::Shape { message } => write!(f, "not a task graph: {message}"),
            Self::InvalidValue {
                task,
                point,
                message,
            } => write!(f, "design point {point} of task {task}: {message}"),
            Self::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<TaskGraphError> for IoError {
    fn from(e: TaskGraphError) -> Self {
        Self::Graph(e)
    }
}

/// Serialises a graph to pretty JSON.
pub fn to_json(g: &TaskGraph) -> String {
    serde_json::to_string_pretty(g).expect("task graphs always serialise")
}

/// Parses a graph from JSON, revalidating all invariants.
///
/// # Errors
///
/// Returns a human-readable message; [`from_json_typed`] preserves the
/// error structure for callers that route on it.
pub fn from_json(json: &str) -> Result<TaskGraph, String> {
    from_json_typed(json).map_err(|e| e.to_string())
}

/// Parses a graph from JSON with typed errors — the ingestion path for
/// untrusted input (the scheduling service's wire format builds on it).
///
/// On top of [`from_json`]'s validation this rejects, with precise context:
///
/// * non-finite durations/currents/voltages (JSON cannot spell `NaN`, but
///   `1e999` parses to `inf`), non-positive durations and negative currents
///   *before* graph construction ([`IoError::InvalidValue`]);
/// * duplicate edges ([`TaskGraphError::DuplicateEdge`]) — interchange
///   documents must list each edge exactly once.
///
/// # Errors
///
/// Every [`IoError`] variant is reachable; see its docs.
pub fn from_json_typed(json: &str) -> Result<TaskGraph, IoError> {
    let v = serde::json::parse(json).map_err(|e| IoError::Syntax {
        message: e.to_string(),
    })?;
    graph_from_value(&v)
}

/// [`from_json_typed`] over an already-parsed JSON value — lets embedding
/// formats (a request envelope carrying a graph field) validate the graph
/// without re-serialising it.
///
/// # Errors
///
/// Every [`IoError`] variant except `Syntax`.
pub fn graph_from_value(v: &Value) -> Result<TaskGraph, IoError> {
    let shape_err = |message: String| IoError::Shape { message };
    if v.as_obj().is_none() {
        return Err(shape_err("expected a JSON object".into()));
    }
    let tasks_v = v
        .get("tasks")
        .ok_or_else(|| shape_err("missing field `tasks`".into()))?;
    let tasks: Vec<TaskNode> = serde::Deserialize::from_value(tasks_v)
        .map_err(|e| shape_err(format!("field `tasks`: {e}")))?;
    let edges_v = v
        .get("edges")
        .ok_or_else(|| shape_err("missing field `edges`".into()))?;
    let edges: Vec<(usize, usize)> = serde::Deserialize::from_value(edges_v)
        .map_err(|e| shape_err(format!("field `edges`: {e}")))?;
    graph_from_parts(tasks, edges)
}

/// Longest task name, in bytes, that an interchange document may carry.
/// The binary wire format length-prefixes a name with a `u16`, and both
/// wire spellings must admit the same set of graphs.
pub const MAX_NAME_BYTES: usize = u16::MAX as usize;

/// Most design points one task may carry (a `u16` count on the binary
/// wire, as [`MAX_NAME_BYTES`]).
pub const MAX_POINTS: usize = u16::MAX as usize;

/// Builds a graph from decoded parts — the one validator every decoder of
/// untrusted input (the JSON path above, the service's binary format)
/// calls. On top of [`TaskGraph::from_parts`] it caps name lengths and
/// point counts ([`IoError::Shape`]) and rejects, with task/point
/// context, non-finite numbers, non-positive durations and voltages and
/// negative currents ([`IoError::InvalidValue`]); duplicate edges are
/// [`TaskGraphError::DuplicateEdge`].
///
/// # Errors
///
/// Every [`IoError`] variant except `Syntax`.
pub fn graph_from_parts(
    tasks: Vec<TaskNode>,
    edges: Vec<(usize, usize)>,
) -> Result<TaskGraph, IoError> {
    for (i, t) in tasks.iter().enumerate() {
        if t.name.len() > MAX_NAME_BYTES || t.points.len() > MAX_POINTS {
            return Err(IoError::Shape {
                message: format!(
                    "task {i} has a {}-byte name and {} design points \
                     (at most {MAX_NAME_BYTES} bytes and {MAX_POINTS} points)",
                    t.name.len(),
                    t.points.len()
                ),
            });
        }
        for (j, p) in t.points.iter().enumerate() {
            let bad = |message: &str| IoError::InvalidValue {
                task: t.name.clone(),
                point: j,
                message: message.into(),
            };
            if !(p.duration.is_finite() && p.duration.value() > 0.0) {
                return Err(bad("duration must be positive and finite"));
            }
            if !(p.current.is_finite() && p.current.is_non_negative()) {
                return Err(bad("current must be non-negative and finite"));
            }
            if !(p.voltage.is_finite() && p.voltage.value() > 0.0) {
                return Err(bad("voltage must be positive and finite"));
            }
        }
    }
    Ok(TaskGraph::from_parts(tasks, edges, true)?)
}

/// Renders the DAG in Graphviz DOT format, labelling each task with its
/// design-point table.
pub fn to_dot(g: &TaskGraph) -> String {
    let mut out = String::from("digraph taskgraph {\n  rankdir=TB;\n  node [shape=record];\n");
    for t in g.task_ids() {
        let node = g.task(t);
        let mut label = format!("{{{}|", node.name);
        for (j, p) in node.points.iter().enumerate() {
            if j > 0 {
                label.push_str("\\n");
            }
            let _ = write!(
                label,
                "DP{}: {:.0} mA, {:.1} min",
                j + 1,
                p.current.value(),
                p.duration.value()
            );
        }
        label.push('}');
        let _ = writeln!(out, "  t{} [label=\"{}\"];", t.index(), label);
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  t{} -> t{};", u.index(), v.index());
    }
    out.push_str("}\n");
    out
}

/// Round-trips a graph through JSON; used by tests and the CLI self-check.
///
/// # Errors
///
/// Propagates parse errors (which indicate a serialisation bug).
pub fn round_trip(g: &TaskGraph) -> Result<TaskGraph, String> {
    from_json(&to_json(g))
}

/// Re-exported for error-type uniformity in downstream code.
pub type GraphResult<T> = Result<T, TaskGraphError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{g2, g3};

    #[test]
    fn json_round_trip_paper_graphs() {
        for g in [g2(), g3()] {
            let back = round_trip(&g).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn from_json_reports_syntax_errors() {
        assert!(from_json("{ not json").is_err());
    }

    #[test]
    fn from_json_reports_semantic_errors() {
        let json = r#"{"tasks": [], "edges": []}"#;
        let err = from_json(json).unwrap_err();
        assert!(err.contains("no tasks"), "got: {err}");
    }

    fn one_point_task(name: &str, duration: f64, current: f64) -> String {
        format!(
            r#"{{"name":"{name}","points":[{{"duration":{duration:?},"current":{current:?},"voltage":1.0}}]}}"#
        )
    }

    #[test]
    fn typed_errors_classify_failures() {
        // Syntax.
        assert!(matches!(
            from_json_typed("{ nope").unwrap_err(),
            IoError::Syntax { .. }
        ));
        // Shape: not an object / missing or mistyped fields.
        assert!(matches!(
            from_json_typed("[1,2]").unwrap_err(),
            IoError::Shape { .. }
        ));
        assert!(matches!(
            from_json_typed(r#"{"edges": []}"#).unwrap_err(),
            IoError::Shape { .. }
        ));
        assert!(matches!(
            from_json_typed(r#"{"tasks": 3, "edges": []}"#).unwrap_err(),
            IoError::Shape { .. }
        ));
        // Semantic graph violation.
        assert!(matches!(
            from_json_typed(r#"{"tasks": [], "edges": []}"#).unwrap_err(),
            IoError::Graph(TaskGraphError::Empty)
        ));
    }

    #[test]
    fn typed_parse_rejects_bad_numbers_with_context() {
        for (duration, current, what) in [
            ("-2.0", "10.0", "duration"),
            ("0.0", "10.0", "duration"),
            ("1e999", "10.0", "duration"), // JSON spelling of +inf
            ("1.0", "-5.0", "current"),
            ("1.0", "1e999", "current"),
        ] {
            // Built textually so 1e999 reaches the parser as written.
            let json = format!(
                r#"{{"tasks":[{{"name":"T","points":[{{"duration":{duration},"current":{current},"voltage":1.0}}]}}],"edges":[]}}"#
            );
            let err = from_json_typed(&json).unwrap_err();
            match err {
                IoError::InvalidValue {
                    task,
                    point,
                    message,
                } => {
                    assert_eq!(task, "T");
                    assert_eq!(point, 0);
                    assert!(message.contains(what), "{message} should mention {what}");
                }
                other => panic!("{duration}/{current}: expected InvalidValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn typed_parse_rejects_duplicate_edges() {
        let json = format!(
            r#"{{"tasks":[{},{}],"edges":[[0,1],[0,1]]}}"#,
            one_point_task("A", 1.0, 10.0),
            one_point_task("B", 2.0, 5.0)
        );
        assert_eq!(
            from_json_typed(&json).unwrap_err(),
            IoError::Graph(TaskGraphError::DuplicateEdge { from: 0, to: 1 })
        );
        // And the string path reports it readably.
        assert!(from_json(&json).unwrap_err().contains("more than once"));
    }

    #[test]
    fn dot_mentions_every_task_and_edge() {
        let g = g2();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        for t in g.task_ids() {
            assert!(dot.contains(&format!("t{} [", t.index())));
        }
        assert_eq!(dot.matches(" -> ").count(), g.edge_count());
        assert!(dot.contains("938 mA"));
    }
}
