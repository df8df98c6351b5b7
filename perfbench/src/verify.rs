//! Result verification: the row engine is the reference for the column
//! engine. Runs outside every timed window.
//!
//! Doubles compare with a relative tolerance because the two engines
//! sum in different orders. Rows that tie on the ORDER BY keys compare
//! as sets; a tie group cut by LIMIT compares by its keys and size only,
//! since either engine may legally keep different members of it. A
//! value that differs only in its type tag — the column engine returns
//! a GROUP BY date key as `Int(d)` where the row engine returns
//! `Date(d)` — is a known executor defect: it is reported by query
//! name, never rewritten, and does not fail the run.

use imci_common::Value;
use imci_sql::ast::OrderKey;
use imci_sql::{EngineChoice, QueryEngine, QueryOptions, QueryResult, Statement};
use std::cmp::Ordering;

const REL_TOL: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Cmp {
    Equal,
    TypeOnly,
    Differ,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) | Value::Date(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn cmp_value(a: &Value, b: &Value) -> Cmp {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) if close(*x, *y) => Cmp::Equal,
        (Value::Int(x), Value::Int(y)) | (Value::Date(x), Value::Date(y)) if x == y => Cmp::Equal,
        (Value::Str(x), Value::Str(y)) if x == y => Cmp::Equal,
        (Value::Null, Value::Null) => Cmp::Equal,
        _ => match (num(a), num(b)) {
            (Some(x), Some(y)) if close(x, y) => Cmp::TypeOnly,
            _ => Cmp::Differ,
        },
    }
}

fn cmp_row(a: &[Value], b: &[Value], notes: &mut Vec<String>) -> Cmp {
    if a.len() != b.len() {
        return Cmp::Differ;
    }
    let mut worst = Cmp::Equal;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let c = cmp_value(x, y);
        if c == Cmp::TypeOnly {
            let note = format!("col {i}: row {} vs column {}", tag(x), tag(y));
            if !notes.contains(&note) {
                notes.push(note);
            }
        }
        worst = worst.max(c);
    }
    worst
}

fn tag(v: &Value) -> &'static str {
    match v {
        Value::Null => "Null",
        Value::Int(_) => "Int",
        Value::Double(_) => "Double",
        Value::Str(_) => "Str",
        Value::Date(_) => "Date",
    }
}

/// A type-blind total order used to line rows up before comparing.
fn canon(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = match (num(x), num(y)) {
            (Some(p), Some(q)) => p.total_cmp(&q),
            _ => match (x, y) {
                (Value::Str(p), Value::Str(q)) => p.cmp(q),
                _ => tag(x).cmp(tag(y)),
            },
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

fn same_keys(a: &[Value], b: &[Value], keys: &[usize]) -> bool {
    keys.iter().all(|&k| cmp_value(&a[k], &b[k]) != Cmp::Differ)
}

/// Split ordered rows into runs that tie on the ORDER BY keys.
fn tie_groups<'a>(rows: &'a [Vec<Value>], keys: &[usize]) -> Vec<&'a [Vec<Value>]> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=rows.len() {
        if i == rows.len() || !same_keys(&rows[start], &rows[i], keys) {
            groups.push(&rows[start..i]);
            start = i;
        }
    }
    groups
}

fn cmp_as_sets(a: &[Vec<Value>], b: &[Vec<Value>], notes: &mut Vec<String>) -> Cmp {
    if a.len() != b.len() {
        return Cmp::Differ;
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(|x, y| canon(x, y));
    b.sort_by(|x, y| canon(x, y));
    a.iter()
        .zip(&b)
        .map(|(x, y)| cmp_row(x, y, notes))
        .max()
        .unwrap_or(Cmp::Equal)
}

/// ORDER BY key positions in the output and the LIMIT, or `None` when a
/// key is not an output column (the rows then compare as one set).
fn order_spec(sql: &str, columns: &[String]) -> (Option<Vec<usize>>, Option<usize>) {
    let Ok(Statement::Select(s)) = imci_sql::parse(sql) else {
        return (None, None);
    };
    let keys: Option<Vec<usize>> = s
        .order_by
        .iter()
        .map(|(k, _)| match k {
            OrderKey::Position(p) => p.checked_sub(1).filter(|&i| i < columns.len()),
            OrderKey::Name(n) => columns.iter().position(|c| c.eq_ignore_ascii_case(n)),
        })
        .collect();
    (keys.filter(|k| !k.is_empty()), s.limit)
}

fn compare(sql: &str, reference: &QueryResult, got: &QueryResult, notes: &mut Vec<String>) -> Cmp {
    if reference.columns.len() != got.columns.len() || reference.rows.len() != got.rows.len() {
        notes.push(format!(
            "shape: row engine {}x{} vs column engine {}x{}",
            reference.rows.len(),
            reference.columns.len(),
            got.rows.len(),
            got.columns.len()
        ));
        return Cmp::Differ;
    }
    let (keys, limit) = order_spec(sql, &reference.columns);
    let Some(keys) = keys else {
        return cmp_as_sets(&reference.rows, &got.rows, notes);
    };
    let ga = tie_groups(&reference.rows, &keys);
    let gb = tie_groups(&got.rows, &keys);
    if ga.len() != gb.len() {
        notes.push("order: tie groups differ".into());
        return Cmp::Differ;
    }
    let cut_by_limit = limit == Some(reference.rows.len());
    let mut worst = Cmp::Equal;
    for (i, (a, b)) in ga.iter().zip(&gb).enumerate() {
        let c = if cut_by_limit && i + 1 == ga.len() {
            if a.len() == b.len() && same_keys(&a[0], &b[0], &keys) {
                Cmp::Equal
            } else {
                Cmp::Differ
            }
        } else {
            cmp_as_sets(a, b, notes)
        };
        worst = worst.max(c);
    }
    worst
}

/// Outcome of checking a list of queries on both engines.
#[derive(Default)]
pub struct Verdict {
    pub checked: usize,
    /// (query, detail) of results that differ only in a value's type tag.
    pub type_only: Vec<(String, String)>,
    /// (query, detail) of results that differ in content.
    pub mismatches: Vec<(String, String)>,
    /// Rows the column engine returned per query, in query order.
    pub column_rows: Vec<usize>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Print one line per finding and a summary line.
    pub fn print(&self, what: &str) {
        for (q, d) in &self.type_only {
            println!("# verify {what}: known defect in {q}: type tag differs ({d})");
        }
        for (q, d) in &self.mismatches {
            println!("# verify {what}: MISMATCH in {q}: {d}");
        }
        let names: Vec<&str> = self.type_only.iter().map(|(q, _)| q.as_str()).collect();
        println!(
            "# verify {what}: {} checked, {} mismatched, type-tag defect in [{}]",
            self.checked,
            self.mismatches.len(),
            names.join(", ")
        );
    }
}

/// Run every query on the row engine and on the column engine of one
/// node and compare the results.
pub fn engines_agree(engine: &QueryEngine, queries: &[(&str, String)]) -> Verdict {
    let mut v = Verdict::default();
    for (name, sql) in queries {
        v.checked += 1;
        let row = engine.run(sql, &QueryOptions::forced(Some(EngineChoice::Row)));
        let col = engine.run(sql, &QueryOptions::forced(Some(EngineChoice::Column)));
        let (row, col) = match (row, col) {
            (Ok(r), Ok(c)) => (r, c),
            (r, c) => {
                let err = |x: &imci_common::Result<QueryResult>| match x {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.to_string(),
                };
                v.mismatches.push((
                    name.to_string(),
                    format!("row: {}; column: {}", err(&r), err(&c)),
                ));
                v.column_rows.push(0);
                continue;
            }
        };
        v.column_rows.push(col.rows.len());
        let mut notes = Vec::new();
        match compare(sql, &row, &col, &mut notes) {
            Cmp::Equal => {}
            Cmp::TypeOnly => v.type_only.push((name.to_string(), notes.join("; "))),
            Cmp::Differ => {
                if notes.is_empty() {
                    notes.push("values differ".into());
                }
                v.mismatches.push((name.to_string(), notes.join("; ")));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::Value::*;

    fn res(columns: &[&str], rows: Vec<Vec<Value>>) -> QueryResult {
        QueryResult {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
            engine: EngineChoice::Row,
            affected: 0,
        }
    }

    #[test]
    fn doubles_compare_with_relative_tolerance() {
        assert_eq!(
            cmp_value(&Double(0.608527329), &Double(0.6085273290000001)),
            Cmp::Equal
        );
        assert_eq!(cmp_value(&Double(1.0), &Double(1.001)), Cmp::Differ);
    }

    #[test]
    fn date_as_int_is_a_type_only_difference() {
        assert_eq!(cmp_value(&Date(9183), &Int(9183)), Cmp::TypeOnly);
        assert_eq!(cmp_value(&Date(9183), &Int(9184)), Cmp::Differ);
    }

    #[test]
    fn ties_at_the_limit_compare_by_key() {
        let sql = "SELECT a, b FROM t ORDER BY b DESC LIMIT 2";
        let a = res(
            &["a", "b"],
            vec![vec![Int(1), Int(9)], vec![Int(2), Int(5)]],
        );
        let b = res(
            &["a", "b"],
            vec![vec![Int(1), Int(9)], vec![Int(3), Int(5)]],
        );
        assert_eq!(compare(sql, &a, &b, &mut Vec::new()), Cmp::Equal);
        let c = res(
            &["a", "b"],
            vec![vec![Int(1), Int(9)], vec![Int(3), Int(4)]],
        );
        assert_eq!(compare(sql, &a, &c, &mut Vec::new()), Cmp::Differ);
    }

    #[test]
    fn tied_rows_inside_the_result_compare_as_sets() {
        let sql = "SELECT a, b FROM t ORDER BY b";
        let a = res(
            &["a", "b"],
            vec![vec![Int(1), Int(5)], vec![Int(2), Int(5)]],
        );
        let b = res(
            &["a", "b"],
            vec![vec![Int(2), Int(5)], vec![Int(1), Int(5)]],
        );
        assert_eq!(compare(sql, &a, &b, &mut Vec::new()), Cmp::Equal);
        let c = res(
            &["a", "b"],
            vec![vec![Int(2), Int(5)], vec![Int(2), Int(5)]],
        );
        assert_eq!(compare(sql, &a, &c, &mut Vec::new()), Cmp::Differ);
    }
}
