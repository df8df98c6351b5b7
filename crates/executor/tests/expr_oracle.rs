//! Evaluator oracle. Random expression trees over NULL-heavy Int,
//! Double, Str and Date columns (with `i64::MIN`, `i64::MAX` and ±2^62
//! among the integers) are checked against a small row-at-a-time
//! reference that spells out SQL's rules over `Value`s: Kleene
//! `AND`/`OR`/`NOT`, NULL in → UNKNOWN out, `x IN (.., NULL)` UNKNOWN on
//! a miss, checked BIGINT arithmetic, `x / 0` NULL. The reference is not
//! the other engine, so a defect both engines share still shows.
//!
//! Checked: `Expr::eval` (every value, its type and its NULLs, or the
//! error), the WHERE collapse `Expr::eval_mask`, and the compressed
//! kernels `eval_sel` on sealed packs and on partial columns, under a
//! full and a thinned selection.

use imci_common::value::civil_from_days;
use imci_common::{DataType, Value};
use imci_core::{ColumnData, Pack, SelVec};
use imci_executor::{compressible, eval_sel, ArithOp, Batch, CmpOp, ColView, Expr, LikePattern};
use proptest::prelude::*;

/// SplitMix64: each case grows its data and trees from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// Column layout: two Int columns, then Double, Str and Date.
const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Int,
    DataType::Double,
    DataType::Str,
    DataType::Date,
];
const NUMERIC_COLS: [usize; 4] = [0, 1, 2, 4];

const INTS: [i64; 11] = [
    0,
    1,
    -1,
    3,
    5,
    7,
    i64::MIN,
    i64::MAX,
    1 << 62,
    -(1 << 62),
    (1 << 62) - 1,
];
const DOUBLES: [f64; 8] = [0.0, -0.0, 1.5, 3.0, -2.5, 7.0, 1e300, -1e300];
const STRS: [&str; 5] = ["", "ab", "abc", "b", "3"];
/// 1969-12-31, the epoch, 1995-06-13, 9999-12-31, 0001-01-01.
const DATES: [i64; 5] = [-1, 0, 9294, 2_932_896, -719_162];

fn value_of(ty: DataType, r: &mut Rng) -> Value {
    match ty {
        DataType::Int => Value::Int(r.pick(&INTS)),
        DataType::Double => Value::Double(r.pick(&DOUBLES)),
        DataType::Str => Value::Str(r.pick(&STRS).into()),
        DataType::Date => Value::Date(r.pick(&DATES)),
    }
}

/// A literal of any type, NULL included.
fn lit(r: &mut Rng) -> Value {
    match r.below(5) {
        4 => Value::Null,
        t => value_of(TYPES[t + 1], r),
    }
}

/// A numeric literal (Int, Double or Date) or NULL.
fn num_lit(r: &mut Rng) -> Value {
    match r.below(6) {
        0 => Value::Null,
        1 | 2 => Value::Double(r.pick(&DOUBLES)),
        3 => Value::Date(r.pick(&DATES)),
        _ => Value::Int(r.pick(&INTS)),
    }
}

/// Rows of NULL-heavy values in the `TYPES` layout.
fn rows(r: &mut Rng) -> Vec<Vec<Value>> {
    let n = 1 + r.below(24);
    (0..n)
        .map(|_| {
            TYPES
                .iter()
                .map(|&ty| match r.below(5) < 2 {
                    true => Value::Null,
                    false => value_of(ty, r),
                })
                .collect()
        })
        .collect()
}

fn columns(rows: &[Vec<Value>]) -> Vec<ColumnData> {
    TYPES
        .iter()
        .enumerate()
        .map(|(c, &ty)| {
            let mut col = ColumnData::new(ty);
            for (i, row) in rows.iter().enumerate() {
                col.set(i, &row[c]).unwrap();
            }
            col
        })
        .collect()
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const ARITH_OPS: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
const PATTERNS: [&str; 5] = ["ab%", "%b", "%b%", "abc", ""];

fn like(r: &mut Rng) -> LikePattern {
    LikePattern::parse(r.pick(&PATTERNS)).unwrap()
}

/// An `IN` list: mostly of one storage class, sometimes mixed or
/// holding NULL.
fn in_list(r: &mut Rng) -> Vec<Value> {
    let ty = TYPES[r.below(5)];
    (0..r.below(4))
        .map(|_| match r.below(6) {
            0 => Value::Null,
            1 => lit(r),
            _ => value_of(ty, r),
        })
        .collect()
}

/// Any expression tree. `num` biases leaves towards numbers (operands
/// of arithmetic and `YEAR`), so most trees evaluate instead of
/// failing on a string.
fn expr(r: &mut Rng, depth: u32, num: bool) -> Expr {
    let b = |e: Expr| Box::new(e);
    if depth == 0 || r.below(4) == 0 {
        let num = num && r.below(10) != 0;
        return match (r.below(3), num) {
            (0, false) => Expr::Lit(lit(r)),
            (0, true) => Expr::Lit(num_lit(r)),
            (_, false) => Expr::Col(r.below(5)),
            (_, true) => Expr::Col(r.pick(&NUMERIC_COLS)),
        };
    }
    let d = depth - 1;
    match r.below(10) {
        0 => Expr::Cmp(r.pick(&CMP_OPS), b(expr(r, d, num)), b(expr(r, d, num))),
        1 | 2 => Expr::Arith(r.pick(&ARITH_OPS), b(expr(r, d, true)), b(expr(r, d, true))),
        3 => Expr::And(b(expr(r, d, num)), b(expr(r, d, num))),
        4 => Expr::Or(b(expr(r, d, num)), b(expr(r, d, num))),
        5 => Expr::Not(b(expr(r, d, num))),
        6 => Expr::Between(b(expr(r, d, num)), lit(r), lit(r)),
        7 => Expr::InList(b(expr(r, d, num)), in_list(r)),
        8 => match r.below(2) {
            0 => Expr::Like(b(expr(r, d, false)), like(r)),
            _ => Expr::IsNull(b(expr(r, d, num)), r.below(2) == 0),
        },
        _ => Expr::Year(b(expr(r, d, true))),
    }
}

/// A predicate of the shapes the compressed kernels run: column vs
/// literal leaves under `AND`/`OR`/`NOT`.
fn kernel_pred(r: &mut Rng, depth: u32) -> Expr {
    let b = |e: Expr| Box::new(e);
    if depth == 0 || r.below(3) == 0 {
        let c = b(Expr::Col(r.below(5)));
        return match r.below(6) {
            0 => Expr::Cmp(r.pick(&CMP_OPS), c, b(Expr::Lit(lit(r)))),
            1 => Expr::Cmp(r.pick(&CMP_OPS), b(Expr::Lit(lit(r))), c),
            2 => Expr::Between(c, lit(r), lit(r)),
            3 => Expr::InList(c, in_list(r)),
            4 => Expr::Like(c, like(r)),
            _ => Expr::IsNull(c, r.below(2) == 0),
        };
    }
    let d = depth - 1;
    match r.below(3) {
        0 => Expr::And(b(kernel_pred(r, d)), b(kernel_pred(r, d))),
        1 => Expr::Or(b(kernel_pred(r, d)), b(kernel_pred(r, d))),
        _ => Expr::Not(b(kernel_pred(r, d))),
    }
}

/// The reference fails (as the evaluator must) on BIGINT overflow and on
/// arithmetic or `YEAR` over a string, or `YEAR` over a Double.
#[derive(Debug, PartialEq)]
struct Fails;

/// SQL truth of a value: NULL is UNKNOWN, a number is true when
/// non-zero, a string is never true.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(x) | Value::Date(x) => Some(*x != 0),
        Value::Double(d) => Some(*d != 0.0),
        Value::Str(_) => Some(false),
    }
}

fn of(t: Option<bool>) -> Value {
    t.map_or(Value::Null, |t| Value::Int(t as i64))
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn sql_cmp(op: CmpOp, a: &Value, b: &Value) -> Option<bool> {
    (!a.is_null() && !b.is_null()).then(|| op.test(a.cmp(b)))
}

fn arith(op: ArithOp, x: Value, y: Value) -> Result<Value, Fails> {
    if matches!(x, Value::Str(_)) || matches!(y, Value::Str(_)) {
        return Err(Fails);
    }
    if x.is_null() || y.is_null() {
        return Ok(Value::Null);
    }
    if let (Some(a), Some(b), false) = (x.as_int(), y.as_int(), op == ArithOp::Div) {
        let v = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            _ => a.checked_mul(b),
        };
        return v.map(Value::Int).ok_or(Fails);
    }
    let (a, b) = (x.as_f64().unwrap(), y.as_f64().unwrap());
    Ok(match op {
        ArithOp::Add => Value::Double(a + b),
        ArithOp::Sub => Value::Double(a - b),
        ArithOp::Mul => Value::Double(a * b),
        ArithOp::Div if b == 0.0 => Value::Null,
        ArithOp::Div => Value::Double(a / b),
    })
}

/// SQL's value of `e` on one row. Every operand is evaluated, as the
/// column-at-a-time evaluator does, so a failing operand fails the row
/// even where the other operand decides the answer.
fn reference(e: &Expr, row: &[Value]) -> Result<Value, Fails> {
    let ev = |x: &Expr| reference(x, row);
    Ok(match e {
        Expr::Col(i) => row[*i].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => of(sql_cmp(*op, &ev(a)?, &ev(b)?)),
        Expr::Arith(op, a, b) => arith(*op, ev(a)?, ev(b)?)?,
        Expr::And(a, b) => of(kleene_and(truth(&ev(a)?), truth(&ev(b)?))),
        Expr::Or(a, b) => {
            let not = |v: Value| truth(&v).map(|t| !t);
            of(kleene_and(not(ev(a)?), not(ev(b)?)).map(|t| !t))
        }
        Expr::Not(a) => of(truth(&ev(a)?).map(|t| !t)),
        Expr::Between(a, lo, hi) => {
            let x = ev(a)?;
            of(kleene_and(
                sql_cmp(CmpOp::Ge, &x, lo),
                sql_cmp(CmpOp::Le, &x, hi),
            ))
        }
        Expr::InList(a, list) => {
            let x = ev(a)?;
            if x.is_null() {
                Value::Null
            } else if list.iter().any(|v| !v.is_null() && *v == x) {
                Value::Int(1)
            } else {
                of(list.iter().all(|v| !v.is_null()).then_some(false))
            }
        }
        Expr::Like(a, pat) => match ev(a)? {
            Value::Null => Value::Null,
            Value::Str(s) => of(Some(pat.matches(&s))),
            _ => Value::Int(0),
        },
        Expr::IsNull(a, negated) => of(Some(ev(a)?.is_null() != *negated)),
        Expr::Year(a) => match ev(a)? {
            Value::Null => Value::Null,
            Value::Int(d) | Value::Date(d) => Value::Int(civil_from_days(d).0),
            _ => return Err(Fails),
        },
    })
}

/// A value with its type, DATE read as the Int it is stored as.
fn typed(v: Value) -> (Option<DataType>, Value) {
    match v {
        Value::Date(d) => (Some(DataType::Int), Value::Int(d)),
        v => (v.data_type(), v),
    }
}

/// `eval`, `eval_mask` and the kernels against the reference.
fn check(e: &Expr, rows: &[Vec<Value>], batch: &Batch, packs: &[Pack], sel: &SelVec) {
    let want: Result<Vec<Value>, Fails> = rows.iter().map(|r| reference(e, r)).collect();
    let got = e.eval(batch);
    let mask = e.eval_mask(batch);
    let want = match (want, got) {
        (Err(Fails), Err(_)) => return assert!(mask.is_err(), "{e:?}"),
        (Ok(want), Ok(got)) => {
            for (r, w) in want.iter().enumerate() {
                assert_eq!(typed(got.get(r)), typed(w.clone()), "row {r} of {e:?}");
            }
            want
        }
        (want, got) => panic!("{e:?}: reference {want:?}, evaluator {got:?}"),
    };
    let trues: Vec<bool> = want.iter().map(|v| truth(v) == Some(true)).collect();
    assert_eq!(mask.unwrap(), trues, "WHERE {e:?}");
    let views: [Vec<ColView>; 2] = [
        packs.iter().map(ColView::Pack).collect(),
        batch.cols.iter().map(ColView::Col).collect(),
    ];
    for views in &views {
        if !compressible(e, views) {
            continue;
        }
        for sel in [SelVec::identity(batch.len), sel.clone()] {
            let kept: Vec<u32> = sel.iter().filter(|&i| trues[i as usize]).collect();
            let got = eval_sel(e, views, sel).unwrap().into_vec();
            assert_eq!(got, kept, "kernels on {e:?}");
        }
    }
}

fn case(seed: u64) -> (usize, usize) {
    let mut r = Rng(seed);
    let rows = rows(&mut r);
    let batch = Batch {
        cols: columns(&rows),
        len: rows.len(),
    };
    let packs: Vec<Pack> = batch.cols.iter().map(Pack::seal).collect();
    let sel = SelVec::from_sorted((0..rows.len() as u32).filter(|_| r.below(3) != 0).collect());
    let views: Vec<ColView> = packs.iter().map(ColView::Pack).collect();
    let mut kernel_checks = 0;
    for _ in 0..12 {
        let num = r.below(2) == 0;
        let e = expr(&mut r, 3, num);
        check(&e, &rows, &batch, &packs, &sel);
        let p = kernel_pred(&mut r, 3);
        kernel_checks += compressible(&p, &views) as usize;
        check(&p, &rows, &batch, &packs, &sel);
    }
    (rows.len(), kernel_checks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn eval_mask_and_kernels_give_sqls_answer(seed in any::<u64>()) {
        case(seed);
    }
}

/// The generators reach the shapes the oracle exists for: most kernel
/// predicates are compressible, and the extremes overflow.
#[test]
fn generators_cover_kernels_and_overflow() {
    let checked: usize = (0..50).map(|s| case(s).1).sum();
    assert!(
        checked > 50 * 12 / 2,
        "{checked} compressible kernel predicates"
    );
    let over = Expr::Arith(
        ArithOp::Mul,
        Box::new(Expr::Col(0)),
        Box::new(Expr::Lit(Value::Int(4))),
    );
    let rows = vec![vec![
        Value::Int(1 << 62),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ]];
    assert_eq!(reference(&over, &rows[0]), Err(Fails));
    let batch = Batch {
        cols: columns(&rows),
        len: 1,
    };
    let packs: Vec<Pack> = batch.cols.iter().map(Pack::seal).collect();
    check(&over, &rows, &batch, &packs, &SelVec::identity(1));
}
