//! Pairwise order-dependency discovery (§IV-C).
//!
//! The paper's order dependencies are between attribute pairs, so discovery
//! checks every ordered pair `(X, Y)` for the ascending and descending
//! variants. Constant columns are excluded by default: an OD onto a
//! constant attribute holds vacuously and carries no structure.

use crate::engine::{DiscoveryContext, ParallelConfig};
use mp_metadata::{OrderDep, OrderDirection};
use mp_relation::{Relation, Result, ValueRef};

/// Options for OD discovery.
#[derive(Debug, Clone)]
pub struct OdConfig {
    /// Skip ODs whose RHS (or LHS) column is constant on non-null rows.
    pub exclude_constant: bool,
    /// Also search for descending ODs.
    pub include_descending: bool,
}

impl Default for OdConfig {
    fn default() -> Self {
        Self {
            exclude_constant: true,
            include_descending: true,
        }
    }
}

fn non_null_constant(relation: &Relation, col: usize) -> Result<bool> {
    let column = relation.column(col)?;
    let mut non_null = column.iter().filter(|v| !v.is_null());
    let Some(first) = non_null.next() else {
        return Ok(true);
    };
    Ok(non_null.all(|v| v == first))
}

/// Discovers all pairwise order dependencies of `relation`.
///
/// The validation semantics are exactly [`OrderDep::holds`]: tuples with a
/// null on either side are skipped, X-ties must be Y-ties, and Y must be
/// monotone in the direction of the dependency. When a pair satisfies both
/// directions (possible only if Y is constant across distinct X values,
/// which `exclude_constant` usually rules out), both are returned.
pub fn discover_ods(relation: &Relation, config: &OdConfig) -> Result<Vec<OrderDep>> {
    let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
    discover_ods_with(&ctx, config)
}

/// [`discover_ods`] against a shared [`DiscoveryContext`]: each
/// determinant is sorted once and every dependent swept along it for both
/// directions. Determinants fan out on the context's thread budget and
/// merge in order, so the output is identical to the sequential scan.
pub fn discover_ods_with(ctx: &DiscoveryContext<'_>, config: &OdConfig) -> Result<Vec<OrderDep>> {
    let want = Monotone {
        asc: true,
        desc: config.include_descending,
        strict: false,
    };
    let mut out = Vec::new();
    for (lhs, rhs, held) in order_sweep(ctx, config.exclude_constant, want)? {
        if held.asc {
            out.push(OrderDep::ascending(lhs, rhs));
        }
        if held.desc {
            out.push(OrderDep::descending(lhs, rhs));
        }
    }
    Ok(out)
}

/// How Y moves along X sorted ascending, nulls skipped. Every flag
/// requires X-ties to be Y-ties.
#[derive(Clone, Copy)]
pub(crate) struct Monotone {
    /// Y never decreases (the ascending OD).
    pub(crate) asc: bool,
    /// Y never increases (the descending OD).
    pub(crate) desc: bool,
    /// Y strictly increases wherever X does (the OFD).
    pub(crate) strict: bool,
}

/// The one order sweep behind OD and OFD discovery: each determinant's
/// non-null rows are sorted once, and every other column is swept along
/// that order until none of the flags set in `want` is left. Returns the
/// flags that held per ordered pair, determinant-major. `exclude_constant`
/// skips pairs with a side constant on its non-null rows.
pub(crate) fn order_sweep(
    ctx: &DiscoveryContext<'_>,
    exclude_constant: bool,
    want: Monotone,
) -> Result<Vec<(usize, usize, Monotone)>> {
    let relation = ctx.relation();
    let m = relation.arity();
    let constant = (0..m)
        .map(|c| Ok(exclude_constant && non_null_constant(relation, c)?))
        .collect::<Result<Vec<bool>>>()?;

    ctx.par_flat_map((0..m).filter(|&c| !constant[c]).collect(), |lhs| {
        let xs = relation.column(lhs)?;
        let mut order: Vec<usize> = (0..relation.n_rows()).filter(|&r| !xs.is_null(r)).collect();
        order.sort_by(|&a, &b| xs.value_ref(a).cmp(&xs.value_ref(b)));
        let mut out = Vec::new();
        for rhs in (0..m).filter(|&rhs| rhs != lhs && !constant[rhs]) {
            let ys = relation.column(rhs)?;
            let mut held = want;
            let mut prev: Option<(ValueRef<'_>, ValueRef<'_>)> = None;
            for &r in order.iter().filter(|&&r| !ys.is_null(r)) {
                let (x, y) = (xs.value_ref(r), ys.value_ref(r));
                if let Some((px, py)) = prev {
                    let tie = px == x;
                    held.asc &= if tie { py == y } else { py <= y };
                    held.desc &= if tie { py == y } else { py >= y };
                    held.strict &= if tie { py == y } else { py < y };
                    if !(held.asc || held.desc || held.strict) {
                        break;
                    }
                }
                prev = Some((x, y));
            }
            out.push((lhs, rhs, held));
        }
        Ok(out)
    })
}

/// The minimum number of tuples to delete so the OD holds — the `g3`
/// analogue for order dependencies, over tuples with no null. The kept
/// tuples form the heaviest chain of `(x, y)` groups with strictly rising
/// x, one y per x and Y monotone in the OD's direction. Read backwards, a
/// descending chain has rising Y, so X is sorted ascending for an
/// ascending OD and descending for a descending one, X-ties by falling Y;
/// the chain is then the longest non-decreasing subsequence of Y, found
/// in O(n log n) by patience sorting.
pub fn od_violations(relation: &Relation, od: &OrderDep) -> Result<usize> {
    let mut pairs = non_null_pairs(relation, od)?;
    pairs.sort_unstable_by(|a, b| {
        let x_order = match od.direction {
            OrderDirection::Ascending => a.0.cmp(&b.0),
            OrderDirection::Descending => b.0.cmp(&a.0),
        };
        x_order.then(b.1.cmp(&a.1))
    });
    // tails[k]: the smallest last Y of a non-decreasing run of length k + 1.
    let mut tails: Vec<ValueRef<'_>> = Vec::new();
    for &(_, y) in &pairs {
        let pos = tails.partition_point(|&t| t <= y);
        match tails.get_mut(pos) {
            Some(t) => *t = y,
            None => tails.push(y),
        }
    }
    Ok(pairs.len() - tails.len())
}

/// The `(x, y)` cells of an OD's columns, rows with a null dropped.
fn non_null_pairs<'r>(
    relation: &'r Relation,
    od: &OrderDep,
) -> Result<Vec<(ValueRef<'r>, ValueRef<'r>)>> {
    let (xs, ys) = (relation.column(od.lhs)?, relation.column(od.rhs)?);
    Ok(xs
        .iter()
        .zip(ys.iter())
        .filter(|(x, y)| !x.is_null() && !y.is_null())
        .collect())
}

/// The approximate-OD error: `od_violations / non-null pairs` (0 iff the
/// OD holds).
pub fn od_error(relation: &Relation, od: &OrderDep) -> Result<f64> {
    let n = non_null_pairs(relation, od)?.len();
    if n == 0 {
        return Ok(0.0);
    }
    Ok(od_violations(relation, od)? as f64 / n as f64)
}

/// Discovers *approximate* order dependencies: pairs whose OD error is
/// within `threshold` but that do not hold exactly (an OD holds exactly
/// iff its error is 0). Mirrors the AFD relaxation of FDs (§IV-A) for the
/// order class.
pub fn discover_approx_ods(
    relation: &Relation,
    threshold: f64,
    config: &OdConfig,
) -> Result<Vec<(OrderDep, f64)>> {
    let m = relation.arity();
    let mut out = Vec::new();
    for lhs in 0..m {
        for rhs in 0..m {
            if lhs == rhs {
                continue;
            }
            let mut candidates = vec![OrderDep::ascending(lhs, rhs)];
            if config.include_descending {
                candidates.push(OrderDep::descending(lhs, rhs));
            }
            for od in candidates {
                let err = od_error(relation, &od)?;
                if err > 0.0 && err <= threshold {
                    out.push((od, err));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::{echocardiogram, employee};
    use mp_relation::{Attribute, Schema, Value};
    use proptest::prelude::*;

    #[test]
    fn employee_ods() {
        let ods = discover_ods(&employee(), &OdConfig::default()).unwrap();
        // Salary ≤ → Age ≤ (salaries unique, ages monotone).
        assert!(ods.contains(&OrderDep::ascending(3, 1)));
        // Age does not order salary (ties on 22 break it).
        assert!(!ods.contains(&OrderDep::ascending(1, 3)));
        // Every discovered OD must hold by the exact semantics.
        for od in &ods {
            assert!(od.holds(&employee()).unwrap(), "{od:?}");
        }
    }

    #[test]
    fn echocardiogram_planted_ods_found() {
        use mp_datasets::echocardiogram::attrs::*;
        let r = echocardiogram();
        let ods = discover_ods(&r, &OdConfig::default()).unwrap();
        for (l, rr) in [
            (AGE, GROUP),
            (WALL_MOTION_SCORE, WALL_MOTION_INDEX),
            (LVDD, EPSS),
            (FRACTIONAL_SHORTENING, MULT),
            (SURVIVAL, STILL_ALIVE),
        ] {
            assert!(
                ods.contains(&OrderDep::ascending(l, rr)),
                "expected OD {l} -> {rr}"
            );
        }
    }

    #[test]
    fn descending_found() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 9.0.into()],
                vec![2.0.into(), 5.0.into()],
                vec![3.0.into(), 1.0.into()],
            ],
        )
        .unwrap();
        let ods = discover_ods(&r, &OdConfig::default()).unwrap();
        assert!(ods.contains(&OrderDep::descending(0, 1)));
        assert!(!ods.contains(&OrderDep::ascending(0, 1)));

        let no_desc = discover_ods(
            &r,
            &OdConfig {
                include_descending: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(no_desc.iter().all(|od| od.lhs != 0 || od.rhs != 1));
    }

    #[test]
    fn constant_columns_excluded_by_default() {
        let schema = Schema::new(vec![
            Attribute::continuous("x"),
            Attribute::categorical("c"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec![1.0.into(), "k".into()], vec![2.0.into(), "k".into()]],
        )
        .unwrap();
        assert!(discover_ods(&r, &OdConfig::default()).unwrap().is_empty());
        let with_const = discover_ods(
            &r,
            &OdConfig {
                exclude_constant: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with_const.contains(&OrderDep::ascending(0, 1)));
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::empty(schema);
        assert!(discover_ods(&r, &OdConfig::default()).unwrap().is_empty());
    }

    #[test]
    fn discovery_agrees_with_holds_semantics() {
        // Cross-check the incremental single-pass check against the
        // definition-level validator on a relation with nulls and ties.
        let out = mp_datasets::all_classes_spec(120, 33).generate().unwrap();
        let r = &out.relation;
        let ods = discover_ods(r, &OdConfig::default()).unwrap();
        for lhs in 0..r.arity() {
            for rhs in 0..r.arity() {
                if lhs == rhs {
                    continue;
                }
                for od in [
                    OrderDep::ascending(lhs, rhs),
                    OrderDep::descending(lhs, rhs),
                ] {
                    let found = ods.contains(&od);
                    let holds = od.holds(r).unwrap();
                    if found {
                        assert!(holds, "discovered OD must hold: {od:?}");
                    }
                    // `holds` without `found` is possible only via the
                    // constant-column exclusion.
                    if holds && !found {
                        let c_l = non_null_constant(r, lhs).unwrap();
                        let c_r = non_null_constant(r, rhs).unwrap();
                        assert!(c_l || c_r, "missed OD {od:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn od_violations_counts_minimum_deletions() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        // Sorted by x, y = 1, 2, 9, 3, 4: delete the single 9 → holds.
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 1.0.into()],
                vec![2.0.into(), 2.0.into()],
                vec![3.0.into(), 9.0.into()],
                vec![4.0.into(), 3.0.into()],
                vec![5.0.into(), 4.0.into()],
            ],
        )
        .unwrap();
        let od = OrderDep::ascending(0, 1);
        assert_eq!(od_violations(&r, &od).unwrap(), 1);
        assert!((od_error(&r, &od).unwrap() - 0.2).abs() < 1e-12);
        // Exact OD fails, approximate at 20% succeeds.
        assert!(!od.holds(&r).unwrap());
        let approx = discover_approx_ods(&r, 0.2, &OdConfig::default()).unwrap();
        assert!(approx
            .iter()
            .any(|(d, e)| *d == od && (*e - 0.2).abs() < 1e-12));
        // Tighter threshold excludes it.
        let none = discover_approx_ods(&r, 0.1, &OdConfig::default()).unwrap();
        assert!(!none.iter().any(|(d, _)| *d == od));
    }

    #[test]
    fn od_violations_zero_for_exact_ods() {
        let r = employee();
        let od = OrderDep::ascending(3, 1);
        assert!(od.holds(&r).unwrap());
        assert_eq!(od_violations(&r, &od).unwrap(), 0);
    }

    #[test]
    fn descending_violations() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 9.0.into()],
                vec![2.0.into(), 10.0.into()], // the one ascent
                vec![3.0.into(), 5.0.into()],
                vec![4.0.into(), 1.0.into()],
            ],
        )
        .unwrap();
        let od = OrderDep::descending(0, 1);
        assert_eq!(od_violations(&r, &od).unwrap(), 1);
    }

    #[test]
    fn approx_discovery_excludes_exact_ods() {
        let r = echocardiogram();
        let exact = discover_ods(&r, &OdConfig::default()).unwrap();
        let approx = discover_approx_ods(&r, 0.1, &OdConfig::default()).unwrap();
        for (od, err) in &approx {
            assert!(!exact.contains(od), "{od:?} is exact");
            assert!(*err > 0.0 && *err <= 0.1);
        }
    }

    fn xy_rows(rows: &[(Option<i64>, Option<i64>)]) -> Relation {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let cell = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        Relation::from_rows(
            schema,
            rows.iter().map(|&(x, y)| vec![cell(x), cell(y)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn x_ties_with_different_y_are_violations_in_either_row_order() {
        for rows in [
            [(Some(1), Some(1)), (Some(1), Some(2))],
            [(Some(1), Some(2)), (Some(1), Some(1))],
        ] {
            let r = xy_rows(&rows);
            for od in [OrderDep::ascending(0, 1), OrderDep::descending(0, 1)] {
                assert!(!od.holds(&r).unwrap());
                assert_eq!(od_violations(&r, &od).unwrap(), 1, "{od:?} on {rows:?}");
                assert!((od_error(&r, &od).unwrap() - 0.5).abs() < 1e-12);
            }
        }
    }

    /// The definition: the most non-null rows a subset can keep while
    /// [`OrderDep::holds`] is true on it, subtracted from all of them.
    fn brute_force_violations(r: &Relation, od: &OrderDep) -> usize {
        let (xs, ys) = (r.column(0).unwrap(), r.column(1).unwrap());
        let rows: Vec<usize> = (0..r.n_rows())
            .filter(|&i| !xs.is_null(i) && !ys.is_null(i))
            .collect();
        let kept = (0u32..1 << rows.len())
            .filter_map(|mask| {
                let subset: Vec<usize> = (0..rows.len())
                    .filter(|&k| (mask >> k) & 1 == 1)
                    .map(|k| rows[k])
                    .collect();
                let holds = od.holds(&r.select_rows(&subset).unwrap()).unwrap();
                holds.then_some(subset.len())
            })
            .max()
            .unwrap_or(0);
        rows.len() - kept
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn od_violations_is_the_minimum_deletion_count(
            rows in prop::collection::vec(
                (prop::option::of(0i64..4), prop::option::of(0i64..4)),
                0..=8,
            ),
        ) {
            let r = xy_rows(&rows);
            for od in [OrderDep::ascending(0, 1), OrderDep::descending(0, 1)] {
                let violations = od_violations(&r, &od).unwrap();
                prop_assert_eq!(violations, brute_force_violations(&r, &od), "{:?}", od);
                prop_assert_eq!(violations == 0, od.holds(&r).unwrap(), "{:?}", od);
            }
        }
    }
}
