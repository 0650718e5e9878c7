//! Attribute domains — a central metadata artefact in the paper.
//!
//! The paper's §III-A shows that sharing an attribute's *domain* already
//! enables random-generation leakage with expected hit count `N/|D_A|`
//! (categorical) or an ε-ball hit rate `2ε/|range|` (continuous). Domains
//! are therefore first-class objects here: they are what a party shares,
//! what an adversary samples from, and what the analytical models take as
//! input.

use crate::column::Column;
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::AttrKind;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The domain of a single attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Domain {
    /// A finite, sorted, de-duplicated set of values.
    ///
    /// Missing values (`Value::Null`) may be part of the domain — the
    /// echocardiogram evaluation counts `?` as an observable value, which is
    /// what makes the paper's random-match counts on binary attributes come
    /// out at `N/3` rather than `N/2`.
    Categorical(Vec<Value>),
    /// A closed numeric interval `[min, max]`.
    Continuous {
        /// Lower bound.
        min: f64,
        /// Upper bound (≥ `min`).
        max: f64,
    },
}

impl Domain {
    /// A categorical domain from any value iterator (sorted, de-duplicated).
    pub fn categorical<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut vals: Vec<Value> = values.into_iter().map(Into::into).collect();
        vals.sort();
        vals.dedup();
        Domain::Categorical(vals)
    }

    /// A continuous domain `[min, max]`. Swaps the bounds if given reversed.
    pub fn continuous(min: f64, max: f64) -> Self {
        if min <= max {
            Domain::Continuous { min, max }
        } else {
            Domain::Continuous { min: max, max: min }
        }
    }

    /// Cardinality `|D_A|` of a categorical domain, `None` for continuous.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Domain::Categorical(v) => Some(v.len()),
            Domain::Continuous { .. } => None,
        }
    }

    /// Width `max - min` of a continuous domain, `None` for categorical.
    pub fn range(&self) -> Option<f64> {
        match self {
            Domain::Continuous { min, max } => Some(max - min),
            Domain::Categorical(_) => None,
        }
    }

    /// The values of a categorical domain.
    pub fn values(&self) -> Option<&[Value]> {
        match self {
            Domain::Categorical(v) => Some(v),
            Domain::Continuous { .. } => None,
        }
    }

    /// Bounds of a continuous domain.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        match self {
            Domain::Continuous { min, max } => Some((*min, *max)),
            Domain::Categorical(_) => None,
        }
    }

    /// Whether the domain contains `v`.
    ///
    /// For continuous domains any numeric inside the interval counts; nulls
    /// are contained only if a categorical domain lists `Null` explicitly.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            Domain::Categorical(vals) => vals.binary_search(v).is_ok(),
            Domain::Continuous { min, max } => v.as_f64().is_some_and(|x| x >= *min && x <= *max),
        }
    }

    /// The categorical domain of a column's observed values, `Null`
    /// included: the same sorted, de-duplicated list as materialising,
    /// sorting and de-duplicating every cell, built from one
    /// representative row per [`Column::group_codes`] class (its first
    /// occurrence), so only a handful of values are materialised and
    /// sorted.
    pub fn observed(column: &Column) -> Domain {
        let (codes, n_codes) = column.group_codes();
        let mut seen = vec![false; n_codes];
        let mut vals: Vec<Value> = Vec::new();
        for (row, &code) in codes.iter().enumerate() {
            let code = code as usize;
            if !seen[code] {
                seen[code] = true;
                vals.push(column.value(row));
                if vals.len() == n_codes {
                    break;
                }
            }
        }
        // Each class is represented by its first row (so `-0.0` stays
        // `-0.0` when it precedes `0.0`), which is the cell a stable full
        // sort plus `dedup` keeps; `dedup` merges any classes that still
        // compare equal, earliest first, as the full sort would.
        vals.sort();
        vals.dedup();
        Domain::Categorical(vals)
    }

    /// Infers the domain of column `col` of `relation`, driven by the
    /// attribute's kind.
    ///
    /// * Categorical: the set of observed values *including* `Null` if any
    ///   row is missing (see [`Domain::Categorical`]).
    /// * Continuous: the observed `[min, max]` over non-null values.
    ///
    /// Errors with [`RelationError::EmptyRelation`] if a continuous column
    /// has no non-null values to bound.
    pub fn infer(relation: &Relation, col: usize) -> Result<Domain> {
        let attr = relation.schema().attribute(col)?;
        let column = relation.column(col)?;
        match attr.kind {
            AttrKind::Categorical => Ok(Domain::observed(column)),
            AttrKind::Continuous => {
                let mut it = column.iter().filter_map(|v| v.as_f64());
                let first = it.next().ok_or(RelationError::EmptyRelation)?;
                let (min, max) = it.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
                Ok(Domain::Continuous { min, max })
            }
        }
    }

    /// Infers the domain of every column.
    pub fn infer_all(relation: &Relation) -> Result<Vec<Domain>> {
        (0..relation.arity())
            .map(|c| Domain::infer(relation, c))
            .collect()
    }

    /// The paper's per-cell correct-generation probability θ_A for uniform
    /// random generation from this domain (§III-A for categorical; §IV-D's
    /// `2ε/range` for continuous with tolerance `epsilon`).
    ///
    /// Degenerate continuous domains (`range == 0`) yield probability 1.
    pub fn theta(&self, epsilon: f64) -> f64 {
        match self {
            Domain::Categorical(vals) => {
                if vals.is_empty() {
                    0.0
                } else {
                    1.0 / vals.len() as f64
                }
            }
            Domain::Continuous { min, max } => {
                let range = max - min;
                if range <= 0.0 {
                    1.0
                } else {
                    (2.0 * epsilon / range).min(1.0)
                }
            }
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Categorical(vals) => {
                write!(f, "{{")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Domain::Continuous { min, max } => write!(f, "[{min}, {max}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::continuous("salary"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec!["Sales".into(), 20_000i64.into()],
                vec!["CS".into(), 25_000i64.into()],
                vec![Value::Null, 27_000i64.into()],
                vec!["Sales".into(), 35_000i64.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn categorical_inference_includes_null() {
        let d = Domain::infer(&rel(), 0).unwrap();
        assert_eq!(d.cardinality(), Some(3)); // Null, CS, Sales
        assert!(d.contains(&Value::Null));
        assert!(d.contains(&"CS".into()));
        assert!(!d.contains(&"HR".into()));
    }

    #[test]
    fn continuous_inference_bounds() {
        let d = Domain::infer(&rel(), 1).unwrap();
        assert_eq!(d.bounds(), Some((20_000.0, 35_000.0)));
        assert_eq!(d.range(), Some(15_000.0));
        assert!(d.contains(&Value::Float(30_000.0)));
        assert!(!d.contains(&Value::Float(19_999.0)));
        assert!(!d.contains(&Value::Null));
    }

    #[test]
    fn continuous_all_null_is_error() {
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let r = Relation::from_rows(schema, vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        assert!(matches!(
            Domain::infer(&r, 0),
            Err(RelationError::EmptyRelation)
        ));
    }

    #[test]
    fn constructor_dedups_and_sorts() {
        let d = Domain::categorical(vec![3i64, 1, 3, 2]);
        assert_eq!(
            d.values().unwrap(),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn reversed_bounds_are_swapped() {
        let d = Domain::continuous(5.0, 1.0);
        assert_eq!(d.bounds(), Some((1.0, 5.0)));
    }

    #[test]
    fn theta_matches_paper_formulas() {
        // §III-A: uniform categorical θ = 1/|D|.
        let d = Domain::categorical(vec!["a", "b", "c"]);
        assert!((d.theta(0.0) - 1.0 / 3.0).abs() < 1e-12);

        // Continuous: 2ε / range, clamped to 1.
        let c = Domain::continuous(0.0, 10.0);
        assert!((c.theta(1.0) - 0.2).abs() < 1e-12);
        assert_eq!(c.theta(100.0), 1.0);

        // Degenerate cases.
        assert_eq!(Domain::Categorical(vec![]).theta(0.0), 0.0);
        assert_eq!(Domain::continuous(2.0, 2.0).theta(0.0), 1.0);
    }

    #[test]
    fn infer_all_covers_every_column() {
        let ds = Domain::infer_all(&rel()).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(matches!(ds[0], Domain::Categorical(_)));
        assert!(matches!(ds[1], Domain::Continuous { .. }));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Domain::categorical(vec![1i64, 2]).to_string(), "{1, 2}");
        assert_eq!(Domain::continuous(0.0, 1.5).to_string(), "[0, 1.5]");
    }
}
