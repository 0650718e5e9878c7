//! Pairwise differential-dependency discovery (§IV-D).
//!
//! Given a closeness threshold `ε_X` on the source attribute (expressed as
//! a fraction of its range), the tightest implied threshold `δ_Y` is the
//! maximum `|Δy|` over all tuple pairs with `|Δx| ≤ ε_X`. The DD
//! `X (ε) → Y (δ)` is informative only when `δ_Y` is substantially smaller
//! than Y's range — otherwise the "dependency" says nothing.

use crate::engine::{DiscoveryContext, ParallelConfig};
use mp_metadata::DifferentialDep;
use mp_relation::{AttrKind, Column, Relation, Result};

/// Options for DD discovery.
#[derive(Debug, Clone)]
pub struct DdConfig {
    /// `ε_X` as a fraction of the source attribute's observed range.
    pub eps_fraction: f64,
    /// Keep DDs whose tight `δ_Y ≤ delta_fraction · range(Y)`.
    pub delta_fraction: f64,
}

impl Default for DdConfig {
    fn default() -> Self {
        Self {
            eps_fraction: 0.05,
            delta_fraction: 0.25,
        }
    }
}

/// The tightest `δ_Y` for the DD `lhs (eps) → rhs` on `relation`: the
/// maximum RHS gap over all ε-close LHS pairs, or `None` if fewer than two
/// non-null pairs exist.
pub fn tight_delta(relation: &Relation, lhs: usize, rhs: usize, eps: f64) -> Result<Option<f64>> {
    let xs = relation.column(lhs)?;
    let ys = relation.column(rhs)?;
    let mut pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys.iter())
        .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
        .collect();
    if pairs.len() < 2 {
        return Ok(None);
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut delta = 0.0f64;
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            if pairs[j].0 - pairs[i].0 > eps {
                break;
            }
            delta = delta.max((pairs[j].1 - pairs[i].1).abs());
        }
    }
    Ok(Some(delta))
}

/// `(min, max)` of `nums` in one pass, or `None` when it is empty.
/// `f64::min`/`f64::max` skip NaNs, as the folds they replace did.
pub(crate) fn min_max(nums: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    nums.fold(None, |acc, v| {
        let (lo, hi) = acc.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
        Some((lo.min(v), hi.max(v)))
    })
}

/// The spread `max − min` of a column's numeric cells (`Int` widened),
/// or `None` when it has none. Every pass that scales a threshold by an
/// attribute's range reads it here.
pub(crate) fn numeric_range(column: &Column) -> Option<f64> {
    min_max((0..column.len()).filter_map(|r| column.f64_at(r))).map(|(lo, hi)| hi - lo)
}

/// Discovers informative differential dependencies between continuous
/// attribute pairs.
pub fn discover_dds(relation: &Relation, config: &DdConfig) -> Result<Vec<DifferentialDep>> {
    let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
    discover_dds_with(&ctx, config)
}

/// [`discover_dds`] against a shared [`DiscoveryContext`]: the quadratic
/// ε-window sweeps — the expensive part — fan out over source attributes
/// on the context's thread budget, merged in attribute order so the
/// output is identical to the sequential scan.
pub fn discover_dds_with(
    ctx: &DiscoveryContext<'_>,
    config: &DdConfig,
) -> Result<Vec<DifferentialDep>> {
    let relation = ctx.relation();
    let continuous = relation.schema().indices_of_kind(AttrKind::Continuous);
    // Ranges once per attribute, shared by both loop roles.
    let mut ranges: Vec<(usize, f64)> = Vec::new();
    for &c in &continuous {
        if let Some(range) = numeric_range(relation.column(c)?) {
            if range > 0.0 {
                ranges.push((c, range));
            }
        }
    }

    ctx.par_flat_map(ranges.clone(), |(lhs, range_x)| {
        let eps = config.eps_fraction * range_x;
        let mut out = Vec::new();
        for &(rhs, range_y) in &ranges {
            if lhs == rhs {
                continue;
            }
            let Some(delta) = tight_delta(relation, lhs, rhs, eps)? else {
                continue;
            };
            if delta <= config.delta_fraction * range_y {
                out.push(DifferentialDep::new(lhs, rhs, eps, delta));
            }
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::all_classes_spec;
    use mp_relation::{Attribute, Schema};

    fn xy(rows: &[(f64, f64)]) -> Relation {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|&(x, y)| vec![x.into(), y.into()])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn tight_delta_matches_definition() {
        let r = xy(&[(0.0, 0.0), (1.0, 10.0), (2.0, 11.0), (10.0, 0.0)]);
        // eps = 1.5: close pairs (0,1), (1,2) → max |Δy| = 10.
        assert_eq!(tight_delta(&r, 0, 1, 1.5).unwrap(), Some(10.0));
        // eps = 0.5: no close pairs → delta 0.
        assert_eq!(tight_delta(&r, 0, 1, 0.5).unwrap(), Some(0.0));
    }

    #[test]
    fn discovered_dds_hold_and_are_tight() {
        let out = all_classes_spec(200, 12).generate().unwrap();
        let dds = discover_dds(&out.relation, &DdConfig::default()).unwrap();
        // mono(3) is a monotone rescaling of x(2): their DD must be found
        // in both directions.
        assert!(dds.iter().any(|d| d.lhs == 2 && d.rhs == 3));
        assert!(dds.iter().any(|d| d.lhs == 3 && d.rhs == 2));
        for d in &dds {
            assert!(d.holds(&out.relation).unwrap(), "discovered DD must hold");
            // Tightness: shrinking delta below the reported value breaks it
            // (unless delta is 0, i.e. ε-close pairs agree exactly).
            if d.delta_rhs > 0.0 {
                let tighter = DifferentialDep::new(d.lhs, d.rhs, d.eps_lhs, d.delta_rhs * 0.999);
                assert!(!tighter.holds(&out.relation).unwrap());
            }
        }
    }

    #[test]
    fn uncorrelated_pair_rejected() {
        // noisy(6) has ±5 noise on a 100-range x; with delta_fraction tiny
        // the pair is not informative.
        let out = all_classes_spec(300, 13).generate().unwrap();
        let dds = discover_dds(
            &out.relation,
            &DdConfig {
                eps_fraction: 0.05,
                delta_fraction: 0.02,
            },
        )
        .unwrap();
        assert!(!dds.iter().any(|d| d.lhs == 2 && d.rhs == 6));
    }

    #[test]
    fn categorical_attributes_ignored() {
        let out = all_classes_spec(100, 14).generate().unwrap();
        let dds = discover_dds(&out.relation, &DdConfig::default()).unwrap();
        for d in &dds {
            for a in [d.lhs, d.rhs] {
                assert_eq!(
                    out.relation.schema().attribute(a).unwrap().kind,
                    AttrKind::Continuous
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let r = xy(&[(1.0, 1.0)]);
        assert_eq!(tight_delta(&r, 0, 1, 1.0).unwrap(), None);
        assert!(discover_dds(&r, &DdConfig::default()).unwrap().is_empty());

        // Constant x: zero range → skipped.
        let r = xy(&[(1.0, 1.0), (1.0, 5.0)]);
        assert!(discover_dds(&r, &DdConfig::default())
            .unwrap()
            .iter()
            .all(|d| d.lhs != 0));
    }
}
