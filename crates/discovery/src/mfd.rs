//! Metric-FD discovery and variable-CFD discovery.
//!
//! * **MFDs** (`X → Y (δ)`): for every pair with a numeric dependent
//!   attribute, compute the tight δ (maximum Y-spread within an
//!   X-partition) and keep the informative ones — small relative to Y's
//!   range and not already exact FDs.
//! * **Variable CFDs** (`(C = c, X → Y)`): for every condition value `c`
//!   with enough support, check whether the embedded FD `X → Y` holds on
//!   the matching partition even though it fails globally.

use crate::dd::{min_max, numeric_range};
use crate::engine::{DiscoveryContext, ParallelConfig};
use mp_metadata::{ConditionalFd, Fd, MetricFd};
use mp_relation::{Pli, Relation, Result};

/// Options for MFD discovery.
#[derive(Debug, Clone)]
pub struct MfdConfig {
    /// Keep MFDs whose tight δ is at most this fraction of the dependent
    /// attribute's range.
    pub delta_fraction: f64,
    /// Skip pairs where the exact FD already holds (δ = 0 everywhere).
    pub exclude_fds: bool,
}

impl Default for MfdConfig {
    fn default() -> Self {
        Self {
            delta_fraction: 0.2,
            exclude_fds: true,
        }
    }
}

/// Discovers informative metric FDs between attribute pairs.
pub fn discover_mfds(relation: &Relation, config: &MfdConfig) -> Result<Vec<MetricFd>> {
    let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
    discover_mfds_with(&ctx, config)
}

/// [`discover_mfds`] against a shared [`DiscoveryContext`]: each dependent
/// column is read once as `f64`s and its range judged once, determinant
/// partitions come from the context's cache, and the tight δ is one pass
/// per cluster. Dependents fan out on the context's thread budget, merged
/// in dependent order.
pub(crate) fn discover_mfds_with(
    ctx: &DiscoveryContext<'_>,
    config: &MfdConfig,
) -> Result<Vec<MetricFd>> {
    let relation = ctx.relation();
    let m = relation.arity();
    ctx.par_flat_map((0..m).collect(), |rhs| {
        let col = relation.column(rhs)?;
        // Relations reject columns mixing text and numbers, so a column
        // with no numeric range is text (no metric exists) or constant.
        let range = numeric_range(col).unwrap_or(0.0);
        let mut out = Vec::new();
        if range <= 0.0 {
            return Ok(out);
        }
        let ys: Vec<Option<f64>> = (0..col.len()).map(|r| col.f64_at(r)).collect();
        // A cluster's Y-spread; one numeric Y spreads 0, which raises no δ.
        let spread = |cluster: &[u32]| min_max(cluster.iter().filter_map(|&r| ys[r as usize]));
        for lhs in (0..m).filter(|&lhs| lhs != rhs) {
            let delta = ctx
                .pli_of_single(lhs)?
                .clusters()
                .filter_map(spread)
                .fold(0.0f64, |delta, (lo, hi)| delta.max(hi - lo));
            if config.exclude_fds && delta == 0.0 {
                continue;
            }
            if delta <= config.delta_fraction * range {
                out.push(MetricFd::new(lhs, rhs, delta));
            }
        }
        Ok(out)
    })
}

/// Options for variable-CFD discovery.
#[derive(Debug, Clone)]
pub struct VariableCfdConfig {
    /// Minimum tuples matching the condition value.
    pub min_support: usize,
    /// Skip (X, Y) pairs where the unconditional FD holds.
    pub exclude_global_fds: bool,
}

impl Default for VariableCfdConfig {
    fn default() -> Self {
        Self {
            min_support: 4,
            exclude_global_fds: true,
        }
    }
}

/// Discovers variable CFDs `(C = c, X → Y)` over attribute triples.
pub fn discover_variable_cfds(
    relation: &Relation,
    config: &VariableCfdConfig,
) -> Result<Vec<ConditionalFd>> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return Ok(out);
    }
    for cond in 0..m {
        let cond_col = relation.column(cond)?;
        let cond_pli = Pli::from_typed(cond_col);
        for fd_lhs in 0..m {
            if fd_lhs == cond {
                continue;
            }
            for rhs in 0..m {
                if rhs == cond || rhs == fd_lhs {
                    continue;
                }
                if config.exclude_global_fds && Fd::new(fd_lhs, rhs).holds(relation)? {
                    continue;
                }
                for cluster in cond_pli.clusters() {
                    if cluster.len() < config.min_support {
                        continue;
                    }
                    let rows: Vec<usize> = cluster.iter().map(|&r| r as usize).collect();
                    let Some(&row0) = rows.first() else {
                        continue;
                    };
                    let subset = relation.select_rows(&rows)?;
                    if Fd::new(fd_lhs, rhs).holds(&subset)? {
                        out.push(ConditionalFd::variable(
                            cond,
                            cond_col.value(row0),
                            fd_lhs,
                            rhs,
                        ));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Options for SD discovery.
#[derive(Debug, Clone)]
pub struct SdConfig {
    /// Keep SDs whose gap-interval width is at most this fraction of the
    /// dependent attribute's range.
    pub width_fraction: f64,
    /// Minimum number of consecutive pairs needed for the bounds to mean
    /// anything.
    pub min_pairs: usize,
}

impl Default for SdConfig {
    fn default() -> Self {
        Self {
            width_fraction: 0.3,
            min_pairs: 4,
        }
    }
}

/// Discovers informative sequential dependencies between attribute pairs:
/// tight gap bounds whose width is small relative to the dependent range.
pub fn discover_sds(
    relation: &Relation,
    config: &SdConfig,
) -> Result<Vec<mp_metadata::SequentialDep>> {
    use mp_metadata::SequentialDep;
    let m = relation.arity();
    let mut out = Vec::new();
    for rhs in 0..m {
        let range = numeric_range(relation.column(rhs)?).unwrap_or(0.0);
        if range <= 0.0 {
            continue;
        }
        for lhs in 0..m {
            if lhs == rhs {
                continue;
            }
            let Some(gaps) = SequentialDep::gaps(lhs, rhs, relation)? else {
                continue;
            };
            if gaps.len() < config.min_pairs {
                continue;
            }
            let (g_lo, g_hi) =
                min_max(gaps.iter().copied()).unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
            if g_hi - g_lo <= config.width_fraction * range {
                out.push(SequentialDep::new(lhs, rhs, g_lo, g_hi));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

    #[test]
    fn mfd_discovery_finds_bounded_spread() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        // Partitions with spread ≤ 1 over a range of 100.
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 10.0.into()],
                vec!["a".into(), 10.8.into()],
                vec!["b".into(), 50.0.into()],
                vec!["b".into(), 50.5.into()],
                vec!["c".into(), 110.0.into()],
            ],
        )
        .unwrap();
        let mfds = discover_mfds(&r, &MfdConfig::default()).unwrap();
        let found = mfds
            .iter()
            .find(|d| d.lhs == 0 && d.rhs == 1)
            .expect("MFD 0→1");
        assert!((found.delta - 0.8).abs() < 1e-12, "tight delta");
        assert!(found.holds(&r).unwrap());
    }

    #[test]
    fn mfd_excludes_exact_fds_by_default() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 1.0.into()],
                vec!["a".into(), 1.0.into()],
                vec!["b".into(), 2.0.into()],
            ],
        )
        .unwrap();
        assert!(discover_mfds(&r, &MfdConfig::default()).unwrap().is_empty());
        let with = discover_mfds(
            &r,
            &MfdConfig {
                exclude_fds: false,
                delta_fraction: 0.2,
            },
        )
        .unwrap();
        assert!(with
            .iter()
            .any(|d| d.lhs == 0 && d.rhs == 1 && d.delta == 0.0));
    }

    #[test]
    fn mfd_discovery_on_planted_data() {
        let out = mp_datasets::all_classes_spec(300, 7).generate().unwrap();
        for mfd in discover_mfds(&out.relation, &MfdConfig::default()).unwrap() {
            assert!(mfd.holds(&out.relation).unwrap(), "{mfd}");
        }
    }

    #[test]
    fn variable_cfd_discovery() {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::categorical("role"),
            Attribute::categorical("bonus"),
        ])
        .unwrap();
        // Within dept=CS role → bonus holds; within dept=Mgmt it fails;
        // globally it fails.
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "sr".into(), "2".into()],
                vec!["CS".into(), "sr".into(), "2".into()],
                vec!["Mgmt".into(), "jr".into(), "9".into()],
                vec!["Mgmt".into(), "jr".into(), "1".into()],
                vec!["Mgmt".into(), "sr".into(), "1".into()],
                vec!["Mgmt".into(), "sr".into(), "1".into()],
            ],
        )
        .unwrap();
        let cfds = discover_variable_cfds(&r, &VariableCfdConfig::default()).unwrap();
        let target = ConditionalFd::variable(0, "CS", 1, 2);
        assert!(cfds.contains(&target), "found: {cfds:?}");
        assert!(!cfds.contains(&ConditionalFd::variable(0, "Mgmt", 1, 2)));
        for c in &cfds {
            assert!(c.holds(&r).unwrap(), "{c}");
        }
    }

    #[test]
    fn variable_cfd_respects_support() {
        let schema = Schema::new(vec![
            Attribute::categorical("c"),
            Attribute::categorical("x"),
            Attribute::categorical("y"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), "1".into(), "p".into()],
                vec!["a".into(), "2".into(), "q".into()],
                vec!["b".into(), "1".into(), "p".into()],
                vec!["b".into(), "1".into(), "q".into()],
            ],
        )
        .unwrap();
        // Support 2 < min_support 4 → nothing reported.
        assert!(discover_variable_cfds(&r, &VariableCfdConfig::default())
            .unwrap()
            .is_empty());
        let relaxed = discover_variable_cfds(
            &r,
            &VariableCfdConfig {
                min_support: 2,
                exclude_global_fds: true,
            },
        )
        .unwrap();
        assert!(relaxed.contains(&ConditionalFd::variable(0, "a", 1, 2)));
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let r = Relation::empty(schema);
        assert!(discover_mfds(&r, &MfdConfig::default()).unwrap().is_empty());
        assert!(discover_variable_cfds(&r, &VariableCfdConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sd_discovery_finds_bounded_gaps() {
        use mp_metadata::SequentialDep;
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        // y increases by 1.0–1.2 per step of x over a range of ~6.
        let r = Relation::from_rows(
            schema,
            (0..6)
                .map(|i| {
                    vec![
                        Value::Float(i as f64),
                        Value::Float(i as f64 * 1.1 + if i % 2 == 0 { 0.05 } else { 0.0 }),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let sds = discover_sds(
            &r,
            &SdConfig {
                width_fraction: 0.3,
                min_pairs: 4,
            },
        )
        .unwrap();
        let sd = sds
            .iter()
            .find(|d| d.lhs == 0 && d.rhs == 1)
            .expect("SD 0→1");
        assert!(sd.holds(&r).unwrap());
        // Tightness: shrinking the window breaks it.
        let tighter = SequentialDep::new(0, 1, sd.min_gap + 0.01, sd.max_gap);
        assert!(!tighter.holds(&r).unwrap());
    }

    #[test]
    fn sd_discovery_respects_min_pairs_and_width() {
        let out = mp_datasets::all_classes_spec(200, 11).generate().unwrap();
        for sd in discover_sds(&out.relation, &SdConfig::default()).unwrap() {
            assert!(sd.holds(&out.relation).unwrap(), "{sd}");
        }
        // An absurdly tight width filter returns nothing.
        let none = discover_sds(
            &out.relation,
            &SdConfig {
                width_fraction: 1e-12,
                min_pairs: 4,
            },
        )
        .unwrap();
        assert!(none.iter().all(|sd| sd.max_gap - sd.min_gap <= 1e-9));
    }
}
