//! Reference CFD, MFD and OFD discovery: the per-pair loops the profile
//! passes ran before they read the `DiscoveryContext`. Every pair goes
//! through a definition-level validator of mp-metadata (`Fd::holds`,
//! `MetricFd::tight_delta`, `OrderedFd::holds`), which rebuilds its
//! partitions or its sort from boxed `Value`s. The context-backed passes
//! must return exactly these vectors, order included.
//!
//! Shared by `pass_oracle` here and by mp-bench's `profile_oracle`.

use mp_discovery::{CfdConfig, MfdConfig};
use mp_metadata::{ConditionalFd, Fd, MetricFd, OrderedFd};
use mp_relation::{Pli, Relation};

/// Constant CFDs, excluding FD pairs by `Fd::holds` per pair.
pub fn cfds(relation: &Relation, config: &CfdConfig) -> Vec<ConditionalFd> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return out;
    }
    for lhs in 0..m {
        let lhs_col = relation.column(lhs).unwrap();
        let lhs_pli = Pli::from_typed(lhs_col);
        for rhs in 0..m {
            if rhs == lhs {
                continue;
            }
            if config.exclude_fd_pairs && Fd::new(lhs, rhs).holds(relation).unwrap() {
                continue;
            }
            let rhs_col = relation.column(rhs).unwrap();
            for cluster in lhs_pli.clusters() {
                if cluster.len() < config.min_support {
                    continue;
                }
                let (&row0, rest) = cluster.split_first().unwrap();
                let y = rhs_col.value_ref(row0 as usize);
                if rest.iter().all(|&r| rhs_col.value_ref(r as usize) == y) {
                    out.push(ConditionalFd::constant(
                        lhs,
                        lhs_col.value(row0 as usize),
                        rhs,
                        y.to_value(),
                    ));
                }
            }
        }
    }
    out
}

/// Metric FDs, with δ from `MetricFd::tight_delta` per pair.
pub fn mfds(relation: &Relation, config: &MfdConfig) -> Vec<MetricFd> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return out;
    }
    for rhs in 0..m {
        let nums: Vec<f64> = relation
            .column(rhs)
            .unwrap()
            .iter()
            .filter_map(|v| v.as_f64())
            .collect();
        if nums.len() < 2 {
            continue;
        }
        let lo = nums.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for lhs in 0..m {
            if lhs == rhs {
                continue;
            }
            let Some(delta) = MetricFd::tight_delta(lhs, rhs, relation).unwrap() else {
                continue;
            };
            if config.exclude_fds && delta == 0.0 {
                continue;
            }
            if delta <= config.delta_fraction * range {
                out.push(MetricFd::new(lhs, rhs, delta));
            }
        }
    }
    out
}

/// Ordered FDs by `OrderedFd::holds` per pair, optionally skipping
/// columns constant on their non-null rows.
pub fn ofds(relation: &Relation, exclude_constant: bool) -> Vec<OrderedFd> {
    let m = relation.arity();
    let constant: Vec<bool> = (0..m)
        .map(|c| {
            let col = relation.column(c).unwrap();
            let mut non_null = col.iter().filter(|v| !v.is_null());
            exclude_constant
                && match non_null.next() {
                    None => true,
                    Some(first) => non_null.all(|v| v == first),
                }
        })
        .collect();
    let mut out = Vec::new();
    for lhs in (0..m).filter(|&c| !constant[c]) {
        for rhs in (0..m).filter(|&c| c != lhs && !constant[c]) {
            let ofd = OrderedFd::new(lhs, rhs);
            if ofd.holds(relation).unwrap() {
                out.push(ofd);
            }
        }
    }
    out
}
