//! Bloom-filter PSI variant.
//!
//! The salted-digest PSI of [`crate::psi`] exchanges one digest per row —
//! linear communication in the table size. Bloom-filter PSI (the other
//! classic simulation target) sends a fixed-size filter instead: party A
//! publishes a Bloom filter of its salted ids, party B intersects locally.
//! The price is *false positives*: B may believe an entity is shared when
//! it is not — a correctness/communication trade-off this module exposes
//! (and tests) explicitly, including the standard
//! `(1 − e^{−kn/m})^k` false-positive-rate estimate.

use crate::psi::digest;
use mp_relation::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A fixed-size Bloom filter over salted id digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    k_hashes: u32,
    n_inserted: usize,
    salt: u64,
}

impl BloomFilter {
    /// Creates a filter with `m_bits` bits and `k_hashes` hash functions
    /// over ids salted with `salt`. `m_bits` is rounded up to a multiple
    /// of 64 (minimum 64); `k_hashes` is clamped to ≥ 1.
    pub fn new(m_bits: usize, k_hashes: u32, salt: u64) -> Self {
        let words = m_bits.div_ceil(64).max(1);
        Self {
            bits: vec![0u64; words],
            m_bits: words * 64,
            k_hashes: k_hashes.max(1),
            n_inserted: 0,
            salt,
        }
    }

    /// A filter sized for `expected_items` at roughly the optimal
    /// bits-per-item for the given `k` (`m ≈ k·n/ln 2`).
    pub fn with_capacity(expected_items: usize, k_hashes: u32, salt: u64) -> Self {
        let k = k_hashes.max(1) as f64;
        let m = (k * expected_items.max(1) as f64 / std::f64::consts::LN_2).ceil() as usize;
        Self::new(m, k_hashes, salt)
    }

    fn positions(&self, id: &Value) -> impl Iterator<Item = usize> + '_ {
        let base = digest(id, self.salt);
        let mut h = DefaultHasher::new();
        base.hash(&mut h);
        let h1 = h.finish();
        let mut h2hasher = DefaultHasher::new();
        (base, 0x9E37_79B9_7F4A_7C15u64).hash(&mut h2hasher);
        let h2 = h2hasher.finish() | 1; // odd => full period
        let m = self.m_bits as u64;
        (0..self.k_hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts an id.
    pub fn insert(&mut self, id: &Value) {
        let positions: Vec<usize> = self.positions(id).collect();
        for p in positions {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
        self.n_inserted += 1;
    }

    /// Membership test — no false negatives, tunable false positives.
    pub fn contains(&self, id: &Value) -> bool {
        self.positions(id)
            .all(|p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// The standard false-positive-rate estimate `(1 − e^{−kn/m})^k`.
    pub fn estimated_fpr(&self) -> f64 {
        let k = self.k_hashes as f64;
        let n = self.n_inserted as f64;
        let m = self.m_bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Size of the filter in bytes (the communication cost).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Bloom-filter PSI: party A publishes `filter` (built from its ids under
/// the shared salt); party B returns the rows of `ids_b` the filter
/// accepts. The result may contain false positives at
/// [`BloomFilter::estimated_fpr`]; it never misses a true intersection
/// member.
pub fn bloom_candidate_rows(filter: &BloomFilter, ids_b: &[Value]) -> Vec<usize> {
    bloom_candidate_rows_windowed(std::slice::from_ref(filter), ids_b)
}

/// Builds one Bloom filter per *window* of `ids_a`: a window of `window`
/// rows starts every `stride` rows (with `stride < window` the windows
/// overlap — the streaming-PSI shape where each batch re-covers the tail
/// of the previous one so no boundary entity is missed). Each filter is
/// capacity-sized for its window. `window` and `stride` are clamped to
/// ≥ 1.
pub fn windowed_filters(
    ids_a: &[Value],
    window: usize,
    stride: usize,
    k_hashes: u32,
    salt: u64,
) -> Vec<BloomFilter> {
    let window = window.max(1);
    let stride = stride.max(1);
    let mut filters = Vec::new();
    let mut start = 0;
    while start < ids_a.len() {
        let end = (start + window).min(ids_a.len());
        let mut f = BloomFilter::with_capacity(end - start, k_hashes, salt);
        for id in &ids_a[start..end] {
            f.insert(id);
        }
        filters.push(f);
        if end == ids_a.len() {
            break;
        }
        start += stride;
    }
    filters
}

/// Bloom-filter PSI against a set of (window) filters: the rows of
/// `ids_b` accepted by *any* filter, each row listed **once**, in
/// ascending row order.
///
/// Deduplication here is load-bearing: with overlapping windows (or a
/// false-positive collision in more than one filter) the same row is
/// accepted by several filters, and the pre-dedup implementation reported
/// it once per accepting window — inflating candidate counts and breaking
/// downstream exact-intersection confirmation, which assumes candidate
/// rows are distinct.
pub fn bloom_candidate_rows_windowed(filters: &[BloomFilter], ids_b: &[Value]) -> Vec<usize> {
    let mut rows: Vec<usize> = filters
        .iter()
        .flat_map(|f| {
            ids_b
                .iter()
                .enumerate()
                .filter(|(_, id)| f.contains(id))
                .map(|(i, _)| i)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_align;

    fn ids(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn no_false_negatives() {
        let a = ids(0..500);
        let mut f = BloomFilter::with_capacity(a.len(), 4, 77);
        for id in &a {
            f.insert(id);
        }
        assert!(a.iter().all(|id| f.contains(id)));
    }

    #[test]
    fn candidates_superset_of_true_intersection() {
        let a = ids(0..300);
        let b = ids(200..600);
        let mut f = BloomFilter::with_capacity(a.len(), 5, 3);
        for id in &a {
            f.insert(id);
        }
        let candidates = bloom_candidate_rows(&f, &b);
        let exact = multi_align(&[&a, &b], 3);
        // Every exact-intersection row of B is among the candidates.
        for &rb in &exact.rows[1] {
            assert!(candidates.contains(&rb), "missed true member row {rb}");
        }
        assert!(candidates.len() >= exact.len());
    }

    #[test]
    fn fpr_estimate_matches_measurement() {
        let a = ids(0..1000);
        // Deliberately undersized filter → measurable FPR.
        let mut f = BloomFilter::new(4096, 3, 11);
        for id in &a {
            f.insert(id);
        }
        let probes = ids(1_000_000..1_020_000);
        let fp = probes.iter().filter(|id| f.contains(id)).count() as f64 / probes.len() as f64;
        let est = f.estimated_fpr();
        assert!(
            (fp - est).abs() < 0.5 * est + 0.01,
            "measured {fp:.4} vs estimated {est:.4}"
        );
    }

    #[test]
    fn bigger_filter_means_fewer_false_positives() {
        let a = ids(0..1000);
        let mut small = BloomFilter::new(2048, 3, 5);
        let mut large = BloomFilter::new(32768, 3, 5);
        for id in &a {
            small.insert(id);
            large.insert(id);
        }
        assert!(large.estimated_fpr() < small.estimated_fpr() / 10.0);
        assert!(large.size_bytes() > small.size_bytes());
    }

    #[test]
    fn communication_is_independent_of_probe_count() {
        let f = BloomFilter::with_capacity(10_000, 4, 1);
        assert_eq!(f.size_bytes(), f.bits.len() * 8);
        // ~1.44·k·n/ln2... just sanity-bound the sizing heuristic.
        assert!(f.size_bytes() < 10_000 * 8);
    }

    #[test]
    fn windowed_candidates_are_deduplicated() {
        // Overlapping windows (stride < window): rows 4..8 of party A are
        // covered by both windows, so a matching row of B is accepted by
        // two filters. Regression: it must be reported exactly once.
        let a = ids(0..12);
        let filters = windowed_filters(&a, 8, 4, 4, 21);
        assert_eq!(filters.len(), 2);
        let b = ids(4..8); // entirely inside the overlap
        for id in &b {
            assert!(filters[0].contains(id) && filters[1].contains(id));
        }
        let candidates = bloom_candidate_rows_windowed(&filters, &b);
        assert_eq!(candidates, vec![0, 1, 2, 3], "each row exactly once");
    }

    #[test]
    fn windowed_crafted_collision_deduplicated() {
        // Deliberately tiny filters: nearly every probe is a false
        // positive in *every* window — the crafted-collision case. The
        // candidate list must still be duplicate-free and sorted.
        let a = ids(0..64);
        let mut filters = windowed_filters(&a, 16, 8, 1, 5);
        for f in &mut filters {
            // Saturate: now every probe collides in every window.
            for id in ids(0..512) {
                f.insert(&id);
            }
        }
        let probes = ids(1000..1040);
        let candidates = bloom_candidate_rows_windowed(&filters, &probes);
        let mut deduped = candidates.clone();
        deduped.dedup();
        assert_eq!(candidates, deduped, "duplicates in candidate rows");
        assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(candidates, (0..probes.len()).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_union_covers_true_intersection() {
        let a = ids(0..300);
        let b = ids(250..400);
        let filters = windowed_filters(&a, 64, 48, 4, 9);
        let candidates = bloom_candidate_rows_windowed(&filters, &b);
        let exact = multi_align(&[&a, &b], 9);
        for &rb in &exact.rows[1] {
            assert!(candidates.contains(&rb), "missed true member row {rb}");
        }
    }

    #[test]
    fn single_filter_path_unchanged() {
        let a = ids(0..100);
        let mut f = BloomFilter::with_capacity(a.len(), 4, 3);
        for id in &a {
            f.insert(id);
        }
        let b = ids(50..150);
        let single = bloom_candidate_rows(&f, &b);
        let windowed = bloom_candidate_rows_windowed(std::slice::from_ref(&f), &b);
        assert_eq!(single, windowed);
        assert!(single.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn degenerate_parameters_clamp() {
        let f = BloomFilter::new(0, 0, 9);
        assert_eq!(f.m_bits, 64);
        assert_eq!(f.k_hashes, 1);
        let mut f = f;
        f.insert(&Value::Int(1));
        assert!(f.contains(&Value::Int(1)));
    }
}
