//! Functional-dependency inference: Armstrong-axiom consequences, attribute
//! closures, implication tests, minimal covers and candidate keys.
//!
//! The paper's §III-B transitivity argument ("if A → B and B → C, then the
//! value of A will decide B, which in turn decides C") is the `implies`
//! machinery here; the generation graph uses minimal covers so the
//! adversary never materialises redundant mappings.

use crate::dependency::Fd;
use crate::AttrSet;
use std::collections::BTreeSet;

/// A set of functional dependencies over attributes `0..n_attrs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdSet {
    fds: Vec<Fd>,
    n_attrs: usize,
}

impl FdSet {
    /// Creates an FD set over a schema of `n_attrs` attributes.
    pub fn new(n_attrs: usize) -> Self {
        Self {
            fds: Vec::new(),
            n_attrs,
        }
    }

    /// Creates an FD set from existing dependencies.
    pub fn from_fds(n_attrs: usize, fds: impl IntoIterator<Item = Fd>) -> Self {
        let mut set = Self::new(n_attrs);
        for fd in fds {
            set.insert(fd);
        }
        set
    }

    /// Number of schema attributes.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The stored dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Number of stored dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// `true` if no dependencies are stored.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Inserts an FD (duplicates ignored).
    pub fn insert(&mut self, fd: Fd) {
        if !self.fds.contains(&fd) {
            self.fds.push(fd);
        }
    }

    /// The closure `X⁺` of an attribute set under this FD set: the largest
    /// set of attributes functionally determined by `X`.
    ///
    /// Standard fixed-point algorithm, `O(|F| · |X⁺|)` per pass.
    pub fn closure(&self, x: &AttrSet) -> AttrSet {
        let mut closure = x.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for fd in &self.fds {
                if !closure.contains(fd.rhs) && fd.lhs.is_subset_of(&closure) {
                    closure = closure.with(fd.rhs);
                    changed = true;
                }
            }
        }
        closure
    }

    /// `true` iff this FD set logically implies `fd` (Armstrong-derivable):
    /// `fd.rhs ∈ closure(fd.lhs)`.
    pub fn implies(&self, fd: &Fd) -> bool {
        fd.is_trivial() || self.closure(&fd.lhs).contains(fd.rhs)
    }

    /// `true` iff the two FD sets imply each other (equivalent covers).
    pub fn equivalent_to(&self, other: &FdSet) -> bool {
        self.fds.iter().all(|f| other.implies(f)) && other.fds.iter().all(|f| self.implies(f))
    }

    /// Computes a minimal (canonical) cover: every FD has a left-reduced
    /// LHS, no FD is redundant, and the cover is equivalent to the input.
    pub fn minimal_cover(&self) -> FdSet {
        // 1. Drop trivial FDs; left-reduce each remaining LHS.
        let mut work: Vec<Fd> = Vec::new();
        for fd in &self.fds {
            if fd.is_trivial() {
                continue;
            }
            let mut lhs = fd.lhs.clone();
            loop {
                let mut reduced = None;
                for a in lhs.iter() {
                    let candidate = lhs.without(a);
                    if self.closure(&candidate).contains(fd.rhs) {
                        reduced = Some(candidate);
                        break;
                    }
                }
                match reduced {
                    Some(r) => lhs = r,
                    None => break,
                }
            }
            let fd = Fd { lhs, rhs: fd.rhs };
            if !work.contains(&fd) {
                work.push(fd);
            }
        }
        // 2. Drop redundant FDs (those implied by the rest).
        let mut i = 0;
        while i < work.len() {
            let fd = work[i].clone();
            let rest = FdSet {
                fds: work
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, f)| f.clone())
                    .collect(),
                n_attrs: self.n_attrs,
            };
            if rest.implies(&fd) {
                work.remove(i);
            } else {
                i += 1;
            }
        }
        FdSet {
            fds: work,
            n_attrs: self.n_attrs,
        }
    }

    /// All candidate keys: minimal attribute sets whose closure is the full
    /// schema. Exponential in the worst case; intended for the paper-scale
    /// schemas (≤ ~20 attributes) this project handles.
    pub fn candidate_keys(&self) -> Vec<AttrSet> {
        let all: AttrSet = (0..self.n_attrs).collect();
        if self.n_attrs == 0 {
            return vec![AttrSet::empty()];
        }
        // Attributes never appearing on any RHS must be in every key.
        let rhs_attrs: BTreeSet<usize> = self.fds.iter().map(|f| f.rhs).collect();
        let core: AttrSet = (0..self.n_attrs)
            .filter(|a| !rhs_attrs.contains(a))
            .collect();

        if self.closure(&core) == all {
            return vec![core];
        }

        // BFS over supersets of the core, smallest first, keeping minimal hits.
        let optional: Vec<usize> = (0..self.n_attrs).filter(|a| !core.contains(*a)).collect();
        let mut keys: Vec<AttrSet> = Vec::new();
        let mut frontier: Vec<AttrSet> = vec![core];
        let mut seen: BTreeSet<AttrSet> = BTreeSet::new();
        while let Some(cur) = frontier.pop() {
            for &a in &optional {
                if cur.contains(a) {
                    continue;
                }
                let next = cur.with(a);
                if !seen.insert(next.clone()) {
                    continue;
                }
                if keys.iter().any(|k| k.is_subset_of(&next)) {
                    continue;
                }
                if self.closure(&next) == all {
                    keys.retain(|k| !next.is_subset_of(k));
                    keys.push(next);
                } else {
                    frontier.push(next);
                }
            }
        }
        keys.sort();
        keys
    }

    /// A *derivation trace* for an implied FD: the subsequence of stored
    /// FDs that the closure computation fired, in firing order, to reach
    /// `fd.rhs` from `fd.lhs`. `None` if the FD is not implied; trivial
    /// FDs derive from the empty trace (reflexivity).
    ///
    /// The trace is a witness, not a minimal proof: every listed FD was
    /// applicable and contributed its RHS on the way to the target.
    pub fn derivation(&self, fd: &Fd) -> Option<Vec<Fd>> {
        if fd.is_trivial() {
            return Some(Vec::new());
        }
        let mut closure = fd.lhs.clone();
        let mut trace: Vec<Fd> = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for candidate in &self.fds {
                if !closure.contains(candidate.rhs) && candidate.lhs.is_subset_of(&closure) {
                    closure = closure.with(candidate.rhs);
                    trace.push(candidate.clone());
                    if candidate.rhs == fd.rhs {
                        return Some(trace);
                    }
                    changed = true;
                }
            }
        }
        None
    }

    /// Armstrong *transitivity*: from `X → Y` and `Y ⊆ Z`, `Z → W` derive
    /// `X → W` consequences reachable in one step. Exposed mainly for
    /// didactic tests; [`FdSet::implies`] is the complete decision
    /// procedure.
    pub fn transitive_step(&self) -> Vec<Fd> {
        let mut out = Vec::new();
        for a in &self.fds {
            for b in &self.fds {
                if b.lhs.len() == 1 && b.lhs.contains(a.rhs) {
                    let fd = Fd {
                        lhs: a.lhs.clone(),
                        rhs: b.rhs,
                    };
                    if !fd.is_trivial() && !self.fds.contains(&fd) && !out.contains(&fd) {
                        out.push(fd);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(lhs.to_vec(), rhs)
    }

    #[test]
    fn closure_fixed_point() {
        // 0→1, 1→2, {2,3}→4 over 5 attrs.
        let f = FdSet::from_fds(5, [fd(&[0], 1), fd(&[1], 2), fd(&[2, 3], 4)]);
        assert_eq!(f.closure(&AttrSet::single(0)).indices(), &[0, 1, 2]);
        assert_eq!(
            f.closure(&AttrSet::from_iter([0, 3])).indices(),
            &[0, 1, 2, 3, 4]
        );
        assert_eq!(f.closure(&AttrSet::single(4)).indices(), &[4]);
    }

    #[test]
    fn implication_covers_transitivity() {
        // The paper's §III-B: A→B, B→C ⊢ A→C.
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2)]);
        assert!(f.implies(&fd(&[0], 2)));
        assert!(!f.implies(&fd(&[2], 0)));
        // Reflexivity: trivial FDs are always implied.
        assert!(f.implies(&fd(&[0, 2], 2)));
        // Augmentation: A→B ⊢ AC→B.
        assert!(f.implies(&fd(&[0, 2], 1)));
    }

    #[test]
    fn minimal_cover_left_reduces() {
        // {0,1}→2 where 0→2 already: LHS reduces to {0}.
        let f = FdSet::from_fds(3, [fd(&[0], 2), fd(&[0, 1], 2)]);
        let m = f.minimal_cover();
        assert_eq!(m.len(), 1);
        assert_eq!(m.fds()[0], fd(&[0], 2));
        assert!(m.equivalent_to(&f));
    }

    #[test]
    fn minimal_cover_drops_redundant() {
        // 0→1, 1→2, 0→2 (redundant via transitivity).
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2), fd(&[0], 2)]);
        let m = f.minimal_cover();
        assert_eq!(m.len(), 2);
        assert!(m.equivalent_to(&f));
        assert!(!m.fds().contains(&fd(&[0], 2)));
    }

    #[test]
    fn minimal_cover_drops_trivial() {
        let f = FdSet::from_fds(2, [fd(&[0, 1], 1)]);
        assert!(f.minimal_cover().is_empty());
    }

    #[test]
    fn minimal_cover_of_empty_is_empty() {
        assert!(FdSet::new(4).minimal_cover().is_empty());
    }

    #[test]
    fn candidate_keys_simple_chain() {
        // 0→1, 1→2: only key is {0}.
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2)]);
        assert_eq!(f.candidate_keys(), vec![AttrSet::single(0)]);
    }

    #[test]
    fn candidate_keys_multiple() {
        // 0→1 and 1→0 with 2 free: keys {0,2} and {1,2}.
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 0)]);
        let keys = f.candidate_keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&AttrSet::from_iter([0, 2])));
        assert!(keys.contains(&AttrSet::from_iter([1, 2])));
    }

    #[test]
    fn candidate_keys_no_fds() {
        // Without FDs the whole schema is the only key.
        let f = FdSet::new(3);
        assert_eq!(f.candidate_keys(), vec![AttrSet::from_iter([0, 1, 2])]);
    }

    #[test]
    fn candidate_keys_zero_attrs() {
        assert_eq!(FdSet::new(0).candidate_keys(), vec![AttrSet::empty()]);
    }

    #[test]
    fn equivalence_is_mutual_implication() {
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2)]);
        let g = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2), fd(&[0], 2)]);
        assert!(f.equivalent_to(&g));
        let h = FdSet::from_fds(3, [fd(&[0], 1)]);
        assert!(!f.equivalent_to(&h));
    }

    #[test]
    fn transitive_step_derives_paper_example() {
        let f = FdSet::from_fds(3, [fd(&[0], 1), fd(&[1], 2)]);
        assert_eq!(f.transitive_step(), vec![fd(&[0], 2)]);
    }

    #[test]
    fn insert_ignores_duplicates() {
        let mut f = FdSet::new(2);
        f.insert(fd(&[0], 1));
        f.insert(fd(&[0], 1));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn derivation_traces_transitivity() {
        let f = FdSet::from_fds(4, [fd(&[0], 1), fd(&[1], 2), fd(&[2], 3)]);
        let trace = f.derivation(&fd(&[0], 3)).expect("implied");
        // The chain fires in order and ends at the target.
        assert_eq!(trace, vec![fd(&[0], 1), fd(&[1], 2), fd(&[2], 3)]);
        assert_eq!(trace.last().unwrap().rhs, 3);
        // Every step was applicable given the prefix.
        let mut have = AttrSet::single(0);
        for step in &trace {
            assert!(step.lhs.is_subset_of(&have), "step {step:?} not applicable");
            have = have.with(step.rhs);
        }
    }

    #[test]
    fn derivation_none_when_not_implied() {
        let f = FdSet::from_fds(3, [fd(&[0], 1)]);
        assert!(f.derivation(&fd(&[1], 0)).is_none());
    }

    #[test]
    fn derivation_of_trivial_is_empty() {
        let f = FdSet::new(2);
        assert_eq!(f.derivation(&fd(&[0, 1], 1)), Some(vec![]));
    }

    #[test]
    fn derivation_agrees_with_implies() {
        let f = FdSet::from_fds(5, [fd(&[0], 1), fd(&[1, 2], 3), fd(&[3], 4), fd(&[4], 0)]);
        for lhs in 0..5usize {
            for rhs in 0..5usize {
                let candidate = fd(&[lhs], rhs);
                assert_eq!(
                    f.derivation(&candidate).is_some(),
                    f.implies(&candidate),
                    "{lhs} → {rhs}"
                );
            }
        }
    }
}
