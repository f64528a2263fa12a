//! Randomized property tests for the label lattice and the DIFC flow
//! rules, driven by the in-repo deterministic PRNG (no external crates,
//! so they run in fully offline CI).
//!
//! These encode the algebraic laws the paper's model relies on: the
//! subset order is a partial order, union/intersection are lattice
//! join/meet, and the flow relation composes (transitivity of legal
//! flows), which is what makes end-to-end guarantees out of per-edge
//! checks. Differential tests then hold the structural checks every
//! enforcement point calls to a naive subset oracle, and interning to
//! the equality and hash semantics of the tag sets it canonicalizes.

use laminar_difc::{check_label_change, CapSet, Capability, Label, SecPair, Tag};
use laminar_util::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Cases per property; the tag universe is small (1..12) so interesting
/// subset/overlap relationships are common.
const CASES: usize = 500;

fn random_label(rng: &mut SplitMix64) -> Label {
    let n = rng.gen_range(0..6);
    Label::from_tags((0..n).map(|_| Tag::from_raw(1 + rng.below(11))))
}

fn random_pair(rng: &mut SplitMix64) -> SecPair {
    SecPair::new(random_label(rng), random_label(rng))
}

fn random_capset(rng: &mut SplitMix64) -> CapSet {
    let n = rng.gen_range(0..8);
    (0..n)
        .map(|_| {
            let tag = Tag::from_raw(1 + rng.below(11));
            if rng.gen_bool() {
                Capability::plus(tag)
            } else {
                Capability::minus(tag)
            }
        })
        .collect()
}

#[test]
fn subset_reflexive() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..CASES {
        let l = random_label(&mut rng);
        assert!(l.is_subset_of(&l));
    }
}

#[test]
fn subset_antisymmetric() {
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..CASES {
        let (a, b) = (random_label(&mut rng), random_label(&mut rng));
        if a.is_subset_of(&b) && b.is_subset_of(&a) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn subset_transitive() {
    let mut rng = SplitMix64::new(0xCAB);
    for _ in 0..CASES {
        let (a, b, c) =
            (random_label(&mut rng), random_label(&mut rng), random_label(&mut rng));
        if a.is_subset_of(&b) && b.is_subset_of(&c) {
            assert!(a.is_subset_of(&c));
        }
    }
}

#[test]
fn union_is_least_upper_bound() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..CASES {
        let (a, b, c) =
            (random_label(&mut rng), random_label(&mut rng), random_label(&mut rng));
        let u = a.union(&b);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        // Least: any other upper bound contains the union.
        if a.is_subset_of(&c) && b.is_subset_of(&c) {
            assert!(u.is_subset_of(&c));
        }
    }
}

#[test]
fn intersection_is_greatest_lower_bound() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..CASES {
        let (a, b, c) =
            (random_label(&mut rng), random_label(&mut rng), random_label(&mut rng));
        let m = a.intersection(&b);
        assert!(m.is_subset_of(&a));
        assert!(m.is_subset_of(&b));
        if c.is_subset_of(&a) && c.is_subset_of(&b) {
            assert!(c.is_subset_of(&m));
        }
    }
}

#[test]
fn union_commutative_associative_idempotent() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..CASES {
        let (a, b, c) =
            (random_label(&mut rng), random_label(&mut rng), random_label(&mut rng));
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        assert_eq!(a.union(&a), a);
    }
}

#[test]
fn difference_partitions() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..CASES {
        let (a, b) = (random_label(&mut rng), random_label(&mut rng));
        let diff = a.difference(&b);
        let inter = a.intersection(&b);
        // diff and inter are disjoint and union back to a.
        assert!(diff.intersection(&inter).is_empty());
        assert_eq!(diff.union(&inter), a);
    }
}

#[test]
fn flow_is_transitive() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..CASES {
        let (a, b, c) =
            (random_pair(&mut rng), random_pair(&mut rng), random_pair(&mut rng));
        // Legal flows compose end-to-end: this is the heart of the DIFC
        // guarantee — chaining per-edge checks is sound.
        if a.flows_to(&b) && b.flows_to(&c) {
            assert!(a.flows_to(&c));
        }
    }
}

#[test]
fn flow_reflexive() {
    let mut rng = SplitMix64::new(6);
    for _ in 0..CASES {
        let a = random_pair(&mut rng);
        assert!(a.flows_to(&a));
    }
}

#[test]
fn join_is_flow_upper_bound() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..CASES {
        let (a, b) = (random_pair(&mut rng), random_pair(&mut rng));
        let j = a.join(&b);
        assert!(a.flows_to(&j));
        assert!(b.flows_to(&j));
    }
}

#[test]
fn unlabeled_flows_everywhere_with_empty_integrity() {
    let mut rng = SplitMix64::new(8);
    for _ in 0..CASES {
        let a = random_pair(&mut rng);
        let public = SecPair::unlabeled();
        // Unlabeled sources can flow anywhere with empty integrity demands.
        if a.integrity().is_empty() {
            assert!(public.flows_to(&a));
        }
        // Anything with empty secrecy can flow to an unlabeled sink.
        if a.secrecy().is_empty() {
            assert!(a.flows_to(&public));
        }
    }
}

#[test]
fn label_change_identity_always_allowed() {
    let mut rng = SplitMix64::new(9);
    for _ in 0..CASES {
        let l = random_label(&mut rng);
        assert!(check_label_change(&l, &l, &CapSet::new()).is_ok());
    }
}

#[test]
fn label_change_sound() {
    let mut rng = SplitMix64::new(10);
    for _ in 0..CASES {
        let (from, to, caps) =
            (random_label(&mut rng), random_label(&mut rng), random_capset(&mut rng));
        let allowed = check_label_change(&from, &to, &caps).is_ok();
        let need_plus = to.difference(&from);
        let need_minus = from.difference(&to);
        let expected = caps.can_add_all(&need_plus) && caps.can_remove_all(&need_minus);
        assert_eq!(allowed, expected);
    }
}

#[test]
fn full_caps_allow_any_change() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..CASES {
        let (from, to) = (random_label(&mut rng), random_label(&mut rng));
        let mut caps = CapSet::new();
        for t in from.iter().chain(to.iter()) {
            caps.grant_both(t);
        }
        assert!(check_label_change(&from, &to, &caps).is_ok());
    }
}

#[test]
fn capset_union_monotonic() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..CASES {
        let (a, b) = (random_capset(&mut rng), random_capset(&mut rng));
        let (from, to) = (random_label(&mut rng), random_label(&mut rng));
        // Gaining capabilities never revokes a permitted change.
        if check_label_change(&from, &to, &a).is_ok() {
            assert!(check_label_change(&from, &to, &a.union(&b)).is_ok());
        }
    }
}

/// A from-scratch subset oracle, independent of `Label::is_subset_of`'s
/// own fast paths.
fn naive_subset(a: &Label, b: &Label) -> bool {
    a.iter().all(|t| b.iter().any(|u| u == t))
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn subset_matches_naive_oracle_on_random_pairs() {
    let mut rng = SplitMix64::new(0xD1FC);
    for _ in 0..2_000 {
        let a = random_label(&mut rng);
        let b = random_label(&mut rng);
        assert_eq!(a.is_subset_of(&b), naive_subset(&a, &b), "{a} vs {b}");
    }
}

#[test]
fn flow_matches_naive_oracle_on_random_pairs() {
    let mut rng = SplitMix64::new(0xF10);
    for _ in 0..2_000 {
        let x = random_pair(&mut rng);
        let y = random_pair(&mut rng);
        let oracle = naive_subset(x.secrecy(), y.secrecy())
            && naive_subset(y.integrity(), x.integrity());
        assert_eq!(x.flows_to(&y), oracle, "{x} -> {y}");
        assert_eq!(x.can_flow_to(&y).is_ok(), oracle, "{x} -> {y}");
    }
}

#[test]
fn interning_preserves_equality_and_hash_semantics() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..2_000 {
        let tags: Vec<Tag> = {
            let n = rng.gen_range(0..5);
            (0..n).map(|_| Tag::from_raw(1 + rng.below(200))).collect()
        };
        let mut shuffled = tags.clone();
        rng.shuffle(&mut shuffled);

        // Two labels built independently (in different orders, possibly
        // with duplicates) from the same tag multiset are equal, share a
        // hash, share an id, and share the canonical allocation.
        let a = Label::from_tags(tags.iter().copied());
        let b = Label::from_tags(shuffled.iter().copied().chain(tags.first().copied()));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));

        // And a label over a strictly different tag-set is unequal with
        // a different id.
        let c = Label::from_tags(tags.iter().copied().chain([Tag::from_raw(999)]));
        assert_ne!(a, c);
        assert_ne!(a.id(), c.id());

        // Pairs inherit the same guarantees.
        let p = SecPair::new(a.clone(), c.clone());
        let q = SecPair::new(b.clone(), c.clone());
        assert_eq!(p, q);
        assert_eq!(hash_of(&p), hash_of(&q));
        assert_eq!(p.id(), q.id());
        assert_ne!(p, SecPair::new(c, a));
    }
}
