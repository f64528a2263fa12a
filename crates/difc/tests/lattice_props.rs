//! Randomized property tests for the label lattice and the DIFC flow
//! rules, driven by the in-repo deterministic PRNG (no external crates,
//! so they run in fully offline CI).
//!
//! These encode the algebraic laws the paper's model relies on: the
//! subset order is a partial order, union/intersection are lattice
//! join/meet, and the flow relation composes (transitivity of legal
//! flows), which is what makes end-to-end guarantees out of per-edge
//! checks. Differential tests then hold the structural checks every
//! enforcement point calls to a naive subset oracle, and label and pair
//! equality, hashing and fingerprints to the tag sets they stand for.

use laminar_difc::{
    check_label_change, CapKind, CapSet, Capability, Label, RegionDebt, RegionStack,
    SecPair, Tag,
};
use laminar_util::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
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
fn equality_and_hash_follow_tag_sets() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..2_000 {
        let tags: Vec<Tag> = {
            let n = rng.gen_range(0..5);
            (0..n).map(|_| Tag::from_raw(1 + rng.below(200))).collect()
        };
        let mut shuffled = tags.clone();
        rng.shuffle(&mut shuffled);

        // Two labels built independently (in different orders, possibly
        // with duplicates) from the same tag multiset are equal and
        // share a hash, whichever allocations back them.
        let a = Label::from_tags(tags.iter().copied());
        let b = Label::from_tags(shuffled.iter().copied().chain(tags.first().copied()));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        // And a label over a strictly different tag-set is unequal.
        let c = Label::from_tags(tags.iter().copied().chain([Tag::from_raw(999)]));
        assert_ne!(a, c);

        // Pairs inherit the same guarantees, name equal content with
        // equal fingerprints, and tell secrecy from integrity.
        let p = SecPair::new(a.clone(), c.clone());
        let q = SecPair::new(b.clone(), c.clone());
        assert_eq!(p, q);
        assert_eq!(hash_of(&p), hash_of(&q));
        assert_eq!(p.fingerprint(), q.fingerprint());
        let reversed = SecPair::new(c, a);
        assert_ne!(p, reversed);
        assert_ne!(p.fingerprint(), reversed.fingerprint());
    }
}

/// A capability set as the plain set of `(is_minus, tag)` pairs: its
/// order — every plus capability, then every minus one, each by tag — is
/// the order `CapSet::iter` promises.
type CapModel = BTreeSet<(bool, Tag)>;

fn cap_of(&(minus, tag): &(bool, Tag)) -> Capability {
    if minus {
        Capability::minus(tag)
    } else {
        Capability::plus(tag)
    }
}

fn model_key(c: Capability) -> (bool, Tag) {
    (c.kind() == CapKind::Minus, c.tag())
}

fn random_cap(rng: &mut SplitMix64) -> Capability {
    cap_of(&(rng.gen_bool(), Tag::from_raw(1 + rng.below(11))))
}

/// A random capability set built by `from_caps`, with its model.
fn random_modeled_capset(rng: &mut SplitMix64) -> (CapSet, CapModel) {
    let caps: Vec<Capability> =
        (0..rng.gen_range(0..8)).map(|_| random_cap(rng)).collect();
    let model = caps.iter().copied().map(model_key).collect();
    (CapSet::from_caps(caps), model)
}

/// Compares every query of `caps` with the model's answer.
fn assert_matches_model(caps: &CapSet, model: &CapModel, rng: &mut SplitMix64) {
    for raw in 1..=12 {
        let t = Tag::from_raw(raw);
        let (plus, minus) = (model.contains(&(false, t)), model.contains(&(true, t)));
        assert_eq!(caps.has(Capability::plus(t)), plus);
        assert_eq!(caps.has(Capability::minus(t)), minus);
        assert_eq!(caps.can_add(t), plus);
        assert_eq!(caps.can_remove(t), minus);
    }
    let l = random_label(rng);
    assert_eq!(caps.can_add_all(&l), l.iter().all(|t| model.contains(&(false, t))));
    assert_eq!(caps.can_remove_all(&l), l.iter().all(|t| model.contains(&(true, t))));
    let want: Vec<Capability> = model.iter().map(cap_of).collect();
    assert_eq!(caps.iter().collect::<Vec<_>>(), want);
    assert_eq!(caps.len(), model.len());
    assert_eq!(caps.is_empty(), model.is_empty());
    let shown: Vec<String> = want.iter().map(ToString::to_string).collect();
    assert_eq!(format!("{caps:?}"), format!("C({})", shown.join(",")));
    let plus: Vec<Tag> = model.iter().filter(|(m, _)| !m).map(|&(_, t)| t).collect();
    assert_eq!(caps.plus_label().as_slice(), plus.as_slice());

    let (other, other_model) = random_modeled_capset(rng);
    assert_eq!(caps.is_subset_of(&other), model.is_subset(&other_model));
    assert_eq!(other.is_subset_of(caps), other_model.is_subset(model));
    assert_eq!(*caps == other, *model == other_model);
    let union: Vec<Capability> = model.union(&other_model).map(cap_of).collect();
    assert_eq!(caps.union(&other).iter().collect::<Vec<_>>(), union);
    assert_eq!(*caps, CapSet::from_caps(want.iter().rev().copied()));
}

#[test]
fn capset_grant_revoke_sequences_match_a_set_model() {
    let mut rng = SplitMix64::new(0xCA95);
    for _ in 0..5_000 {
        let (mut caps, mut model) = random_modeled_capset(&mut rng);
        assert_matches_model(&caps, &model, &mut rng);
        for _ in 0..rng.gen_range(1..10) {
            let c = random_cap(&mut rng);
            match rng.below(4) {
                0 => {
                    caps.grant(c);
                    model.insert(model_key(c));
                }
                1 => assert_eq!(caps.revoke(c), model.remove(&model_key(c))),
                2 => {
                    caps.grant_both(c.tag());
                    model.insert((false, c.tag()));
                    model.insert((true, c.tag()));
                }
                _ => {
                    let more = [c, random_cap(&mut rng)];
                    caps.extend(more);
                    model.extend(more.map(model_key));
                }
            }
            assert_matches_model(&caps, &model, &mut rng);
        }
    }
}

/// The kernel task a region stack syncs to and settles with: its labels
/// and capabilities.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ModelKernel {
    labels: SecPair,
    caps: CapSet,
}

/// How many of a batch's kernel calls land: all of them, or, for the one
/// failed batch of a failing run, a random prefix.
fn calls_that_land(rng: &mut SplitMix64, fail_budget: &mut u32, of: u64) -> u64 {
    if *fail_budget > 0 && rng.gen_ratio(1, 6) {
        *fail_budget -= 1;
        rng.below(of)
    } else {
        of
    }
}

/// Pays `debt` to `kernel` as the runtime does: the label drop, then
/// the re-grant. Returns whether both calls landed.
fn settle(kernel: &mut ModelKernel, debt: &RegionDebt, landed: u64) -> bool {
    if landed > 0 && debt.drop_labels {
        kernel.labels = SecPair::unlabeled();
    }
    if landed > 1 {
        kernel.caps = kernel.caps.union(&debt.regrant);
    }
    landed == 2
}

/// Region parameters a thread with `labels` and `caps` may mostly enter:
/// tags it carries or may add, a subset of its capabilities; one entry in
/// eight is drawn at random and may be refused.
fn random_region(
    rng: &mut SplitMix64,
    labels: &SecPair,
    caps: &CapSet,
) -> (SecPair, CapSet) {
    if rng.gen_ratio(1, 8) {
        return (random_pair(rng), random_capset(rng));
    }
    let pool: Vec<Tag> = (1..12)
        .map(Tag::from_raw)
        .filter(|&t| {
            caps.can_add(t)
                || labels.secrecy().contains(t)
                || labels.integrity().contains(t)
        })
        .collect();
    let pick = |rng: &mut SplitMix64| {
        Label::from_tags(pool.iter().copied().filter(|_| rng.gen_ratio(1, 3)))
    };
    let pair = SecPair::new(pick(rng), pick(rng));
    (pair, caps.iter().filter(|_| rng.gen_bool()).collect())
}

/// One seeded run of random enter/sync/exit/grant/revoke steps, nested up
/// to depth 4, against a model kernel. `model[d]` is the context the
/// thread must have at depth `d`, kept through grants and revokes. With
/// `fail_budget` 1, one batch of kernel calls (a sync's or an exit's)
/// stops part-way.
fn run_region_sequence(rng: &mut SplitMix64, mut fail_budget: u32) {
    let base = random_capset(rng);
    let mut stack = RegionStack::new(base.clone());
    let mut kernel = ModelKernel { labels: SecPair::unlabeled(), caps: base.clone() };
    let mut model = vec![(SecPair::unlabeled(), base)];
    // A failed exit payment may leave the region's labels or suspensions
    // on the kernel task; only the restored context is checked after it.
    let mut exit_failed = false;
    let steps = rng.gen_range(1..40);
    for step in 0..=steps {
        let depth = stack.depth();
        let op = if step == steps { 3 } else { rng.below(11) };
        match op {
            // Enter.
            0..=2 if depth < 4 => {
                let (pair, caps) = random_region(rng, stack.labels(), stack.caps());
                match stack.enter(pair.clone(), caps.clone()) {
                    Ok(()) => model.push((pair, caps)),
                    Err(_) => assert_eq!(stack.depth(), depth),
                }
            }
            // Exit (and, at the end, every remaining exit).
            3..=4 => {
                let exits = if step == steps { depth } else { depth.min(1) };
                for _ in 0..exits {
                    let exit = stack.exit().expect("inside a region");
                    model.pop();
                    let outer = model.last().expect("the outside context");
                    assert_eq!((stack.labels(), stack.caps()), (&outer.0, &outer.1));
                    let landed = calls_that_land(rng, &mut fail_budget, 2);
                    exit_failed |= !settle(&mut kernel, &exit.debt, landed);
                }
            }
            // Sync before a syscall.
            5..=7 if depth > 0 => {
                if stack.needs_sync() {
                    let (suspend, labels) = stack.sync(&kernel.caps);
                    let landed = calls_that_land(rng, &mut fail_budget, 2);
                    if landed > 0 {
                        for c in suspend.iter() {
                            kernel.caps.revoke(c);
                        }
                    }
                    if landed < 2 {
                        continue;
                    }
                    if let Some(labels) = labels {
                        kernel.labels = labels;
                    }
                    stack.synced();
                }
                if !exit_failed {
                    assert_eq!(&kernel.labels, stack.labels());
                    assert!(
                        kernel.caps.is_subset_of(stack.caps()),
                        "{kernel:?} {stack:?}"
                    );
                }
            }
            // Grant: a capability the thread keeps for good.
            8 => {
                let c = random_cap(rng);
                kernel.caps.grant(c);
                stack.grant(c);
                for (_, caps) in &mut model {
                    caps.grant(c);
                }
            }
            // Revoke, for good or for the innermost region's scope.
            9..=10 if depth > 0 => {
                let held: Vec<Capability> = stack.caps().iter().collect();
                let c = rng.choose(&held).copied().unwrap_or_else(|| random_cap(rng));
                let global = rng.gen_bool();
                if global {
                    kernel.caps.revoke(c);
                }
                stack.revoke(c, global);
                let scope = if global { model.len() } else { 1 };
                for (_, caps) in model.iter_mut().rev().take(scope) {
                    caps.revoke(c);
                }
            }
            _ => {}
        }
    }
    assert_eq!(stack.depth(), 0);
    assert!(!stack.needs_sync());
    if !exit_failed {
        let outside =
            ModelKernel { labels: SecPair::unlabeled(), caps: model[0].1.clone() };
        assert_eq!(kernel, outside);
    }
}

/// The region engine against a model kernel: at each sync the kernel
/// carries the innermost region's labels and no capability outside its
/// set; every exit restores the outer context; once every region has
/// exited and paid, the kernel is as it was outside them (with the
/// grants and global revokes made since). A syscall-free nested region
/// inside a synced one is among the sequences, so a stack that forgets
/// which region's labels the kernel carries fails here.
#[test]
fn region_stack_sequences_match_a_model_kernel() {
    let mut rng = SplitMix64::new(0x5EC0);
    for _ in 0..5_000 {
        run_region_sequence(&mut rng, 0);
    }
}

/// As above, with one batch of kernel calls stopping part-way. A failed
/// sync's debt was recorded before its calls, so every property still
/// holds; after a failed exit payment only the restored context is
/// checked.
#[test]
fn region_stack_sequences_with_one_failed_payment_restore_every_context() {
    let mut rng = SplitMix64::new(0xFA11);
    for _ in 0..5_000 {
        run_region_sequence(&mut rng, 1);
    }
}
