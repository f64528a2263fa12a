//! Labels: immutable sets of tags forming a lattice under subset ordering.
//!
//! A label is a set of [`Tag`]s (§3.1). The subset relation imposes a
//! partial order on labels which forms a lattice (Denning's lattice model
//! of secure information flow). At the bottom of the lattice sits the
//! *empty* label, carried implicitly by every unlabeled resource — this is
//! what makes Laminar incrementally deployable.
//!
//! Following §5.1, labels are immutable, opaque objects backed by a sorted
//! array of 64-bit tags; mutating operations such as [`Label::union`]
//! return a new label. Immutability means label objects can be freely
//! shared between data objects, security regions and threads with no
//! synchronisation.
//!
//! Labels are additionally *interned* (hash-consed, see
//! [`crate::intern`]): each distinct tag-set has one canonical backing
//! allocation and a stable 32-bit [`LabelId`], so equality and hashing
//! are O(1) integer operations, and a subset test between two equal
//! labels returns on the id compare without walking either tag array.

use crate::intern::{self, LabelId};
use crate::tag::Tag;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Whether a label is a secrecy label or an integrity label.
///
/// Mirrors the `LabelType` argument of the paper's
/// `getCurrentLabel(LabelType t)` API (Fig. 2).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum LabelType {
    /// Secrecy: prevents sensitive information from escaping.
    Secrecy,
    /// Integrity: prevents external information from corrupting.
    Integrity,
}

impl fmt::Display for LabelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelType::Secrecy => f.write_str("secrecy"),
            LabelType::Integrity => f.write_str("integrity"),
        }
    }
}

/// An immutable set of tags.
///
/// Cloning a label is O(1): the sorted tag array is shared behind an
/// [`Arc`], exactly as the paper shares immutable `Labels` objects between
/// the heap, security regions and threads.
///
/// # Examples
///
/// ```
/// use laminar_difc::{Label, Tag};
///
/// let a = Tag::from_raw(1);
/// let b = Tag::from_raw(2);
/// let la = Label::from_tags([a]);
/// let lab = Label::from_tags([a, b]);
/// assert!(la.is_subset_of(&lab));
/// assert_eq!(la.union(&Label::from_tags([b])), lab);
/// ```
#[derive(Clone)]
pub struct Label {
    // Sorted, deduplicated, hash-consed: every label with the same
    // tag-set shares this one canonical allocation, and `id` is its
    // stable process-global name. Equality and hashing use only `id`.
    tags: Arc<[Tag]>,
    id: LabelId,
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Label {}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Label {
    fn from_sorted(sorted: Vec<Tag>) -> Self {
        let (id, tags) = intern::intern_label(sorted);
        Label { tags, id }
    }

    /// The empty label `{}` — the implicit label of every unlabeled
    /// resource, and the bottom of the secrecy lattice (top of integrity).
    #[must_use]
    pub fn empty() -> Self {
        Label { tags: intern::empty_tags(), id: LabelId::EMPTY }
    }

    /// Builds a label from any collection of tags, deduplicating.
    #[must_use]
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Self {
        let mut v: Vec<Tag> = tags.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Label::from_sorted(v)
    }

    /// A label containing a single tag.
    #[must_use]
    pub fn singleton(tag: Tag) -> Self {
        Label::from_sorted(vec![tag])
    }

    /// The stable intern id of this label's tag-set: equal labels have
    /// equal ids, and vice versa, for the life of the process.
    #[must_use]
    pub fn id(&self) -> LabelId {
        self.id
    }

    /// Returns `true` if this is the empty label.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of tags in the label.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Returns `true` if `tag` is a member of this label.
    #[must_use]
    pub fn contains(&self, tag: Tag) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Subset test: the paper's `isSubsetOf()` operation, and the order
    /// relation of the label lattice.
    ///
    /// A structural merge walk behind two fast paths: id-equal labels
    /// (interning makes equality one integer compare) and a longer
    /// left operand. Every enforcement point calls this directly.
    #[must_use]
    pub fn is_subset_of(&self, other: &Label) -> bool {
        if self.id == other.id {
            return true;
        }
        if self.tags.len() > other.tags.len() {
            return false;
        }
        // Both sorted: single merge pass.
        let mut oi = 0;
        'outer: for t in self.tags.iter() {
            while oi < other.tags.len() {
                match other.tags[oi].cmp(t) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Least upper bound in the lattice: set union. Returns a new label
    /// (labels are immutable); if the union equals one operand, that
    /// operand's allocation is reused.
    #[must_use]
    pub fn union(&self, other: &Label) -> Label {
        if self.is_subset_of(other) {
            return other.clone();
        }
        if other.is_subset_of(self) {
            return self.clone();
        }
        let mut v = Vec::with_capacity(self.tags.len() + other.tags.len());
        v.extend_from_slice(&self.tags);
        v.extend_from_slice(&other.tags);
        v.sort_unstable();
        v.dedup();
        Label::from_sorted(v)
    }

    /// Greatest lower bound in the lattice: set intersection.
    #[must_use]
    pub fn intersection(&self, other: &Label) -> Label {
        let v: Vec<Tag> =
            self.tags.iter().copied().filter(|t| other.contains(*t)).collect();
        Label::from_sorted(v)
    }

    /// Set difference `self - other`: the tags of `self` not in `other`.
    ///
    /// Used by the label-change rule of §3.2: a change from `L1` to `L2`
    /// needs add-capabilities for `L2 - L1` and drop-capabilities for
    /// `L1 - L2`.
    #[must_use]
    pub fn difference(&self, other: &Label) -> Label {
        let v: Vec<Tag> =
            self.tags.iter().copied().filter(|t| !other.contains(*t)).collect();
        Label::from_sorted(v)
    }

    /// Iterates over the tags in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.tags.iter().copied()
    }

    /// The tags as a sorted slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Tag] {
        &self.tags
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::empty()
    }
}

impl FromIterator<Tag> for Label {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        Label::from_tags(iter)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Tag {
        Tag::from_raw(n)
    }

    #[test]
    fn empty_is_bottom() {
        let e = Label::empty();
        let l = Label::from_tags([t(3), t(1)]);
        assert!(e.is_subset_of(&l));
        assert!(e.is_subset_of(&e));
        assert!(!l.is_subset_of(&e));
        assert!(e.is_empty());
        assert_eq!(e, Label::default());
    }

    #[test]
    fn from_tags_sorts_and_dedups() {
        let l = Label::from_tags([t(5), t(1), t(5), t(3)]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.as_slice(), &[t(1), t(3), t(5)]);
    }

    #[test]
    fn subset_is_partial_order() {
        let a = Label::from_tags([t(1)]);
        let ab = Label::from_tags([t(1), t(2)]);
        let c = Label::from_tags([t(3)]);
        assert!(a.is_subset_of(&ab));
        assert!(!ab.is_subset_of(&a));
        assert!(!a.is_subset_of(&c));
        assert!(!c.is_subset_of(&a));
        // reflexive
        assert!(ab.is_subset_of(&ab));
    }

    #[test]
    fn union_is_lub() {
        let a = Label::from_tags([t(1)]);
        let b = Label::from_tags([t(2)]);
        let u = a.union(&b);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert_eq!(u, Label::from_tags([t(1), t(2)]));
        // Union with subset reuses operand.
        assert_eq!(a.union(&u), u);
        assert_eq!(u.union(&a), u);
    }

    #[test]
    fn intersection_and_difference() {
        let ab = Label::from_tags([t(1), t(2)]);
        let bc = Label::from_tags([t(2), t(3)]);
        assert_eq!(ab.intersection(&bc), Label::singleton(t(2)));
        assert_eq!(ab.difference(&bc), Label::singleton(t(1)));
        assert_eq!(bc.difference(&ab), Label::singleton(t(3)));
    }

    #[test]
    fn contains_and_iter() {
        let l = Label::from_tags([t(7), t(9)]);
        assert!(l.contains(t(7)));
        assert!(!l.contains(t(8)));
        let collected: Vec<Tag> = l.iter().collect();
        assert_eq!(collected, vec![t(7), t(9)]);
    }

    #[test]
    fn display_formats() {
        let l = Label::from_tags([t(2), t(1)]);
        assert_eq!(format!("{l}"), "{t1,t2}");
        assert_eq!(format!("{:?}", Label::empty()), "{}");
    }

    #[test]
    fn collect_from_iterator() {
        let l: Label = [t(4), t(2)].into_iter().collect();
        assert_eq!(l.as_slice(), &[t(2), t(4)]);
    }

    #[test]
    fn interning_shares_one_allocation() {
        let a = Label::from_tags([t(31), t(32)]);
        let b = Label::from_tags([t(32), t(31), t(31)]);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        // Hash-consed: equal labels point at the same canonical slice.
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        assert_ne!(a.id(), Label::singleton(t(31)).id());
        assert_eq!(Label::empty().id(), crate::LabelId::EMPTY);
    }
}
