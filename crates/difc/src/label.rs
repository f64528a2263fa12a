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
//! A label is a lattice value with no identity of its own: two labels
//! are equal iff they hold the same tags, whichever allocation backs
//! them. Equality and hashing follow the sorted tag slice; a compare of
//! two clones of one label returns on pointer equality.

use crate::tag::Tag;
use std::fmt;
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
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Label {
    // Sorted and deduplicated, so equal tag-sets are equal slices.
    // `Arc`'s equality returns early when both sides share one
    // allocation. `None` is the empty label, never an empty `Some`,
    // so the derived equality stays structural; cloning it touches no
    // reference count shared by every unlabeled resource.
    tags: Option<Arc<[Tag]>>,
}

impl Label {
    fn from_sorted(sorted: Vec<Tag>) -> Self {
        if sorted.is_empty() {
            return Label::empty();
        }
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "unsorted tags");
        Label { tags: Some(Arc::from(sorted)) }
    }

    /// The empty label `{}` — the implicit label of every unlabeled
    /// resource, and the bottom of the secrecy lattice (top of integrity).
    #[must_use]
    pub const fn empty() -> Self {
        Label { tags: None }
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
        Label { tags: Some(Arc::from([tag])) }
    }

    /// Returns `true` if this is the empty label.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_none()
    }

    /// Number of tags in the label.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if `tag` is a member of this label.
    #[must_use]
    pub fn contains(&self, tag: Tag) -> bool {
        self.as_slice().binary_search(&tag).is_ok()
    }

    /// Subset test: the paper's `isSubsetOf()` operation, and the order
    /// relation of the label lattice.
    ///
    /// A structural merge walk behind two fast paths: two clones of one
    /// label (one pointer compare) and a longer left operand. Every
    /// enforcement point calls this directly.
    #[must_use]
    pub fn is_subset_of(&self, other: &Label) -> bool {
        if let (Some(a), Some(b)) = (&self.tags, &other.tags) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        let (sub, sup) = (self.as_slice(), other.as_slice());
        if sub.len() > sup.len() {
            return false;
        }
        // Both sorted: single merge pass.
        let mut oi = 0;
        'outer: for t in sub {
            while oi < sup.len() {
                match sup[oi].cmp(t) {
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
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(self.as_slice());
        v.extend_from_slice(other.as_slice());
        v.sort_unstable();
        v.dedup();
        Label::from_sorted(v)
    }

    /// Greatest lower bound in the lattice: set intersection.
    #[must_use]
    pub fn intersection(&self, other: &Label) -> Label {
        let v: Vec<Tag> = self.iter().filter(|t| other.contains(*t)).collect();
        Label::from_sorted(v)
    }

    /// Set difference `self - other`: the tags of `self` not in `other`.
    ///
    /// Used by the label-change rule of §3.2: a change from `L1` to `L2`
    /// needs add-capabilities for `L2 - L1` and drop-capabilities for
    /// `L1 - L2`.
    #[must_use]
    pub fn difference(&self, other: &Label) -> Label {
        let v: Vec<Tag> = self.iter().filter(|t| !other.contains(*t)).collect();
        Label::from_sorted(v)
    }

    /// This label with `tag` added; a clone when `tag` is already in.
    pub(crate) fn with_tag(&self, tag: Tag) -> Label {
        let s = self.as_slice();
        match s.binary_search(&tag) {
            Ok(_) => self.clone(),
            Err(at) => {
                let mut v = Vec::with_capacity(s.len() + 1);
                v.extend_from_slice(&s[..at]);
                v.push(tag);
                v.extend_from_slice(&s[at..]);
                Label::from_sorted(v)
            }
        }
    }

    /// This label with `tag` taken out, or `None` when `tag` is not in it.
    pub(crate) fn without_tag(&self, tag: Tag) -> Option<Label> {
        let s = self.as_slice();
        let at = s.binary_search(&tag).ok()?;
        let mut v = Vec::with_capacity(s.len() - 1);
        v.extend_from_slice(&s[..at]);
        v.extend_from_slice(&s[at + 1..]);
        Some(Label::from_sorted(v))
    }

    /// Iterates over the tags in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.as_slice().iter().copied()
    }

    /// The tags as a sorted slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Tag] {
        self.tags.as_deref().unwrap_or(&[])
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
        for (i, t) in self.iter().enumerate() {
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
}
