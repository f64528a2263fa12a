//! Capabilities: the privilege to classify/endorse (`t+`) or
//! declassify/drop-endorsement (`t-`) for a tag.
//!
//! A principal `p` has a capability set `Cp` (§3.1). For each tag `t`,
//! `t+` allows adding `t` to the principal's label (classification for
//! secrecy, endorsement for integrity) and `t-` allows removing it
//! (declassification / dropping an endorsement). DIFC capabilities are
//! *not* the pointers-with-access-rights of capability operating systems.

use crate::label::Label;
use crate::tag::Tag;
use std::fmt;

/// Which half of a tag's capability pair: plus (add) or minus (remove).
///
/// Mirrors the paper's `CapType` (Fig. 2).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CapKind {
    /// `t+`: may add tag `t` to a label (classify / endorse).
    Plus,
    /// `t-`: may remove tag `t` from a label (declassify / drop endorsement).
    Minus,
}

/// A single capability: a tag together with a plus or minus right.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Capability {
    tag: Tag,
    kind: CapKind,
}

impl Capability {
    /// The `t+` capability for `tag`.
    #[must_use]
    pub fn plus(tag: Tag) -> Self {
        Capability { tag, kind: CapKind::Plus }
    }

    /// The `t-` capability for `tag`.
    #[must_use]
    pub fn minus(tag: Tag) -> Self {
        Capability { tag, kind: CapKind::Minus }
    }

    /// The tag this capability is about.
    #[must_use]
    pub fn tag(self) -> Tag {
        self.tag
    }

    /// Whether this is the plus or minus right.
    #[must_use]
    pub fn kind(self) -> CapKind {
        self.kind
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CapKind::Plus => write!(f, "{}+", self.tag),
            CapKind::Minus => write!(f, "{}-", self.tag),
        }
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A principal's capability set `Cp = (Cp+, Cp-)`.
///
/// `Cp+` is the set of tags the principal may add; `Cp-` the set it may
/// remove. The set is an ordinary value type — ownership and transfer
/// semantics (inheritance on thread creation, `write_capability` IPC,
/// scoped suspension in security regions) are implemented by the OS and
/// runtime crates on top of this type.
///
/// Each half is a [`Label`]: a shared sorted tag slice. Cloning a set
/// is at most two reference-count increments and the empty set holds no
/// allocation, so a security region can save and swap capability sets
/// without touching the heap. Granting or revoking copies the half it
/// changes.
///
/// # Examples
///
/// ```
/// use laminar_difc::{CapSet, Capability, Label, Tag};
///
/// let t = Tag::from_raw(9);
/// let mut caps = CapSet::new();
/// caps.grant(Capability::plus(t));
/// assert!(caps.can_add(t));
/// assert!(!caps.can_remove(t));
/// assert!(caps.can_add_all(&Label::singleton(t)));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CapSet {
    plus: Label,
    minus: Label,
}

impl CapSet {
    /// The empty capability set.
    #[must_use]
    pub fn new() -> Self {
        CapSet::default()
    }

    /// Builds a capability set from individual capabilities, sorting
    /// each half once.
    #[must_use]
    pub fn from_caps<I: IntoIterator<Item = Capability>>(caps: I) -> Self {
        let (mut plus, mut minus) = (Vec::new(), Vec::new());
        for c in caps {
            match c.kind() {
                CapKind::Plus => plus.push(c.tag()),
                CapKind::Minus => minus.push(c.tag()),
            }
        }
        CapSet { plus: Label::from_tags(plus), minus: Label::from_tags(minus) }
    }

    fn half_mut(&mut self, kind: CapKind) -> &mut Label {
        match kind {
            CapKind::Plus => &mut self.plus,
            CapKind::Minus => &mut self.minus,
        }
    }

    /// Grants both `t+` and `t-` for a tag, as `alloc_tag` does for the
    /// allocating principal (Fig. 3).
    pub fn grant_both(&mut self, tag: Tag) {
        self.grant(Capability::plus(tag));
        self.grant(Capability::minus(tag));
    }

    /// Grants a single capability. Idempotent.
    pub fn grant(&mut self, cap: Capability) {
        let half = self.half_mut(cap.kind());
        *half = half.with_tag(cap.tag());
    }

    /// Revokes a single capability; returns `true` if it was held.
    pub fn revoke(&mut self, cap: Capability) -> bool {
        let half = self.half_mut(cap.kind());
        match half.without_tag(cap.tag()) {
            Some(rest) => {
                *half = rest;
                true
            }
            None => false,
        }
    }

    /// Does the principal hold `cap`?
    #[must_use]
    pub fn has(&self, cap: Capability) -> bool {
        match cap.kind() {
            CapKind::Plus => self.can_add(cap.tag()),
            CapKind::Minus => self.can_remove(cap.tag()),
        }
    }

    /// `t ∈ Cp+`: may the principal add (classify/endorse) `tag`?
    #[must_use]
    pub fn can_add(&self, tag: Tag) -> bool {
        self.plus.contains(tag)
    }

    /// `t ∈ Cp-`: may the principal remove (declassify) `tag`?
    #[must_use]
    pub fn can_remove(&self, tag: Tag) -> bool {
        self.minus.contains(tag)
    }

    /// May the principal add every tag in `label`?
    #[must_use]
    pub fn can_add_all(&self, label: &Label) -> bool {
        label.is_subset_of(&self.plus)
    }

    /// May the principal remove every tag in `label`?
    #[must_use]
    pub fn can_remove_all(&self, label: &Label) -> bool {
        label.is_subset_of(&self.minus)
    }

    /// The set `Cp+` as a label (the tags the principal may add).
    #[must_use]
    pub fn plus_label(&self) -> Label {
        self.plus.clone()
    }

    /// The set `Cp-` as a label (the tags the principal may remove).
    #[must_use]
    pub fn minus_label(&self) -> Label {
        self.minus.clone()
    }

    /// Subset test on capability sets: `self ⊆ other` componentwise.
    ///
    /// Security-region rule (2) of §4.3.2 — `CR ⊆ CP` — and the fork
    /// inheritance rule both reduce to this check.
    #[must_use]
    pub fn is_subset_of(&self, other: &CapSet) -> bool {
        self.plus.is_subset_of(&other.plus) && self.minus.is_subset_of(&other.minus)
    }

    /// Componentwise union, returning a new set.
    #[must_use]
    pub fn union(&self, other: &CapSet) -> CapSet {
        CapSet {
            plus: self.plus.union(&other.plus),
            minus: self.minus.union(&other.minus),
        }
    }

    /// Iterates over every capability held: the plus half, then the
    /// minus half, each in ascending tag order.
    pub fn iter(&self) -> impl Iterator<Item = Capability> + '_ {
        self.plus
            .iter()
            .map(Capability::plus)
            .chain(self.minus.iter().map(Capability::minus))
    }

    /// True if no capabilities are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }

    /// Number of capabilities held (plus and minus counted separately).
    #[must_use]
    pub fn len(&self) -> usize {
        self.plus.len() + self.minus.len()
    }
}

impl FromIterator<Capability> for CapSet {
    fn from_iter<I: IntoIterator<Item = Capability>>(iter: I) -> Self {
        CapSet::from_caps(iter)
    }
}

impl Extend<Capability> for CapSet {
    fn extend<I: IntoIterator<Item = Capability>>(&mut self, iter: I) {
        *self = self.union(&CapSet::from_caps(iter));
    }
}

impl fmt::Debug for CapSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C(")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Tag {
        Tag::from_raw(n)
    }

    #[test]
    fn grant_and_query() {
        let mut c = CapSet::new();
        assert!(c.is_empty());
        c.grant(Capability::plus(t(1)));
        c.grant(Capability::minus(t(2)));
        assert!(c.can_add(t(1)));
        assert!(!c.can_remove(t(1)));
        assert!(c.can_remove(t(2)));
        assert!(!c.can_add(t(2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn grant_both_gives_plus_and_minus() {
        let mut c = CapSet::new();
        c.grant_both(t(5));
        assert!(c.has(Capability::plus(t(5))));
        assert!(c.has(Capability::minus(t(5))));
    }

    #[test]
    fn revoke_removes_only_named_half() {
        let mut c = CapSet::new();
        c.grant_both(t(5));
        assert!(c.revoke(Capability::minus(t(5))));
        assert!(c.can_add(t(5)));
        assert!(!c.can_remove(t(5)));
        // Revoking again reports absence.
        assert!(!c.revoke(Capability::minus(t(5))));
    }

    #[test]
    fn label_wide_queries() {
        let mut c = CapSet::new();
        c.grant(Capability::plus(t(1)));
        c.grant(Capability::plus(t(2)));
        let l12 = Label::from_tags([t(1), t(2)]);
        let l13 = Label::from_tags([t(1), t(3)]);
        assert!(c.can_add_all(&l12));
        assert!(!c.can_add_all(&l13));
        assert!(c.can_remove_all(&Label::empty()));
    }

    #[test]
    fn subset_and_union() {
        let a = CapSet::from_caps([Capability::plus(t(1))]);
        let b = CapSet::from_caps([Capability::plus(t(1)), Capability::minus(t(2))]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        let u = a.union(&b);
        assert_eq!(u, b);
    }

    #[test]
    fn iter_and_collect_round_trip() {
        let orig = CapSet::from_caps([
            Capability::plus(t(3)),
            Capability::minus(t(3)),
            Capability::plus(t(7)),
        ]);
        let rebuilt: CapSet = orig.iter().collect();
        assert_eq!(orig, rebuilt);
    }

    #[test]
    fn plus_minus_labels() {
        let c = CapSet::from_caps([Capability::plus(t(1)), Capability::minus(t(2))]);
        assert_eq!(c.plus_label(), Label::singleton(t(1)));
        assert_eq!(c.minus_label(), Label::singleton(t(2)));
    }

    #[test]
    fn debug_formats() {
        let c = CapSet::from_caps([Capability::plus(t(1)), Capability::minus(t(2))]);
        assert_eq!(format!("{c:?}"), "C(t1+,t2-)");
    }
}
