//! Secrecy/integrity label pairs and the DIFC flow rules of §3.2.
//!
//! Every data object and principal `x` carries two labels: `Sx` for
//! secrecy and `Ix` for integrity, written `{S(s), I(i)}` in the paper.
//! Information may flow from a source `x` to a destination `y` iff
//!
//! * **secrecy rule** (Bell–LaPadula): `Sx ⊆ Sy` — no read up, no write
//!   down; and
//! * **integrity rule** (Biba): `Iy ⊆ Ix` — no read down, no write up.

use crate::caps::CapSet;
use crate::error::{FlowError, LabelChangeError};
use crate::label::{Label, LabelType};
use std::fmt;

/// A `{S(..), I(..)}` pair: the complete DIFC labeling of one data object
/// or principal.
///
/// # Examples
///
/// ```
/// use laminar_difc::{Label, SecPair, Tag};
///
/// let a = Tag::from_raw(1);
/// let secret = SecPair::new(Label::singleton(a), Label::empty());
/// let public = SecPair::unlabeled();
/// // Secret data may not flow to a public sink...
/// assert!(secret.can_flow_to(&public).is_err());
/// // ...but a public source may flow to a secret sink.
/// assert!(public.can_flow_to(&secret).is_ok());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecPair {
    secrecy: Label,
    integrity: Label,
}

impl Default for SecPair {
    fn default() -> Self {
        SecPair::unlabeled()
    }
}

impl SecPair {
    /// Creates a pair from explicit secrecy and integrity labels.
    #[must_use]
    pub fn new(secrecy: Label, integrity: Label) -> Self {
        SecPair { secrecy, integrity }
    }

    /// The implicit `{S(), I()}` pair of every unlabeled resource.
    #[must_use]
    pub fn unlabeled() -> Self {
        SecPair::new(Label::empty(), Label::empty())
    }

    /// A 64-bit name for this pair's content, for audit records only.
    ///
    /// A fixed mix of the pair's tags with no per-process seed: equal
    /// pairs get equal fingerprints in every kernel and every process,
    /// and a fingerprint reveals nothing beyond the pair's own tags.
    /// Distinct pairs may collide, so no flow decision may use it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Each word passes through the SplitMix64 finalizer; the label
        // lengths keep `{S(a), I()}` and `{S(), I(a)}` apart.
        fn mix(h: u64, word: u64) -> u64 {
            let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = 0;
        for label in [&self.secrecy, &self.integrity] {
            h = mix(h, label.len() as u64);
            for t in label.iter() {
                h = mix(h, t.as_raw());
            }
        }
        h
    }

    /// A pair with only a secrecy label.
    #[must_use]
    pub fn secrecy_only(secrecy: Label) -> Self {
        SecPair::new(secrecy, Label::empty())
    }

    /// A pair with only an integrity label.
    #[must_use]
    pub fn integrity_only(integrity: Label) -> Self {
        SecPair::new(Label::empty(), integrity)
    }

    /// The secrecy label `Sx`.
    #[must_use]
    pub fn secrecy(&self) -> &Label {
        &self.secrecy
    }

    /// The integrity label `Ix`.
    #[must_use]
    pub fn integrity(&self) -> &Label {
        &self.integrity
    }

    /// Selects one of the two labels by [`LabelType`].
    #[must_use]
    pub fn label(&self, ty: LabelType) -> &Label {
        match ty {
            LabelType::Secrecy => &self.secrecy,
            LabelType::Integrity => &self.integrity,
        }
    }

    /// Returns a copy with the given label replaced.
    #[must_use]
    pub fn with_label(&self, ty: LabelType, label: Label) -> SecPair {
        match ty {
            LabelType::Secrecy => SecPair::new(label, self.integrity.clone()),
            LabelType::Integrity => SecPair::new(self.secrecy.clone(), label),
        }
    }

    /// True iff both labels are empty (the resource is unlabeled).
    #[must_use]
    pub fn is_unlabeled(&self) -> bool {
        self.secrecy.is_empty() && self.integrity.is_empty()
    }

    /// Checks the flow rules for information moving from `self` (source
    /// `x`) to `to` (destination `y`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Secrecy`] if `Sx ⊄ Sy` (the write would leak
    /// secret tags) or [`FlowError::Integrity`] if `Iy ⊄ Ix` (the write
    /// would launder low-integrity data into a high-integrity sink).
    pub fn can_flow_to(&self, to: &SecPair) -> Result<(), FlowError> {
        if !self.secrecy.is_subset_of(&to.secrecy) {
            return Err(FlowError::Secrecy {
                source: self.secrecy.clone(),
                dest: to.secrecy.clone(),
                leaked: self.secrecy.difference(&to.secrecy),
            });
        }
        if !to.integrity.is_subset_of(&self.integrity) {
            return Err(FlowError::Integrity {
                source: self.integrity.clone(),
                dest: to.integrity.clone(),
                missing: to.integrity.difference(&self.integrity),
            });
        }
        Ok(())
    }

    /// Boolean form of [`Self::can_flow_to`], for hot paths that do not
    /// need the diagnostic payload (e.g. silent-drop hooks).
    #[must_use]
    pub fn flows_to(&self, to: &SecPair) -> bool {
        self.secrecy.is_subset_of(&to.secrecy)
            && to.integrity.is_subset_of(&self.integrity)
    }

    /// Componentwise least upper bound for *data* combining two sources:
    /// union of secrecy (more secret), intersection of integrity (less
    /// trusted).
    #[must_use]
    pub fn join(&self, other: &SecPair) -> SecPair {
        SecPair::new(
            self.secrecy.union(&other.secrecy),
            self.integrity.intersection(&other.integrity),
        )
    }
}

impl fmt::Debug for SecPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{S{:?},I{:?}}}", self.secrecy, self.integrity)
    }
}

impl fmt::Display for SecPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Checks the label-change rule of §3.2.
///
/// A principal with capability set `caps` may change a label from `from`
/// to `to` iff it can add every tag it is gaining and drop every tag it is
/// losing:
///
/// ```text
/// (L2 - L1) ⊆ Cp+   and   (L1 - L2) ⊆ Cp-
/// ```
///
/// Label changes are always explicit in Laminar; implicit changes would be
/// a covert storage channel (Zeldovich et al., cited in §3.2).
///
/// # Errors
///
/// Reports the offending tags when a required capability is missing.
pub fn check_label_change(
    from: &Label,
    to: &Label,
    caps: &CapSet,
) -> Result<(), LabelChangeError> {
    let added = to.difference(from);
    let dropped = from.difference(to);
    let missing_plus: Vec<_> = added.iter().filter(|&t| !caps.can_add(t)).collect();
    if !missing_plus.is_empty() {
        return Err(LabelChangeError::MissingAdd {
            tags: Label::from_tags(missing_plus),
        });
    }
    let missing_minus: Vec<_> = dropped.iter().filter(|&t| !caps.can_remove(t)).collect();
    if !missing_minus.is_empty() {
        return Err(LabelChangeError::MissingRemove {
            tags: Label::from_tags(missing_minus),
        });
    }
    Ok(())
}

/// Checks both halves of a pair change: secrecy `from.S → to.S` and
/// integrity `from.I → to.I`, each under the label-change rule.
///
/// # Errors
///
/// Returns the first failing component's error.
pub fn check_pair_change(
    from: &SecPair,
    to: &SecPair,
    caps: &CapSet,
) -> Result<(), LabelChangeError> {
    check_label_change(from.secrecy(), to.secrecy(), caps)?;
    check_label_change(from.integrity(), to.integrity(), caps)
}

/// Checks the security-region entry rules of §4.3.2 for a thread with
/// labels `labels` and capabilities `caps` entering a region labeled
/// `{S(secrecy), I(integrity)}` with capabilities `region_caps`:
///
/// 1. `SR ⊆ (Cp+ ∪ SP)` and `IR ⊆ (Cp+ ∪ IP)` — each region tag is
///    either already carried or addable;
/// 2. `CR ⊆ CP` — the region's capabilities are a subset of the
///    thread's.
///
/// The Laminar runtime and the MiniVM both enter regions through it.
///
/// # Errors
///
/// The violated rule, as a fixed message.
pub fn check_region_entry(
    labels: &SecPair,
    caps: &CapSet,
    secrecy: &Label,
    integrity: &Label,
    region_caps: &CapSet,
) -> Result<(), &'static str> {
    // Rule (1): SR ⊆ (Cp+ ∪ SP) and IR ⊆ (Cp+ ∪ IP).
    if !secrecy.iter().all(|t| caps.can_add(t) || labels.secrecy().contains(t)) {
        return Err("thread lacks the capability or label for a region secrecy tag");
    }
    if !integrity.iter().all(|t| caps.can_add(t) || labels.integrity().contains(t)) {
        return Err("thread lacks the capability or label for a region integrity tag");
    }
    // Rule (2): CR ⊆ CP.
    if !region_caps.is_subset_of(caps) {
        return Err("region capabilities exceed the entering thread's");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::Capability;
    use crate::tag::Tag;

    fn t(n: u64) -> Tag {
        Tag::from_raw(n)
    }
    fn l(tags: &[u64]) -> Label {
        Label::from_tags(tags.iter().map(|&n| t(n)))
    }

    #[test]
    fn secrecy_rule_no_write_down() {
        let secret = SecPair::secrecy_only(l(&[1]));
        let public = SecPair::unlabeled();
        let err = secret.can_flow_to(&public).unwrap_err();
        assert!(matches!(err, FlowError::Secrecy { .. }));
        assert!(public.can_flow_to(&secret).is_ok());
    }

    #[test]
    fn integrity_rule_no_write_up() {
        let high = SecPair::integrity_only(l(&[9]));
        let low = SecPair::unlabeled();
        // Low-integrity source cannot write a high-integrity sink.
        let err = low.can_flow_to(&high).unwrap_err();
        assert!(matches!(err, FlowError::Integrity { .. }));
        // High-integrity source can write a low-integrity sink.
        assert!(high.can_flow_to(&low).is_ok());
    }

    #[test]
    fn flow_requires_subset_not_equality() {
        let s1 = SecPair::secrecy_only(l(&[1]));
        let s12 = SecPair::secrecy_only(l(&[1, 2]));
        assert!(s1.can_flow_to(&s12).is_ok());
        assert!(s12.can_flow_to(&s1).is_err());
    }

    #[test]
    fn flows_to_agrees_with_can_flow_to() {
        let cases = [
            SecPair::unlabeled(),
            SecPair::secrecy_only(l(&[1])),
            SecPair::integrity_only(l(&[2])),
            SecPair::new(l(&[1]), l(&[2])),
            SecPair::new(l(&[1, 3]), l(&[2, 4])),
        ];
        for a in &cases {
            for b in &cases {
                assert_eq!(a.flows_to(b), a.can_flow_to(b).is_ok(), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn join_combines_sources() {
        let a = SecPair::new(l(&[1]), l(&[8, 9]));
        let b = SecPair::new(l(&[2]), l(&[9]));
        let j = a.join(&b);
        assert_eq!(j.secrecy(), &l(&[1, 2]));
        assert_eq!(j.integrity(), &l(&[9]));
        // Both sources can flow to the join.
        assert!(a.can_flow_to(&j).is_ok());
        assert!(b.can_flow_to(&j).is_ok());
    }

    #[test]
    fn label_change_needs_plus_for_added() {
        let caps = CapSet::from_caps([Capability::plus(t(1))]);
        assert!(check_label_change(&l(&[]), &l(&[1]), &caps).is_ok());
        let err = check_label_change(&l(&[]), &l(&[1, 2]), &caps).unwrap_err();
        assert!(
            matches!(err, LabelChangeError::MissingAdd { ref tags } if tags.contains(t(2)))
        );
    }

    #[test]
    fn label_change_needs_minus_for_dropped() {
        let caps = CapSet::from_caps([Capability::minus(t(1))]);
        assert!(check_label_change(&l(&[1]), &l(&[]), &caps).is_ok());
        let err = check_label_change(&l(&[1, 2]), &l(&[]), &caps).unwrap_err();
        assert!(
            matches!(err, LabelChangeError::MissingRemove { ref tags } if tags.contains(t(2)))
        );
    }

    #[test]
    fn unchanged_tags_need_no_capability() {
        // Changing {1,2} -> {1,3} needs 3+ and 2- only; tag 1 stays.
        let caps = CapSet::from_caps([Capability::plus(t(3)), Capability::minus(t(2))]);
        assert!(check_label_change(&l(&[1, 2]), &l(&[1, 3]), &caps).is_ok());
    }

    #[test]
    fn pair_change_checks_both_components() {
        let from = SecPair::new(l(&[1]), l(&[]));
        let to = SecPair::new(l(&[]), l(&[2]));
        let caps = CapSet::from_caps([Capability::minus(t(1)), Capability::plus(t(2))]);
        assert!(check_pair_change(&from, &to, &caps).is_ok());
        let weak = CapSet::from_caps([Capability::minus(t(1))]);
        assert!(check_pair_change(&from, &to, &weak).is_err());
    }

    #[test]
    fn label_selection_and_replacement() {
        let p = SecPair::new(l(&[1]), l(&[2]));
        assert_eq!(p.label(LabelType::Secrecy), &l(&[1]));
        assert_eq!(p.label(LabelType::Integrity), &l(&[2]));
        let p2 = p.with_label(LabelType::Secrecy, l(&[3]));
        assert_eq!(p2.secrecy(), &l(&[3]));
        assert_eq!(p2.integrity(), &l(&[2]));
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = SecPair::new(l(&[1]), l(&[2]));
        assert_eq!(format!("{p}"), "{S{t1},I{t2}}");
    }
}
