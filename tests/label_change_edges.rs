//! Edge cases of `set_task_label`/`set_task_labels`: the capability
//! rule's corner cases, partial application of combined changes, and
//! the O(1) identity fast path.

use laminar_difc::{Capability, Label, LabelType, SecPair};
use laminar_os::{Kernel, LaminarModule, OsError, UserId};

fn boot_alice() -> (std::sync::Arc<Kernel>, laminar_os::TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "alice");
    let t = k.login(UserId(1)).unwrap();
    (k, t)
}

#[test]
fn declassify_needs_a_minus_capability_per_tag() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let b = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::from_tags([a, b])).unwrap();
    alice.drop_capabilities(&[Capability::minus(a)]).unwrap();

    // Shedding everything needs a− *and* b−; a− is gone.
    assert!(matches!(
        alice.set_task_label(LabelType::Secrecy, Label::empty()),
        Err(OsError::LabelChangeDenied(_))
    ));
    // Shedding only b is still within the remaining capabilities.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    // The sticky tag really is sticky.
    assert!(matches!(
        alice.set_task_label(LabelType::Secrecy, Label::empty()),
        Err(OsError::LabelChangeDenied(_))
    ));
}

#[test]
fn raising_secrecy_needs_a_plus_capability() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    alice.drop_capabilities(&[Capability::plus(a)]).unwrap();
    // A raise is a label *addition*: gated by a+, not a−.
    assert!(matches!(
        alice.set_task_label(LabelType::Secrecy, Label::singleton(a)),
        Err(OsError::LabelChangeDenied(_))
    ));
    // The minus capability alone cannot stand in for the plus.
    assert!(alice.current_caps().unwrap().can_remove(a));
}

#[test]
fn simultaneous_secrecy_raise_and_integrity_drop() {
    let (_k, alice) = boot_alice();
    let s = alice.alloc_tag().unwrap();
    let i = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();

    // One combined change: gain S(s), shed I(i). Needs s+ and i−, both
    // held — the two components are checked independently.
    alice.set_task_labels(SecPair::new(Label::singleton(s), Label::empty())).unwrap();
    let now = alice.current_labels().unwrap();
    assert_eq!(now.secrecy(), &Label::singleton(s));
    assert!(now.integrity().is_empty());
}

#[test]
fn combined_change_applies_components_in_order() {
    let (_k, alice) = boot_alice();
    let s = alice.alloc_tag().unwrap();
    let i = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();
    alice.drop_capabilities(&[Capability::minus(i)]).unwrap();

    // Secrecy first, then integrity: the secrecy raise is legal and
    // lands; the integrity drop then fails on the missing i−. The
    // combined call errors but the secrecy half has already applied —
    // set_task_labels is not transactional (pinned so a future change
    // is a conscious one).
    assert!(matches!(
        alice.set_task_labels(SecPair::new(Label::singleton(s), Label::empty())),
        Err(OsError::LabelChangeDenied(_))
    ));
    let now = alice.current_labels().unwrap();
    assert_eq!(now.secrecy(), &Label::singleton(s));
    assert_eq!(now.integrity(), &Label::singleton(i));
}

#[test]
fn identity_label_change_skips_rule_and_hook() {
    let (k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    // Make the fast path do real work avoidance: shed every capability
    // so a re-checked change would be *denied* — only the identity
    // short-circuit lets it pass.
    alice.drop_capabilities(&[Capability::plus(a), Capability::minus(a)]).unwrap();

    let hooks_before = k.hook_calls();

    // Same label again: succeeds despite the empty capability set.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    alice.set_task_labels(SecPair::secrecy_only(Label::singleton(a))).unwrap();

    // Identity fast path: no LSM hook ran — the pair equality (a tag
    // compare) answered before enforcement was consulted at all.
    assert_eq!(k.hook_calls(), hooks_before, "identity change must not reach the hook");
}
