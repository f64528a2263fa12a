//! Conformance entry points for the VM read/write barriers.
//!
//! The interpreter's in-region barriers ([`crate::Vm`]) bottom out in
//! exactly these two checks; they are exposed here on bare label pairs
//! so the model-based testkit can replay a barrier event against both
//! this implementation and its reference oracle without constructing a
//! heap, a program, or a region. The interpreter delegates to these
//! functions — they *are* the enforcement code, not a copy of it.

use crate::error::{VmError, VmResult};
use laminar_difc::SecPair;
use laminar_obs::{Audit, Event, Layer, Verdict};

/// Reports a VM-barrier verdict to `audit`. `#[cold]` and called only
/// while the log is on, so a barrier with no log, or a log that is off,
/// costs at most one relaxed load on top of the flow check itself.
#[cold]
fn trace_barrier(
    audit: &Audit,
    op: &'static str,
    subject: &SecPair,
    object: &SecPair,
    allowed: bool,
) {
    audit.record(Event::FlowCheck {
        layer: Layer::Vm,
        op,
        subject: subject.fingerprint(),
        object: object.fingerprint(),
        verdict: if allowed { Verdict::Allow } else { Verdict::Deny },
    });
}

/// The in-region **read** barrier check: reading `obj` is a flow
/// `obj → thread`, so it requires `S_obj ⊆ S_thread` and
/// `I_thread ⊆ I_obj` (§4.3.2). The verdict goes to `audit`, the log
/// of the kernel the VM is bridged to, if any.
///
/// # Errors
/// [`VmError::Flow`] naming the violated component.
pub fn barrier_read_check(
    obj: &SecPair,
    thread: &SecPair,
    audit: Option<&Audit>,
) -> VmResult<()> {
    let r = obj.can_flow_to(thread).map_err(VmError::from);
    if let Some(audit) = audit.filter(|a| a.is_on()) {
        trace_barrier(audit, "barrier_read", thread, obj, r.is_ok());
    }
    r
}

/// The in-region **write** barrier check: writing `obj` is a flow
/// `thread → obj`, with the symmetric subset requirements. The verdict
/// goes to `audit`, as for [`barrier_read_check`].
///
/// # Errors
/// [`VmError::Flow`] naming the violated component.
pub fn barrier_write_check(
    thread: &SecPair,
    obj: &SecPair,
    audit: Option<&Audit>,
) -> VmResult<()> {
    let r = thread.can_flow_to(obj).map_err(VmError::from);
    if let Some(audit) = audit.filter(|a| a.is_on()) {
        trace_barrier(audit, "barrier_write", thread, obj, r.is_ok());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::{Label, Tag};

    fn s(n: u64) -> SecPair {
        SecPair::secrecy_only(Label::singleton(Tag::from_raw(n)))
    }

    #[test]
    fn read_is_flow_into_thread() {
        assert!(barrier_read_check(&s(300_001), &s(300_001), None).is_ok());
        assert!(barrier_read_check(&s(300_001), &SecPair::unlabeled(), None).is_err());
        assert!(barrier_read_check(&SecPair::unlabeled(), &s(300_001), None).is_ok());
    }

    #[test]
    fn write_is_flow_out_of_thread() {
        assert!(barrier_write_check(&s(300_002), &SecPair::unlabeled(), None).is_err());
        assert!(barrier_write_check(&SecPair::unlabeled(), &s(300_002), None).is_ok());
    }

    #[test]
    fn verdicts_go_to_the_given_log_while_it_is_on() {
        let audit = Audit::default();
        let _ = barrier_read_check(&s(300_003), &SecPair::unlabeled(), Some(&audit));
        assert!(audit.drain().is_empty(), "a log that is off records nothing");
        audit.set_on(true);
        let _ = barrier_read_check(&s(300_003), &SecPair::unlabeled(), Some(&audit));
        let _ = barrier_write_check(&SecPair::unlabeled(), &s(300_003), Some(&audit));
        let verdicts: Vec<Verdict> = audit
            .drain()
            .iter()
            .filter_map(|r| match r.event {
                Event::FlowCheck { layer: Layer::Vm, verdict, .. } => Some(verdict),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts, [Verdict::Deny, Verdict::Allow]);
    }
}
