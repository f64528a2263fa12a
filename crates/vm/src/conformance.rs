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

/// Decision-trace hook for the audit subsystem: reports a VM-barrier
/// verdict to `laminar-obs`. `#[cold]` and called only behind an
/// `enabled()` check, so the disabled-mode barrier cost is one relaxed
/// atomic load on top of the flow check itself.
#[cold]
fn trace_barrier(op: &'static str, subject: &SecPair, object: &SecPair, allowed: bool) {
    laminar_obs::emit(laminar_obs::Event::FlowCheck {
        layer: laminar_obs::Layer::Vm,
        op,
        subject: subject.fingerprint(),
        object: object.fingerprint(),
        verdict: if allowed {
            laminar_obs::Verdict::Allow
        } else {
            laminar_obs::Verdict::Deny
        },
    });
}

/// The in-region **read** barrier check: reading `obj` is a flow
/// `obj → thread`, so it requires `S_obj ⊆ S_thread` and
/// `I_thread ⊆ I_obj` (§4.3.2).
///
/// # Errors
/// [`VmError::Flow`] naming the violated component.
pub fn barrier_read_check(obj: &SecPair, thread: &SecPair) -> VmResult<()> {
    let r = obj.can_flow_to(thread).map_err(VmError::from);
    if laminar_obs::enabled() {
        trace_barrier("barrier_read", thread, obj, r.is_ok());
    }
    r
}

/// The in-region **write** barrier check: writing `obj` is a flow
/// `thread → obj`, with the symmetric subset requirements.
///
/// # Errors
/// [`VmError::Flow`] naming the violated component.
pub fn barrier_write_check(thread: &SecPair, obj: &SecPair) -> VmResult<()> {
    let r = thread.can_flow_to(obj).map_err(VmError::from);
    if laminar_obs::enabled() {
        trace_barrier("barrier_write", thread, obj, r.is_ok());
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
        assert!(barrier_read_check(&s(300_001), &s(300_001)).is_ok());
        assert!(barrier_read_check(&s(300_001), &SecPair::unlabeled()).is_err());
        assert!(barrier_read_check(&SecPair::unlabeled(), &s(300_001)).is_ok());
    }

    #[test]
    fn write_is_flow_out_of_thread() {
        assert!(barrier_write_check(&s(300_002), &SecPair::unlabeled()).is_err());
        assert!(barrier_write_check(&SecPair::unlabeled(), &s(300_002)).is_ok());
    }
}
