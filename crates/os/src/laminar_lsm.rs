//! The Laminar security module: DIFC enforcement at every LSM hook.
//!
//! This is the ~1,000-line kernel module of §5.2, expressed against the
//! hook trait of [`crate::lsm`]. Each hook is "a straightforward check of
//! the rules listed in Section 3.2":
//!
//! * reading an object is a flow object → task, so it requires
//!   `S_obj ⊆ S_task` and `I_task ⊆ I_obj`;
//! * writing an object is a flow task → object, with the symmetric check;
//! * labeled creation follows the three conditions of §5.2;
//! * pipe writes and signals that fail the check are **silently
//!   dropped** rather than rejected, because the error code would itself
//!   be a channel.
//!
//! Every hook calls the structural checks of `laminar_difc` directly:
//! on the one- and two-tag labels real workloads carry a check costs a
//! few nanoseconds, and a pointer compare answers two clones of one
//! label.

use crate::error::{OsError, OsResult};
use crate::lsm::{Access, DeliveryVerdict, SecurityModule};
use crate::task::TaskSec;
use laminar_difc::SecPair;

/// The Laminar DIFC security module.
#[derive(Debug, Default, Clone, Copy)]
pub struct LaminarModule;

/// Stages an OS-layer `FlowCheck` audit event for a **denied** hook
/// check (no-op unless an audited syscall is in flight). Allowed flows
/// are not logged: a dispatch that allows everything it checks is
/// decision-free (it leaves no records at all), and logging every
/// per-hook allow would put an emit on each path component of every
/// traversal. Denials are the slow path and carry the subject/object
/// detail the typed error cannot.
fn trace_check(op: &'static str, subject: &SecPair, object: &SecPair, allowed: bool) {
    if allowed || !laminar_obs::staging() {
        return;
    }
    laminar_obs::stage(laminar_obs::Event::FlowCheck {
        layer: laminar_obs::Layer::Os,
        op,
        subject: subject.fingerprint(),
        object: object.fingerprint(),
        verdict: laminar_obs::Verdict::Deny,
    });
}

impl LaminarModule {
    fn check_read(task: &TaskSec, obj: &SecPair) -> OsResult<()> {
        let r = obj.can_flow_to(&task.labels).map_err(OsError::from);
        trace_check("read", &task.labels, obj, r.is_ok());
        r
    }

    fn check_write(task: &TaskSec, obj: &SecPair) -> OsResult<()> {
        let r = task.labels.can_flow_to(obj).map_err(OsError::from);
        trace_check("write", &task.labels, obj, r.is_ok());
        r
    }

    fn check_mask(task: &TaskSec, obj: &SecPair, mask: Access) -> OsResult<()> {
        match mask {
            Access::Read => Self::check_read(task, obj),
            Access::Write => Self::check_write(task, obj),
            Access::ReadWrite => {
                Self::check_read(task, obj)?;
                Self::check_write(task, obj)
            }
        }
    }
}

impl SecurityModule for LaminarModule {
    fn name(&self) -> &'static str {
        "laminar"
    }

    fn inode_permission(
        &self,
        task: &TaskSec,
        inode: &SecPair,
        mask: Access,
    ) -> OsResult<()> {
        Self::check_mask(task, inode, mask)
    }

    /// The labeled-create rules of §5.2. A principal with labels
    /// `{Sp, Ip}` may create an inode with labels `{Sf, If}` iff:
    ///
    /// 1. `Sp ⊆ Sf` and `If ⊆ Ip` — the new name/label reveals nothing
    ///    beyond the principal's own taint, and the file cannot claim
    ///    integrity the principal does not carry;
    /// 2. the principal holds capabilities to *acquire* its current
    ///    labels (its taint is voluntary), unless it is unlabeled;
    /// 3. the principal can write the parent directory with its current
    ///    label (checked via the write rule; a tainted principal thus
    ///    cannot create even same-labeled files in an unlabeled
    ///    directory — it must pre-create before tainting itself).
    fn inode_create(
        &self,
        task: &TaskSec,
        parent: &SecPair,
        new: &SecPair,
    ) -> OsResult<()> {
        // Condition 1.
        if !task.labels.secrecy().is_subset_of(new.secrecy()) {
            return Err(OsError::PermissionDenied(
                "new file's secrecy label must include the creator's taint",
            ));
        }
        if !new.integrity().is_subset_of(task.labels.integrity()) {
            return Err(OsError::PermissionDenied(
                "new file's integrity label exceeds the creator's endorsements",
            ));
        }
        // Condition 2 (only bites for labeled principals).
        if !task.labels.is_unlabeled() {
            let s_ok = task.caps.can_add_all(task.labels.secrecy());
            let i_ok = task.caps.can_add_all(task.labels.integrity());
            if !s_ok || !i_ok {
                return Err(OsError::PermissionDenied(
                    "creator lacks capabilities to acquire its current labels",
                ));
            }
        }
        // Condition 3.
        Self::check_write(task, parent)
    }

    /// Unlinking removes a name from the parent directory, which is a
    /// write to the parent; the victim's contents are untouched, so only
    /// the parent's label governs (names are parent-protected).
    fn inode_unlink(
        &self,
        task: &TaskSec,
        parent: &SecPair,
        _victim: &SecPair,
    ) -> OsResult<()> {
        Self::check_write(task, parent)
    }

    fn file_permission(
        &self,
        task: &TaskSec,
        inode: &SecPair,
        mask: Access,
    ) -> OsResult<()> {
        Self::check_mask(task, inode, mask)
    }

    /// Mapping memory is readable (and possibly writable) access to the
    /// backing object; anonymous maps are unlabeled and always allowed.
    fn file_mmap(&self, task: &TaskSec, backing: Option<&SecPair>) -> OsResult<()> {
        match backing {
            Some(labels) => Self::check_read(task, labels),
            None => Ok(()),
        }
    }

    /// Signals flow information sender → target; an illegal one is
    /// silently dropped (a visible error would notify the sender of the
    /// target's labels — a channel).
    fn task_kill(&self, sender: &TaskSec, target: &TaskSec) -> DeliveryVerdict {
        let ok = sender.labels.flows_to(&target.labels);
        trace_check("kill", &sender.labels, &target.labels, ok);
        if ok {
            DeliveryVerdict::Deliver
        } else {
            DeliveryVerdict::SilentDrop
        }
    }

    /// The capability checks for label changes are performed by the
    /// syscall layer (they need the old label and the capability set);
    /// the module hook is a second veto point and sanity check.
    fn task_set_label(&self, task: &TaskSec, new: &SecPair) -> OsResult<()> {
        laminar_difc::check_pair_change(&task.labels, new, &task.caps)
            .map_err(OsError::from)
    }

    fn pipe_write(&self, task: &TaskSec, pipe: &SecPair) -> DeliveryVerdict {
        let ok = task.labels.flows_to(pipe);
        trace_check("pipe_write", &task.labels, pipe, ok);
        if ok {
            DeliveryVerdict::Deliver
        } else {
            DeliveryVerdict::SilentDrop
        }
    }

    fn pipe_read(&self, task: &TaskSec, pipe: &SecPair) -> OsResult<()> {
        Self::check_read(task, pipe)
    }

    fn cap_transfer(&self, sender: &TaskSec, pipe: &SecPair) -> DeliveryVerdict {
        self.pipe_write(sender, pipe)
    }

    fn cap_receive(&self, receiver: &TaskSec, pipe: &SecPair) -> OsResult<()> {
        Self::check_read(receiver, pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::{CapSet, Capability, Label, Tag};

    fn t(n: u64) -> Tag {
        Tag::from_raw(n)
    }
    fn task(s: &[u64], i: &[u64], caps: CapSet) -> TaskSec {
        TaskSec {
            labels: SecPair::new(
                Label::from_tags(s.iter().map(|&n| t(n))),
                Label::from_tags(i.iter().map(|&n| t(n))),
            ),
            caps: std::sync::Arc::new(caps),
        }
    }
    fn obj(s: &[u64], i: &[u64]) -> SecPair {
        SecPair::new(
            Label::from_tags(s.iter().map(|&n| t(n))),
            Label::from_tags(i.iter().map(|&n| t(n))),
        )
    }

    #[test]
    fn read_requires_no_read_up() {
        let m = LaminarModule;
        let unlabeled = task(&[], &[], CapSet::new());
        let secret = obj(&[1], &[]);
        assert!(m.inode_permission(&unlabeled, &secret, Access::Read).is_err());
        let tainted = task(&[1], &[], CapSet::new());
        assert!(m.inode_permission(&tainted, &secret, Access::Read).is_ok());
    }

    #[test]
    fn write_requires_no_write_down() {
        let m = LaminarModule;
        let tainted = task(&[1], &[], CapSet::new());
        assert!(m.file_permission(&tainted, &obj(&[], &[]), Access::Write).is_err());
        assert!(m.file_permission(&tainted, &obj(&[1], &[]), Access::Write).is_ok());
        assert!(m.file_permission(&tainted, &obj(&[1, 2], &[]), Access::Write).is_ok());
    }

    #[test]
    fn integrity_read_down_denied() {
        let m = LaminarModule;
        let high = task(&[], &[9], CapSet::new());
        // Reading an unendorsed file would corrupt the high-integrity task.
        assert!(m.file_permission(&high, &obj(&[], &[]), Access::Read).is_err());
        assert!(m.file_permission(&high, &obj(&[], &[9]), Access::Read).is_ok());
    }

    #[test]
    fn create_rules_of_section_5_2() {
        let m = LaminarModule;
        // Unlabeled principal pre-creates a secret file in an unlabeled dir.
        let p = task(&[], &[], CapSet::new());
        assert!(m.inode_create(&p, &obj(&[], &[]), &obj(&[1], &[])).is_ok());

        // Tainted principal cannot create in an unlabeled dir (cond 3):
        // the file *name* would leak.
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(t(1)));
        let tainted = task(&[1], &[], caps.clone());
        assert!(m.inode_create(&tainted, &obj(&[], &[]), &obj(&[1], &[])).is_err());

        // ...but can create inside an equally-labeled dir.
        assert!(m.inode_create(&tainted, &obj(&[1], &[]), &obj(&[1], &[])).is_ok());

        // Cond 1: new file must carry at least the creator's taint.
        assert!(m.inode_create(&tainted, &obj(&[1], &[]), &obj(&[], &[])).is_err());

        // Cond 2: involuntary taint (no 1+ capability) blocks creation.
        let involuntary = task(&[1], &[], CapSet::new());
        assert!(m.inode_create(&involuntary, &obj(&[1], &[]), &obj(&[1], &[])).is_err());
    }

    #[test]
    fn create_integrity_cannot_exceed_creator() {
        let m = LaminarModule;
        let p = task(&[], &[], CapSet::new());
        // Unlabeled creator cannot mint a high-integrity file.
        assert!(m.inode_create(&p, &obj(&[], &[]), &obj(&[], &[9])).is_err());
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(t(9)));
        let endorsed = task(&[], &[9], caps);
        // An endorsed creator can, in a dir it may write.
        assert!(m.inode_create(&endorsed, &obj(&[], &[]), &obj(&[], &[9])).is_ok());
    }

    #[test]
    fn signals_silently_drop_on_illegal_flow() {
        let m = LaminarModule;
        let secret = task(&[1], &[], CapSet::new());
        let public = task(&[], &[], CapSet::new());
        assert_eq!(m.task_kill(&secret, &public), DeliveryVerdict::SilentDrop);
        assert_eq!(m.task_kill(&public, &secret), DeliveryVerdict::Deliver);
    }

    #[test]
    fn pipe_write_silently_drops() {
        let m = LaminarModule;
        let secret = task(&[1], &[], CapSet::new());
        assert_eq!(m.pipe_write(&secret, &obj(&[], &[])), DeliveryVerdict::SilentDrop);
        assert_eq!(m.pipe_write(&secret, &obj(&[1], &[])), DeliveryVerdict::Deliver);
    }

    #[test]
    fn set_label_needs_capabilities() {
        let m = LaminarModule;
        let no_caps = task(&[], &[], CapSet::new());
        assert!(m.task_set_label(&no_caps, &obj(&[1], &[])).is_err());
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(t(1)));
        let with_caps = task(&[], &[], caps);
        assert!(m.task_set_label(&with_caps, &obj(&[1], &[])).is_ok());
    }
}
