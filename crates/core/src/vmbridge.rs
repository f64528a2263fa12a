//! Connects a `laminar-vm` MiniVM thread to a `laminar-os` kernel task:
//! the concrete [`laminar_vm::OsBridge`] of §4.4's VM–OS interface.

use crate::{Laminar, LaminarResult, Principal};
use laminar_difc::SecPair;
use laminar_os::{Kernel, OpenMode, OsError, TaskHandle};
use laminar_vm::OsBridge;
use std::sync::Arc;

/// Bridge backed by a kernel task plus the process's trusted `tcb` thread,
/// which pushes labels on the task's behalf (§4.4); the VM's decisions go
/// to that kernel's audit log. It carries `tcb` authority, so the installer
/// builds it ([`Laminar::vm_bridge`]) for the VM, never for subject code:
///
/// ```compile_fail,E0599
/// use laminar::{KernelBridge as B, Laminar, Principal};
/// fn f(p: &Principal, _s: &Laminar) -> B { B::new(p.task().clone(), p.task().clone()) }
/// ```
/// ```
/// use laminar::{KernelBridge as B, Laminar, LaminarResult, Principal};
/// fn f(p: &Principal, s: &Laminar) -> LaminarResult<B> { s.vm_bridge(p) }
/// ```
#[derive(Debug)]
pub struct KernelBridge {
    kernel: Arc<Kernel>,
    task: TaskHandle,
    vm_task: TaskHandle,
}

impl Laminar {
    /// Binds a MiniVM thread to `principal`: its process's `tcb` thread
    /// pushes the labels, and the VM's decisions go to this system's
    /// audit log.
    ///
    /// # Errors
    /// [`OsError::NoSuchTask`] if `principal` logged in on another kernel.
    pub fn vm_bridge(&self, principal: &Principal) -> LaminarResult<KernelBridge> {
        if !self.kernel().owns(principal.task()) {
            return Err(OsError::NoSuchTask.into());
        }
        Ok(KernelBridge {
            kernel: Arc::clone(self.kernel()),
            task: principal.task().clone(),
            vm_task: principal.vm_task.clone(),
        })
    }
}

impl OsBridge for KernelBridge {
    fn sync_labels(&mut self, labels: &SecPair) -> Result<(), String> {
        self.vm_task
            .set_task_labels_tcb(self.task.id(), labels.clone())
            .map_err(|e| e.to_string())
    }

    fn write_byte(&mut self, path: &str, byte: u8) -> Result<(), String> {
        let fd = match self.task.open(path, OpenMode::Write) {
            Ok(fd) => fd,
            Err(laminar_os::OsError::NotFound) => {
                self.task.create(path).map_err(|e| e.to_string())?
            }
            Err(e) => return Err(e.to_string()),
        };
        let r = self.task.write(fd, &[byte]).map(|_| ());
        let _ = self.task.close(fd);
        r.map_err(|e| e.to_string())
    }

    fn read_byte(&mut self, path: &str) -> Result<Option<u8>, String> {
        let fd = self.task.open(path, OpenMode::Read).map_err(|e| e.to_string())?;
        let r = self.task.read(fd, 1).map(|v| v.first().copied());
        let _ = self.task.close(fd);
        r.map_err(|e| e.to_string())
    }

    fn audit(&self) -> Option<&laminar_vm::Audit> {
        Some(self.kernel.audit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaminarError;
    use laminar_difc::{Capability, Label, LabelType};
    use laminar_os::UserId;

    /// A subject that boots a kernel of its own gets no bridge for a
    /// principal of the installer's kernel, so it cannot borrow that
    /// process's `tcb` thread to drop a secrecy tag it cannot declassify.
    #[test]
    fn a_foreign_kernel_gets_no_bridge_to_a_principal() {
        let sys = Laminar::boot();
        sys.add_user(UserId(1), "alice");
        let p = sys.login(UserId(1)).unwrap();
        let a = p.task().alloc_tag().unwrap();
        p.task().set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
        p.task().drop_capabilities(&[Capability::minus(a)]).unwrap();
        let before = p.task().current_labels().unwrap();

        let own = Laminar::boot();
        let refused = own.vm_bridge(&p).map(|_| ());
        assert!(
            matches!(refused, Err(LaminarError::Os(OsError::NoSuchTask))),
            "{refused:?}"
        );
        assert!(matches!(
            own.adopt(p.task().clone()),
            Err(LaminarError::Os(OsError::NoSuchTask))
        ));
        assert_eq!(p.task().current_labels().unwrap(), before);
        assert!(before.secrecy().contains(a));

        // The installer's own bridge still pushes labels for `p`.
        let mut bridge = sys.vm_bridge(&p).unwrap();
        bridge.sync_labels(&before).unwrap();
        assert_eq!(p.task().current_labels().unwrap(), before);
    }
}
