//! Connects a `laminar-vm` MiniVM thread to a `laminar-os` kernel task:
//! the concrete [`laminar_vm::OsBridge`] of §4.4's VM–OS interface.

use laminar_difc::SecPair;
use laminar_os::{OpenMode, TaskHandle};
use laminar_vm::OsBridge;

/// Bridge backed by a kernel task plus the process's trusted `tcb`
/// thread (which performs the privileged label pushes/drops on the
/// task's behalf, §4.4). The VM's barrier and region decisions go to
/// that kernel's audit log.
#[derive(Debug)]
pub struct KernelBridge {
    task: TaskHandle,
    vm_task: TaskHandle,
}

impl KernelBridge {
    /// Creates a bridge for `task`, using `vm_task` (which must carry the
    /// `tcb` integrity tag and live in the same process) for privileged
    /// label management.
    #[must_use]
    pub fn new(task: TaskHandle, vm_task: TaskHandle) -> Self {
        KernelBridge { task, vm_task }
    }
}

impl OsBridge for KernelBridge {
    fn sync_labels(&mut self, labels: &SecPair) -> Result<(), String> {
        self.vm_task
            .set_task_labels_tcb(self.task.id(), labels.clone())
            .map_err(|e| e.to_string())
    }

    fn restore_labels(&mut self, labels: &SecPair) -> Result<(), String> {
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
        Some(self.task.kernel().audit())
    }
}
