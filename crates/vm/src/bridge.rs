//! The VM→OS bridge (§4.4, "VM-OS interface").
//!
//! Security regions are invisible to the OS; when code inside a region
//! performs a syscall, the VM must first push the region's labels onto
//! the kernel task via `set_task_label` — and, as an optimization, "the
//! VM omits setting the labels in the kernel thread if the security
//! region does not perform a system call". The bridge trait is the seam
//! through which the `laminar` runtime crate connects a [`crate::Vm`]
//! to a `laminar-os` kernel task; the VM crate itself stays OS-agnostic.

use laminar_difc::SecPair;
use std::fmt;

/// Connects a VM thread to its kernel task.
///
/// Errors are strings because the VM reports them as opaque
/// [`crate::VmError::Os`] exceptions; the runtime crate maps real
/// `OsError`s into them.
pub trait OsBridge: Send {
    /// `set_task_label`: push the region's labels to the kernel task,
    /// via the trusted `tcb` path. A region that had synced restores
    /// the unlabeled state the same way when it exits: the thread itself
    /// may lack the declassification capabilities (§4.4).
    ///
    /// # Errors
    /// If the kernel rejects the label change.
    fn sync_labels(&mut self, labels: &SecPair) -> Result<(), String>;

    /// Write one byte to the named file (creating it, labeled with the
    /// task's current labels, if absent).
    ///
    /// # Errors
    /// Propagates kernel errors (including DIFC denials).
    fn write_byte(&mut self, path: &str, byte: u8) -> Result<(), String>;

    /// Read one byte from the named file.
    ///
    /// # Errors
    /// Propagates kernel errors (including DIFC denials).
    fn read_byte(&mut self, path: &str) -> Result<Option<u8>, String>;

    /// The trusted audit log of the kernel behind the bridge, which
    /// records the VM's barrier and region decisions. `None` (the
    /// default) records nothing.
    fn audit(&self) -> Option<&laminar_obs::Audit> {
        None
    }
}

impl fmt::Debug for dyn OsBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn OsBridge")
    }
}

/// A bridge for VMs with no attached OS: every operation fails, making
/// accidental OS dependence loud in tests. It has no audit log, so the
/// VM's decisions are recorded nowhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoOs;

impl OsBridge for NoOs {
    fn sync_labels(&mut self, _labels: &SecPair) -> Result<(), String> {
        Err("no OS attached".into())
    }
    fn write_byte(&mut self, _path: &str, _byte: u8) -> Result<(), String> {
        Err("no OS attached".into())
    }
    fn read_byte(&mut self, _path: &str) -> Result<Option<u8>, String> {
        Err("no OS attached".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_os_fails_everything() {
        let mut b = NoOs;
        assert!(b.sync_labels(&SecPair::unlabeled()).is_err());
        assert!(b.write_byte("x", 0).is_err());
        assert!(b.read_byte("x").is_err());
    }
}
