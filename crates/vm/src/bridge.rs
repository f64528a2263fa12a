//! The VM→OS bridge (§4.4, "VM-OS interface"): the seam through which
//! the `laminar` runtime crate makes a [`crate::Vm`]'s kernel calls, so
//! the VM crate itself stays OS-agnostic. Security regions are invisible
//! to the OS; the VM's [`RegionStack`] decides when a region's context
//! must reach the kernel task (lazily, before its first syscall) and
//! what each exit owes back.

use laminar_difc::{RegionDebt, RegionStack};
use std::fmt;

/// Connects a VM thread to its kernel task.
///
/// Errors are strings because the VM reports them as opaque
/// [`crate::VmError::Os`] exceptions; the runtime crate maps real
/// `OsError`s into them.
pub trait OsBridge: Send {
    /// Tells the kernel task the innermost region's context:
    /// [`RegionStack::sync`], its kernel calls (labels through the trusted
    /// `tcb` path), then [`RegionStack::synced`].
    ///
    /// # Errors
    /// If the kernel rejects a call; the debt is paid at exit all the same.
    fn sync_region(&mut self, regions: &mut RegionStack) -> Result<(), String>;

    /// Pays what an exited region owes the kernel task, through the
    /// trusted `tcb` path (§4.4).
    ///
    /// # Errors
    /// If the kernel rejects a call.
    fn settle_region(&mut self, debt: &RegionDebt) -> Result<(), String>;

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
    fn sync_region(&mut self, _regions: &mut RegionStack) -> Result<(), String> {
        Err("no OS attached".into())
    }
    fn settle_region(&mut self, _debt: &RegionDebt) -> Result<(), String> {
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
        assert!(b.sync_region(&mut RegionStack::new(Default::default())).is_err());
        assert!(b.settle_region(&RegionDebt::default()).is_err());
        assert!(b.write_byte("x", 0).is_err());
        assert!(b.read_byte("x").is_err());
    }
}
