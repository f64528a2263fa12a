//! The Laminar runtime: boots the OS, logs principals in, and owns the
//! trusted per-process VM thread.
//!
//! Trust model (§4.7): only the VM and the OS are trusted. Here the OS
//! is a `laminar-os` kernel running the Laminar LSM, and "the VM" is
//! this crate's runtime machinery — in particular the one trusted kernel
//! thread per process that carries the special `tcb` integrity tag and
//! is the only code allowed to drop or set labels without capability
//! checks (§4.4).

use crate::error::{LaminarError, LaminarResult};
use crate::principal::Principal;
use laminar_difc::CapSet;
use laminar_os::{Kernel, LaminarModule, TaskHandle, UserId};
use std::sync::Arc;

/// The top-level Laminar system: a booted kernel plus login services.
///
/// # Examples
///
/// ```
/// use laminar::{Laminar, RegionParams};
/// use laminar_os::UserId;
///
/// # fn main() -> Result<(), laminar::LaminarError> {
/// let system = Laminar::boot();
/// system.add_user(UserId(1), "alice");
/// let alice = system.login(UserId(1))?;
///
/// // Mint a tag and run a security region that can see it.
/// let t = alice.create_tag()?;
/// let params = RegionParams::new()
///     .secrecy(laminar_difc::Label::singleton(t))
///     .grant(laminar_difc::Capability::plus(t));
/// let out = alice.secure(&params, |_guard| Ok(21 * 2), |_| {})?;
/// assert_eq!(out, Some(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Laminar {
    kernel: Arc<Kernel>,
}

impl Laminar {
    /// Boots a kernel with the Laminar security module loaded.
    #[must_use]
    pub fn boot() -> Arc<Laminar> {
        Arc::new(Laminar { kernel: Kernel::boot(LaminarModule) })
    }

    /// The underlying kernel, for installer code only: set-up, admin
    /// calls and inspection. No value a subject holds leads here:
    ///
    /// ```compile_fail,E0599
    /// fn f(p: &laminar::Principal, _s: &laminar::Laminar) { p.task().kernel(); }
    /// ```
    /// ```
    /// fn f(p: &laminar::Principal, s: &laminar::Laminar) { (p.task(), s.kernel()); }
    /// ```
    #[must_use]
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Registers a user and creates `/home/<name>`.
    pub fn add_user(&self, user: UserId, name: &str) {
        self.kernel.add_user(user, name);
    }

    /// Logs a user in *onto the Laminar VM*: creates their process,
    /// marks it trusted (heterogeneously-labeled threads allowed, §4.1)
    /// and starts the process's trusted `tcb` thread; the
    /// application-visible task never holds the `tcb` capabilities, so
    /// untrusted code cannot reach the privileged path.
    ///
    /// # Errors
    ///
    /// Fails if the user is unknown or kernel setup fails.
    pub fn login(self: &Arc<Self>, user: UserId) -> LaminarResult<Principal> {
        let task = self.kernel.login(user)?;
        self.adopt(task)
    }

    /// Turns an existing kernel task (e.g. one produced by `fork`) into a
    /// Laminar principal: blesses its process as a trusted VM and starts
    /// the process's `tcb` thread, in one kernel transaction
    /// ([`Kernel::bless_vm_process`]), so the application-visible task
    /// never holds the `tcb` capabilities. This models `exec`ing the
    /// Laminar VM in a child process.
    ///
    /// # Errors
    ///
    /// Fails if kernel setup fails (task exited).
    pub fn adopt(self: &Arc<Self>, task: TaskHandle) -> LaminarResult<Principal> {
        let vm_task = self.kernel.bless_vm_process(&task)?;
        let caps = task.current_caps()?;
        Ok(Principal::new(task, vm_task, caps))
    }

    /// Logs a user in as a plain (non-VM) process: a bare kernel task
    /// with the user's persistent capabilities, no trusted thread, and
    /// therefore no security regions — the paper's "unlabeled or
    /// non-Laminar applications", which the OS alone constrains.
    ///
    /// # Errors
    ///
    /// Fails if the user is unknown.
    pub fn login_raw(&self, user: UserId) -> LaminarResult<TaskHandle> {
        self.kernel.login(user).map_err(LaminarError::from)
    }

    /// Stores `caps` as the user's persistent capabilities (granted to
    /// their login shell at the next login, §4.4).
    pub fn set_persistent_caps(&self, user: UserId, caps: CapSet) {
        self.kernel.set_persistent_caps(user, caps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_and_login() {
        let sys = Laminar::boot();
        sys.add_user(UserId(1), "alice");
        let alice = sys.login(UserId(1)).unwrap();
        assert!(alice.current_labels().is_unlabeled());
        // The tcb capability is not visible to the application task.
        let tcb = sys.kernel().tcb_tag();
        assert!(!alice.current_caps().can_add(tcb));
        assert!(!alice.current_caps().can_remove(tcb));
    }

    #[test]
    fn login_raw_has_no_vm_privileges() {
        let sys = Laminar::boot();
        sys.add_user(UserId(2), "bob");
        let raw = sys.login_raw(UserId(2)).unwrap();
        // A raw task cannot reach the tcb paths.
        assert!(raw.drop_label_tcb(raw.id()).is_err());
    }

    #[test]
    fn persistent_caps_reach_the_next_login() {
        let sys = Laminar::boot();
        sys.add_user(UserId(3), "carol");
        let carol = sys.login(UserId(3)).unwrap();
        let t = carol.create_tag().unwrap();
        carol.task().save_persistent_caps().unwrap();
        drop(carol);
        let carol2 = sys.login(UserId(3)).unwrap();
        assert!(carol2.current_caps().can_add(t));
        assert!(carol2.current_caps().can_remove(t));
    }
}
