//! Fault plans: which injected faults a conformance run executes under.
//!
//! Laminar's enforcement must be *semantically invisible* to its own
//! lock machinery: a poisoned lock shard may change timing, never
//! verdicts. A [`FaultPlan`] with periodic lock poisoning makes the
//! explorer assert that every trace produces bit-identical outcomes and
//! states under it.
//!
//! Syscall failpoints are sharper: a plan may arm a one-shot
//! [`SyscallFailpoint`] before every `n`th op — a panic inside the next
//! LSM hook, a panic after the syscall body succeeded, or an injected
//! allocation-quota failure. The explorer then asserts the *fail-closed
//! contract*: the faulted syscall returns a typed denial, the kernel's
//! security state is byte-for-byte what it was before the op, and the
//! kernel keeps serving the rest of the trace.

pub use laminar_os::SyscallFailpoint;

/// The fault regime for one conformance run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// If set, poison one kernel lock shard before every `n`th op
    /// (rotating through the shard map over the trace).
    pub poison_every: Option<usize>,
    /// If set, arm [`SyscallFailpoint::PanicAtHook`] before every `n`th
    /// op: the next LSM hook unwinds mid-syscall.
    pub panic_hook_every: Option<usize>,
    /// If set, arm [`SyscallFailpoint::AbortLate`] before every `n`th
    /// op: the next syscall panics *after* its body succeeded, so the
    /// rollback must undo a fully-applied mutation.
    pub abort_late_every: Option<usize>,
    /// If set, arm [`SyscallFailpoint::QuotaNext`] before every `n`th
    /// op: the next resource allocation reports quota exhaustion.
    pub quota_every: Option<usize>,
}

impl FaultPlan {
    /// No faults: the baseline regime.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds periodic lock poisoning to this plan.
    #[must_use]
    pub fn with_poison(mut self, every: usize) -> Self {
        self.poison_every = Some(every);
        self
    }

    /// A regime panicking inside an LSM hook before every `n`th op.
    #[must_use]
    pub fn panic_at_hook(every: usize) -> Self {
        FaultPlan { panic_hook_every: Some(every), ..FaultPlan::default() }
    }

    /// A regime aborting syscalls after body success before every `n`th
    /// op.
    #[must_use]
    pub fn abort_late(every: usize) -> Self {
        FaultPlan { abort_late_every: Some(every), ..FaultPlan::default() }
    }

    /// A regime failing the next allocation before every `n`th op.
    #[must_use]
    pub fn quota(every: usize) -> Self {
        FaultPlan { quota_every: Some(every), ..FaultPlan::default() }
    }

    /// The syscall failpoint this plan arms, with its op period (plans
    /// arm at most one kind; the first set field wins).
    #[must_use]
    pub fn syscall_failpoint(&self) -> Option<(SyscallFailpoint, usize)> {
        if let Some(n) = self.panic_hook_every {
            Some((SyscallFailpoint::PanicAtHook, n))
        } else if let Some(n) = self.abort_late_every {
            Some((SyscallFailpoint::AbortLate, n))
        } else {
            self.quota_every.map(|n| (SyscallFailpoint::QuotaNext, n))
        }
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default backtrace spew for *injected failpoint* panics.
///
/// The kernel's syscall boundary catches these panics and rolls the
/// transaction back, but the process panic hook runs before
/// `catch_unwind`, so without this a fault regime prints thousands of
/// backtraces for panics that are the whole point of the test. Every
/// other panic is delegated to the previously installed hook.
pub fn silence_injected_panics() {
    use std::sync::OnceLock;
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("injected failpoint"));
            if !injected {
                prev(info);
            }
        }));
    });
}
