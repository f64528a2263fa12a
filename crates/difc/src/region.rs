//! The security-region engine (§4.3–§4.4) that the `laminar` runtime and
//! the MiniVM both run: entry, lazy kernel sync and exit. It makes no
//! kernel call itself; it says which calls are owed, and the front ends
//! make them through one path in the `laminar` crate.

use crate::caps::{CapSet, Capability};
use crate::pair::{check_region_entry, SecPair};

/// One entered region: the context it replaced, the kernel capabilities
/// its syncs suspended, and whether it ever synced.
#[derive(Clone, Debug)]
struct Frame {
    saved_labels: SecPair,
    saved_caps: CapSet,
    suspended: CapSet,
    synced: bool,
}

/// What an exited region owes the kernel task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionDebt {
    /// The task may carry the region's labels: set it unlabeled.
    pub drop_labels: bool,
    /// Capabilities the region's syncs suspended: grant them back.
    pub regrant: CapSet,
}

impl RegionDebt {
    /// Nothing is owed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.drop_labels && self.regrant.is_empty()
    }
}

/// A left region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionExit {
    /// Owed to the kernel task; the thread's context is already the outer one.
    pub debt: RegionDebt,
    /// The region was labeled and never synced: the lazy sync elided a
    /// label push.
    pub elided: bool,
}

/// A thread's current labels and capabilities, one frame per entered
/// region, and which region's context the kernel task carries.
///
/// A sync records its debt before the front end makes any kernel call,
/// so a sync that fails part-way is still paid back at exit, and until
/// [`RegionStack::synced`] every syscall syncs again. An exit restores
/// the outer context before it returns the debt, so a payment that fails
/// leaves the thread's context right and at most the region's labels and
/// suspensions on the kernel task.
#[derive(Clone, Debug)]
pub struct RegionStack {
    labels: SecPair,
    caps: CapSet,
    frames: Vec<Frame>,
    /// Depth whose labels the kernel task may carry (0: none).
    kernel: usize,
    /// Depth whose sync completed and still holds (0: none).
    synced: usize,
}

impl RegionStack {
    /// A thread outside every region, unlabeled, holding `caps`.
    #[must_use]
    pub fn new(caps: CapSet) -> Self {
        let labels = SecPair::unlabeled();
        RegionStack { labels, caps, frames: Vec::new(), kernel: 0, synced: 0 }
    }

    /// The current labels (unlabeled outside every region).
    #[inline]
    #[must_use]
    pub fn labels(&self) -> &SecPair {
        &self.labels
    }

    /// The current capabilities.
    #[inline]
    #[must_use]
    pub fn caps(&self) -> &CapSet {
        &self.caps
    }

    /// The number of regions entered and not yet left.
    #[inline]
    #[must_use]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Is the thread inside any region?
    #[inline]
    #[must_use]
    pub fn in_region(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Enters a region with `labels` and `caps` if the §4.3.2 rule allows.
    ///
    /// # Errors
    /// The violated rule; the context is then unchanged.
    #[inline]
    pub fn enter(&mut self, labels: SecPair, caps: CapSet) -> Result<(), &'static str> {
        let (s, i) = (labels.secrecy(), labels.integrity());
        check_region_entry(&self.labels, &self.caps, s, i, &caps)?;
        self.frames.push(Frame {
            saved_labels: std::mem::replace(&mut self.labels, labels),
            saved_caps: std::mem::replace(&mut self.caps, caps),
            suspended: CapSet::new(),
            synced: false,
        });
        Ok(())
    }

    /// Leaves the innermost region, restoring the outer context. `None`
    /// outside every region.
    #[inline]
    pub fn exit(&mut self) -> Option<RegionExit> {
        let depth = self.frames.len();
        let frame = self.frames.pop()?;
        let labels = std::mem::replace(&mut self.labels, frame.saved_labels);
        self.caps = frame.saved_caps;
        let drop_labels = self.kernel >= depth;
        if drop_labels {
            self.kernel = 0;
        }
        let debt = RegionDebt { drop_labels, regrant: frame.suspended };
        // The outer region's sync holds only if this region changed
        // nothing in the kernel task.
        if self.synced >= depth || !debt.is_empty() {
            self.synced = 0;
        }
        Some(RegionExit { elided: !frame.synced && !labels.is_unlabeled(), debt })
    }

    /// Must the kernel task be told the innermost region's context before
    /// a syscall? Never outside every region.
    #[inline]
    #[must_use]
    pub fn needs_sync(&self) -> bool {
        self.synced != self.frames.len()
    }

    /// Syncs the innermost region against a kernel task holding
    /// `kernel_caps`: records the debt, then returns what to tell the
    /// task: the capabilities to suspend (those the region did not keep)
    /// and the labels to set, unless the task and the region are both
    /// unlabeled.
    pub fn sync(&mut self, kernel_caps: &CapSet) -> (CapSet, Option<SecPair>) {
        let depth = self.frames.len();
        let suspend: CapSet = kernel_caps.iter().filter(|c| !self.caps.has(*c)).collect();
        let mut labels = None;
        if let Some(top) = self.frames.last_mut() {
            top.suspended = top.suspended.union(&suspend);
            if !self.labels.is_unlabeled() || self.kernel != 0 {
                self.kernel = depth;
                labels = Some(self.labels.clone());
            }
        }
        (suspend, labels)
    }

    /// Marks the innermost region's sync as applied by the kernel.
    pub fn synced(&mut self) {
        if let Some(top) = self.frames.last_mut() {
            top.synced = true;
            self.synced = self.frames.len();
        }
    }

    /// Grants `cap` for good: it survives every exit (§4.4).
    pub fn grant(&mut self, cap: Capability) {
        self.caps.grant(cap);
        for f in &mut self.frames {
            f.saved_caps.grant(cap);
        }
    }

    /// Revokes `cap`, for good if `global` (the caller drops it from the
    /// kernel task), otherwise until the innermost region exits: its next
    /// syscall syncs again and suspends `cap`, and its exit gives it back.
    pub fn revoke(&mut self, cap: Capability, global: bool) {
        self.caps.revoke(cap);
        if global {
            for f in &mut self.frames {
                f.saved_caps.revoke(cap);
                f.suspended.revoke(cap);
            }
        } else if self.synced == self.frames.len() {
            self.synced = 0;
        }
    }
}
