//! `Labeled<T>`: fine-grained labeled heap data.
//!
//! The paper's VM stores two label words in every object header and
//! checks a barrier at every access (§5.1). In this runtime a
//! [`Labeled<T>`] cell is the labeled object: its labels are immutable
//! (relabeling copies, §4.5), and every access runs a barrier against
//! the accessing thread's current labels.
//!
//! Two access APIs mirror the paper's two barrier strategies:
//!
//! * [`Labeled::read`]/[`Labeled::write`] take a
//!   [`RegionGuard`], so the "am I inside a security region?" question is
//!   resolved statically — these are **static barriers**;
//! * [`Labeled::read_dyn`]/[`Labeled::write_dyn`] discover the region
//!   context through a thread-local lookup at run time — **dynamic
//!   barriers**, required when the same code runs both inside and outside
//!   regions (the Calendar/FreeCS situation of §7).

use crate::error::{LaminarError, LaminarResult};
use crate::principal::{with_dynamic_ctx, RegionGuard};
use laminar_difc::SecPair;
use laminar_util::sync::RwLock;
use std::fmt;

/// A labeled heap cell. Shareable across threads via `Arc`.
pub struct Labeled<T> {
    labels: SecPair,
    cell: RwLock<T>,
}

impl<T> Labeled<T> {
    /// Constructs a cell without an allocation-context check. Internal:
    /// public construction goes through [`RegionGuard::new_labeled`] /
    /// [`RegionGuard::new_labeled_with`] so that labeled data is only
    /// minted inside security regions.
    pub(crate) fn with_labels_unchecked(value: T, labels: SecPair) -> Self {
        Labeled { labels, cell: RwLock::new(value) }
    }

    /// Creates an **unlabeled** cell (`{S(), I()}`): freely accessible,
    /// the implicit label of ordinary data. Useful as the public sink in
    /// examples and tests.
    #[must_use]
    pub fn unlabeled(value: T) -> Self {
        Labeled { labels: SecPair::unlabeled(), cell: RwLock::new(value) }
    }

    /// The cell's immutable labels.
    #[must_use]
    pub fn labels(&self) -> &SecPair {
        &self.labels
    }

    pub(crate) fn clone_value(&self) -> T
    where
        T: Clone,
    {
        self.cell.read().clone()
    }

    /// Reads the cell through a static (guard-resolved) barrier.
    ///
    /// # Errors
    /// [`LaminarError::Flow`] if the cell's labels may not flow to the
    /// region (secrecy: `S_obj ⊆ S_thr`; integrity: `I_thr ⊆ I_obj`).
    pub fn read<R>(
        &self,
        guard: &RegionGuard<'_>,
        f: impl FnOnce(&T) -> R,
    ) -> LaminarResult<R> {
        {
            let mut st = guard.state().lock();
            self.labels.can_flow_to(st.regions.labels())?;
            st.stats.labeled_reads += 1;
        }
        Ok(f(&self.cell.read()))
    }

    /// Writes the cell through a static barrier.
    ///
    /// # Errors
    /// [`LaminarError::Flow`] if the region's labels may not flow to the
    /// cell.
    pub fn write<R>(
        &self,
        guard: &RegionGuard<'_>,
        f: impl FnOnce(&mut T) -> R,
    ) -> LaminarResult<R> {
        {
            let mut st = guard.state().lock();
            st.regions.labels().can_flow_to(&self.labels)?;
            st.stats.labeled_writes += 1;
        }
        Ok(f(&mut self.cell.write()))
    }

    /// Reads the cell through a **dynamic** barrier: the region context
    /// is looked up at run time. Outside any region only unlabeled cells
    /// are accessible (threads have empty labels there, §4.2).
    ///
    /// # Errors
    /// [`LaminarError::NotInRegion`] for labeled cells outside a region;
    /// [`LaminarError::Flow`] on an illegal flow.
    pub fn read_dyn<R>(&self, f: impl FnOnce(&T) -> R) -> LaminarResult<R> {
        with_dynamic_ctx(|ctx| match ctx {
            Some(state) => {
                {
                    // A dynamic barrier counts before its flow check: a
                    // denied access still paid for the context lookup.
                    let mut st = state.lock();
                    st.stats.dynamic_dispatches += 1;
                    st.stats.labeled_reads += 1;
                    self.labels.can_flow_to(st.regions.labels())?;
                }
                Ok(f(&self.cell.read()))
            }
            None => {
                if self.labels.is_unlabeled() {
                    Ok(f(&self.cell.read()))
                } else {
                    Err(LaminarError::NotInRegion)
                }
            }
        })
    }

    /// Writes the cell through a dynamic barrier.
    ///
    /// # Errors
    /// As [`Labeled::read_dyn`].
    pub fn write_dyn<R>(&self, f: impl FnOnce(&mut T) -> R) -> LaminarResult<R> {
        with_dynamic_ctx(|ctx| match ctx {
            Some(state) => {
                {
                    let mut st = state.lock();
                    st.stats.dynamic_dispatches += 1;
                    st.stats.labeled_writes += 1;
                    st.regions.labels().can_flow_to(&self.labels)?;
                }
                Ok(f(&mut self.cell.write()))
            }
            None => {
                if self.labels.is_unlabeled() {
                    Ok(f(&mut self.cell.write()))
                } else {
                    Err(LaminarError::NotInRegion)
                }
            }
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for Labeled<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does NOT print the value: a Debug dump must not
        // become a declassification channel. Labels are public metadata
        // (protected by the container in the OS case; benign here).
        f.debug_struct("Labeled")
            .field("labels", &self.labels)
            .field("value", &"<protected>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlabeled_cells_are_freely_accessible_dynamically() {
        let cell = Labeled::unlabeled(7);
        assert_eq!(cell.read_dyn(|v| *v).unwrap(), 7);
        cell.write_dyn(|v| *v = 8).unwrap();
        assert_eq!(cell.read_dyn(|v| *v).unwrap(), 8);
    }

    #[test]
    fn debug_does_not_leak_value() {
        let cell = Labeled::unlabeled("secret-string");
        let s = format!("{cell:?}");
        assert!(!s.contains("secret-string"), "{s}");
    }
}
