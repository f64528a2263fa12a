//! # laminar-os — the OS half of Laminar
//!
//! A user-space simulation of the operating-system side of *Laminar*
//! (PLDI 2009): a small kernel (tasks, processes, a VFS with extended
//! attributes, pipes, signals, memory maps) instrumented with Linux
//! Security Module-style hooks, plus the Laminar security module that
//! implements the DIFC checks at every hook.
//!
//! The real Laminar adds a ~1,000-line LSM and ~500 lines of kernel
//! changes to Linux 2.6.22 (§5.2). This environment has no kernel to
//! modify, so the kernel itself is simulated — but the *architecture* is
//! preserved: the kernel only places hooks; all policy lives in a
//! pluggable [`SecurityModule`]. Running the same kernel with
//! [`NullModule`] gives the "unmodified Linux" baseline of the paper's
//! Table 2; running it with [`LaminarModule`] gives the Laminar OS.
//!
//! ## Quick tour
//!
//! ```
//! use laminar_difc::{Label, LabelType, SecPair};
//! use laminar_os::{Kernel, LaminarModule, OpenMode, UserId};
//!
//! # fn main() -> Result<(), laminar_os::OsError> {
//! let kernel = Kernel::boot(LaminarModule);
//! kernel.add_user(UserId(1), "alice");
//! let alice = kernel.login(UserId(1))?;
//!
//! // Alice mints a secrecy tag and pre-creates a labeled calendar file.
//! let a = alice.alloc_tag()?;
//! let secret = SecPair::secrecy_only(Label::singleton(a));
//! let fd = alice.create_file_labeled("calendar.ics", secret.clone())?;
//! alice.write(fd, b"BEGIN:VCALENDAR")?;
//! alice.close(fd)?;
//!
//! // An unlabeled open fails: no read up.
//! assert!(alice.open("calendar.ics", OpenMode::Read).is_err());
//!
//! // After tainting herself with {S(a)} the read succeeds.
//! alice.set_task_label(LabelType::Secrecy, Label::singleton(a))?;
//! let fd = alice.open("calendar.ics", OpenMode::Read)?;
//! assert!(!alice.read(fd, 64)?.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod kernel;
mod laminar_lsm;
mod lsm;
mod shard;
pub mod stats;
mod syscalls;
mod task;
mod txn;
mod vfs;

pub use error::{OsError, OsResult};
pub use kernel::{last_syscall_seq, CommitRecord, Kernel, SyscallFailpoint, TaskHandle};
pub use laminar_lsm::LaminarModule;
pub use lsm::{Access, DeliveryVerdict, NullModule, SecurityModule};
pub use shard::{
    ShardKey, ShardMode, INODE_SHARDS, PROC_SHARDS, SHARD_COUNT, TASK_SHARDS,
};
pub use stats::syscalls_rolled_back;
pub use task::{ProcessId, Signal, TaskId, TaskSec, UserId, VmArea};
pub use txn::Quotas;
pub use vfs::file::{Fd, OpenMode, PipeEnd, SocketEnd};
pub use vfs::inode::{InodeId, Metadata, Xattrs};
pub use vfs::pipe::{PIPE_CAPACITY, PIPE_MSG_LIMIT};
