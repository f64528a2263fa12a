//! Errno-style error type for the simulated kernel.

use crate::shard::{ShardKey, ShardMode};
use laminar_difc::{FlowError, LabelChangeError};
use std::error::Error;
use std::fmt;

/// Result alias used by every syscall.
pub type OsResult<T> = Result<T, OsError>;

/// Kernel error codes, modelled on the errno values a Linux LSM returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OsError {
    /// `ENOENT`: path component does not exist.
    NotFound,
    /// `EEXIST`: path already exists.
    Exists,
    /// `ENOTDIR`: a non-directory appeared where a directory was needed.
    NotADirectory,
    /// `EISDIR`: a directory appeared where a file was needed.
    IsADirectory,
    /// `EBADF`: file descriptor not open (or wrong mode).
    BadFd,
    /// `EINVAL`: malformed argument.
    InvalidArgument(&'static str),
    /// `EPERM` from the security module: a DIFC flow rule failed.
    FlowDenied(FlowError),
    /// `EPERM`: a label change was rejected by the label-change rule.
    LabelChangeDenied(LabelChangeError),
    /// `EPERM`: generic permission failure (non-flow).
    PermissionDenied(&'static str),
    /// `ESRCH`: no such task.
    NoSuchTask,
    /// `EAGAIN`: operation would block (never blocks in a DIFC pipe).
    WouldBlock,
    /// `EFAULT`: access to an unmapped or protection-violating address.
    Fault,
    /// `ENOTEMPTY`: directory not empty.
    NotEmpty,
    /// `ENOSYS`-ish: the operation is not supported on this inode kind.
    Unsupported(&'static str),
    /// `ELOOP`: too many levels of symbolic links during resolution.
    SymlinkLoop,
    /// `EDQUOT`-style: a resource quota (fds, inodes, tags) is exhausted.
    /// The payload names the exhausted resource; the operation had no
    /// effect and succeeds again once the resource is released.
    QuotaExceeded(&'static str),
    /// An internal kernel fault was caught at the syscall boundary. The
    /// transaction was rolled back: fail-closed, the syscall had no
    /// effect on any security state.
    Internal,
    /// Internal control-flow sentinel: the syscall body needs a shard
    /// lock in a mode that it cannot take without violating the total
    /// lock order, or exclusive mode on a shard it holds shared. The
    /// dispatcher rolls back, adds the shard and mode to the lock
    /// footprint, and restarts the syscall. Never escapes the kernel:
    /// user-visible results never carry it.
    #[doc(hidden)]
    Retry(ShardKey, ShardMode),
}

impl OsError {
    /// A short static name for the audit trail's `denied` field (stable
    /// across payload details, never allocates).
    #[must_use]
    pub fn audit_name(&self) -> &'static str {
        match self {
            OsError::NotFound => "not_found",
            OsError::Exists => "exists",
            OsError::NotADirectory => "not_a_directory",
            OsError::IsADirectory => "is_a_directory",
            OsError::BadFd => "bad_fd",
            OsError::InvalidArgument(_) => "invalid_argument",
            OsError::FlowDenied(_) => "flow",
            OsError::LabelChangeDenied(_) => "label_change",
            OsError::PermissionDenied(_) => "permission",
            OsError::NoSuchTask => "no_such_task",
            OsError::WouldBlock => "would_block",
            OsError::Fault => "fault",
            OsError::NotEmpty => "not_empty",
            OsError::Unsupported(_) => "unsupported",
            OsError::SymlinkLoop => "symlink_loop",
            OsError::QuotaExceeded(_) => "quota",
            OsError::Internal => "internal",
            OsError::Retry(..) => "retry",
        }
    }
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound => f.write_str("no such file or directory"),
            OsError::Exists => f.write_str("file exists"),
            OsError::NotADirectory => f.write_str("not a directory"),
            OsError::IsADirectory => f.write_str("is a directory"),
            OsError::BadFd => f.write_str("bad file descriptor"),
            OsError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            OsError::FlowDenied(e) => write!(f, "operation not permitted: {e}"),
            OsError::LabelChangeDenied(e) => {
                write!(f, "operation not permitted: {e}")
            }
            OsError::PermissionDenied(what) => {
                write!(f, "operation not permitted: {what}")
            }
            OsError::NoSuchTask => f.write_str("no such task"),
            OsError::WouldBlock => f.write_str("resource temporarily unavailable"),
            OsError::Fault => f.write_str("bad address"),
            OsError::NotEmpty => f.write_str("directory not empty"),
            OsError::Unsupported(what) => write!(f, "operation not supported: {what}"),
            OsError::SymlinkLoop => f.write_str("too many levels of symbolic links"),
            OsError::QuotaExceeded(what) => write!(f, "quota exceeded: {what}"),
            OsError::Internal => {
                f.write_str("internal kernel fault (syscall rolled back)")
            }
            OsError::Retry(shard, mode) => {
                write!(f, "kernel-internal restart for shard {:#x} ({mode:?})", shard.0)
            }
        }
    }
}

impl Error for OsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsError::FlowDenied(e) => Some(e),
            OsError::LabelChangeDenied(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for OsError {
    fn from(e: FlowError) -> Self {
        OsError::FlowDenied(e)
    }
}

impl From<LabelChangeError> for OsError {
    fn from(e: LabelChangeError) -> Self {
        OsError::LabelChangeDenied(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::Label;

    #[test]
    fn displays_are_nonempty_and_lowercase() {
        let errs = [
            OsError::NotFound,
            OsError::BadFd,
            OsError::FlowDenied(FlowError::Secrecy {
                source: Label::empty(),
                dest: Label::empty(),
                leaked: Label::empty(),
            }),
            OsError::PermissionDenied("x"),
            OsError::SymlinkLoop,
            OsError::QuotaExceeded("file descriptors"),
            OsError::Internal,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn flow_error_is_source() {
        let fe = FlowError::Secrecy {
            source: Label::empty(),
            dest: Label::empty(),
            leaked: Label::empty(),
        };
        let e = OsError::from(fe.clone());
        assert!(Error::source(&e).is_some());
        assert!(matches!(e, OsError::FlowDenied(inner) if inner == fe));
    }
}
