//! Inodes of the simulated filesystem.
//!
//! Secrecy and integrity labels live in the inode's *extended
//! attributes*, as in the real Laminar LSM ("Secrecy and integrity labels
//! for files are persistently stored in the file's extended attributes",
//! §5.2). The label of an inode protects its contents and metadata; the
//! *name* and the *label itself* are protected by the label of the parent
//! directory.

use crate::vfs::file::SocketEnd;
use crate::vfs::pipe::PipeBuffer;
use laminar_difc::SecPair;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an inode.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InodeId(pub u64);

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino{}", self.0)
    }
}

/// What kind of object an inode is.
#[derive(Clone, Debug)]
pub(crate) enum InodeKind {
    /// Regular file with byte contents.
    File { data: Vec<u8> },
    /// Directory mapping names to child inodes.
    Dir { entries: BTreeMap<String, InodeId> },
    /// A DIFC pipe (message buffer labeled by its inode).
    Pipe { buffer: PipeBuffer },
    /// A bidirectional local socket: two buffers, one per direction
    /// (end A writes `ab` and reads `ba`; end B the opposite). Same
    /// silent-drop mediation as pipes.
    Socket { ab: PipeBuffer, ba: PipeBuffer },
    /// A symbolic link. Following it *reads* the link inode, so a task
    /// that does not accept the link's integrity cannot be tricked
    /// through it — the §5.2 symlink-attack defence.
    Symlink { target: String },
    /// A sink device like `/dev/null`: reads return nothing, writes
    /// disappear. Used by the "null I/O" microbenchmark of Table 2.
    NullDevice,
}

/// Names one message buffer inside a pipe or socket inode.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Buf {
    Pipe,
    /// Written by socket end A, read by end B.
    SocketAb,
    /// Written by socket end B, read by end A.
    SocketBa,
}

impl Buf {
    /// The buffer a socket end writes to.
    pub(crate) fn socket_tx(end: SocketEnd) -> Self {
        match end {
            SocketEnd::A => Buf::SocketAb,
            SocketEnd::B => Buf::SocketBa,
        }
    }

    /// The buffer a socket end reads from.
    pub(crate) fn socket_rx(end: SocketEnd) -> Self {
        match end {
            SocketEnd::A => Buf::SocketBa,
            SocketEnd::B => Buf::SocketAb,
        }
    }
}

impl InodeKind {
    pub(crate) fn is_dir(&self) -> bool {
        matches!(self, InodeKind::Dir { .. })
    }

    /// The named message buffer, if this inode has it.
    pub(crate) fn buffer_mut(&mut self, which: Buf) -> Option<&mut PipeBuffer> {
        match (self, which) {
            (InodeKind::Pipe { buffer }, Buf::Pipe) => Some(buffer),
            (InodeKind::Socket { ab, .. }, Buf::SocketAb) => Some(ab),
            (InodeKind::Socket { ba, .. }, Buf::SocketBa) => Some(ba),
            _ => None,
        }
    }
}

/// Extended attributes: where DIFC labels persist.
#[derive(Clone, Debug, Default)]
pub struct Xattrs {
    /// The `security.laminar` labels of the inode.
    pub labels: SecPair,
}

/// Kernel-side inode state.
#[derive(Clone, Debug)]
pub(crate) struct Inode {
    #[allow(dead_code)] // inode number, shown in Debug dumps
    pub id: InodeId,
    pub kind: InodeKind,
    pub xattrs: Xattrs,
    /// Link count; inode is reclaimed when it reaches zero and no fd is
    /// open (we keep reclamation simple: unlink drops the entry).
    pub nlink: u32,
}

impl Inode {
    pub(crate) fn labels(&self) -> &SecPair {
        &self.xattrs.labels
    }
}

/// Public metadata returned by `stat`.
#[derive(Clone, Debug)]
pub struct Metadata {
    /// Inode number.
    pub inode: InodeId,
    /// Is this a directory?
    pub is_dir: bool,
    /// File size in bytes (0 for directories, pipes and devices).
    pub size: u64,
    /// DIFC labels from the extended attributes.
    pub labels: SecPair,
    /// Link count.
    pub nlink: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_kind_discriminates_dirs() {
        assert!(InodeKind::Dir { entries: BTreeMap::new() }.is_dir());
        assert!(!InodeKind::File { data: vec![] }.is_dir());
        assert!(!InodeKind::NullDevice.is_dir());
    }

    #[test]
    fn default_xattrs_are_unlabeled() {
        assert!(Xattrs::default().labels.is_unlabeled());
    }
}
