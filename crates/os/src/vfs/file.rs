//! File descriptors and per-process fd tables.

use crate::vfs::inode::InodeId;
use std::collections::BTreeMap;
use std::fmt;

/// A file descriptor (index into the owning process's fd table).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Open-mode flags for `open`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpenMode {
    /// Read only.
    Read,
    /// Write only.
    Write,
    /// Read and write.
    ReadWrite,
}

impl OpenMode {
    /// May this mode read?
    #[must_use]
    pub fn readable(self) -> bool {
        matches!(self, OpenMode::Read | OpenMode::ReadWrite)
    }

    /// May this mode write?
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

/// Which end of a pipe an fd refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PipeEnd {
    /// The read end.
    Read,
    /// The write end.
    Write,
}

/// Which end of a socket pair an fd refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SocketEnd {
    /// The first endpoint.
    A,
    /// The second endpoint.
    B,
}

/// What an fd's inode is to it: a file (regular, directory, symlink or
/// device), or one end of a pipe or of a socket pair.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum FdEnd {
    File,
    Pipe(PipeEnd),
    Socket(SocketEnd),
}

/// Kernel-side open-file description.
#[derive(Clone, Debug)]
pub(crate) struct OpenFile {
    pub inode: InodeId,
    pub mode: OpenMode,
    pub offset: u64,
    pub end: FdEnd,
}

impl OpenFile {
    /// A description of `inode` opened in `mode` at offset zero.
    pub(crate) fn new(inode: InodeId, mode: OpenMode, end: FdEnd) -> Self {
        OpenFile { inode, mode, offset: 0, end }
    }

    /// The pipe end this fd holds, if it is one.
    pub(crate) fn pipe_end(&self) -> Option<PipeEnd> {
        match self.end {
            FdEnd::Pipe(end) => Some(end),
            _ => None,
        }
    }
}

/// A process's table of open files. Fd numbers are never reused.
///
/// `Clone` exists for `fork` and for the undo journal's pre-image of a
/// process that a syscall destroys.
#[derive(Clone, Debug, Default)]
pub(crate) struct FdTable {
    files: BTreeMap<Fd, OpenFile>,
    next: u32,
}

impl FdTable {
    /// Installs `file` under the next fd number, or returns `None` once
    /// the numbers are spent: wrapping would silently replace open fd 0.
    pub(crate) fn insert(&mut self, file: OpenFile) -> Option<Fd> {
        let fd = Fd(self.next);
        self.next = self.next.checked_add(1)?;
        self.files.insert(fd, file);
        Some(fd)
    }

    /// Undoes the [`Self::insert`] that returned `fd`: drops it and
    /// rewinds the counter so the number is handed out again.
    pub(crate) fn uninsert(&mut self, fd: Fd) {
        self.files.remove(&fd);
        self.next = fd.0;
    }

    /// Undoes a [`Self::remove`]: puts `file` back under its old number.
    pub(crate) fn unremove(&mut self, fd: Fd, file: OpenFile) {
        self.files.insert(fd, file);
    }

    pub(crate) fn get(&self, fd: Fd) -> Option<&OpenFile> {
        self.files.get(&fd)
    }

    pub(crate) fn get_mut(&mut self, fd: Fd) -> Option<&mut OpenFile> {
        self.files.get_mut(&fd)
    }

    pub(crate) fn remove(&mut self, fd: Fd) -> Option<OpenFile> {
        self.files.remove(&fd)
    }

    /// Duplicate for fork(): the child gets copies of every open file
    /// description (offsets are copied, not shared — a simplification).
    pub(crate) fn clone_for_fork(&self) -> FdTable {
        FdTable { files: self.files.clone(), next: self.next }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Fd, &OpenFile)> {
        self.files.iter()
    }

    /// Number of open descriptors (what the per-process fd quota counts).
    pub(crate) fn len(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_mode_predicates() {
        assert!(OpenMode::Read.readable() && !OpenMode::Read.writable());
        assert!(!OpenMode::Write.readable() && OpenMode::Write.writable());
        assert!(OpenMode::ReadWrite.readable() && OpenMode::ReadWrite.writable());
    }

    #[test]
    fn fd_table_alloc_and_remove() {
        let mut t = FdTable::default();
        let f0 = t.insert(file(1)).unwrap();
        let f1 = t.insert(file(2)).unwrap();
        assert_ne!(f0, f1);
        assert_eq!(t.len(), 2);
        assert!(t.remove(f0).is_some());
        assert!(t.get(f0).is_none());
        assert!(t.get(f1).is_some());
        // Fds are not reused.
        let f2 = t.insert(file(3)).unwrap();
        assert_ne!(f2, f0);
    }

    #[test]
    fn fork_copies_table() {
        let mut t = FdTable::default();
        let fd = t
            .insert(OpenFile {
                offset: 5,
                ..OpenFile::new(InodeId(1), OpenMode::ReadWrite, FdEnd::File)
            })
            .unwrap();
        let copy = t.clone_for_fork();
        assert_eq!(copy.get(fd).unwrap().offset, 5);
        assert_eq!(copy.len(), 1);
    }

    fn file(ino: u64) -> OpenFile {
        OpenFile::new(InodeId(ino), OpenMode::Read, FdEnd::File)
    }

    /// Regression: `next += 1` wrapped to 0 in release builds, and the
    /// following insert silently replaced open fd 0.
    #[test]
    fn fd_numbers_fail_closed_instead_of_wrapping() {
        let mut t = FdTable::default();
        let zero = t.insert(file(1)).unwrap();
        t.next = u32::MAX - 2;
        let a = t.insert(file(2)).unwrap();
        assert_eq!(a, Fd(u32::MAX - 2));
        let b = t.insert(file(3)).unwrap();
        assert_eq!(b, Fd(u32::MAX - 1));
        assert!(t.insert(file(4)).is_none(), "the number space is spent");
        assert!(t.insert(file(5)).is_none());
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(zero).unwrap().inode, InodeId(1), "fd 0 is untouched");
        // Closing frees quota but not numbers.
        t.remove(a);
        assert!(t.insert(file(6)).is_none());
    }

    #[test]
    fn insert_and_remove_undo_exactly() {
        let mut t = FdTable::default();
        let f0 = t.insert(file(1)).unwrap();
        let f1 = t.insert(file(2)).unwrap();
        t.uninsert(f1);
        assert_eq!(t.insert(file(3)).unwrap(), f1, "the number is handed out again");
        let gone = t.remove(f0).unwrap();
        t.unremove(f0, gone);
        assert_eq!(t.get(f0).unwrap().inode, InodeId(1));
        assert_eq!(t.len(), 2);
    }
}
