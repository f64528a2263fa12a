//! DIFC pipes (§5.2, "Pipes").
//!
//! Laminar mediates IPC over pipes by labeling the inode associated with
//! the pipe's message buffer. Message delivery is **unreliable**: an
//! error code due to an incorrect label or a full buffer can leak
//! information, so undeliverable messages are *silently dropped*. Reads
//! are **nonblocking**, and readers cannot rely on an explicit EOF when
//! the writer may change labels — a reader simply sees "no data".
//!
//! The buffer also carries capability messages for the
//! `write_capability` syscall (Fig. 3): capability passing is mediated by
//! the kernel over the same labeled channel.

use laminar_difc::Capability;
use std::collections::VecDeque;

/// Default capacity of a pipe buffer in bytes (64 KiB, like Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// Maximum queued messages (byte chunks + capabilities) per pipe. The
/// byte budget alone does not bound the queue: capabilities carry no
/// bytes, and a stream of tiny writes costs a `PipeMsg` allocation each,
/// so the message count needs its own ceiling.
pub const PIPE_MSG_LIMIT: usize = 4096;

/// One in-flight message: either bytes or a kernel-mediated capability.
#[derive(Clone, Debug)]
pub(crate) enum PipeMsg {
    Bytes(Vec<u8>),
    Cap(Capability),
}

impl PipeMsg {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<PipeMsg>()
            + match self {
                PipeMsg::Bytes(b) => b.len(),
                PipeMsg::Cap(_) => 0,
            }
    }
}

/// What one pop took off a buffer: the fully consumed messages, in
/// order, and the prefix drained from a partly read head message. Its
/// size follows the read, not the queue.
#[derive(Debug, Default)]
pub(crate) struct Popped {
    msgs: Vec<PipeMsg>,
    head: Vec<u8>,
}

impl Popped {
    /// The record of one capability message taken off the head.
    pub(crate) fn cap(cap: Capability) -> Self {
        Popped { msgs: vec![PipeMsg::Cap(cap)], head: Vec::new() }
    }

    /// Heap bytes held by the record.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.msgs.iter().map(PipeMsg::heap_bytes).sum::<usize>() + self.head.len()
    }
}

/// The kernel-side message buffer of a pipe inode.
#[derive(Clone, Debug)]
pub(crate) struct PipeBuffer {
    msgs: VecDeque<PipeMsg>,
    bytes_queued: usize,
    capacity: usize,
    readers: u32,
    writers: u32,
}

impl PipeBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        PipeBuffer {
            msgs: VecDeque::new(),
            bytes_queued: 0,
            capacity,
            readers: 1,
            writers: 1,
        }
    }

    /// Attempts to enqueue bytes. Returns `true` if the message was
    /// queued, `false` if it was dropped because the buffer is full —
    /// callers must NOT surface the distinction to the writer (silent
    /// drop semantics).
    ///
    /// A zero-byte write is a successful no-op: it conveys nothing, so
    /// queueing an empty message would only let a writer grow the queue
    /// without ever touching the byte budget.
    pub(crate) fn push_bytes(&mut self, data: &[u8]) -> bool {
        if data.is_empty() {
            return true;
        }
        if self.bytes_queued + data.len() > self.capacity
            || self.msgs.len() >= PIPE_MSG_LIMIT
        {
            return false;
        }
        self.bytes_queued += data.len();
        self.msgs.push_back(PipeMsg::Bytes(data.to_vec()));
        true
    }

    /// Enqueues a capability message (capabilities are small; they bypass
    /// the byte budget but still drop once [`PIPE_MSG_LIMIT`] messages
    /// are queued).
    pub(crate) fn push_cap(&mut self, cap: Capability) -> bool {
        if self.msgs.len() >= PIPE_MSG_LIMIT {
            return false;
        }
        self.msgs.push_back(PipeMsg::Cap(cap));
        true
    }

    /// Nonblocking read of at most `max` bytes. Skips over capability
    /// messages is not allowed — byte reads only consume byte messages at
    /// the head; a capability at the head yields "no data" until it is
    /// claimed with [`Self::pop_cap`]. Also returns what was consumed, so
    /// the syscall journal can put it back with [`Self::unpop`].
    pub(crate) fn pop_bytes(&mut self, max: usize) -> (Vec<u8>, Popped) {
        let mut out = Vec::new();
        let mut popped = Popped::default();
        while out.len() < max {
            match self.msgs.front_mut() {
                Some(PipeMsg::Bytes(b)) => {
                    let take = (max - out.len()).min(b.len());
                    out.extend_from_slice(&b[..take]);
                    self.bytes_queued -= take;
                    if take == b.len() {
                        popped.msgs.extend(self.msgs.pop_front());
                    } else {
                        popped.head = b.drain(..take).collect();
                    }
                }
                _ => break,
            }
        }
        (out, popped)
    }

    /// Nonblocking receive of a capability message at the head of the
    /// queue, if any.
    pub(crate) fn pop_cap(&mut self) -> Option<Capability> {
        match self.msgs.front() {
            Some(PipeMsg::Cap(_)) => match self.msgs.pop_front() {
                Some(PipeMsg::Cap(c)) => Some(c),
                _ => unreachable!(),
            },
            _ => None,
        }
    }

    /// Undoes the most recent successful push (journal rollback).
    pub(crate) fn unpush(&mut self) {
        if let Some(PipeMsg::Bytes(b)) = self.msgs.pop_back() {
            self.bytes_queued -= b.len();
        }
    }

    /// Undoes a pop: puts the drained prefix back on the head message,
    /// then the fully consumed messages in front of it.
    pub(crate) fn unpop(&mut self, popped: Popped) {
        if !popped.head.is_empty() {
            if let Some(PipeMsg::Bytes(b)) = self.msgs.front_mut() {
                self.bytes_queued += popped.head.len();
                b.splice(0..0, popped.head);
            }
        }
        for m in popped.msgs.into_iter().rev() {
            if let PipeMsg::Bytes(b) = &m {
                self.bytes_queued += b.len();
            }
            self.msgs.push_front(m);
        }
    }

    /// `(readers, writers)` reference counts.
    pub(crate) fn refs(&self) -> (u32, u32) {
        (self.readers, self.writers)
    }

    pub(crate) fn set_refs(&mut self, (readers, writers): (u32, u32)) {
        self.readers = readers;
        self.writers = writers;
    }

    /// Heap bytes held by queued messages (undo-size accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.msgs.iter().map(PipeMsg::heap_bytes).sum()
    }

    pub(crate) fn add_reader(&mut self) {
        self.readers += 1;
    }
    pub(crate) fn add_writer(&mut self) {
        self.writers += 1;
    }
    pub(crate) fn drop_reader(&mut self) {
        self.readers = self.readers.saturating_sub(1);
    }
    pub(crate) fn drop_writer(&mut self) {
        self.writers = self.writers.saturating_sub(1);
    }

    /// Bytes currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.bytes_queued
    }

    /// Messages currently queued (byte chunks and capabilities).
    pub(crate) fn msg_count(&self) -> usize {
        self.msgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::Tag;

    #[test]
    fn bytes_round_trip() {
        let mut p = PipeBuffer::new(16);
        assert!(p.push_bytes(b"hello"));
        assert_eq!(p.pop_bytes(3).0, b"hel");
        assert_eq!(p.pop_bytes(10).0, b"lo");
        assert_eq!(p.pop_bytes(10).0, b"");
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn full_buffer_drops_silently() {
        let mut p = PipeBuffer::new(4);
        assert!(p.push_bytes(b"abcd"));
        // Over capacity: dropped, not partially written.
        assert!(!p.push_bytes(b"e"));
        assert_eq!(p.pop_bytes(16).0, b"abcd");
    }

    #[test]
    fn caps_are_ordered_with_bytes() {
        let mut p = PipeBuffer::new(64);
        let c = Capability::plus(Tag::from_raw(1));
        assert!(p.push_bytes(b"x"));
        assert!(p.push_cap(c));
        // Byte read stops at the capability boundary only after draining
        // preceding bytes.
        assert_eq!(p.pop_bytes(8).0, b"x");
        assert_eq!(p.pop_bytes(8).0, b"");
        assert_eq!(p.pop_cap(), Some(c));
        assert_eq!(p.pop_cap(), None);
    }

    #[test]
    fn cap_at_head_blocks_byte_reads() {
        let mut p = PipeBuffer::new(64);
        let c = Capability::minus(Tag::from_raw(2));
        assert!(p.push_cap(c));
        assert!(p.push_bytes(b"later"));
        assert_eq!(p.pop_bytes(8).0, b"");
        assert_eq!(p.pop_cap(), Some(c));
        assert_eq!(p.pop_bytes(8).0, b"later");
    }

    /// Regression: zero-byte writes used to enqueue a fresh empty
    /// `PipeMsg::Bytes` each, growing `msgs` without bound (the byte
    /// budget never filled). They are now a no-op success.
    #[test]
    fn zero_byte_write_is_a_noop_success() {
        let mut p = PipeBuffer::new(4);
        for _ in 0..10_000 {
            assert!(p.push_bytes(b""), "zero-byte write must report success");
        }
        assert_eq!(p.msg_count(), 0, "zero-byte writes must not queue messages");
        assert_eq!(p.queued(), 0);
        // Even on a full buffer a zero-byte write succeeds (no drop).
        assert!(p.push_bytes(b"abcd"));
        assert!(p.push_bytes(b""));
        assert_eq!(p.pop_bytes(8).0, b"abcd");
    }

    /// Regression: the message-count ceiling applies to byte messages
    /// too — tiny writes can no longer queue unboundedly many chunks
    /// under a large byte budget.
    #[test]
    fn byte_messages_respect_the_message_limit() {
        let mut p = PipeBuffer::new(PIPE_CAPACITY);
        for _ in 0..PIPE_MSG_LIMIT {
            assert!(p.push_bytes(b"x"));
        }
        assert!(!p.push_bytes(b"x"), "message {PIPE_MSG_LIMIT} must drop");
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
    }

    /// Regression: `push_cap` used `> 4096`, admitting 4097 messages.
    /// The boundary is now `>=` against the named constant.
    #[test]
    fn cap_queue_boundary_is_exact() {
        let mut p = PipeBuffer::new(8);
        let c = Capability::plus(Tag::from_raw(3));
        for i in 0..PIPE_MSG_LIMIT {
            assert!(p.push_cap(c), "cap {i} should fit");
        }
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
        assert!(!p.push_cap(c), "cap {PIPE_MSG_LIMIT} must drop, not be admitted");
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
    }

    /// A pop undone by `unpop` and a push undone by `unpush` leave the
    /// queue exactly as before, including a partly drained head.
    #[test]
    fn pops_and_pushes_undo_exactly() {
        let mut p = PipeBuffer::new(64);
        let c = Capability::plus(Tag::from_raw(4));
        assert!(p.push_bytes(b"abc"));
        assert!(p.push_bytes(b"defg"));
        assert!(p.push_cap(c));
        let (out, popped) = p.pop_bytes(5);
        assert_eq!(out, b"abcde");
        assert_eq!(p.queued(), 2);
        p.unpop(popped);
        assert_eq!((p.queued(), p.msg_count()), (7, 3));
        assert!(p.push_bytes(b"hi"));
        p.unpush();
        assert_eq!(p.pop_bytes(3).0, b"abc");
        assert_eq!(p.pop_bytes(64).0, b"defg");
        assert_eq!(p.pop_cap(), Some(c));
        p.unpop(Popped::cap(c));
        assert_eq!(p.pop_cap(), Some(c));
        assert_eq!(p.msg_count(), 0);
    }

    #[test]
    fn reader_writer_counts() {
        let mut p = PipeBuffer::new(8);
        p.add_reader();
        p.add_writer();
        p.drop_reader();
        p.drop_reader();
        p.drop_reader(); // saturates at zero
        p.drop_writer();
    }
}
