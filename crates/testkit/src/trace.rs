//! The syscall-trace vocabulary and the deterministic trace generator.
//!
//! A *trace* is a sequence of [`Op`]s over a small fixed universe of
//! principals, pipes, directories and file slots, set up identically by
//! the reference oracle ([`crate::Oracle`]) and the kernel replay
//! adapter ([`crate::KernelReplay`]):
//!
//! * **3 tasks** — task 0 is the login shell that allocated the two
//!   setup tags (it holds `{0±, 1±}`), task 1 was forked with `{0+}`
//!   only, task 2 was forked with no capabilities.
//! * **3 pipes** — pipe 0 unlabeled, pipe 1 labeled `S{0}`, pipe 2
//!   labeled `I{1}`; every task holds both ends of each.
//! * **6 directory slots** — 0 the (unlabeled) home directory reached
//!   by *relative* paths, 1 `/tmp` (unlabeled), 2 `/tmp/s0` (`S{0}`),
//!   3 `/tmp/i0` (`I{1}`), 4 and 5 dynamic (`/tmp/d4`, `/tmp/d5`)
//!   that exist only after a successful [`Op::MkdirLabeled`].
//! * **4 file slots** per directory, named `f0..f3`.
//!
//! Tag and label operands are stored as raw bytes and *normalized
//! against the number of allocated tags at replay time* (masks are
//! truncated, tag indices reduced modulo the allocation count) — on
//! both sides identically — so removing any op from a trace (including
//! an [`Op::AllocTag`]) leaves a trace that still replays. That
//! totality is what makes delta-debugging shrinking sound.
//!
//! Generation is driven entirely by [`laminar_util::SplitMix64`], so a
//! `(seed, length)` pair names one trace forever.

use laminar_util::SplitMix64;

/// Number of tasks in the universe.
pub const TASKS: usize = 3;
/// Number of pipes in the universe.
pub const PIPES: usize = 3;
/// Number of directory slots in the universe.
pub const DIRS: usize = 6;
/// Number of file slots per directory.
pub const FILE_SLOTS: u8 = 4;
/// Tags allocated by the fixture before the trace starts.
pub const SETUP_TAGS: u32 = 2;
/// The generator stops emitting [`Op::AllocTag`] at this tag count.
pub const MAX_TAGS: u32 = 5;
/// Hard ceiling on tags: label masks are a byte, so both the oracle and
/// the replay adapter treat [`Op::AllocTag`] beyond this as a no-op.
pub const TAG_CEILING: u32 = 8;
/// The per-file size quota the conformance kernel boots with
/// (`Quotas::max_file_size`), mirrored by the oracle. Deliberately small
/// so [`Op::WriteFileAt`] offsets (up to [`WRITE_OFFSET_CEILING`])
/// straddle it and traces exercise the quota denial on both sides.
pub const FILE_SIZE_QUOTA: usize = 4096;
/// Exclusive upper bound on [`Op::WriteFileAt`] offsets: ~22% above
/// [`FILE_SIZE_QUOTA`], so both in-quota sparse extends and fail-closed
/// quota denials are generated.
pub const WRITE_OFFSET_CEILING: u64 = 5000;

/// One step of a trace: a Fig. 3 syscall, a VFS operation, or a
/// VM-layer event. Fields are small raw operands; consumers normalize
/// them (see the module docs) so every field value is valid in every
/// state.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // operand fields are documented by the module contract
pub enum Op {
    /// `alloc_tag`: task mints a fresh tag, receiving both capabilities.
    AllocTag { task: u8 },
    /// `set_task_label`: replace one label component with the tag set
    /// named by `mask`.
    SetLabel { task: u8, secrecy: bool, mask: u8 },
    /// `drop_capabilities` for the masked plus/minus capability sets.
    DropCaps { task: u8, plus_mask: u8, minus_mask: u8 },
    /// `write_capability` of `tag`'s plus or minus capability into a pipe.
    WriteCap { task: u8, pipe: u8, tag: u8, plus: bool },
    /// `read_capability` from a pipe.
    ReadCap { task: u8, pipe: u8 },
    /// `write` of a deterministic payload of `len` bytes into a pipe.
    PipeWrite { task: u8, pipe: u8, len: u8 },
    /// Nonblocking `read` of up to `max` bytes from a pipe.
    PipeRead { task: u8, pipe: u8, max: u8 },
    /// `create_file_labeled` of slot `slot` in directory `dir`.
    CreateFile { task: u8, dir: u8, slot: u8, s_mask: u8, i_mask: u8 },
    /// `mkdir_labeled` of dynamic directory slot 4 or 5.
    MkdirLabeled { task: u8, dir: u8, s_mask: u8, i_mask: u8 },
    /// `open(Write)` + `write` + `close` of a deterministic payload.
    WriteFile { task: u8, dir: u8, slot: u8, len: u8 },
    /// `open(Write)` + `seek(offset)` + `write` + `close` — a sparse
    /// write at a nonzero offset, subject to the file-size quota. The
    /// concurrent regime uses the one-shot `write_file_at_off` syscall
    /// instead (one transaction, one commit ticket).
    WriteFileAt { task: u8, dir: u8, slot: u8, offset: u16, len: u8 },
    /// `open(Read)` + `read` + `close` (up to 64 bytes).
    ReadFile { task: u8, dir: u8, slot: u8 },
    /// `get_labels` on a file path.
    GetLabels { task: u8, dir: u8, slot: u8 },
    /// `stat` on a file path: its labels and size. Only the concurrent
    /// read-heavy mix draws it.
    Stat { task: u8, dir: u8, slot: u8 },
    /// `unlink` of a file.
    Unlink { task: u8, dir: u8, slot: u8 },
    /// `unlink` of a (possibly nonempty) directory slot 2..=5.
    Rmdir { task: u8, dir: u8 },
    /// `readdir` of a directory slot.
    Readdir { task: u8, dir: u8 },
    /// `kill(target, sig)` — silently dropped on an illegal flow.
    Kill { task: u8, target: u8, sig: u8 },
    /// Dequeue the caller's next pending signal.
    NextSignal { task: u8 },
    /// A VM read/write barrier against an object labeled by the masks.
    VmBarrier { task: u8, write: bool, s_mask: u8, i_mask: u8 },
    /// The §4.3.2 security-region entry check for the masked region
    /// labels and capability grants.
    RegionEnter { task: u8, s_mask: u8, i_mask: u8, plus_mask: u8, minus_mask: u8 },
}

/// The deterministic payload written by byte-writing ops: a function of
/// the op's position in the trace only, so both sides can regenerate it.
#[must_use]
pub fn payload(idx: usize, len: u8) -> Vec<u8> {
    let base = (idx as u8).wrapping_mul(31);
    (0..len).map(|j| base.wrapping_add(j)).collect()
}

/// Generates the trace named by `(seed, len)`.
///
/// The generator tracks only how many tags *could* be allocated so far;
/// it never inspects replay state, so the same `Op` sequence is valid
/// from any prefix (shrinking soundness).
#[must_use]
pub fn generate_trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut tags: u32 = SETUP_TAGS;
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let task = rng.below(TASKS as u64) as u8;
        let mask = |rng: &mut SplitMix64, tags: u32| rng.below(1 << tags) as u8;
        let op = match rng.below(25) {
            0 => {
                if tags >= MAX_TAGS {
                    continue;
                }
                tags += 1;
                Op::AllocTag { task }
            }
            1..=3 => {
                Op::SetLabel { task, secrecy: rng.gen_bool(), mask: mask(&mut rng, tags) }
            }
            4 => {
                // Sparse masks: intersecting two draws biases toward
                // dropping few capabilities, keeping later ops live.
                let p = mask(&mut rng, tags) & mask(&mut rng, tags);
                let m = mask(&mut rng, tags) & mask(&mut rng, tags);
                Op::DropCaps { task, plus_mask: p, minus_mask: m }
            }
            5 => Op::WriteCap {
                task,
                pipe: rng.below(PIPES as u64) as u8,
                tag: rng.below(u64::from(tags)) as u8,
                plus: rng.gen_bool(),
            },
            6 => Op::ReadCap { task, pipe: rng.below(PIPES as u64) as u8 },
            // Zero-length writes are in-vocabulary: a zero-byte pipe
            // write must be a no-op success, never an empty queued
            // message (the kernel bug this pinned down was unbounded
            // `msgs` growth from empty messages).
            7 | 8 => Op::PipeWrite {
                task,
                pipe: rng.below(PIPES as u64) as u8,
                len: rng.below(9) as u8,
            },
            9 | 10 => Op::PipeRead {
                task,
                pipe: rng.below(PIPES as u64) as u8,
                max: rng.gen_range(1..17) as u8,
            },
            11 => Op::CreateFile {
                task,
                dir: rng.below(DIRS as u64) as u8,
                slot: rng.below(u64::from(FILE_SLOTS)) as u8,
                s_mask: mask(&mut rng, tags),
                i_mask: mask(&mut rng, tags),
            },
            12 => Op::MkdirLabeled {
                task,
                dir: 4 + rng.below(2) as u8,
                s_mask: mask(&mut rng, tags),
                i_mask: mask(&mut rng, tags),
            },
            13 => Op::WriteFile {
                task,
                dir: rng.below(DIRS as u64) as u8,
                slot: rng.below(u64::from(FILE_SLOTS)) as u8,
                len: rng.gen_range(1..9) as u8,
            },
            14 => Op::ReadFile {
                task,
                dir: rng.below(DIRS as u64) as u8,
                slot: rng.below(u64::from(FILE_SLOTS)) as u8,
            },
            15 => Op::GetLabels {
                task,
                dir: rng.below(DIRS as u64) as u8,
                slot: rng.below(u64::from(FILE_SLOTS)) as u8,
            },
            16 => Op::Unlink {
                task,
                dir: rng.below(DIRS as u64) as u8,
                slot: rng.below(u64::from(FILE_SLOTS)) as u8,
            },
            17 => Op::Rmdir { task, dir: 2 + rng.below(4) as u8 },
            18 => Op::Readdir { task, dir: rng.below(DIRS as u64) as u8 },
            19 => Op::Kill {
                task,
                target: rng.below(TASKS as u64) as u8,
                sig: rng.gen_range(1..5) as u8,
            },
            20 => Op::NextSignal { task },
            21 | 23 => Op::VmBarrier {
                task,
                write: rng.gen_bool(),
                s_mask: mask(&mut rng, tags),
                i_mask: mask(&mut rng, tags),
            },
            // Sparse writes target a narrow dir/slot window so they
            // frequently land on files an earlier CreateFile made, and
            // the offset range straddles FILE_SIZE_QUOTA — together the
            // matrix reaches both in-quota extends and quota denials.
            24 => Op::WriteFileAt {
                task,
                dir: rng.below(3) as u8,
                slot: rng.below(2) as u8,
                offset: rng.below(WRITE_OFFSET_CEILING) as u16,
                len: rng.gen_range(1..9) as u8,
            },
            _ => Op::RegionEnter {
                task,
                s_mask: mask(&mut rng, tags),
                i_mask: mask(&mut rng, tags),
                plus_mask: mask(&mut rng, tags),
                minus_mask: mask(&mut rng, tags),
            },
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_trace(42, 50), generate_trace(42, 50));
        assert_ne!(generate_trace(42, 50), generate_trace(43, 50));
    }

    #[test]
    fn payload_depends_only_on_position() {
        assert_eq!(payload(7, 4), payload(7, 4));
        assert_eq!(payload(3, 0), Vec::<u8>::new());
        assert_eq!(payload(0, 3), vec![0, 1, 2]);
    }

    #[test]
    fn generator_respects_the_tag_budget() {
        let allocs = generate_trace(1, 2000)
            .iter()
            .filter(|op| matches!(op, Op::AllocTag { .. }))
            .count();
        assert!(allocs as u32 <= MAX_TAGS - SETUP_TAGS);
    }
}
