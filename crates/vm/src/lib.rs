//! # laminar-vm — the managed-runtime half of Laminar
//!
//! A small managed runtime (the "MiniVM") reproducing the PL half of
//! *Laminar* (PLDI 2009, §5.1): Laminar modified Jikes RVM so that its
//! JIT inserts DIFC **read/write barriers** at every object access, and
//! added lexically scoped **security regions** with `secure {..} catch
//! {..}` semantics. There is no Jikes RVM to modify here, so this crate
//! *is* the managed runtime: a stack bytecode, a heap with a labeled
//! object space (two label words per object header), a verifier that
//! enforces the paper's region/local rules, a compiler that inserts
//! barriers under the paper's two strategies (static and dynamic), the
//! intraprocedural redundant-barrier elimination pass, and an
//! interpreter.
//!
//! ## Example: the implicit-flow program of Figure 5
//!
//! A security region with secrecy `{S(h)}` tries to leak the secret `H`
//! into public `L` through control flow; the write barrier stops it, the
//! exception is confined to the region, and execution continues after —
//! so code outside the region cannot distinguish `H = true` from
//! `H = false`.
//!
//! ```
//! use laminar_difc::{CapKind, Tag};
//! use laminar_vm::{BarrierMode, ProgramBuilder, Value, Vm};
//!
//! # fn main() -> Result<(), laminar_vm::VmError> {
//! let mut pb = ProgramBuilder::new();
//! let _cell = pb.add_class("Cell", 1);
//! // Region body: reads labeled H (param 0), writes unlabeled L (param 1).
//! let body = pb.region("leak", 2, 2, |b| {
//!     let done = b.new_label();
//!     b.load(0).get_field(0); // read H.value (allowed: region has S(h))
//!     b.jump_if_false(done);
//!     b.load(1).push_int(1).put_field(0); // L.value = 1  → flow violation!
//!     b.bind(done);
//!     b.ret();
//! });
//! let pair = pb.add_pair_spec(&[0], &[]); // {S(h)}
//! let spec = pb.add_region_spec(pair, &[(0, CapKind::Plus)], None);
//! pb.func("main", 2, false, 2, |b| {
//!     b.load(0).load(1).call_secure(body, spec).ret();
//! });
//! let program = pb.finish()?;
//!
//! let h = Tag::from_raw(99);
//! let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
//! let mut caps = laminar_difc::CapSet::new();
//! caps.grant(laminar_difc::Capability::plus(h));
//! vm.set_thread_caps(caps);
//!
//! let secret = laminar_difc::SecPair::secrecy_only(
//!     laminar_difc::Label::singleton(h));
//! let cls = laminar_vm::ClassId(0);
//! let h_obj = vm.host_alloc_object(cls, Some(secret))?;
//! vm.host_put_field(h_obj, 0, Value::Bool(true))?;
//! let l_obj = vm.host_alloc_object(cls, None)?;
//! vm.host_put_field(l_obj, 0, Value::Int(0))?;
//!
//! // Runs to completion: the violation is suppressed at the region edge.
//! vm.call_by_name("main", &[Value::Ref(h_obj), Value::Ref(l_obj)])?;
//! // And L was never written:
//! assert_eq!(vm.host_get_field(l_obj, 0)?, Value::Int(0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod absint;
pub mod asm;
mod bridge;
mod bytecode;
mod compile;
pub mod conformance;
mod error;
#[cfg(test)]
mod fuse_regime;
mod heap;
mod interp;
mod opt;
mod program;
mod stats;
mod value;
mod verify;

pub use asm::{assemble, disassemble};
pub use bridge::{NoOs, OsBridge};
pub use bytecode::{
    FuncId, Instr, PairSpec, PairSpecId, RegionSpec, RegionSpecId, StaticId, StrId,
    TagIdx,
};
pub use compile::BarrierMode;
pub use error::{VmError, VmResult};
pub use heap::{ClassId, Heap};
pub use interp::{Vm, MAX_CALL_DEPTH, MAX_REGION_DEPTH};
pub use program::{
    Class, CodeLabel, Function, FunctionBuilder, Program, ProgramBuilder, StaticDecl,
};
pub use stats::{regions_aborted, reset_regions_aborted, VmStats};
pub use value::{ObjRef, Value};
pub use verify::verify;
