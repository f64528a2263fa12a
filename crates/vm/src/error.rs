//! VM error types: DIFC violations surface as VM exceptions.

use laminar_difc::{FlowError, LabelChangeError};
use std::error::Error;
use std::fmt;

/// Result alias for VM operations.
pub type VmResult<T> = Result<T, VmError>;

/// Errors raised by the Laminar VM.
///
/// Inside a security region these become the exceptions handled by the
/// region's `catch` block (§4.3.3); outside they propagate to the host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A read/write barrier detected an illegal information flow.
    Flow(FlowError),
    /// `copyAndLabel` or region entry needed capabilities the thread lacks.
    LabelChange(LabelChangeError),
    /// Security-region entry rules (§4.3.2) failed.
    RegionEntry(&'static str),
    /// A barrier outside any security region touched a *labeled* object.
    LabeledAccessOutsideRegion,
    /// A region with secrecy labels wrote a static, or one with integrity
    /// labels read a static (§5.1).
    StaticAccessInRegion(&'static str),
    /// A statically-barriered method was invoked from the opposite
    /// security context it was compiled for (the failure mode of static
    /// barriers, §5.1).
    BarrierContextMismatch {
        /// The function that was mis-compiled.
        function: String,
    },
    /// An application-level `throw` with an error code.
    Thrown(i64),
    /// Type confusion (wrong operand kind for an instruction).
    TypeError(&'static str),
    /// Reference was null.
    NullPointer,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Arithmetic fault (division by zero).
    DivideByZero,
    /// A call would nest deeper than the interpreter's fixed bound
    /// (the limit is carried): plain calls beyond
    /// [`crate::MAX_CALL_DEPTH`] or security regions beyond
    /// [`crate::MAX_REGION_DEPTH`]. Raised at run time like a Java
    /// `StackOverflowError`, so a region suppresses it (§4.3.3).
    CallDepthExceeded(usize),
    /// A region exit was requested with no matching region entry — an
    /// interpreter-invariant failure that must surface as a typed error
    /// (fail-closed), never as an unwind.
    RegionUnderflow,
    /// Malformed program detected at run time (bad ids, stack underflow).
    Malformed(&'static str),
    /// Static verification rejected the program before execution.
    Verify(String),
    /// A bridged OS syscall failed.
    Os(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Flow(e) => write!(f, "flow violation: {e}"),
            VmError::LabelChange(e) => write!(f, "label change rejected: {e}"),
            VmError::RegionEntry(why) => write!(f, "security region entry denied: {why}"),
            VmError::LabeledAccessOutsideRegion => {
                f.write_str("labeled object accessed outside a security region")
            }
            VmError::StaticAccessInRegion(why) => {
                write!(f, "illegal static access in security region: {why}")
            }
            VmError::BarrierContextMismatch { function } => write!(
                f,
                "method {function} was compiled with static barriers for the \
                 opposite security context"
            ),
            VmError::Thrown(code) => write!(f, "application exception {code}"),
            VmError::TypeError(what) => write!(f, "type error: {what}"),
            VmError::NullPointer => f.write_str("null reference"),
            VmError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            VmError::DivideByZero => f.write_str("division by zero"),
            VmError::CallDepthExceeded(limit) => {
                write!(f, "call depth exceeds the limit of {limit}")
            }
            VmError::RegionUnderflow => {
                f.write_str("security region exit without a matching entry")
            }
            VmError::Malformed(what) => write!(f, "malformed program: {what}"),
            VmError::Verify(what) => write!(f, "verification failed: {what}"),
            VmError::Os(what) => write!(f, "os bridge error: {what}"),
        }
    }
}

impl Error for VmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmError::Flow(e) => Some(e),
            VmError::LabelChange(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for VmError {
    fn from(e: FlowError) -> Self {
        VmError::Flow(e)
    }
}

impl From<LabelChangeError> for VmError {
    fn from(e: LabelChangeError) -> Self {
        VmError::LabelChange(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = VmError::BarrierContextMismatch { function: "foo".into() };
        assert!(e.to_string().contains("foo"));
        let e = VmError::IndexOutOfBounds { index: 9, len: 3 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: Error + Send + Sync + 'static>() {}
        takes_err::<VmError>();
    }
}
