//! The VM heap, with a separate *labeled object space*.
//!
//! §5.1: "The JVM allocates labeled objects into a separate labeled
//! object space in the heap, allowing instrumentation to quickly check
//! whether an object is labeled. We modify the allocator to add two words
//! to each object's header, which point to secrecy and integrity labels."
//!
//! Here the two header words are an `Option<SecPair>` (a `SecPair` is
//! exactly two shared label pointers): `None` means the object lives in
//! the ordinary space, so the out-of-region barrier's "is it labeled?"
//! test is a single discriminant check.

use crate::error::{VmError, VmResult};
use crate::value::{ObjRef, Value};
use laminar_difc::SecPair;

/// Class identifier (index into the program's class table).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClassId(pub u32);

/// Heap object payload: a class instance or an array.
#[derive(Clone, Debug)]
pub(crate) enum ObjKind {
    Object {
        #[allow(dead_code)] // kept in the header for parity with a real object model
        class: ClassId,
        fields: Vec<Value>,
    },
    Array {
        elems: Vec<Value>,
    },
}

/// A heap cell: payload plus the two label header words.
#[derive(Clone, Debug)]
pub(crate) struct HeapObject {
    pub kind: ObjKind,
    /// `None` = ordinary space; `Some` = labeled object space.
    pub labels: Option<SecPair>,
}

/// The garbage-free bump heap of the MiniVM.
///
/// Reclamation is out of scope (the paper's contribution is barrier
/// placement, not GC); workloads allocate bounded object graphs.
#[derive(Debug, Default)]
pub struct Heap {
    objects: Vec<HeapObject>,
}

impl Heap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of live objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the heap empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub(crate) fn alloc_object(
        &mut self,
        class: ClassId,
        nfields: usize,
        labels: Option<SecPair>,
    ) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(HeapObject {
            kind: ObjKind::Object { class, fields: vec![Value::Null; nfields] },
            labels,
        });
        r
    }

    pub(crate) fn alloc_array(&mut self, len: usize, labels: Option<SecPair>) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(HeapObject {
            kind: ObjKind::Array { elems: vec![Value::Null; len] },
            labels,
        });
        r
    }

    // Both accessors build their error only on the miss: an eager
    // `ok_or(VmError::..)` costs a drop of the unused error on every hit,
    // and every field and element access comes through here.
    pub(crate) fn get(&self, r: ObjRef) -> VmResult<&HeapObject> {
        match self.objects.get(r.0 as usize) {
            Some(o) => Ok(o),
            None => Err(VmError::Malformed("dangling reference")),
        }
    }

    pub(crate) fn get_mut(&mut self, r: ObjRef) -> VmResult<&mut HeapObject> {
        match self.objects.get_mut(r.0 as usize) {
            Some(o) => Ok(o),
            None => Err(VmError::Malformed("dangling reference")),
        }
    }

    /// The labels of an object (`None` for the ordinary space).
    ///
    /// # Errors
    /// [`VmError::Malformed`] on a dangling reference.
    pub fn labels_of(&self, r: ObjRef) -> VmResult<Option<&SecPair>> {
        Ok(self.get(r)?.labels.as_ref())
    }

    /// Clones an object with new labels — the heap half of
    /// `copyAndLabel` (§4.5: labels are immutable, so relabeling copies).
    /// The copy is shallow, like `Object.clone()`.
    ///
    /// # Errors
    /// [`VmError::Malformed`] on a dangling reference.
    pub(crate) fn copy_with_labels(
        &mut self,
        r: ObjRef,
        labels: Option<SecPair>,
    ) -> VmResult<ObjRef> {
        let kind = self.get(r)?.kind.clone();
        let nr = ObjRef(self.objects.len() as u32);
        self.objects.push(HeapObject { kind, labels });
        Ok(nr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::{Label, Tag};

    #[test]
    fn alloc_and_fetch() {
        let mut h = Heap::new();
        let r = h.alloc_object(ClassId(0), 2, None);
        assert_eq!(h.len(), 1);
        assert!(h.labels_of(r).unwrap().is_none());
        match &h.get(r).unwrap().kind {
            ObjKind::Object { fields, .. } => assert_eq!(fields.len(), 2),
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn labeled_space_is_distinguished() {
        let mut h = Heap::new();
        let labels = SecPair::secrecy_only(Label::singleton(Tag::from_raw(1)));
        let r = h.alloc_array(3, Some(labels.clone()));
        assert_eq!(h.labels_of(r).unwrap(), Some(&labels));
    }

    #[test]
    fn copy_with_labels_preserves_payload() {
        let mut h = Heap::new();
        let r = h.alloc_array(2, None);
        if let ObjKind::Array { elems } = &mut h.get_mut(r).unwrap().kind {
            elems[0] = Value::Int(7);
        }
        let labels = SecPair::secrecy_only(Label::singleton(Tag::from_raw(2)));
        let c = h.copy_with_labels(r, Some(labels.clone())).unwrap();
        assert_ne!(r, c);
        assert_eq!(h.labels_of(c).unwrap(), Some(&labels));
        match &h.get(c).unwrap().kind {
            ObjKind::Array { elems } => assert_eq!(elems[0], Value::Int(7)),
            _ => panic!("expected array"),
        }
        // Original unchanged.
        assert!(h.labels_of(r).unwrap().is_none());
    }

    #[test]
    fn dangling_reference_detected() {
        let h = Heap::new();
        assert!(h.get(ObjRef(9)).is_err());
    }
}
