//! Shared, immutable signature handles for the commit hot path.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::config::SignatureConfig;
use crate::signature::Signature;

/// An immutable, reference-counted handle to a [`Signature`].
///
/// A 2 Kbit signature is a 32-word heap allocation; the commit protocol
/// fans the same R/W signatures out to every grabbed directory, every
/// sharer bulk-invalidation, and every retry. Deep-cloning the `Vec<u64>`
/// at each fan-out point dominated simulator wall time, so messages carry
/// a `SigHandle` instead: [`SigHandle::share`] (or `Clone`) is a single
/// atomic refcount increment, O(1) and allocation-free.
///
/// The handle is copy-on-write: the rare in-place mutation (e.g. merging
/// signatures while building a request) goes through
/// [`SigHandle::make_mut`], which clones the underlying signature only if
/// it is actually shared. All read-only `Signature` methods are available
/// directly on the handle via `Deref`.
///
/// # Examples
///
/// ```
/// use sb_sigs::{SigHandle, Signature, SignatureConfig};
///
/// let cfg = SignatureConfig::paper_default();
/// let mut w = SigHandle::from(Signature::from_lines(cfg, [10, 20]));
/// let shared = w.share();          // O(1): same underlying storage
/// assert!(SigHandle::ptr_eq(&w, &shared));
///
/// w.make_mut().insert(30);         // copy-on-write: `shared` unaffected
/// assert!(w.test(30));
/// assert!(!shared.test(30));
/// assert!(!SigHandle::ptr_eq(&w, &shared));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SigHandle(Arc<Signature>);

impl SigHandle {
    /// A handle to a fresh, empty signature.
    pub fn empty(cfg: SignatureConfig) -> Self {
        SigHandle(Arc::new(Signature::new(cfg)))
    }

    /// An explicit O(1) handle clone (refcount bump, no signature copy).
    ///
    /// Semantically identical to `Clone::clone`; the distinct name makes
    /// hot-path call sites grep-ably cheap — `sig.share()` can never be a
    /// deep copy, whereas `.clone()` on a bare [`Signature`] is one.
    #[inline]
    pub fn share(&self) -> SigHandle {
        SigHandle(Arc::clone(&self.0))
    }

    /// Mutable access via copy-on-write: clones the underlying signature
    /// only if this handle is shared.
    pub fn make_mut(&mut self) -> &mut Signature {
        Arc::make_mut(&mut self.0)
    }

    /// The borrowed underlying signature.
    #[inline]
    pub fn as_signature(&self) -> &Signature {
        &self.0
    }

    /// Whether two handles point at the same underlying storage.
    pub fn ptr_eq(a: &SigHandle, b: &SigHandle) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live handles to this signature (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Deref for SigHandle {
    type Target = Signature;
    #[inline]
    fn deref(&self) -> &Signature {
        &self.0
    }
}

impl From<Signature> for SigHandle {
    fn from(sig: Signature) -> Self {
        SigHandle(Arc::new(sig))
    }
}

impl fmt::Debug for SigHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SignatureConfig {
        SignatureConfig::paper_default()
    }

    #[test]
    fn share_is_o1_and_aliases_storage() {
        let a = SigHandle::from(Signature::from_lines(cfg(), 0..64));
        let b = a.share();
        let c = b.clone();
        assert!(SigHandle::ptr_eq(&a, &b));
        assert!(SigHandle::ptr_eq(&a, &c));
        assert_eq!(a.ref_count(), 3);
        // Reads agree, and no storage was copied.
        assert!(b.test(63) && c.test(0));
    }

    #[test]
    fn make_mut_after_clone_does_not_alias() {
        let mut a = SigHandle::from(Signature::from_lines(cfg(), [1, 2, 3]));
        let b = a.share();
        a.make_mut().insert(1_000_000);
        assert!(a.test(1_000_000));
        assert!(!b.test(1_000_000), "CoW must not leak into the clone");
        assert!(!SigHandle::ptr_eq(&a, &b));
        // The original contents survived the copy.
        assert!(a.test(2) && b.test(2));
    }

    #[test]
    fn make_mut_unshared_is_in_place() {
        let mut a = SigHandle::empty(cfg());
        a.make_mut().insert(7);
        let before = a.ref_count();
        a.make_mut().insert(8);
        assert_eq!(before, 1);
        assert!(a.test(7) && a.test(8));
    }

    #[test]
    fn conservative_ops_preserved_under_cow() {
        let lines: Vec<u64> = (0..128).map(|i| i * 97 + 3).collect();
        let plain = Signature::from_lines(cfg(), lines.iter().copied());
        let mut h = SigHandle::empty(cfg());
        let _pin = h.share(); // force the CoW path on first mutation
        for &l in &lines {
            h.make_mut().insert(l);
        }
        // test/intersects through the handle equal the plain signature.
        for &l in &lines {
            assert!(h.test(l));
        }
        for probe in 0..2_000u64 {
            assert_eq!(h.test(probe), plain.test(probe));
        }
        let other = Signature::from_lines(cfg(), [lines[5]]);
        assert!(h.intersects(&other));
        assert_eq!(*h.as_signature(), plain);
    }
}
