//! A fast, deterministic hasher for simulator-internal maps, and the
//! FNV-1a hash that pins fingerprints and seeds.
//!
//! `std`'s default `SipHash` is hardened against HashDoS but costs real
//! time on the event-loop hot path, where every store retirement probes a
//! pending-store set. The simulator only ever hashes its own small keys
//! (line addresses, chunk tags), so a lightweight multiply-xor hasher in
//! the style of rustc's `FxHasher` is both safe and markedly faster.
//!
//! Determinism note: unlike `RandomState`, this hasher has **no per-process
//! seed**, so iteration order of an [`FxHashMap`] is stable across runs.
//! The simulator still never iterates these maps when computing simulated
//! results — all accesses are keyed — but a fixed seed removes even the
//! possibility of order-dependent drift.
//!
//! # Examples
//!
//! ```
//! use sb_engine::hash::{FxHashMap, FxHashSet};
//!
//! let mut set: FxHashSet<u64> = FxHashSet::default();
//! set.insert(42);
//! assert!(set.contains(&42));
//!
//! let mut map: FxHashMap<u32, &str> = FxHashMap::default();
//! map.insert(7, "seven");
//! assert_eq!(map.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox/rustc Fx hash: a 64-bit constant derived
/// from the golden ratio, chosen to diffuse low-entropy integer keys.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic multiply-xor hasher (rustc `FxHasher` construction).
///
/// Fixed seed, no DoS resistance — only for simulator-internal keys.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into any `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Streaming 64-bit FNV-1a. Unlike `DefaultHasher` it is fixed across
/// Rust releases and platforms, so it pins golden fingerprints and
/// derives seeds from names.
///
/// # Examples
///
/// ```
/// use sb_engine::hash::{fnv1a, Fnv1a};
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
/// assert_eq!(Fnv1a::new().bytes(b"ab").finish(), fnv1a(b"ab"));
/// assert_eq!(Fnv1a::new().u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Folds in `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.byte(b);
        }
        self
    }

    /// Folds in `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_across_instances() {
        let h = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(h(0xdead_beef), h(0xdead_beef));
        assert_ne!(h(1), h(2));
    }

    #[test]
    fn byte_stream_matches_padded_tail() {
        // write() must consume a non-multiple-of-8 tail without panicking
        // and produce a value that depends on every byte.
        let mut a = FxHasher::default();
        a.write(b"scalable-bulk");
        let mut b = FxHasher::default();
        b.write(b"scalable-bulj");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FxHashMap<(u16, u64), u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u16, i * 3), i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i as u16, i * 3)), Some(&(i as u32)));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.remove(&5));
    }
}
