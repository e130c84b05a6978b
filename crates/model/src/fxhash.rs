//! The workspace's one fast, deterministic hasher.
//!
//! Every hash map the pipeline keys on layer shapes, layer sequences,
//! edge families or memo keys hashes a few machine words, where
//! SipHash's per-byte mixing costs more than the lookup it serves.
//! [`FxHasher`] lives here, at the bottom of the crate graph, so the
//! model summaries, the PPA batch interner and the engine's memo tiers
//! share a single definition.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate-xor hasher in the style of rustc's FxHash: a few
/// cycles per word instead of SipHash's per-byte mixing. Deterministic
/// (no random state); hash quality only affects bucket spread, never
/// results.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// `BuildHasher` for [`FxHasher`]-keyed `HashMap`s and `HashSet`s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}
