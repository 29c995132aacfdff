//! The correctness oracle: seeded record contents that can be
//! regenerated instead of stored, and the version bookkeeping that lets a
//! read racing a publish be checked against every version it may see.

use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 step: the benchmark's input generator. Every byte a
/// workload publishes is a pure function of `(seed, record, version)`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `out` with the content of version `version` of record `index`.
pub fn fill(seed: u64, index: u64, version: u64, out: &mut [u8]) {
    let mut s = seed ^ index.wrapping_mul(0xa24b_aed4_963e_e407) ^ version.rotate_left(32);
    for chunk in out.chunks_mut(8) {
        let w = splitmix(&mut s).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

pub fn content(seed: u64, index: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(seed, index, version, &mut v);
    v
}

/// A versioned value: `index` and `version` as little-endian u32s, then
/// the seeded body. Carrying both lets the oracle name the version a
/// read returned and regenerate exactly that.
pub fn versioned_value(seed: u64, index: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..4].copy_from_slice(&(index as u32).to_le_bytes());
    v[4..8].copy_from_slice(&(version as u32).to_le_bytes());
    fill(seed, index, version, &mut v[8..]);
    v
}

/// Check that `value` is some version of record `index` in `lo..=hi`.
pub fn check_versioned(seed: u64, index: u64, lo: u64, hi: u64, value: &[u8]) -> bool {
    if value.len() < 8 {
        return false;
    }
    let got_index = u32::from_le_bytes(value[..4].try_into().expect("4 bytes")) as u64;
    let version = u32::from_le_bytes(value[4..8].try_into().expect("4 bytes")) as u64;
    if got_index != index || version < lo || version > hi {
        return false;
    }
    versioned_value(seed, index, version, value.len()) == value
}

/// Per-record version counters shared by a writer and the oracle.
///
/// The writer raises `announced` before a publish and `committed` after
/// it returns; a read issued when `committed = lo` and completed when
/// `announced = hi` may legitimately return any version in `lo..=hi`.
pub struct Versions {
    announced: Vec<AtomicU64>,
    committed: Vec<AtomicU64>,
}

impl Versions {
    pub fn new(records: usize) -> Self {
        Self {
            announced: (0..records).map(|_| AtomicU64::new(0)).collect(),
            committed: (0..records).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Writer side: the next version of `index`, announced.
    pub fn begin(&self, index: usize) -> u64 {
        self.announced[index].fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Writer side: version `version` of `index` is now published.
    pub fn commit(&self, index: usize, version: u64) {
        self.committed[index].store(version, Ordering::SeqCst);
    }

    /// Reader side, at issue: the lowest acceptable version.
    pub fn at_issue(&self, index: usize) -> u64 {
        self.committed[index].load(Ordering::SeqCst)
    }

    /// Reader side, at completion: the highest acceptable version.
    pub fn highest(&self, index: usize) -> u64 {
        self.announced[index].load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_a_pure_function_of_its_inputs() {
        assert_eq!(content(7, 3, 0, 100), content(7, 3, 0, 100));
        assert_ne!(content(7, 3, 0, 100), content(8, 3, 0, 100));
        assert_ne!(content(7, 3, 0, 100), content(7, 4, 0, 100));
        assert_ne!(content(7, 3, 0, 100), content(7, 3, 1, 100));
    }

    #[test]
    fn versioned_values_check_against_their_window() {
        let v2 = versioned_value(1, 9, 2, 64);
        assert!(check_versioned(1, 9, 2, 2, &v2));
        assert!(check_versioned(1, 9, 1, 3, &v2));
        assert!(!check_versioned(1, 9, 3, 4, &v2), "older than the window");
        assert!(!check_versioned(1, 8, 0, 9, &v2), "another record");
        let mut flipped = v2.clone();
        flipped[40] ^= 1;
        assert!(!check_versioned(1, 9, 0, 9, &flipped));
    }

    #[test]
    fn a_torn_answer_is_flagged() {
        // A publish landing between the two parties' scans leaves the
        // client with target ^ (old ^ new) of some other record: the XOR
        // of two versions. The oracle must reject it for any window.
        let target = versioned_value(5, 1, 0, 64);
        let old = versioned_value(5, 2, 0, 64);
        let new = versioned_value(5, 2, 1, 64);
        let torn: Vec<u8> = target
            .iter()
            .zip(old.iter().zip(&new))
            .map(|(t, (o, n))| t ^ o ^ n)
            .collect();
        assert!(check_versioned(5, 1, 0, 0, &target));
        assert!(!check_versioned(5, 1, 0, u64::from(u32::MAX), &torn));
    }

    #[test]
    fn versions_widen_the_window_while_a_publish_is_in_flight() {
        let v = Versions::new(2);
        assert_eq!((v.at_issue(1), v.highest(1)), (0, 0));
        let ver = v.begin(1);
        assert_eq!((v.at_issue(1), v.highest(1)), (0, 1));
        v.commit(1, ver);
        assert_eq!((v.at_issue(1), v.highest(1)), (1, 1));
        assert_eq!((v.at_issue(0), v.highest(0)), (0, 0));
    }
}
