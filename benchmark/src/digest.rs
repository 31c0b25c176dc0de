//! FNV-1a (64-bit) digests of a workload's inputs and results. Written
//! out here so that a digest pinned today still means the same bytes after
//! the product's own hash helpers change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so that ("ab", "c") and ("a", "bc") differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digests travel through JSON as 16 hex digits: a u64 past 2^53 does
/// not survive a reader that parses numbers as doubles.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn is_stable_and_order_sensitive() {
        let digest = |parts: &[&str]| {
            let mut h = Fnv1a::new();
            for p in parts {
                h.str(p);
            }
            h.finish()
        };
        assert_eq!(
            digest(&["select 1", "select 2"]),
            digest(&["select 1", "select 2"])
        );
        assert_ne!(
            digest(&["select 1", "select 2"]),
            digest(&["select 2", "select 1"])
        );
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
