//! The drivers' replay-identity hash: FNV-1a (64-bit) over a byte
//! stream.
//!
//! [`crate::fleet`], [`crate::churn`] and [`crate::colo`] hash every
//! admission, shed and submitted batch into order-sensitive stream
//! hashes, so a same-seed replay can be asserted byte-identical.
//! [`StreamHash`] implements [`fmt::Write`]: a record such as
//! `"{idx}|{batch:?}"` is formatted straight into the hash, piece by
//! piece, without building a `String`. FNV-1a is a pure byte-stream
//! function, so how the formatter splits the record into pieces never
//! changes the result.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An FNV-1a hash over everything written to it, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash::new()
    }
}

impl StreamHash {
    /// The hash of the empty stream (the FNV-1a offset basis).
    pub const fn new() -> StreamHash {
        StreamHash(FNV_OFFSET)
    }

    /// Appends raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    /// Appends a formatted record, e.g.
    /// `h.record(format_args!("shed|{idx}"))`.
    pub fn record(&mut self, args: fmt::Arguments<'_>) {
        fmt::write(self, args).expect("hashing cannot fail");
    }

    /// Appends the same formatted record to `self` and `other` in one
    /// formatting pass (a per-tenant stream and the run fingerprint).
    pub fn record_pair(&mut self, other: &mut StreamHash, args: fmt::Arguments<'_>) {
        fmt::write(&mut Pair(self, other), args).expect("hashing cannot fail");
    }

    /// The hash value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for StreamHash {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

struct Pair<'a>(&'a mut StreamHash, &'a mut StreamHash);

impl fmt::Write for Pair<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        self.1.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // FNV-1a 64 reference values (Fowler/Noll/Vo test suite).
        assert_eq!(StreamHash::new().finish(), 0xcbf29ce484222325);
        let mut h = StreamHash::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = StreamHash::new();
        h.record(format_args!("foo{}", "bar"));
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
