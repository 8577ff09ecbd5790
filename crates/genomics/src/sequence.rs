//! 2-bit packed DNA sequences.

use std::fmt;
use std::str::FromStr;

use crate::alphabet::Base;

/// A DNA sequence stored 2 bits per base (the representation genome tools
/// and the modelled hardware both use).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// An empty sequence.
    pub fn new() -> Self {
        PackedSeq::default()
    }

    /// An empty sequence with capacity for `n` bases.
    pub fn with_capacity(n: usize) -> Self {
        PackedSeq {
            words: Vec::with_capacity(n.div_ceil(32)),
            len: 0,
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        let bit = (self.len % 32) * 2;
        if bit == 0 {
            self.words.push(0);
        }
        let w = self.words.last_mut().expect("word allocated");
        *w |= (base.code() as u64) << bit;
        self.len += 1;
    }

    /// Base at position `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let code = (self.words[i / 32] >> ((i % 32) * 2)) & 0b11;
        Base::from_code(code as u8)
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies bases `[start, start+len)` into a `Vec`.
    ///
    /// # Panics
    /// Panics when the range exceeds the sequence.
    pub fn slice(&self, start: usize, len: usize) -> Vec<Base> {
        assert!(start + len <= self.len, "slice out of range");
        (start..start + len).map(|i| self.get(i)).collect()
    }

    /// The reverse complement of the whole sequence.
    pub fn reverse_complement(&self) -> PackedSeq {
        let mut out = PackedSeq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).complement());
        }
        out
    }

    /// Bytes of the packed representation (for sizing memory regions).
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let mut s = PackedSeq::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl Extend<Base> for PackedSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl FromStr for PackedSeq {
    type Err = ParseSeqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = PackedSeq::with_capacity(s.len());
        for (i, c) in s.bytes().enumerate() {
            match Base::from_ascii(c) {
                Some(b) => out.push(b),
                None => return Err(ParseSeqError { position: i }),
            }
        }
        Ok(out)
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Error parsing a textual DNA sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseSeqError {
    /// Byte offset of the first invalid character.
    pub position: usize,
}

impl fmt::Display for ParseSeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid base at position {}", self.position)
    }
}

impl std::error::Error for ParseSeqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let mut s = PackedSeq::new();
        let text = "ACGTACGTTTGGCCAA";
        for c in text.bytes() {
            s.push(Base::from_ascii(c).unwrap());
        }
        assert_eq!(s.len(), 16);
        assert_eq!(s.to_string(), text);
    }

    #[test]
    fn parse_and_display() {
        let s: PackedSeq = "ACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGT");
        let err = "ACXT".parse::<PackedSeq>().unwrap_err();
        assert_eq!(err.position, 2);
    }

    #[test]
    fn crosses_word_boundaries() {
        let text: String = std::iter::repeat_n("ACGT", 40).collect();
        let s: PackedSeq = text.parse().unwrap();
        assert_eq!(s.len(), 160);
        assert_eq!(s.to_string(), text);
        assert_eq!(s.packed_bytes(), 40); // 160 bases = 5 u64 words
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: PackedSeq = "ACGGTTAC".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
        assert_eq!(s.reverse_complement().to_string(), "GTAACCGT");
    }

    #[test]
    fn slice_extracts_window() {
        let s: PackedSeq = "AACCGGTT".parse().unwrap();
        let w = s.slice(2, 4);
        let text: String = w.iter().map(|b| b.to_string()).collect();
        assert_eq!(text, "CCGG");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s: PackedSeq = "AC".parse().unwrap();
        let _ = s.get(2);
    }

    #[test]
    fn from_iterator_collects() {
        let s: PackedSeq = [Base::A, Base::T].into_iter().collect();
        assert_eq!(s.to_string(), "AT");
    }
}
