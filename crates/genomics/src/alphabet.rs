//! The DNA alphabet.

use std::fmt;

/// One DNA base, 2-bit encodable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

/// Number of symbols in the alphabet.
pub const ALPHABET: usize = 4;

impl Base {
    /// All bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// 2-bit code of the base.
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Base from its 2-bit code.
    ///
    /// # Panics
    /// Panics when `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => panic!("invalid base code {code}"),
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(3 - self.code())
    }

    /// Parses an ASCII base (upper- or lower-case).
    pub fn from_ascii(c: u8) -> Option<Base> {
        match c {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII representation.
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn ascii_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
        assert_eq!(Base::from_ascii(b'N'), None);
    }

    #[test]
    #[should_panic(expected = "invalid base code")]
    fn bad_code_panics() {
        let _ = Base::from_code(4);
    }

    #[test]
    fn display_prints_letter() {
        assert_eq!(Base::G.to_string(), "G");
    }
}
