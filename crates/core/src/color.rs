//! PELS packet colors.
//!
//! Applications mark their own packets (Section 4): green for the base
//! layer, yellow for the lower (decodable-prefix) part of the FGS
//! enhancement layer, red for the upper, expendable part. Colors map onto
//! [`pels_netsim::Packet::class`] values; class 3 is reserved for ordinary
//! Internet traffic.

use pels_fgs::Segment;
use serde::{Deserialize, Serialize};

/// The three PELS priority colors, highest priority first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Color {
    /// Base layer: dropped only when the entire FGS layer is gone.
    Green,
    /// Lower enhancement layer: protected by the red cushion.
    Yellow,
    /// Upper enhancement layer: the probing class whose purpose is to be
    /// lost first during congestion.
    Red,
}

impl Color {
    /// The wire class for this color (0, 1 or 2).
    pub const fn class(self) -> u8 {
        match self {
            Color::Green => 0,
            Color::Yellow => 1,
            Color::Red => 2,
        }
    }

    /// Parses a wire class back into a color.
    ///
    /// # Examples
    ///
    /// ```
    /// use pels_core::color::Color;
    ///
    /// assert_eq!(Color::from_class(0), Some(Color::Green));
    /// assert_eq!(Color::from_class(3), None); // Internet traffic
    /// ```
    pub const fn from_class(class: u8) -> Option<Color> {
        match class {
            0 => Some(Color::Green),
            1 => Some(Color::Yellow),
            2 => Some(Color::Red),
            _ => None,
        }
    }

    /// The lower-case name metrics carry (`drops.red`, `delay.green`).
    pub const fn name(self) -> &'static str {
        match self {
            Color::Green => "green",
            Color::Yellow => "yellow",
            Color::Red => "red",
        }
    }

    /// Whether a wire class is PELS video traffic.
    pub const fn is_pels_class(class: u8) -> bool {
        class < 3
    }

    /// All colors, highest priority first.
    pub const ALL: [Color; 3] = [Color::Green, Color::Yellow, Color::Red];
}

impl From<Segment> for Color {
    fn from(seg: Segment) -> Color {
        match seg {
            Segment::Base => Color::Green,
            Segment::Yellow => Color::Yellow,
            Segment::Red => Color::Red,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_roundtrip() {
        for c in Color::ALL {
            assert_eq!(Color::from_class(c.class()), Some(c));
        }
        assert_eq!(Color::from_class(3), None);
    }

    #[test]
    fn priority_order() {
        assert!(Color::Green < Color::Yellow);
        assert!(Color::Yellow < Color::Red);
    }

    #[test]
    fn segment_mapping() {
        assert_eq!(Color::from(Segment::Base), Color::Green);
        assert_eq!(Color::from(Segment::Yellow), Color::Yellow);
        assert_eq!(Color::from(Segment::Red), Color::Red);
    }

    #[test]
    fn pels_class_predicate() {
        assert!(Color::is_pels_class(0));
        assert!(Color::is_pels_class(2));
        assert!(!Color::is_pels_class(3));
        assert!(!Color::is_pels_class(200));
    }
}
