//! Protocol identification (Table 3 of the paper).

use std::fmt;
use std::str::FromStr;

/// The four simulated cache-coherence protocols (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The protocol proposed by the paper.
    ScalableBulk,
    /// Scalable TCC (Chafi et al., HPCA 2007).
    Tcc,
    /// SEQ-PRO from SRC (Pugsley et al., PACT 2008).
    Seq,
    /// BulkSC (Ceze et al., ISCA 2007) with the arbiter in the chip centre.
    BulkSc,
    /// SEQ-TS, SRC's parallel-occupation-with-stealing variant (§2.1 of
    /// the ScalableBulk paper). Implemented as an extension; not part of
    /// Table 3's comparison set ([`ProtocolKind::ALL`]).
    SeqTs,
}

impl ProtocolKind {
    /// All four protocols, in the order the paper's figures present them.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::ScalableBulk,
        ProtocolKind::Tcc,
        ProtocolKind::Seq,
        ProtocolKind::BulkSc,
    ];

    /// The paper's name for the protocol.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::ScalableBulk => "ScalableBulk",
            ProtocolKind::Tcc => "TCC",
            ProtocolKind::Seq => "SEQ",
            ProtocolKind::BulkSc => "BulkSC",
            ProtocolKind::SeqTs => "SEQ-TS",
        }
    }

    /// The single-letter key used in Figures 18–19 (S, T, Q, B).
    pub fn letter(self) -> char {
        match self {
            ProtocolKind::ScalableBulk => 'S',
            ProtocolKind::Tcc => 'T',
            ProtocolKind::Seq => 'Q',
            ProtocolKind::BulkSc => 'B',
            ProtocolKind::SeqTs => 'X',
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a [`ProtocolKind`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseProtocolError(String);

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol {:?}; expected one of scalablebulk, tcc, seq, seqts, bulksc",
            self.0
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for ProtocolKind {
    type Err = ParseProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalablebulk" | "sb" | "s" => Ok(ProtocolKind::ScalableBulk),
            "tcc" | "t" => Ok(ProtocolKind::Tcc),
            "seq" | "seq-pro" | "q" => Ok(ProtocolKind::Seq),
            "seqts" | "seq-ts" | "x" => Ok(ProtocolKind::SeqTs),
            "bulksc" | "b" => Ok(ProtocolKind::BulkSc),
            other => Err(ParseProtocolError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table3() {
        assert_eq!(ProtocolKind::ScalableBulk.label(), "ScalableBulk");
        assert_eq!(ProtocolKind::Tcc.label(), "TCC");
        assert_eq!(ProtocolKind::Seq.label(), "SEQ");
        assert_eq!(ProtocolKind::BulkSc.label(), "BulkSC");
    }

    #[test]
    fn letters_match_fig18() {
        let letters: String = ProtocolKind::ALL.iter().map(|p| p.letter()).collect();
        assert_eq!(letters, "STQB");
    }

    #[test]
    fn parse_roundtrip() {
        for p in ProtocolKind::ALL {
            assert_eq!(p.label().parse::<ProtocolKind>().unwrap(), p);
        }
        assert_eq!(
            "seq-pro".parse::<ProtocolKind>().unwrap(),
            ProtocolKind::Seq
        );
        assert_eq!(
            "SEQ-TS".parse::<ProtocolKind>().unwrap(),
            ProtocolKind::SeqTs
        );
        assert!(
            !ProtocolKind::ALL.contains(&ProtocolKind::SeqTs),
            "Table 3 has four protocols"
        );
        assert!("mesi".parse::<ProtocolKind>().is_err());
        let err = "mesi".parse::<ProtocolKind>().unwrap_err();
        assert!(err.to_string().contains("mesi"));
        assert!(err.to_string().contains("seqts"));
    }
}
