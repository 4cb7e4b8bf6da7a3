//! Independence metadata for the bounded-interleaving explorer.
//!
//! `sb-check explore` enumerates the orders in which same-cycle events
//! may be dispatched. Two events *commute* (swapping them yields an
//! equivalent execution) when the resources their handlers may touch are
//! disjoint; the explorer then only needs one of the two orders. Each
//! schedulable event describes its resource footprint with a
//! [`ChoiceMeta`]: the tiles whose directory/port state the handler may
//! read or write, the address footprint it may test signatures against,
//! and the core whose private state it may mutate. The footprint must be
//! a *superset* of what the handler actually touches — over-approximating
//! costs pruning, under-approximating costs soundness.
//!
//! Protocols report footprints for their wire messages through
//! [`CommitProtocol::msg_meta`](crate::CommitProtocol::msg_meta); the
//! default is [`ChoiceMeta::global`], which commutes with nothing and is
//! therefore always sound.

use sb_chunks::ChunkTag;
use sb_mem::TileSet;
use sb_sigs::SigHandle;

/// Address footprint of one schedulable event.
#[derive(Clone, Debug, Default)]
pub enum AddrFootprint {
    /// No addressable state touched.
    #[default]
    None,
    /// A single cache line.
    Line(u64),
    /// An address signature (the handler may test or expand it).
    Sig(SigHandle),
}

impl AddrFootprint {
    /// Whether two footprints may name a common line. Signatures are
    /// compared by intersection, so aliasing counts as overlap — exactly
    /// the conservative direction.
    pub fn overlaps(&self, other: &AddrFootprint) -> bool {
        match (self, other) {
            (AddrFootprint::None, _) | (_, AddrFootprint::None) => false,
            (AddrFootprint::Line(a), AddrFootprint::Line(b)) => a == b,
            (AddrFootprint::Line(l), AddrFootprint::Sig(s))
            | (AddrFootprint::Sig(s), AddrFootprint::Line(l)) => s.as_signature().test(*l),
            (AddrFootprint::Sig(a), AddrFootprint::Sig(b)) => {
                a.as_signature().intersects(b.as_signature())
            }
        }
    }
}

/// Resource footprint of one schedulable event (see the module docs).
#[derive(Clone, Debug)]
pub struct ChoiceMeta {
    /// Short human label, used by schedule dumps ("grab", "read@dir", …).
    pub label: &'static str,
    /// The chunk the event is about, if any (diagnostics only).
    pub tag: Option<ChunkTag>,
    /// The handler may touch state not captured by the other fields
    /// (e.g. a global arbiter or commit order). Commutes with nothing.
    pub global: bool,
    /// Tiles whose directory state or network injection port the handler
    /// may touch. Inline while the tiles share one 64-tile window and
    /// spilled beyond, so footprints stay exact at any machine size
    /// (see [`TileSet`]). Ignored when
    /// [`global`](Self::global) is set (global commutes with nothing).
    pub tiles: TileSet,
    /// Addresses the handler may read.
    pub read: AddrFootprint,
    /// Addresses the handler may write or invalidate.
    pub write: AddrFootprint,
    /// The core whose private state (chunk window, caches) the handler
    /// runs against. Two events at the same core never commute.
    pub core: Option<u16>,
}

impl ChoiceMeta {
    /// A maximally conservative footprint: touches everything, commutes
    /// with nothing. Always sound.
    pub fn global(label: &'static str) -> Self {
        ChoiceMeta {
            label,
            tag: None,
            global: true,
            tiles: TileSet::empty(),
            read: AddrFootprint::None,
            write: AddrFootprint::None,
            core: None,
        }
    }

    /// A footprint confined to one set of tiles.
    pub fn at_tiles(label: &'static str, tiles: TileSet) -> Self {
        ChoiceMeta {
            label,
            tag: None,
            global: false,
            tiles,
            read: AddrFootprint::None,
            write: AddrFootprint::None,
            core: None,
        }
    }

    /// Builder: records the chunk tag.
    pub fn with_tag(mut self, tag: ChunkTag) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Builder: records the read footprint.
    pub fn reads(mut self, fp: AddrFootprint) -> Self {
        self.read = fp;
        self
    }

    /// Builder: records the write footprint.
    pub fn writes(mut self, fp: AddrFootprint) -> Self {
        self.write = fp;
        self
    }

    /// Builder: records the owning core.
    pub fn at_core(mut self, core: u16) -> Self {
        self.core = Some(core);
        self
    }

    /// Whether two same-cycle events commute: neither is global, their
    /// tile sets are disjoint, they run at different cores (or at no
    /// core), and their address footprints obey the usual data-race rule
    /// (write/write and read/write overlap conflict; read/read does not).
    pub fn independent(&self, other: &ChoiceMeta) -> bool {
        if self.global || other.global {
            return false;
        }
        if self.tiles.intersects(&other.tiles) {
            return false;
        }
        if let (Some(a), Some(b)) = (self.core, other.core) {
            if a == b {
                return false;
            }
        }
        !(self.write.overlaps(&other.write)
            || self.write.overlaps(&other.read)
            || self.read.overlaps(&other.write))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sigs::SignatureConfig;

    fn sig_of(lines: &[u64]) -> SigHandle {
        let mut h = SigHandle::empty(SignatureConfig::paper_default());
        for &l in lines {
            h.make_mut().insert(l);
        }
        h
    }

    #[test]
    fn global_commutes_with_nothing() {
        let g = ChoiceMeta::global("msg");
        let local = ChoiceMeta::at_tiles("read@dir", TileSet::single(2));
        assert!(!g.independent(&local));
        assert!(!local.independent(&g));
        assert!(!g.independent(&g.clone()));
    }

    #[test]
    fn disjoint_tiles_commute() {
        let a = ChoiceMeta::at_tiles("read@dir", TileSet::single(0)).reads(AddrFootprint::Line(10));
        let b = ChoiceMeta::at_tiles("read@dir", TileSet::single(1)).reads(AddrFootprint::Line(11));
        assert!(a.independent(&b));
        let c = ChoiceMeta::at_tiles("grab", [1u16, 2].into_iter().collect());
        assert!(a.independent(&c));
        assert!(!b.independent(&c), "tile 1 shared");
    }

    #[test]
    fn same_core_never_commutes() {
        let a = ChoiceMeta::at_tiles("step", TileSet::single(0)).at_core(3);
        let b = ChoiceMeta::at_tiles("outcome", TileSet::single(1)).at_core(3);
        let c = ChoiceMeta::at_tiles("step", TileSet::single(2)).at_core(4);
        assert!(!a.independent(&b));
        assert!(a.independent(&c));
    }

    #[test]
    fn address_overlap_follows_data_race_rule() {
        let w = ChoiceMeta::at_tiles("inv", TileSet::single(0))
            .writes(AddrFootprint::Sig(sig_of(&[7, 9])));
        let r_hit = ChoiceMeta::at_tiles("read", TileSet::single(1)).reads(AddrFootprint::Line(7));
        let r_miss =
            ChoiceMeta::at_tiles("read", TileSet::single(1)).reads(AddrFootprint::Line(1000));
        let r2 = ChoiceMeta::at_tiles("read", TileSet::single(2)).reads(AddrFootprint::Line(7));
        assert!(!w.independent(&r_hit), "write/read overlap");
        assert!(w.independent(&r_miss) || sig_of(&[7, 9]).as_signature().test(1000));
        assert!(r_hit.independent(&r2), "read/read never conflicts");
    }
}
