//! Structural compact-frame encodings for the PIM-trie protocol
//! messages (`WireCodec::Compact`, `WIRE_FORMAT.md` §"Frames and
//! groups").
//!
//! The simulator meters whatever [`pim_sim::Wire::encode_frame`] emits;
//! by default that is an *opaque frame* no smaller than the plain word
//! count. This module replaces the default for every CPU↔PIM message
//! with a field-by-field bit-level encoding: varints for ids and
//! lengths, per-stream delta coding for sequence numbers, slots, tags
//! and depths, bit-packed edge labels, and shared-prefix elimination
//! for the root-string remainder/`s_last` labels that repeat across a
//! round's messages (`WIRE_FORMAT.md` §"Delta streams", §"Labels",
//! §"Shared-prefix elimination").
//!
//! Two traits split the work:
//!
//! * [`Encode`] appends a value's fields to a [`pim_sim::Enc`] — this is
//!   the run-time path: the simulator calls it (via `encode_frame`)
//!   once per message when the compact codec is negotiated, purely to
//!   *meter* the encoded size and index fault words. Receivers never
//!   decode — module handlers keep operating on the shipped Rust
//!   values.
//!   The same walk, run standalone ([`standalone_frame`]), is what the
//!   fault-tolerant envelope's CRC seal covers (`wire_guard`), so one
//!   field schema serves both metering and integrity.
//! * [`Decode`] is the mirror. It exists to *prove losslessness*: the
//!   round-trip tests in this module encode a message group, decode it
//!   back, and check that each decoded message has the original's
//!   standalone frame, and that the group re-encodes identically. If
//!   `Decode` can reconstruct the message, the metered size is an honest
//!   size for the information actually shipped — and the seal covers
//!   every field.
//!
//! Paper: PIM-tree (Kang et al.) charges every bound in words moved;
//! this module is where the reproduction's words/op floor is attacked
//! without changing any algorithm.

use crate::hvm::QueryPiece;
use crate::module::{
    BlockDataOut, BlockNodeResult, DescendOut, EntrySummary, GraftMsg, MasterAddMsg, MetaChildInfo,
    MetaFullNode, MetaFullOut, NewMetaChild, NewMetaNode, PutBlockMsg, PutMetaMsg, Req, Resp,
    RootMatch, RootMatchTarget,
};
use crate::refs::{BitsMsg, BlockRef, MetaRef, TrieMsg};
use bitstr::hash::HashVal;
use bitstr::BitStr;
use pim_sim::{codec_stream as stream, CodecError, Dec, Enc};
use trie_core::{NodeId, Trie};

/// Types with a structural compact-codec field encoding.
///
/// `enc` appends this value's fields to the group encoder; it is called
/// between the simulator's `begin_frame`/`end_frame` when this value is
/// (part of) a round message and `WireCodec::Compact` is negotiated.
/// Implementations must be a pure function of the value and the
/// encoder's stream state — encoded sizes are part of the simulation's
/// deterministic counters.
pub trait Encode {
    /// Append this value's fields to the encoder.
    fn enc(&self, e: &mut Enc);
}

/// `v` encoded as one frame into a fresh [`Enc`]. All delta and label
/// streams start zeroed, so the words depend on the value alone — not on
/// the frames before it in a group, nor on the negotiated codec. This is
/// the byte string the wire seal's CRC covers.
pub(crate) fn standalone_frame<T: Encode>(v: &T) -> Enc {
    let mut e = Enc::new();
    e.begin_frame();
    v.enc(&mut e);
    e.end_frame();
    e
}

/// Mirror of [`Encode`]: reconstruct the value from the encoded stream.
///
/// Run-time receivers never call this (the simulator ships Rust values
/// and uses the codec only for metering); it exists so tests can prove
/// every frame is lossless. Decoding trusts the encoder: structural
/// codecs (e.g. the [`Trie`] schema) may panic on semantically
/// malformed input rather than report [`CodecError`].
pub trait Decode: Sized {
    /// Read back a value encoded by [`Encode::enc`].
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

macro_rules! codec_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn enc(&self, e: &mut Enc) {
                e.put_varint(*self as u64);
            }
        }
        impl Decode for $t {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(d.get_varint()? as $t)
            }
        }
    )*};
}

codec_int!(u8, u16, u32, u64, usize);

impl Encode for i64 {
    fn enc(&self, e: &mut Enc) {
        e.put_signed(*self);
    }
}

impl Decode for i64 {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_signed()
    }
}

impl Encode for bool {
    fn enc(&self, e: &mut Enc) {
        e.put_bits(*self as u64, 1);
    }
}

impl Decode for bool {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(d.get_bits(1)? == 1)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_bits(0, 1),
            Some(v) => {
                e.put_bits(1, 1);
                v.enc(e);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(if d.get_bits(1)? == 1 {
            Some(T::dec(d)?)
        } else {
            None
        })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.len() as u64);
        for v in self {
            v.enc(e);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_varint()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn enc(&self, e: &mut Enc) {
                $(self.$idx.enc(e);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(($($name::dec(d)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Field-sequence codec for structs whose fields all implement
/// [`Encode`]/[`Decode`]: encode each field in declaration order.
macro_rules! codec_struct {
    ($t:ty { $($f:ident),+ $(,)? }) => {
        impl Encode for $t {
            fn enc(&self, e: &mut Enc) {
                $(self.$f.enc(e);)+
            }
        }
        impl Decode for $t {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(Self { $($f: Decode::dec(d)?),+ })
            }
        }
    };
}

impl Encode for HashVal {
    // hashes are incompressible: one raw word (`WIRE_FORMAT.md` §"Raw
    // words")
    fn enc(&self, e: &mut Enc) {
        e.put_word(self.0);
    }
}

impl Decode for HashVal {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(HashVal(d.get_word()?))
    }
}

/// Rebuild a `BitStr` from an MSB-first label as the decoder returns it.
fn bits_from_label(words: &[u64], len: u64) -> BitStr {
    let mut s = BitStr::with_capacity(len as usize);
    let mut i = 0u64;
    while i < len {
        let take = (len - i).min(64);
        s.push_chunk(words[(i / 64) as usize], take as usize);
        i += take;
    }
    s
}

impl Encode for BitStr {
    fn enc(&self, e: &mut Enc) {
        e.put_label(self.words(), self.len() as u64);
    }
}

impl Decode for BitStr {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let (words, len) = d.get_label()?;
        Ok(bits_from_label(&words, len))
    }
}

fn put_shared(e: &mut Enc, s: usize, b: &BitStr) {
    e.put_label_shared(s, b.words(), b.len() as u64);
}

fn get_shared(d: &mut Dec<'_>, s: usize) -> Result<BitStr, CodecError> {
    let (words, len) = d.get_label_shared(s)?;
    Ok(bits_from_label(&words, len))
}

impl Encode for BlockRef {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.module as u64);
        e.put_delta(stream::BLOCK_SLOT, self.slot as u64);
    }
}

impl Decode for BlockRef {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BlockRef {
            module: d.get_varint()? as u32,
            slot: d.get_delta(stream::BLOCK_SLOT)? as u32,
        })
    }
}

impl Encode for MetaRef {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.module as u64);
        e.put_delta(stream::META_SLOT, self.slot as u64);
    }
}

impl Decode for MetaRef {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MetaRef {
            module: d.get_varint()? as u32,
            slot: d.get_delta(stream::META_SLOT)? as u32,
        })
    }
}

// Trie frame schema (`WIRE_FORMAT.md` §"Frames"): header (n_keys,
// id_bound, n_live), then one record per *live* node in ascending
// arena order — delta-coded id, optional parent id, bit-packed edge
// label, optional value, depth. Children are never shipped: the trie
// invariant (a child hangs off its parent by its edge's first bit)
// lets `Trie::from_arena_parts` recompute them, which is where the
// codec beats the plain ~4–5 words/node layout.
impl Encode for Trie {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.n_keys() as u64);
        e.put_varint(self.id_bound() as u64);
        e.put_varint(self.n_nodes() as u64);
        for id in self.node_ids() {
            let n = self.node(id);
            e.put_delta(stream::NODE_ID, id.0 as u64);
            match n.parent {
                None => e.put_bits(0, 1),
                Some(p) => {
                    e.put_bits(1, 1);
                    e.put_varint(p.0 as u64);
                }
            }
            n.edge.enc(e);
            match n.value {
                None => e.put_bits(0, 1),
                Some(v) => {
                    e.put_bits(1, 1);
                    // +1 with wraparound: the mirror sentinel u64::MAX
                    // becomes 0 and costs one varint byte instead of ten
                    e.put_varint(v.wrapping_add(1));
                }
            }
            e.put_varint(n.depth as u64);
        }
    }
}

impl Decode for Trie {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n_keys = d.get_varint()? as usize;
        let id_bound = d.get_varint()? as usize;
        let n_live = d.get_varint()? as usize;
        let mut nodes = Vec::with_capacity(n_live.min(1 << 20));
        for _ in 0..n_live {
            let id = NodeId(d.get_delta(stream::NODE_ID)? as u32);
            let parent = if d.get_bits(1)? == 1 {
                Some(NodeId(d.get_varint()? as u32))
            } else {
                None
            };
            let edge = BitStr::dec(d)?;
            let value = if d.get_bits(1)? == 1 {
                Some(d.get_varint()?.wrapping_sub(1))
            } else {
                None
            };
            let depth = d.get_varint()? as u32;
            nodes.push((id, parent, edge, value, depth));
        }
        Ok(Trie::from_arena_parts(id_bound, n_keys, nodes))
    }
}

impl Encode for TrieMsg {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
    }
}

impl Decode for TrieMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TrieMsg(Trie::dec(d)?))
    }
}

impl Encode for BitsMsg {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
    }
}

impl Decode for BitsMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BitsMsg(BitStr::dec(d)?))
    }
}

impl Encode for QueryPiece {
    fn enc(&self, e: &mut Enc) {
        self.trie.enc(e);
        e.put_varint(self.tags.len() as u64);
        for &t in &self.tags {
            e.put_delta(stream::TAG, t as u64);
        }
        e.put_delta(stream::DEPTH, self.root_depth);
        self.root_pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.root_rem);
    }
}

impl Decode for QueryPiece {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let trie = Trie::dec(d)?;
        let n = d.get_varint()? as usize;
        let mut tags = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            tags.push(d.get_delta(stream::TAG)? as u32);
        }
        Ok(QueryPiece {
            trie,
            tags,
            root_depth: d.get_delta(stream::DEPTH)?,
            root_pre_hash: HashVal::dec(d)?,
            root_rem: get_shared(d, stream::LABEL_REM)?,
        })
    }
}

impl Encode for RootMatch {
    fn enc(&self, e: &mut Enc) {
        e.put_delta(stream::TAG, self.qt_below as u64);
        e.put_delta(stream::DEPTH, self.depth);
        self.block.enc(e);
        self.meta.enc(e);
        e.put_delta(stream::NODE_SLOT, self.node_slot as u64);
        self.descend.enc(e);
    }
}

impl Decode for RootMatch {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RootMatch {
            qt_below: d.get_delta(stream::TAG)? as u32,
            depth: d.get_delta(stream::DEPTH)?,
            block: BlockRef::dec(d)?,
            meta: MetaRef::dec(d)?,
            node_slot: d.get_delta(stream::NODE_SLOT)? as u32,
            descend: Decode::dec(d)?,
        })
    }
}

impl Encode for BlockNodeResult {
    fn enc(&self, e: &mut Enc) {
        e.put_delta(stream::TAG, self.tag as u64);
        e.put_delta(stream::DEPTH, self.depth);
        e.put_varint(self.anchor_node as u64);
        e.put_varint(self.anchor_off as u64);
        self.at_mirror.enc(e);
        self.redirect.enc(e);
    }
}

impl Decode for BlockNodeResult {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BlockNodeResult {
            tag: d.get_delta(stream::TAG)? as u32,
            depth: d.get_delta(stream::DEPTH)?,
            anchor_node: d.get_varint()? as u32,
            anchor_off: d.get_varint()? as u32,
            at_mirror: bool::dec(d)?,
            redirect: Decode::dec(d)?,
        })
    }
}

impl Encode for RootMatchTarget {
    fn enc(&self, e: &mut Enc) {
        self.block.enc(e);
        self.meta.enc(e);
        e.put_delta(stream::NODE_SLOT, self.node_slot as u64);
        self.descend.enc(e);
    }
}

impl Decode for RootMatchTarget {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RootMatchTarget {
            block: BlockRef::dec(d)?,
            meta: MetaRef::dec(d)?,
            node_slot: d.get_delta(stream::NODE_SLOT)? as u32,
            descend: Decode::dec(d)?,
        })
    }
}

impl Encode for EntrySummary {
    fn enc(&self, e: &mut Enc) {
        e.put_delta(stream::DEPTH, self.depth);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem);
        put_shared(e, stream::LABEL_LAST, &self.s_last);
        self.target.enc(e);
    }
}

impl Decode for EntrySummary {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(EntrySummary {
            depth: d.get_delta(stream::DEPTH)?,
            pre_hash: HashVal::dec(d)?,
            rem: get_shared(d, stream::LABEL_REM)?,
            s_last: get_shared(d, stream::LABEL_LAST)?,
            target: RootMatchTarget::dec(d)?,
        })
    }
}

codec_struct!(GraftMsg {
    anchor_node,
    anchor_off,
    subtree
});

impl Encode for PutBlockMsg {
    fn enc(&self, e: &mut Enc) {
        self.trie.enc(e);
        e.put_delta(stream::DEPTH, self.root_depth);
        self.root_hash.enc(e);
        put_shared(e, stream::LABEL_LAST, &self.s_last.0);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem.0);
        self.parent.enc(e);
        self.mirrors.enc(e);
    }
}

impl Decode for PutBlockMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(PutBlockMsg {
            trie: TrieMsg::dec(d)?,
            root_depth: d.get_delta(stream::DEPTH)?,
            root_hash: HashVal::dec(d)?,
            s_last: BitsMsg(get_shared(d, stream::LABEL_LAST)?),
            pre_hash: HashVal::dec(d)?,
            rem: BitsMsg(get_shared(d, stream::LABEL_REM)?),
            parent: Decode::dec(d)?,
            mirrors: Decode::dec(d)?,
        })
    }
}

impl Encode for NewMetaNode {
    fn enc(&self, e: &mut Enc) {
        self.block.enc(e);
        e.put_delta(stream::DEPTH, self.depth);
        self.hash.enc(e);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem.0);
        put_shared(e, stream::LABEL_LAST, &self.s_last.0);
    }
}

impl Decode for NewMetaNode {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(NewMetaNode {
            block: BlockRef::dec(d)?,
            depth: d.get_delta(stream::DEPTH)?,
            hash: HashVal::dec(d)?,
            pre_hash: HashVal::dec(d)?,
            rem: BitsMsg(get_shared(d, stream::LABEL_REM)?),
            s_last: BitsMsg(get_shared(d, stream::LABEL_LAST)?),
        })
    }
}

impl Encode for NewMetaChild {
    fn enc(&self, e: &mut Enc) {
        self.mref.enc(e);
        e.put_varint(self.under_node as u64);
        self.root_block.enc(e);
        e.put_delta(stream::NODE_SLOT, self.root_node_slot as u64);
        e.put_delta(stream::DEPTH, self.depth);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem.0);
        put_shared(e, stream::LABEL_LAST, &self.s_last.0);
    }
}

impl Decode for NewMetaChild {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(NewMetaChild {
            mref: MetaRef::dec(d)?,
            under_node: d.get_varint()? as u32,
            root_block: BlockRef::dec(d)?,
            root_node_slot: d.get_delta(stream::NODE_SLOT)? as u32,
            depth: d.get_delta(stream::DEPTH)?,
            pre_hash: HashVal::dec(d)?,
            rem: BitsMsg(get_shared(d, stream::LABEL_REM)?),
            s_last: BitsMsg(get_shared(d, stream::LABEL_LAST)?),
        })
    }
}

codec_struct!(PutMetaMsg {
    nodes,
    root_idx,
    parent,
    children,
    chunks,
    parents
});

impl Encode for MasterAddMsg {
    fn enc(&self, e: &mut Enc) {
        self.mref.enc(e);
        self.root_block.enc(e);
        e.put_delta(stream::NODE_SLOT, self.root_node_slot as u64);
        e.put_delta(stream::DEPTH, self.depth);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem.0);
        put_shared(e, stream::LABEL_LAST, &self.s_last.0);
    }
}

impl Decode for MasterAddMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MasterAddMsg {
            mref: MetaRef::dec(d)?,
            root_block: BlockRef::dec(d)?,
            root_node_slot: d.get_delta(stream::NODE_SLOT)? as u32,
            depth: d.get_delta(stream::DEPTH)?,
            pre_hash: HashVal::dec(d)?,
            rem: BitsMsg(get_shared(d, stream::LABEL_REM)?),
            s_last: BitsMsg(get_shared(d, stream::LABEL_LAST)?),
        })
    }
}

impl Encode for MetaFullNode {
    fn enc(&self, e: &mut Enc) {
        e.put_delta(stream::NODE_SLOT, self.slot as u64);
        self.block.enc(e);
        self.parent.enc(e);
        e.put_delta(stream::DEPTH, self.depth);
        self.hash.enc(e);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem);
        put_shared(e, stream::LABEL_LAST, &self.s_last);
    }
}

impl Decode for MetaFullNode {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MetaFullNode {
            slot: d.get_delta(stream::NODE_SLOT)? as u32,
            block: BlockRef::dec(d)?,
            parent: Decode::dec(d)?,
            depth: d.get_delta(stream::DEPTH)?,
            hash: HashVal::dec(d)?,
            pre_hash: HashVal::dec(d)?,
            rem: get_shared(d, stream::LABEL_REM)?,
            s_last: get_shared(d, stream::LABEL_LAST)?,
        })
    }
}

codec_struct!(MetaChildInfo {
    mref,
    under_node,
    entry_slot,
    root_block,
    root_node_slot
});

codec_struct!(MetaFullOut {
    nodes,
    root_node,
    parent,
    children,
    chunk_children
});

impl Encode for BlockDataOut {
    fn enc(&self, e: &mut Enc) {
        self.trie.enc(e);
        e.put_delta(stream::DEPTH, self.root_depth);
        self.root_hash.enc(e);
        put_shared(e, stream::LABEL_LAST, &self.s_last.0);
        self.pre_hash.enc(e);
        put_shared(e, stream::LABEL_REM, &self.rem.0);
        self.parent.enc(e);
        self.mirrors.enc(e);
        self.meta.enc(e);
    }
}

impl Decode for BlockDataOut {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BlockDataOut {
            trie: TrieMsg::dec(d)?,
            root_depth: d.get_delta(stream::DEPTH)?,
            root_hash: HashVal::dec(d)?,
            s_last: BitsMsg(get_shared(d, stream::LABEL_LAST)?),
            pre_hash: HashVal::dec(d)?,
            rem: BitsMsg(get_shared(d, stream::LABEL_REM)?),
            parent: Decode::dec(d)?,
            mirrors: Decode::dec(d)?,
            meta: Decode::dec(d)?,
        })
    }
}

codec_struct!(DescendOut {
    consumed,
    next,
    anchor_node,
    anchor_off
});

// Variant tags are fixed numbers (`Req` 1–32, `Resp` 1–14), listed in
// `WIRE_FORMAT.md` §"Structural frames of the PIM-trie protocol".
impl Encode for Req {
    fn enc(&self, e: &mut Enc) {
        match self {
            Req::MatchMaster(p) => {
                e.put_varint(1);
                p.enc(e);
            }
            Req::MatchMeta { slot, piece } => {
                e.put_varint(2);
                slot.enc(e);
                piece.enc(e);
            }
            Req::MatchBlock { slot, piece } => {
                e.put_varint(3);
                slot.enc(e);
                piece.enc(e);
            }
            Req::FetchMeta { slot } => {
                e.put_varint(4);
                slot.enc(e);
            }
            Req::FetchBlock { slot } => {
                e.put_varint(5);
                slot.enc(e);
            }
            Req::GraftMany { slot, grafts } => {
                e.put_varint(6);
                slot.enc(e);
                grafts.enc(e);
            }
            Req::ReadKey { slot, node, depth } => {
                e.put_varint(7);
                slot.enc(e);
                node.enc(e);
                e.put_delta(stream::DEPTH, *depth);
            }
            Req::DeleteKey { slot, node, depth } => {
                e.put_varint(8);
                slot.enc(e);
                node.enc(e);
                e.put_delta(stream::DEPTH, *depth);
            }
            Req::MergeChild {
                slot,
                child,
                subtree,
            } => {
                e.put_varint(9);
                slot.enc(e);
                child.enc(e);
                subtree.enc(e);
            }
            Req::ReplaceBlock {
                slot,
                trie,
                mirrors,
            } => {
                e.put_varint(10);
                slot.enc(e);
                trie.enc(e);
                mirrors.enc(e);
            }
            Req::RemoveMetaChild { slot, mref } => {
                e.put_varint(11);
                slot.enc(e);
                mref.enc(e);
            }
            Req::PutBlock(p) => {
                e.put_varint(12);
                p.enc(e);
            }
            Req::PutMeta(p) => {
                e.put_varint(13);
                p.enc(e);
            }
            Req::ReplaceMeta { slot, msg } => {
                e.put_varint(14);
                slot.enc(e);
                msg.enc(e);
            }
            Req::FetchMetaFull { slot } => {
                e.put_varint(15);
                slot.enc(e);
            }
            Req::DropBlock { slot } => {
                e.put_varint(16);
                slot.enc(e);
            }
            Req::DropMeta { slot } => {
                e.put_varint(17);
                slot.enc(e);
            }
            Req::SetMirror { slot, node, child } => {
                e.put_varint(18);
                slot.enc(e);
                node.enc(e);
                child.enc(e);
            }
            Req::SetParent { slot, parent } => {
                e.put_varint(19);
                slot.enc(e);
                parent.enc(e);
            }
            Req::SetBlockMeta {
                slot,
                meta,
                meta_slot,
            } => {
                e.put_varint(20);
                slot.enc(e);
                meta.enc(e);
                meta_slot.enc(e);
            }
            Req::AddMetaNodes {
                slot,
                parent_node,
                nodes,
                parents,
            } => {
                e.put_varint(21);
                slot.enc(e);
                parent_node.enc(e);
                nodes.enc(e);
                parents.enc(e);
            }
            Req::RemoveMetaNode { slot, node } => {
                e.put_varint(22);
                slot.enc(e);
                node.enc(e);
            }
            Req::SetMetaParent { slot, parent } => {
                e.put_varint(23);
                slot.enc(e);
                parent.enc(e);
            }
            Req::MasterAdd(m) => {
                e.put_varint(24);
                m.enc(e);
            }
            Req::MasterRemove { mref } => {
                e.put_varint(25);
                mref.enc(e);
            }
            Req::FetchSubtree { slot, node, off } => {
                e.put_varint(26);
                slot.enc(e);
                node.enc(e);
                off.enc(e);
            }
            Req::DescendBlock { slot, bits } => {
                e.put_varint(27);
                slot.enc(e);
                bits.enc(e);
            }
            Req::ResetModule => e.put_varint(28),
            Req::BlockStats { slot } => {
                e.put_varint(29);
                slot.enc(e);
            }
            Req::MetaNodeKind { slot, node } => {
                e.put_varint(30);
                slot.enc(e);
                node.enc(e);
            }
            Req::RelinkMirror { slot, old, new } => {
                e.put_varint(31);
                slot.enc(e);
                old.enc(e);
                new.enc(e);
            }
            Req::SetMetaNodeBlock { slot, node, block } => {
                e.put_varint(32);
                slot.enc(e);
                node.enc(e);
                block.enc(e);
            }
        }
    }
}

impl Decode for Req {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.get_varint()? {
            1 => Req::MatchMaster(QueryPiece::dec(d)?),
            2 => Req::MatchMeta {
                slot: Decode::dec(d)?,
                piece: QueryPiece::dec(d)?,
            },
            3 => Req::MatchBlock {
                slot: Decode::dec(d)?,
                piece: QueryPiece::dec(d)?,
            },
            4 => Req::FetchMeta {
                slot: Decode::dec(d)?,
            },
            5 => Req::FetchBlock {
                slot: Decode::dec(d)?,
            },
            6 => Req::GraftMany {
                slot: Decode::dec(d)?,
                grafts: Decode::dec(d)?,
            },
            7 => Req::ReadKey {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
                depth: d.get_delta(stream::DEPTH)?,
            },
            8 => Req::DeleteKey {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
                depth: d.get_delta(stream::DEPTH)?,
            },
            9 => Req::MergeChild {
                slot: Decode::dec(d)?,
                child: Decode::dec(d)?,
                subtree: Decode::dec(d)?,
            },
            10 => Req::ReplaceBlock {
                slot: Decode::dec(d)?,
                trie: Decode::dec(d)?,
                mirrors: Decode::dec(d)?,
            },
            11 => Req::RemoveMetaChild {
                slot: Decode::dec(d)?,
                mref: Decode::dec(d)?,
            },
            12 => Req::PutBlock(PutBlockMsg::dec(d)?),
            13 => Req::PutMeta(PutMetaMsg::dec(d)?),
            14 => Req::ReplaceMeta {
                slot: Decode::dec(d)?,
                msg: Decode::dec(d)?,
            },
            15 => Req::FetchMetaFull {
                slot: Decode::dec(d)?,
            },
            16 => Req::DropBlock {
                slot: Decode::dec(d)?,
            },
            17 => Req::DropMeta {
                slot: Decode::dec(d)?,
            },
            18 => Req::SetMirror {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
                child: Decode::dec(d)?,
            },
            19 => Req::SetParent {
                slot: Decode::dec(d)?,
                parent: Decode::dec(d)?,
            },
            20 => Req::SetBlockMeta {
                slot: Decode::dec(d)?,
                meta: Decode::dec(d)?,
                meta_slot: Decode::dec(d)?,
            },
            21 => Req::AddMetaNodes {
                slot: Decode::dec(d)?,
                parent_node: Decode::dec(d)?,
                nodes: Decode::dec(d)?,
                parents: Decode::dec(d)?,
            },
            22 => Req::RemoveMetaNode {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
            },
            23 => Req::SetMetaParent {
                slot: Decode::dec(d)?,
                parent: Decode::dec(d)?,
            },
            24 => Req::MasterAdd(MasterAddMsg::dec(d)?),
            25 => Req::MasterRemove {
                mref: Decode::dec(d)?,
            },
            26 => Req::FetchSubtree {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
                off: Decode::dec(d)?,
            },
            27 => Req::DescendBlock {
                slot: Decode::dec(d)?,
                bits: Decode::dec(d)?,
            },
            28 => Req::ResetModule,
            29 => Req::BlockStats {
                slot: Decode::dec(d)?,
            },
            30 => Req::MetaNodeKind {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
            },
            31 => Req::RelinkMirror {
                slot: Decode::dec(d)?,
                old: Decode::dec(d)?,
                new: Decode::dec(d)?,
            },
            32 => Req::SetMetaNodeBlock {
                slot: Decode::dec(d)?,
                node: Decode::dec(d)?,
                block: Decode::dec(d)?,
            },
            _ => return Err(CodecError::UnexpectedEnd),
        })
    }
}

impl Encode for Resp {
    fn enc(&self, e: &mut Enc) {
        match self {
            Resp::Matches(v) => {
                e.put_varint(1);
                v.enc(e);
            }
            Resp::BlockResults { results, collision } => {
                e.put_varint(2);
                results.enc(e);
                collision.enc(e);
            }
            Resp::MetaSummary { entries } => {
                e.put_varint(3);
                entries.enc(e);
            }
            Resp::BlockData(b) => {
                e.put_varint(4);
                b.enc(e);
            }
            Resp::MetaFull(m) => {
                e.put_varint(5);
                m.enc(e);
            }
            Resp::BlockVitals {
                weight,
                keys,
                children,
                keys_delta,
                collision,
            } => {
                e.put_varint(6);
                weight.enc(e);
                keys.enc(e);
                children.enc(e);
                keys_delta.enc(e);
                collision.enc(e);
            }
            Resp::Placed {
                slot,
                node_slots,
                count,
            } => {
                e.put_varint(7);
                slot.enc(e);
                node_slots.enc(e);
                count.enc(e);
            }
            Resp::MetaVitals { nodes, parent } => {
                e.put_varint(8);
                nodes.enc(e);
                parent.enc(e);
            }
            Resp::Subtree {
                trie,
                children,
                depth,
            } => {
                e.put_varint(9);
                trie.enc(e);
                children.enc(e);
                e.put_delta(stream::DEPTH, *depth);
            }
            Resp::Descend(x) => {
                e.put_varint(10);
                x.enc(e);
            }
            Resp::Value(v) => {
                e.put_varint(11);
                v.enc(e);
            }
            Resp::Ok => e.put_varint(12),
            Resp::CorruptReq => e.put_varint(13),
            Resp::Rebooted => e.put_varint(14),
        }
    }
}

impl Decode for Resp {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.get_varint()? {
            1 => Resp::Matches(Decode::dec(d)?),
            2 => Resp::BlockResults {
                results: Decode::dec(d)?,
                collision: Decode::dec(d)?,
            },
            3 => Resp::MetaSummary {
                entries: Decode::dec(d)?,
            },
            4 => Resp::BlockData(BlockDataOut::dec(d)?),
            5 => Resp::MetaFull(MetaFullOut::dec(d)?),
            6 => Resp::BlockVitals {
                weight: Decode::dec(d)?,
                keys: Decode::dec(d)?,
                children: Decode::dec(d)?,
                keys_delta: Decode::dec(d)?,
                collision: Decode::dec(d)?,
            },
            7 => Resp::Placed {
                slot: Decode::dec(d)?,
                node_slots: Decode::dec(d)?,
                count: Decode::dec(d)?,
            },
            8 => Resp::MetaVitals {
                nodes: Decode::dec(d)?,
                parent: Decode::dec(d)?,
            },
            9 => Resp::Subtree {
                trie: Decode::dec(d)?,
                children: Decode::dec(d)?,
                depth: d.get_delta(stream::DEPTH)?,
            },
            10 => Resp::Descend(DescendOut::dec(d)?),
            11 => Resp::Value(Decode::dec(d)?),
            12 => Resp::Ok,
            13 => Resp::CorruptReq,
            14 => Resp::Rebooted,
            _ => return Err(CodecError::UnexpectedEnd),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::Wire;
    use proptest::prelude::*;

    fn bits(s: &str) -> BitStr {
        BitStr::from_bits(s.chars().map(|c| c == '1'))
    }

    fn sample_trie(keys: &[&str]) -> Trie {
        let mut t = Trie::new();
        for k in keys {
            t.insert(&bits(k), k.len() as u64);
        }
        t
    }

    fn sample_piece() -> QueryPiece {
        let trie = sample_trie(&["0001101", "0001110", "0100000", "0111111"]);
        let tags = (0..trie.id_bound() as u32).collect();
        QueryPiece {
            trie,
            tags,
            root_depth: 137,
            root_pre_hash: HashVal(0xfeed_f00d_dead_beef),
            root_rem: bits("01101"),
        }
    }

    /// Encode a group, decode it in order, check that each decoded
    /// message has the original's standalone frame (so tries compare by
    /// content) and re-encode identity.
    fn roundtrip_group<T>(msgs: &[T])
    where
        T: Wire + Encode + Decode,
    {
        let mut enc = Enc::new();
        let sizes: Vec<u64> = msgs
            .iter()
            .map(|m| {
                enc.begin_frame();
                m.encode_frame(&mut enc);
                enc.end_frame()
            })
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), enc.total_words());
        let mut dec = Dec::new(enc.words());
        let mut out = Vec::with_capacity(msgs.len());
        for _ in msgs {
            dec.begin_frame();
            out.push(T::dec(&mut dec).expect("decode"));
            dec.end_frame().expect("frame padding");
        }
        for (a, b) in msgs.iter().zip(&out) {
            assert_eq!(
                standalone_frame(a).words(),
                standalone_frame(b).words(),
                "decoded message is semantically different"
            );
        }
        let mut enc2 = Enc::new();
        for m in &out {
            enc2.begin_frame();
            m.encode_frame(&mut enc2);
            enc2.end_frame();
        }
        assert_eq!(enc.words(), enc2.words(), "re-encode differs");
    }

    fn bref(module: u32, slot: u32) -> BlockRef {
        BlockRef { module, slot }
    }

    fn mref(module: u32, slot: u32) -> MetaRef {
        MetaRef { module, slot }
    }

    #[test]
    fn trie_roundtrips_structurally() {
        let mut t = sample_trie(&["00011010", "00011011", "01000000", "11111111"]);
        t.insert(&bits("0100000011"), u64::MAX); // mirror-style sentinel value
        t.delete(bits("11111111").as_slice());
        let mut enc = Enc::new();
        t.enc(&mut enc);
        let mut dec = Dec::new(enc.words());
        let back = Trie::dec(&mut dec).unwrap();
        assert_eq!(back.n_keys(), t.n_keys());
        assert_eq!(back.n_nodes(), t.n_nodes());
        assert_eq!(back.id_bound(), t.id_bound());
        assert_eq!(back.items(), t.items());
        back.check_invariants(true);
    }

    #[test]
    fn req_variants_roundtrip_in_one_group() {
        let piece = sample_piece();
        let subtree = TrieMsg(sample_trie(&["010", "011"]));
        let msgs = vec![
            Req::MatchMaster(piece.clone()),
            Req::MatchMeta {
                slot: 4,
                piece: piece.clone(),
            },
            Req::MatchBlock { slot: 9, piece },
            Req::FetchMeta { slot: 2 },
            Req::FetchBlock { slot: 3 },
            Req::GraftMany {
                slot: 5,
                grafts: vec![
                    GraftMsg {
                        anchor_node: 1,
                        anchor_off: 0,
                        subtree: subtree.clone(),
                    },
                    GraftMsg {
                        anchor_node: 2,
                        anchor_off: 3,
                        subtree: subtree.clone(),
                    },
                ],
            },
            Req::ReadKey {
                slot: 1,
                node: 7,
                depth: 140,
            },
            Req::DeleteKey {
                slot: 1,
                node: 8,
                depth: 141,
            },
            Req::MergeChild {
                slot: 2,
                child: bref(1, 9),
                subtree: subtree.clone(),
            },
            Req::ReplaceBlock {
                slot: 2,
                trie: subtree.clone(),
                mirrors: vec![(3, bref(0, 1)), (5, bref(2, 2))],
            },
            Req::RemoveMetaChild {
                slot: 0,
                mref: mref(3, 1),
            },
            Req::PutBlock(PutBlockMsg {
                trie: subtree.clone(),
                root_depth: 64,
                root_hash: HashVal(11),
                s_last: BitsMsg(bits("0011")),
                pre_hash: HashVal(12),
                rem: BitsMsg(bits("01")),
                parent: Some(bref(0, 0)),
                mirrors: vec![(1, bref(1, 1))],
            }),
            Req::PutMeta(PutMetaMsg {
                nodes: vec![NewMetaNode {
                    block: bref(2, 4),
                    depth: 96,
                    hash: HashVal(21),
                    pre_hash: HashVal(22),
                    rem: BitsMsg(bits("110")),
                    s_last: BitsMsg(bits("1101")),
                }],
                root_idx: 0,
                parent: None,
                children: vec![NewMetaChild {
                    mref: mref(1, 2),
                    under_node: 0,
                    root_block: bref(1, 3),
                    root_node_slot: 1,
                    depth: 128,
                    pre_hash: HashVal(31),
                    rem: BitsMsg(bits("1100")),
                    s_last: BitsMsg(bits("11011")),
                }],
                chunks: vec![(mref(0, 7), 0)],
                parents: vec![None],
            }),
            Req::SetMirror {
                slot: 1,
                node: 4,
                child: bref(3, 3),
            },
            Req::SetParent {
                slot: 1,
                parent: None,
            },
            Req::AddMetaNodes {
                slot: 2,
                parent_node: 1,
                nodes: vec![],
                parents: vec![Some(0), None],
            },
            Req::MasterAdd(MasterAddMsg {
                mref: mref(2, 0),
                root_block: bref(2, 1),
                root_node_slot: 0,
                depth: 32,
                pre_hash: HashVal(41),
                rem: BitsMsg(bits("")),
                s_last: BitsMsg(bits("10101010")),
            }),
            Req::DescendBlock {
                slot: 6,
                bits: BitsMsg(bits("0110100111")),
            },
            Req::ResetModule,
            Req::SetMetaNodeBlock {
                slot: 3,
                node: 2,
                block: bref(0, 5),
            },
        ];
        roundtrip_group(&msgs);
    }

    #[test]
    fn resp_variants_roundtrip_in_one_group() {
        let target = RootMatchTarget {
            block: bref(1, 2),
            meta: mref(1, 0),
            node_slot: 3,
            descend: Some(mref(2, 2)),
        };
        let msgs = vec![
            Resp::Matches(vec![
                RootMatch {
                    qt_below: 4,
                    depth: 100,
                    block: bref(0, 1),
                    meta: mref(0, 0),
                    node_slot: 1,
                    descend: None,
                },
                RootMatch {
                    qt_below: 6,
                    depth: 164,
                    block: bref(0, 2),
                    meta: mref(0, 0),
                    node_slot: 2,
                    descend: Some(mref(1, 1)),
                },
            ]),
            Resp::BlockResults {
                results: vec![BlockNodeResult {
                    tag: 7,
                    depth: 170,
                    anchor_node: 3,
                    anchor_off: 2,
                    at_mirror: false,
                    redirect: Some(bref(3, 0)),
                }],
                collision: true,
            },
            Resp::MetaSummary {
                entries: vec![EntrySummary {
                    depth: 64,
                    pre_hash: HashVal(9),
                    rem: bits("0101"),
                    s_last: bits("01010101"),
                    target,
                }],
            },
            Resp::BlockData(BlockDataOut {
                trie: TrieMsg(sample_trie(&["0001", "0010"])),
                root_depth: 192,
                root_hash: HashVal(51),
                s_last: BitsMsg(bits("0111")),
                pre_hash: HashVal(52),
                rem: BitsMsg(bits("011")),
                parent: None,
                mirrors: vec![(2, bref(1, 4))],
                meta: Some((mref(3, 3), 5)),
            }),
            Resp::MetaFull(MetaFullOut {
                nodes: vec![MetaFullNode {
                    slot: 0,
                    block: bref(0, 3),
                    parent: None,
                    depth: 96,
                    hash: HashVal(61),
                    pre_hash: HashVal(62),
                    rem: bits("0110"),
                    s_last: bits("011011"),
                }],
                root_node: 0,
                parent: Some(mref(1, 5)),
                children: vec![(
                    MetaChildInfo {
                        mref: mref(2, 6),
                        under_node: 0,
                        entry_slot: 4,
                        root_block: bref(2, 7),
                        root_node_slot: 1,
                    },
                    128,
                    HashVal(63),
                    bits("1"),
                    bits("1111"),
                )],
                chunk_children: vec![(mref(0, 8), 0)],
            }),
            Resp::BlockVitals {
                weight: 900,
                keys: 31,
                children: 2,
                keys_delta: -3,
                collision: false,
            },
            Resp::Placed {
                slot: 12,
                node_slots: vec![0, 1, 2],
                count: 44,
            },
            Resp::MetaVitals {
                nodes: 17,
                parent: None,
            },
            Resp::Subtree {
                trie: TrieMsg(sample_trie(&["10", "11"])),
                children: vec![(1, bref(0, 9))],
                depth: 77,
            },
            Resp::Descend(DescendOut {
                consumed: 13,
                next: Some(bref(1, 6)),
                anchor_node: 2,
                anchor_off: 1,
            }),
            Resp::Value(Some(1234)),
            Resp::Value(None),
            Resp::Ok,
            Resp::CorruptReq,
            Resp::Rebooted,
        ];
        roundtrip_group(&msgs);
    }

    #[test]
    fn compact_frames_beat_plain_word_counts_on_structured_messages() {
        // The whole point: real protocol messages should encode well
        // under `wire_words`, not just round-trip.
        let piece = sample_piece();
        let req = Req::MatchBlock { slot: 3, piece };
        let mut enc = Enc::new();
        enc.begin_frame();
        req.encode_frame(&mut enc);
        let encoded = enc.end_frame();
        assert!(
            encoded < req.wire_words(),
            "compact {} >= plain {}",
            encoded,
            req.wire_words()
        );

        let resp = Resp::Matches(vec![
            RootMatch {
                qt_below: 3,
                depth: 96,
                block: bref(0, 1),
                meta: mref(0, 0),
                node_slot: 0,
                descend: None,
            };
            8
        ]);
        let mut enc = Enc::new();
        enc.begin_frame();
        resp.encode_frame(&mut enc);
        let encoded = enc.end_frame();
        assert!(
            encoded < resp.wire_words(),
            "compact {} >= plain {}",
            encoded,
            resp.wire_words()
        );
    }

    proptest! {
        #[test]
        fn arbitrary_tries_roundtrip(
            raw_keys in proptest::collection::vec(any::<u64>(), 1..24),
            deletes in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let keys: Vec<u64> = raw_keys
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut t = Trie::new();
            for &k in &keys {
                t.insert(&BitStr::from_u64(k, 64), k ^ 0x5a5a);
            }
            for idx in &deletes {
                let k = keys[idx.index(keys.len())];
                t.delete(BitStr::from_u64(k, 64).as_slice());
            }
            let mut enc = Enc::new();
            t.enc(&mut enc);
            let mut dec = Dec::new(enc.words());
            let back = Trie::dec(&mut dec).unwrap();
            prop_assert_eq!(back.items(), t.items());
            prop_assert_eq!(back.id_bound(), t.id_bound());
            back.check_invariants(true);
        }

        #[test]
        fn arbitrary_req_groups_roundtrip(
            slots in proptest::collection::vec(0u32..1000, 1..12),
            nodes in proptest::collection::vec(any::<u32>(), 1..12),
            depths in proptest::collection::vec(any::<u64>(), 1..12),
        ) {
            let n = slots.len().min(nodes.len()).min(depths.len());
            let msgs: Vec<Req> = (0..n)
                .map(|i| match i % 4 {
                    0 => Req::ReadKey { slot: slots[i], node: nodes[i], depth: depths[i] },
                    1 => Req::FetchBlock { slot: slots[i] },
                    2 => Req::SetMirror {
                        slot: slots[i],
                        node: nodes[i],
                        child: BlockRef { module: i as u32, slot: slots[i] },
                    },
                    _ => Req::DeleteKey { slot: slots[i], node: nodes[i], depth: depths[i] },
                })
                .collect();
            roundtrip_group(&msgs);
        }

        #[test]
        fn arbitrary_labels_roundtrip_shared(
            raw in proptest::collection::vec((any::<u64>(), 0usize..=64), 1..12),
        ) {
            let labels: Vec<BitStr> =
                raw.iter().map(|&(v, l)| BitStr::from_u64(v, l)).collect();
            let mut enc = Enc::new();
            for b in &labels {
                put_shared(&mut enc, stream::LABEL_REM, b);
            }
            let mut dec = Dec::new(enc.words());
            for b in &labels {
                let back = get_shared(&mut dec, stream::LABEL_REM).unwrap();
                prop_assert_eq!(&back, b);
            }
        }
    }
}
