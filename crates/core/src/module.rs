//! Module-local state and the PIM-side programs.
//!
//! Each module's PIM memory holds three kinds of objects (paper §4.2/§4.4):
//!
//! * [`DataBlock`] — a piece of the data trie (`O(K_B)` words): a trie whose
//!   root is the block root (empty edge), with *mirror leaves* standing in
//!   for child-block roots;
//! * [`MetaBlock`] — a piece of the meta-tree: meta-nodes for the block
//!   roots it covers, a two-layer [`HashIndex`] over them (plus the roots of
//!   its child meta-blocks for descent), and links forming the meta-block
//!   tree;
//! * the replicated **master table** — the two-layer index over the roots
//!   of all meta-block trees.
//!
//! [`handle`] is the module program: one BSP round delivers a vector of
//! [`Req`] messages and returns one [`Resp`] per request, metering PIM work.

use crate::hvm::{hash_match_piece, HashIndex, IndexEntry, PieceMatch, QueryPiece};
use crate::refs::{BlockRef, MetaRef, Slab, TrieMsg};
use bitstr::hash::{HashVal, HashWidth};
use bitstr::BitStr;
use pim_sim::{PimCtx, Wire};
use std::collections::BTreeMap;
use trie_core::{NodeId, Trie, TriePos, Value};

/// Sentinel value marking a mirror leaf inside a block trie: it pins the
/// leaf against path compression and is filtered from user-visible values.
pub const MIRROR_VALUE: Value = u64::MAX;

/// A stored piece of the data trie.
pub struct DataBlock {
    /// The block trie; `NodeId::ROOT` is the block root (empty edge).
    pub trie: Trie,
    /// Global bit-depth of the block root.
    pub root_depth: u64,
    /// Node hash of the block root's full string.
    pub root_hash: HashVal,
    /// Last `min(w, depth)` bits of the root string (§4.4.3 verification).
    pub s_last: BitStr,
    /// Hash of the root string's longest w-aligned prefix.
    pub pre_hash: HashVal,
    /// Root string bits after that prefix (< w bits).
    pub rem: BitStr,
    /// Parent block (None for the trie root block).
    pub parent: Option<BlockRef>,
    /// Mirror leaves: block node id → child block.
    pub mirrors: BTreeMap<NodeId, BlockRef>,
    /// Where this block's meta node lives: (meta-block, node slot). Wired
    /// by `SetBlockMeta` right after placement.
    pub meta: Option<(MetaRef, u32)>,
}

impl DataBlock {
    /// Block weight in words.
    pub fn weight(&self) -> u64 {
        self.trie.size_words() as u64
    }

    /// Number of real keys (mirrors excluded).
    pub fn n_real_keys(&self) -> usize {
        self.trie.n_keys() - self.mirrors.len()
    }
}

/// Matching target stored in a meta-block's index.
#[derive(Clone, Copy, Debug)]
pub enum LocalTarget {
    /// One of this meta-block's own meta nodes.
    Own(u32),
    /// The root of the `i`-th child meta-block (descend for deeper roots).
    Child(u32),
}

/// Payload of one meta-tree node (one per covered block root).
#[derive(Clone, Debug)]
pub struct MetaNode {
    /// The block this node describes.
    pub block: BlockRef,
    /// This node's entry slot in the meta-block's index.
    pub entry_slot: u32,
    /// Parent meta node within this meta-block (None for the root).
    pub parent: Option<u32>,
    /// Child meta nodes within this meta-block.
    pub children: Vec<u32>,
    /// Root string depth.
    pub depth: u64,
    /// Full node hash of the root string.
    pub hash: HashVal,
}

/// A child meta-block hanging below this one in the meta-block tree.
#[derive(Clone, Debug)]
pub struct MetaChildInfo {
    /// The child meta-block.
    pub mref: MetaRef,
    /// Own meta node whose block subtree contains the child's coverage.
    pub under_node: u32,
    /// Entry slot for the child's root in this meta-block's index.
    pub entry_slot: u32,
    /// The child's root block and its meta-node slot inside the child.
    pub root_block: BlockRef,
    /// Meta node slot of the child's root within the child meta-block.
    pub root_node_slot: u32,
}

/// A piece of the meta-tree stored on one module.
pub struct MetaBlock {
    /// Two-layer index over own nodes and child meta roots.
    pub index: HashIndex<LocalTarget>,
    /// Meta nodes (one per covered block root).
    pub nodes: Slab<MetaNode>,
    /// Slot of this meta-block's root node.
    pub root_node: u32,
    /// Parent meta-block in the meta-block tree.
    pub parent: Option<MetaRef>,
    /// Child meta-blocks.
    pub children: Vec<MetaChildInfo>,
    /// Chunks (separate meta-block trees) whose parent block is covered
    /// here: (chunk root meta-block, own node it hangs under).
    pub chunk_children: Vec<(MetaRef, u32)>,
}

impl MetaBlock {
    /// Number of meta nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Space in words.
    pub fn space_words(&self) -> u64 {
        self.index.space_words() + self.nodes.len() as u64 * 4
    }
}

/// Master-table target: a meta-block-tree root.
#[derive(Clone, Copy, Debug)]
pub struct MasterTarget {
    /// The chunk's root meta-block.
    pub mref: MetaRef,
    /// The chunk root's block.
    pub root_block: BlockRef,
    /// Meta node slot of the root inside `mref`.
    pub root_node_slot: u32,
}

/// One module's PIM memory.
pub struct ModuleState {
    /// Data-trie blocks.
    pub blocks: Slab<DataBlock>,
    /// Meta-tree pieces.
    pub metas: Slab<MetaBlock>,
    /// Replicated master table (meta-block-tree roots), keyed for removal
    /// by the chunk's root meta-block ref.
    pub master: HashIndex<MasterTarget>,
    /// master removal map: chunk mref -> master entry slot
    pub master_slots: BTreeMap<MetaRef, u32>,
    /// digest width shared by all indexes on this module
    pub width: HashWidth,
    /// Set by the host's crash callback when this module's memory was
    /// wiped; until cleared by `Req::ResetModule` every sealed request
    /// is answered with `Resp::Rebooted` instead of touching (dangling)
    /// slots.
    pub crashed: bool,
    /// At-most-once reply cache of the sealed-wire protocol: replies of
    /// the current round sequence keyed by `(seq, idx)`, so a retried
    /// request is answered from cache instead of being re-executed.
    pub reply_cache: BTreeMap<(u64, u32), Resp>,
    /// Round sequence the reply cache belongs to.
    pub cache_seq: u64,
    /// Meter this module's block space with Bonsai-style compact node
    /// tables (see [`crate::bonsai`]). Accounting only: block weights,
    /// partitioning and round counts never consult this flag. Set from
    /// [`PimTrieConfig::compact_nodes`](crate::PimTrieConfig) and
    /// preserved across crash wipes and `Req::ResetModule`.
    pub compact_nodes: bool,
}

impl ModuleState {
    /// Fresh empty module.
    pub fn new(width: HashWidth) -> Self {
        ModuleState {
            blocks: Slab::new(),
            metas: Slab::new(),
            master: HashIndex::new(width),
            master_slots: BTreeMap::new(),
            width,
            crashed: false,
            reply_cache: BTreeMap::new(),
            cache_seq: 0,
            compact_nodes: false,
        }
    }

    /// Words of PIM memory in use (space experiments). With
    /// [`compact_nodes`](Self::compact_nodes) set, each block is priced
    /// at the size of its Bonsai-style
    /// [`CompactNodeTable`](crate::bonsai::CompactNodeTable) (built
    /// transiently — this accessor is experiment-only) instead of the
    /// arena trie's `weight()`.
    pub fn space_words(&self) -> u64 {
        let blocks: u64 = self
            .blocks
            .iter()
            .map(|(_, b)| {
                if self.compact_nodes {
                    crate::bonsai::CompactNodeTable::from_trie(&b.trie).space_words()
                } else {
                    b.weight()
                }
            })
            .sum();
        let metas: u64 = self.metas.iter().map(|(_, m)| m.space_words()).sum();
        blocks + metas + self.master.space_words()
    }
}

/// A verified root match, in query-trie coordinates.
#[derive(Clone, Copy, Debug)]
pub struct RootMatch {
    /// Query-trie node below (or at) the matched position.
    pub qt_below: u32,
    /// Global bit-depth of the matched root.
    pub depth: u64,
    /// The matched block.
    pub block: BlockRef,
    /// Meta-block holding the block's meta node.
    pub meta: MetaRef,
    /// Meta node slot within `meta`.
    pub node_slot: u32,
    /// Meta-block tree to descend for deeper roots, if this match is a
    /// chunk/meta-block root.
    pub descend: Option<MetaRef>,
}

impl Wire for RootMatch {
    fn wire_words(&self) -> u64 {
        5
    }
}

/// Result of bit-exact in-block matching for one query-piece node.
#[derive(Clone, Copy, Debug)]
pub struct BlockNodeResult {
    /// Query-trie node id.
    pub tag: u32,
    /// Matched depth of the path to this node (bits).
    pub depth: u64,
    /// Anchor: data node in the block whose edge holds the stop position.
    pub anchor_node: u32,
    /// Bits of the anchor node's edge above the stop position
    /// (`edge_off` semantics; `= edge.len()` means at the node itself).
    pub anchor_off: u32,
    /// The stop position *is* a mirror leaf and the query continues —
    /// a deeper block should have matched (collision indicator).
    pub at_mirror: bool,
    /// The stop position is exactly a mirror leaf: the canonical anchor is
    /// the child block's root instead.
    pub redirect: Option<BlockRef>,
}

impl Wire for BlockNodeResult {
    fn wire_words(&self) -> u64 {
        5
    }
}

/// Summary of one index entry, pulled to the CPU (the pull side of
/// push-pull; `O(1)` words each, `O(log² P)` per meta-block).
#[derive(Clone, Debug)]
pub struct EntrySummary {
    /// See [`IndexEntry`].
    pub depth: u64,
    /// See [`IndexEntry`].
    pub pre_hash: HashVal,
    /// See [`IndexEntry`].
    pub rem: BitStr,
    /// See [`IndexEntry`].
    pub s_last: BitStr,
    /// Resolved match payload.
    pub target: RootMatchTarget,
}

/// Target info carried by a pulled entry summary.
#[derive(Clone, Copy, Debug)]
pub struct RootMatchTarget {
    /// The block.
    pub block: BlockRef,
    /// Owning meta-block.
    pub meta: MetaRef,
    /// Meta node slot.
    pub node_slot: u32,
    /// Descend target, if any.
    pub descend: Option<MetaRef>,
}

impl Wire for EntrySummary {
    fn wire_words(&self) -> u64 {
        // depth + hash + rem + s_last (≤1 word each) + target refs
        8
    }
}

/// Requests the host can send to a module in one round.
#[derive(Clone)]
pub enum Req {
    /// Match a piece against the replicated master table.
    MatchMaster(QueryPiece),
    /// Match a piece against one meta-block's index (push).
    MatchMeta {
        /// target meta-block slot
        slot: u32,
        /// query piece rooted at the matched position
        piece: QueryPiece,
    },
    /// Bit-exact match of a piece against a data block (push).
    MatchBlock {
        /// target block slot
        slot: u32,
        /// query piece rooted at the block root
        piece: QueryPiece,
    },
    /// Pull a meta-block's entries (and children) to the CPU.
    FetchMeta {
        /// meta-block slot
        slot: u32,
    },
    /// Pull a whole data block to the CPU.
    FetchBlock {
        /// block slot
        slot: u32,
    },
    /// Graft unmatched query subtrees at anchors inside one block (batch
    /// insert). Items must be sorted by (anchor node, offset) so the module
    /// can adjust offsets across successive edge splits.
    GraftMany {
        /// block slot
        slot: u32,
        /// grafts in ascending anchor order
        grafts: Vec<GraftMsg>,
    },
    /// Read the value stored at an exact node (point lookup).
    ReadKey {
        /// block slot
        slot: u32,
        /// candidate node
        node: u32,
        /// the key's global bit-depth (anchor validity check)
        depth: u64,
    },
    /// Delete a key at an exact node (batch delete).
    DeleteKey {
        /// block slot
        slot: u32,
        /// exact data node holding the key
        node: u32,
        /// the key's global bit-depth; the node qualifies only if its own
        /// depth matches (depths survive sibling splices within a batch,
        /// unlike edge offsets)
        depth: u64,
    },
    /// Inline an undersized child block's content at its mirror leaf.
    MergeChild {
        /// block slot
        slot: u32,
        /// the child block being dissolved
        child: BlockRef,
        /// the child's trie (root = the mirror position)
        subtree: TrieMsg,
    },
    /// Replace a block's trie and mirrors in place (repartition keeps the
    /// root piece at the same address).
    ReplaceBlock {
        /// block slot
        slot: u32,
        /// new trie
        trie: TrieMsg,
        /// new mirror list
        mirrors: Vec<(u32, BlockRef)>,
    },
    /// Remove one child meta-block from the children list.
    RemoveMetaChild {
        /// meta-block slot
        slot: u32,
        /// the child to detach
        mref: MetaRef,
    },
    /// Install a new data block (repartition / build).
    PutBlock(PutBlockMsg),
    /// Install a new meta-block.
    PutMeta(PutMetaMsg),
    /// Replace an existing meta-block's content in place (rebuilds keep
    /// the chunk's address stable).
    ReplaceMeta {
        /// existing meta-block slot
        slot: u32,
        /// new content
        msg: PutMetaMsg,
    },
    /// Pull a meta-block's full structure (nodes, links, children) for a
    /// CPU-side rebuild.
    FetchMetaFull {
        /// meta-block slot
        slot: u32,
    },
    /// Remove a data block.
    DropBlock {
        /// block slot
        slot: u32,
    },
    /// Remove a meta-block.
    DropMeta {
        /// meta-block slot
        slot: u32,
    },
    /// Point a block's mirror leaf at a (new) child block.
    SetMirror {
        /// block slot
        slot: u32,
        /// mirror leaf node id
        node: u32,
        /// child block
        child: BlockRef,
    },
    /// Update a block's parent pointer.
    SetParent {
        /// block slot
        slot: u32,
        /// new parent
        parent: Option<BlockRef>,
    },
    /// Update a block's meta location.
    SetBlockMeta {
        /// block slot
        slot: u32,
        /// owning meta-block
        meta: MetaRef,
        /// node slot within it
        meta_slot: u32,
    },
    /// Insert meta nodes for new blocks under an existing meta node,
    /// preserving the block-tree shape: `parents[i]` is the index (into
    /// `nodes`) of node i's parent, or `None` to hang under `parent_node`.
    AddMetaNodes {
        /// meta-block slot
        slot: u32,
        /// meta node of the repartitioned block (default parent)
        parent_node: u32,
        /// new nodes' payloads
        nodes: Vec<NewMetaNode>,
        /// intra-batch parent links (index into `nodes`)
        parents: Vec<Option<u32>>,
    },
    /// Remove a meta node (block vanished). Children are re-parented to
    /// the removed node's parent.
    RemoveMetaNode {
        /// meta-block slot
        slot: u32,
        /// node to remove
        node: u32,
    },
    /// Update the meta-block's parent pointer.
    SetMetaParent {
        /// meta-block slot
        slot: u32,
        /// new parent
        parent: Option<MetaRef>,
    },
    /// Add an entry to the replicated master table (broadcast).
    MasterAdd(MasterAddMsg),
    /// Remove a chunk from the replicated master table (broadcast).
    MasterRemove {
        /// chunk root meta-block
        mref: MetaRef,
    },
    /// Fetch a block's subtree below a position plus the child blocks
    /// hanging under it (SubtreeQuery assembly).
    FetchSubtree {
        /// block slot
        slot: u32,
        /// anchor node
        node: u32,
        /// anchor edge offset
        off: u32,
    },
    /// Read a block root's identity for slow-path descent.
    DescendBlock {
        /// block slot
        slot: u32,
        /// query bits below the block root (at most the remaining key)
        bits: crate::refs::BitsMsg,
    },
    /// Read a block's vitals (weight / keys / children) without pulling
    /// its content — the adaptive cold-merge pass filters candidates on
    /// this before committing to a full merge.
    BlockStats {
        /// block slot
        slot: u32,
    },
    /// Ask whether a meta node is its meta-block's *root* node. Root meta
    /// nodes are additionally referenced by the parent meta-block's child
    /// list (or the master table), so the host excludes those blocks from
    /// migration rather than chase every replica of the address.
    MetaNodeKind {
        /// meta-block slot
        slot: u32,
        /// meta node to classify
        node: u32,
    },
    /// Rewrite the mirror leaf that points at `old` to point at `new`
    /// (block migration retargets the parent without re-shipping it).
    RelinkMirror {
        /// block slot (the parent of the moved block)
        slot: u32,
        /// the moved block's old address
        old: BlockRef,
        /// its new address
        new: BlockRef,
    },
    /// Rewrite one meta node's block address (block migration keeps the
    /// meta tree in step with the moved data block).
    SetMetaNodeBlock {
        /// meta-block slot
        slot: u32,
        /// meta node of the moved block
        node: u32,
        /// the block's new address
        block: BlockRef,
    },
    /// Wipe this module back to a fresh empty state and clear its crash
    /// flag (the first step of the host's rebuild-after-crash ladder).
    ResetModule,
}

/// One graft: an unmatched query subtree and where it attaches.
#[derive(Clone)]
pub struct GraftMsg {
    /// anchor node id
    pub anchor_node: u32,
    /// anchor edge offset (bits of the anchor node's edge above the
    /// attach position)
    pub anchor_off: u32,
    /// subtree to graft; its root is the anchor position (may carry a
    /// value = set-value at the anchor)
    pub subtree: TrieMsg,
}

/// New-block payload.
#[derive(Clone)]
pub struct PutBlockMsg {
    /// the block trie
    pub trie: TrieMsg,
    /// root depth in bits
    pub root_depth: u64,
    /// root string hash
    pub root_hash: HashVal,
    /// trailing bits of the root string
    pub s_last: crate::refs::BitsMsg,
    /// hash of the w-aligned prefix of the root string
    pub pre_hash: HashVal,
    /// root string bits after that prefix
    pub rem: crate::refs::BitsMsg,
    /// parent block
    pub parent: Option<BlockRef>,
    /// mirror map: node id → child block
    pub mirrors: Vec<(u32, BlockRef)>,
}

/// New meta-block payload (built on the CPU during rebuilds).
#[derive(Clone)]
pub struct PutMetaMsg {
    /// nodes: (payload, parent index within this vec or existing-root
    /// marker)
    pub nodes: Vec<NewMetaNode>,
    /// index of the root node within `nodes`
    pub root_idx: u32,
    /// parent meta-block
    pub parent: Option<MetaRef>,
    /// children meta-blocks
    pub children: Vec<NewMetaChild>,
    /// chunk children: (chunk mref, index into `nodes` it hangs under)
    pub chunks: Vec<(MetaRef, u32)>,
    /// parent links: for node i, Some(j) = nodes[j] is its parent
    pub parents: Vec<Option<u32>>,
}

/// Payload for one new meta node.
#[derive(Clone)]
pub struct NewMetaNode {
    /// the described block
    pub block: BlockRef,
    /// root string depth
    pub depth: u64,
    /// full node hash
    pub hash: HashVal,
    /// hash of the w-aligned prefix
    pub pre_hash: HashVal,
    /// sub-word suffix
    pub rem: crate::refs::BitsMsg,
    /// trailing w bits
    pub s_last: crate::refs::BitsMsg,
}

/// Payload for one meta-block-tree child registration.
#[derive(Clone)]
pub struct NewMetaChild {
    /// the child meta-block
    pub mref: MetaRef,
    /// own node slot it hangs under
    pub under_node: u32,
    /// the child's root block
    pub root_block: BlockRef,
    /// root meta node slot within the child
    pub root_node_slot: u32,
    /// root string depth
    pub depth: u64,
    /// pre hash of the child root string
    pub pre_hash: HashVal,
    /// rem bits
    pub rem: crate::refs::BitsMsg,
    /// trailing bits
    pub s_last: crate::refs::BitsMsg,
}

/// Master-table entry payload.
#[derive(Clone)]
pub struct MasterAddMsg {
    /// chunk root meta-block
    pub mref: MetaRef,
    /// chunk root block
    pub root_block: BlockRef,
    /// root meta node slot within `mref`
    pub root_node_slot: u32,
    /// root depth
    pub depth: u64,
    /// pre hash
    pub pre_hash: HashVal,
    /// rem bits
    pub rem: crate::refs::BitsMsg,
    /// trailing bits
    pub s_last: crate::refs::BitsMsg,
}

impl Wire for Req {
    fn wire_words(&self) -> u64 {
        match self {
            Req::MatchMaster(p) => 1 + p.wire_words(),
            Req::MatchMeta { piece, .. } => 2 + piece.wire_words(),
            Req::MatchBlock { piece, .. } => 2 + piece.wire_words(),
            Req::FetchMeta { .. } | Req::FetchBlock { .. } => 1,
            Req::GraftMany { grafts, .. } => {
                1 + grafts
                    .iter()
                    .map(|g| 2 + g.subtree.wire_words())
                    .sum::<u64>()
            }
            Req::ReadKey { .. } => 3,
            Req::DeleteKey { .. } => 3,
            Req::MergeChild { subtree, .. } => 2 + subtree.wire_words(),
            Req::ReplaceBlock { trie, mirrors, .. } => {
                1 + trie.wire_words() + mirrors.len() as u64 * 2
            }
            Req::RemoveMetaChild { .. } => 2,
            Req::PutBlock(p) => {
                4 + p.trie.wire_words() + p.s_last.wire_words() + p.mirrors.len() as u64 * 2
            }
            Req::PutMeta(p) | Req::ReplaceMeta { msg: p, .. } => {
                3 + p.nodes.len() as u64 * 8
                    + p.children.len() as u64 * 8
                    + p.chunks.len() as u64 * 2
            }
            Req::FetchMetaFull { .. } => 1,
            Req::DropBlock { .. } | Req::DropMeta { .. } => 1,
            Req::SetMirror { .. } => 3,
            Req::SetParent { .. } => 2,
            Req::SetBlockMeta { .. } => 3,
            Req::AddMetaNodes { nodes, .. } => 2 + nodes.len() as u64 * 9,
            Req::RemoveMetaNode { .. } => 2,
            Req::SetMetaParent { .. } => 2,
            Req::MasterAdd(_) => 8,
            Req::MasterRemove { .. } => 1,
            Req::FetchSubtree { .. } => 3,
            Req::DescendBlock { bits, .. } => 1 + bits.wire_words(),
            Req::BlockStats { .. } => 1,
            Req::MetaNodeKind { .. } => 2,
            Req::RelinkMirror { .. } => 5,
            Req::SetMetaNodeBlock { .. } => 4,
            Req::ResetModule => 1,
        }
    }

    /// Structural compact frame (see [`crate::codec`]).
    fn encode_frame(&self, enc: &mut pim_sim::Enc) {
        crate::codec::Encode::enc(self, enc);
    }
}

/// Responses, one per request.
#[derive(Clone)]
pub enum Resp {
    /// Root matches from a master/meta match.
    Matches(Vec<RootMatch>),
    /// Per-node results of an in-block match.
    BlockResults {
        /// per piece-node outcomes
        results: Vec<BlockNodeResult>,
        /// the block root's identity failed verification (§4.4.3)
        collision: bool,
    },
    /// Pulled meta-block content.
    MetaSummary {
        /// entries (own nodes and children)
        entries: Vec<EntrySummary>,
    },
    /// Pulled block content.
    BlockData(BlockDataOut),
    /// Pulled full meta-block structure (CPU-side rebuilds).
    MetaFull(MetaFullOut),
    /// Structural-op acknowledgement with the block's new vitals.
    BlockVitals {
        /// weight in words
        weight: u64,
        /// real keys
        keys: u64,
        /// number of child blocks (mirrors)
        children: u64,
        /// change in real keys caused by this op
        keys_delta: i64,
        /// the op detected an inconsistency (hash collision) — redo
        collision: bool,
    },
    /// Slot assigned by a Put op.
    Placed {
        /// allocated slot
        slot: u32,
        /// slots of inserted meta nodes (AddMetaNodes/PutMeta), in input
        /// order
        node_slots: Vec<u32>,
        /// resulting object size (block weight / meta node count)
        count: u64,
    },
    /// Meta-block vitals after a meta op.
    MetaVitals {
        /// node count
        nodes: u64,
        /// the meta-block's parent (None = chunk root)
        parent: Option<MetaRef>,
    },
    /// Subtree pieces for SubtreeQuery.
    Subtree {
        /// the block's subtrie below the anchor (keys relative to anchor)
        trie: TrieMsg,
        /// mirror leaves inside it: (node id in returned trie, child block)
        children: Vec<(u32, BlockRef)>,
        /// anchor's depth (bits)
        depth: u64,
    },
    /// Slow-path descent step result.
    Descend(DescendOut),
    /// A point-lookup result.
    Value(Option<Value>),
    /// Generic OK.
    Ok,
    /// The sealed request failed its integrity check and was not
    /// executed; the host should retry it.
    CorruptReq,
    /// This module lost its memory in a crash and has not been reset yet;
    /// the host must abort the operation and rebuild
    /// ([`Req::ResetModule`]).
    Rebooted,
}

/// One meta node with its stored metadata, as pulled for a rebuild.
#[derive(Clone)]
pub struct MetaFullNode {
    /// node slot within the meta-block
    pub slot: u32,
    /// the block it describes
    pub block: BlockRef,
    /// parent node slot
    pub parent: Option<u32>,
    /// root string depth
    pub depth: u64,
    /// full node hash
    pub hash: HashVal,
    /// pre hash
    pub pre_hash: HashVal,
    /// rem bits
    pub rem: BitStr,
    /// trailing bits
    pub s_last: BitStr,
}

/// Full meta-block structure.
#[derive(Clone)]
#[allow(dead_code)] // `parent` is part of the pulled wire contract
pub struct MetaFullOut {
    /// all nodes
    pub nodes: Vec<MetaFullNode>,
    /// root node slot
    pub root_node: u32,
    /// parent meta-block
    pub parent: Option<MetaRef>,
    /// child meta-blocks with full root metadata
    pub children: Vec<(MetaChildInfo, u64, HashVal, BitStr, BitStr)>,
    /// chunk children
    pub chunk_children: Vec<(MetaRef, u32)>,
}

fn meta_full(mb: &MetaBlock) -> MetaFullOut {
    let nodes = mb
        .nodes
        .iter()
        .map(|(slot, n)| {
            let e = mb.index.get(n.entry_slot).expect("entry missing");
            MetaFullNode {
                slot,
                block: n.block,
                parent: n.parent,
                depth: n.depth,
                hash: n.hash,
                pre_hash: e.pre_hash,
                rem: e.rem.clone(),
                s_last: e.s_last.clone(),
            }
        })
        .collect();
    let children = mb
        .children
        .iter()
        .map(|c| {
            let e = mb.index.get(c.entry_slot).expect("child entry missing");
            (
                c.clone(),
                e.depth,
                e.pre_hash,
                e.rem.clone(),
                e.s_last.clone(),
            )
        })
        .collect();
    MetaFullOut {
        nodes,
        root_node: mb.root_node,
        parent: mb.parent,
        children,
        chunk_children: mb.chunk_children.clone(),
    }
}

/// Pulled block content.
#[derive(Clone)]
pub struct BlockDataOut {
    /// the block trie
    pub trie: TrieMsg,
    /// root depth
    pub root_depth: u64,
    /// root hash
    pub root_hash: HashVal,
    /// trailing bits
    pub s_last: crate::refs::BitsMsg,
    /// hash of the w-aligned prefix
    pub pre_hash: HashVal,
    /// bits after that prefix
    pub rem: crate::refs::BitsMsg,
    /// parent
    pub parent: Option<BlockRef>,
    /// mirrors
    pub mirrors: Vec<(u32, BlockRef)>,
    /// owning meta-block and node slot
    pub meta: Option<(MetaRef, u32)>,
}

/// One slow-path step: how far the bits matched inside this block and
/// which child block to continue in.
#[derive(Clone, Debug)]
pub struct DescendOut {
    /// bits consumed inside this block
    pub consumed: u64,
    /// continue here (match reached a mirror with bits remaining)
    pub next: Option<BlockRef>,
    /// anchor node at the stop position
    pub anchor_node: u32,
    /// anchor edge offset
    pub anchor_off: u32,
}

impl Wire for Resp {
    fn wire_words(&self) -> u64 {
        match self {
            Resp::Matches(v) => 1 + v.iter().map(Wire::wire_words).sum::<u64>(),
            Resp::BlockResults { results, .. } => {
                1 + results.iter().map(Wire::wire_words).sum::<u64>()
            }
            Resp::MetaSummary { entries } => 1 + entries.iter().map(Wire::wire_words).sum::<u64>(),
            Resp::BlockData(b) => 5 + b.trie.wire_words() + b.mirrors.len() as u64 * 2,
            Resp::MetaFull(m) => {
                2 + m.nodes.len() as u64 * 8
                    + m.children.len() as u64 * 8
                    + m.chunk_children.len() as u64 * 2
            }
            Resp::BlockVitals { .. } => 5,
            Resp::Placed { node_slots, .. } => 3 + node_slots.len() as u64,
            Resp::MetaVitals { .. } => 2,
            Resp::Subtree { trie, children, .. } => {
                2 + trie.wire_words() + children.len() as u64 * 2
            }
            Resp::Descend(_) => 4,
            Resp::Value(_) => 2,
            Resp::Ok => 1,
            Resp::CorruptReq | Resp::Rebooted => 1,
        }
    }

    /// Structural compact frame (see [`crate::codec`]).
    fn encode_frame(&self, enc: &mut pim_sim::Enc) {
        crate::codec::Encode::enc(self, enc);
    }
}

/// The module program: execute one request.
pub fn handle(
    ctx: &mut PimCtx<'_, ModuleState>,
    hasher: &bitstr::hash::PolyHasher,
    req: Req,
) -> Resp {
    let my = ctx.id as u32;
    let state = &mut *ctx.state;
    let mut work = 0u64;
    let resp = match req {
        Req::MatchMaster(piece) => {
            let ms = hash_match_piece(hasher, &piece, &state.master, &mut work);
            Resp::Matches(
                ms.into_iter()
                    .map(|m| RootMatch {
                        qt_below: m.qt_below,
                        depth: m.depth,
                        block: m.target.root_block,
                        meta: m.target.mref,
                        node_slot: m.target.root_node_slot,
                        descend: Some(m.target.mref),
                    })
                    .collect(),
            )
        }
        Req::MatchMeta { slot, piece } => {
            let mb = state.metas.get(slot).expect("MatchMeta: bad slot");
            let ms = hash_match_piece(hasher, &piece, &mb.index, &mut work);
            Resp::Matches(ms.iter().map(|m| meta_match(mb, slot, my, m)).collect())
        }
        Req::MatchBlock { slot, piece } => {
            let b = state.blocks.get(slot).expect("MatchBlock: bad slot");
            work += piece.size_words();
            // §4.4.3 verification: the piece's root_rem must be a suffix of
            // the block root's S_last (both are trailing bits of the same
            // string if the hash match was genuine).
            let collision =
                b.root_depth != piece.root_depth || !rem_consistent(&b.s_last, &piece.root_rem);
            let results = if collision {
                Vec::new()
            } else {
                match_block_local(b, &piece)
            };
            Resp::BlockResults { results, collision }
        }
        Req::FetchMeta { slot } => {
            let mb = state.metas.get(slot).expect("FetchMeta: bad slot");
            work += mb.n_nodes() as u64;
            Resp::MetaSummary {
                entries: summarize_meta(mb, slot, my),
            }
        }
        Req::FetchBlock { slot } => {
            let b = state.blocks.get(slot).expect("FetchBlock: bad slot");
            work += b.weight();
            Resp::BlockData(BlockDataOut {
                trie: TrieMsg(b.trie.clone()),
                root_depth: b.root_depth,
                root_hash: b.root_hash,
                s_last: crate::refs::BitsMsg(b.s_last.clone()),
                pre_hash: b.pre_hash,
                rem: crate::refs::BitsMsg(b.rem.clone()),
                parent: b.parent,
                mirrors: b.mirrors.iter().map(|(n, r)| (n.0, *r)).collect(),
                meta: b.meta,
            })
        }
        Req::GraftMany { slot, grafts } => {
            let b = state.blocks.get_mut(slot).expect("Graft: bad slot");
            let before = b.n_real_keys() as i64;
            let mut collision = false;
            // Offset adjustment across successive splits of the same edge:
            // splitting at offset o keeps the lower part on the node, so a
            // later anchor at original offset o' > o sits at o' - o.
            let mut shift: BTreeMap<u32, u32> = BTreeMap::new();
            for g in grafts {
                work += g.subtree.0.size_words() as u64 + 4;
                let s = shift.get(&g.anchor_node).copied().unwrap_or(0);
                debug_assert!(g.anchor_off >= s || g.anchor_off == 0);
                let off = g.anchor_off.saturating_sub(s);
                if off > 0 && (off as usize) < b.trie.node(NodeId(g.anchor_node)).edge.len() {
                    shift.insert(g.anchor_node, s + off);
                }
                collision |= !graft_local(&mut b.trie, g.anchor_node, off, g.subtree.0);
            }
            Resp::BlockVitals {
                weight: b.weight(),
                keys: b.n_real_keys() as u64,
                children: b.mirrors.len() as u64,
                keys_delta: b.n_real_keys() as i64 - before,
                collision,
            }
        }
        Req::ReadKey { slot, node, depth } => {
            let b = state.blocks.get(slot).expect("ReadKey: bad slot");
            work += 2;
            let id = NodeId(node);
            let v = (b.trie.is_live(id) && b.root_depth + b.trie.node(id).depth as u64 == depth)
                .then(|| b.trie.node(id).value)
                .flatten()
                .filter(|v| *v != MIRROR_VALUE);
            Resp::Value(v)
        }
        Req::DeleteKey { slot, node, depth } => {
            let b = state.blocks.get_mut(slot).expect("DeleteKey: bad slot");
            work += 4;
            let id = NodeId(node);
            // The key is stored here only if the anchor node sits exactly
            // at the key's depth (mid-edge anchors mean the key is absent).
            // An earlier delete in this very batch may have *freed* the
            // anchor through path compression — anchors of absent keys can
            // be plain branch nodes — so liveness is checked first.
            let at_node =
                b.trie.is_live(id) && b.root_depth + b.trie.node(id).depth as u64 == depth;
            let collision = if at_node
                && b.trie.node(id).value.is_some()
                && b.trie.node(id).value != Some(MIRROR_VALUE)
            {
                delete_at_node(&mut b.trie, id);
                false
            } else {
                true
            };
            Resp::BlockVitals {
                weight: b.weight(),
                keys: b.n_real_keys() as u64,
                children: b.mirrors.len() as u64,
                keys_delta: if collision { 0 } else { -1 },
                collision,
            }
        }
        Req::MergeChild {
            slot,
            child,
            subtree,
        } => {
            let b = state.blocks.get_mut(slot).expect("MergeChild: bad slot");
            work += subtree.0.size_words() as u64 + 4;
            let node = b
                .mirrors
                .iter()
                .find(|(_, r)| **r == child)
                .map(|(n, _)| *n)
                .expect("MergeChild: child not mirrored here");
            b.mirrors.remove(&node);
            b.trie.unset_value(node);
            let elen = b.trie.node(node).edge.len();
            let ok = graft_local(&mut b.trie, node.0, elen as u32, subtree.0);
            debug_assert!(ok, "merge graft hit an occupied slot");
            b.trie.recompress_at(node);
            Resp::BlockVitals {
                weight: b.weight(),
                keys: b.n_real_keys() as u64,
                children: b.mirrors.len() as u64,
                keys_delta: 0,
                collision: !ok,
            }
        }
        Req::ReplaceBlock {
            slot,
            trie,
            mirrors,
        } => {
            let b = state.blocks.get_mut(slot).expect("ReplaceBlock: bad slot");
            work += trie.0.size_words() as u64;
            b.trie = trie.0;
            b.mirrors = mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect();
            for n in b.mirrors.keys().copied().collect::<Vec<_>>() {
                if b.trie.node(n).value.is_none() {
                    b.trie.set_value(n, MIRROR_VALUE);
                }
            }
            Resp::BlockVitals {
                weight: b.weight(),
                keys: b.n_real_keys() as u64,
                children: b.mirrors.len() as u64,
                keys_delta: 0,
                collision: false,
            }
        }
        Req::RemoveMetaChild { slot, mref } => {
            let mb = state
                .metas
                .get_mut(slot)
                .expect("RemoveMetaChild: bad slot");
            if let Some(i) = mb.children.iter().position(|c| c.mref == mref) {
                let c = mb.children.remove(i);
                mb.index.remove(c.entry_slot);
                // child indices in the index targets shift — repair them,
                // keeping the per-rem slot order a re-insert would leave
                for (j, c) in mb.children.iter().enumerate().skip(i) {
                    mb.index
                        .set_target_requeue(c.entry_slot, LocalTarget::Child(j as u32));
                }
            }
            mb.chunk_children.retain(|(m, _)| *m != mref);
            Resp::MetaVitals {
                nodes: mb.n_nodes() as u64,
                parent: mb.parent,
            }
        }
        Req::PutBlock(p) => {
            work += p.trie.0.size_words() as u64;
            let mut block = DataBlock {
                trie: p.trie.0,
                root_depth: p.root_depth,
                root_hash: p.root_hash,
                s_last: p.s_last.0,
                pre_hash: p.pre_hash,
                rem: p.rem.0,
                parent: p.parent,
                mirrors: p.mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect(),
                meta: None, // wired via SetBlockMeta
            };
            for n in block.mirrors.keys().copied().collect::<Vec<_>>() {
                if block.trie.node(n).value.is_none() {
                    block.trie.set_value(n, MIRROR_VALUE);
                }
            }
            let weight = block.weight();
            let slot = state.blocks.insert(block);
            Resp::Placed {
                slot,
                node_slots: Vec::new(),
                count: weight,
            }
        }
        Req::PutMeta(p) => {
            work += p.nodes.len() as u64 * 2;
            let count = p.nodes.len() as u64;
            let (slot, node_slots) = put_meta(state, my, p, None);
            Resp::Placed {
                slot,
                node_slots,
                count,
            }
        }
        Req::ReplaceMeta { slot, msg } => {
            work += msg.nodes.len() as u64 * 2;
            let count = msg.nodes.len() as u64;
            let (slot, node_slots) = put_meta(state, my, msg, Some(slot));
            Resp::Placed {
                slot,
                node_slots,
                count,
            }
        }
        Req::FetchMetaFull { slot } => {
            let mb = state.metas.get(slot).expect("FetchMetaFull: bad slot");
            work += mb.n_nodes() as u64;
            Resp::MetaFull(meta_full(mb))
        }
        Req::DropBlock { slot } => {
            state.blocks.remove(slot);
            Resp::Ok
        }
        Req::DropMeta { slot } => {
            state.metas.remove(slot);
            Resp::Ok
        }
        Req::SetMirror { slot, node, child } => {
            let b = state.blocks.get_mut(slot).expect("SetMirror: bad slot");
            b.mirrors.insert(NodeId(node), child);
            // pin the mirror leaf against path compression
            if b.trie.node(NodeId(node)).value.is_none() {
                b.trie.set_value(NodeId(node), MIRROR_VALUE);
            }
            Resp::Ok
        }
        Req::SetParent { slot, parent } => {
            let b = state.blocks.get_mut(slot).expect("SetParent: bad slot");
            b.parent = parent;
            Resp::Ok
        }
        Req::SetBlockMeta {
            slot,
            meta,
            meta_slot,
        } => {
            let b = state.blocks.get_mut(slot).expect("SetBlockMeta: bad slot");
            b.meta = Some((meta, meta_slot));
            Resp::Ok
        }
        Req::AddMetaNodes {
            slot,
            parent_node,
            nodes,
            parents,
        } => {
            work += nodes.len() as u64 * 2;
            let mb = state.metas.get_mut(slot).expect("AddMetaNodes: bad slot");
            let mut node_slots = Vec::with_capacity(nodes.len());
            for n in &nodes {
                let entry_slot = mb.index.insert(IndexEntry {
                    depth: n.depth,
                    pre_hash: n.pre_hash,
                    rem: n.rem.0.clone(),
                    s_last: n.s_last.0.clone(),
                    target: LocalTarget::Own(0), // patched below
                });
                let ns = mb.nodes.insert(MetaNode {
                    block: n.block,
                    entry_slot,
                    parent: None, // wired below
                    children: Vec::new(),
                    depth: n.depth,
                    hash: n.hash,
                });
                mb.index.set_target(entry_slot, LocalTarget::Own(ns));
                node_slots.push(ns);
            }
            // wire parents mirroring the block tree
            for (i, par) in parents.iter().enumerate() {
                let ps = match par {
                    Some(j) => node_slots[*j as usize],
                    None => parent_node,
                };
                mb.nodes.get_mut(node_slots[i]).unwrap().parent = Some(ps);
                mb.nodes
                    .get_mut(ps)
                    .expect("parent meta node missing")
                    .children
                    .push(node_slots[i]);
            }
            let count = mb.n_nodes() as u64;
            Resp::Placed {
                slot,
                node_slots,
                count,
            }
        }
        Req::RemoveMetaNode { slot, node } => {
            let mb = state.metas.get_mut(slot).expect("RemoveMetaNode: bad slot");
            remove_meta_node(mb, node);
            Resp::MetaVitals {
                nodes: mb.n_nodes() as u64,
                parent: mb.parent,
            }
        }
        Req::SetMetaParent { slot, parent } => {
            let mb = state.metas.get_mut(slot).expect("SetMetaParent: bad slot");
            mb.parent = parent;
            Resp::Ok
        }
        Req::MasterAdd(m) => {
            let slot = state.master.insert(IndexEntry {
                depth: m.depth,
                pre_hash: m.pre_hash,
                rem: m.rem.0.clone(),
                s_last: m.s_last.0.clone(),
                target: MasterTarget {
                    mref: m.mref,
                    root_block: m.root_block,
                    root_node_slot: m.root_node_slot,
                },
            });
            state.master_slots.insert(m.mref, slot);
            Resp::Ok
        }
        Req::MasterRemove { mref } => {
            if let Some(slot) = state.master_slots.remove(&mref) {
                state.master.remove(slot);
            }
            Resp::Ok
        }
        Req::FetchSubtree { slot, node, off } => {
            let b = state.blocks.get(slot).expect("FetchSubtree: bad slot");
            work += b.weight();
            let (trie, children, depth) = subtree_local(b, NodeId(node), off as usize);
            Resp::Subtree {
                trie: TrieMsg(trie),
                children,
                depth,
            }
        }
        Req::DescendBlock { slot, bits } => {
            let b = state.blocks.get(slot).expect("DescendBlock: bad slot");
            work += bits.0.len().div_ceil(64) as u64 + 2;
            Resp::Descend(descend_local(b, &bits.0))
        }
        // The four migration requests tolerate a missing slot (vitals of
        // zeros / no-op ack) instead of panicking: the adapt planner works
        // from a traffic estimate that can momentarily lag the structure.
        Req::BlockStats { slot } => {
            work += 2;
            match state.blocks.get(slot) {
                Some(b) => Resp::BlockVitals {
                    weight: b.weight(),
                    keys: b.n_real_keys() as u64,
                    children: b.mirrors.len() as u64,
                    keys_delta: 0,
                    collision: false,
                },
                None => Resp::BlockVitals {
                    weight: 0,
                    keys: 0,
                    children: 0,
                    keys_delta: 0,
                    collision: true,
                },
            }
        }
        Req::MetaNodeKind { slot, node } => {
            work += 2;
            match state.metas.get(slot) {
                // `1` = the meta-block's root node (block address is also
                // replicated in the parent's child list / master table)
                Some(mb) => Resp::Value(Some(u64::from(node == mb.root_node))),
                None => Resp::Value(None),
            }
        }
        Req::RelinkMirror { slot, old, new } => {
            work += 2;
            if let Some(b) = state.blocks.get_mut(slot) {
                let node = b.mirrors.iter().find(|(_, r)| **r == old).map(|(n, _)| *n);
                if let Some(n) = node {
                    b.mirrors.insert(n, new);
                }
                debug_assert!(node.is_some(), "RelinkMirror: old child not mirrored");
            }
            Resp::Ok
        }
        Req::SetMetaNodeBlock { slot, node, block } => {
            work += 2;
            if let Some(mb) = state.metas.get_mut(slot) {
                if let Some(mn) = mb.nodes.get_mut(node) {
                    mn.block = block;
                }
            }
            Resp::Ok
        }
        Req::ResetModule => {
            // space-metering mode is configuration, not state: it
            // survives the wipe
            let compact = state.compact_nodes;
            *state = ModuleState::new(state.width);
            state.compact_nodes = compact;
            Resp::Ok
        }
    };
    ctx.work(work.max(1));
    resp
}

fn meta_match(mb: &MetaBlock, slot: u32, my: u32, m: &PieceMatch<LocalTarget>) -> RootMatch {
    match m.target {
        LocalTarget::Own(ns) => {
            let node = mb.nodes.get(ns).expect("match target node missing");
            RootMatch {
                qt_below: m.qt_below,
                depth: m.depth,
                block: node.block,
                meta: MetaRef { module: my, slot },
                node_slot: ns,
                descend: None,
            }
        }
        LocalTarget::Child(ci) => {
            let c = &mb.children[ci as usize];
            RootMatch {
                qt_below: m.qt_below,
                depth: m.depth,
                block: c.root_block,
                meta: c.mref,
                node_slot: c.root_node_slot,
                descend: Some(c.mref),
            }
        }
    }
}

fn summarize_meta(mb: &MetaBlock, slot: u32, my: u32) -> Vec<EntrySummary> {
    let mut out = Vec::with_capacity(mb.index.len());
    for (_, e) in mb.index.iter() {
        let target = match e.target {
            LocalTarget::Own(ns) => {
                let node = mb.nodes.get(ns).expect("node missing");
                RootMatchTarget {
                    block: node.block,
                    meta: MetaRef { module: my, slot },
                    node_slot: ns,
                    descend: None,
                }
            }
            LocalTarget::Child(ci) => {
                let c = &mb.children[ci as usize];
                RootMatchTarget {
                    block: c.root_block,
                    meta: c.mref,
                    node_slot: c.root_node_slot,
                    descend: Some(c.mref),
                }
            }
        };
        out.push(EntrySummary {
            depth: e.depth,
            pre_hash: e.pre_hash,
            rem: e.rem.clone(),
            s_last: e.s_last.clone(),
            target,
        });
    }
    out
}

fn put_meta(
    state: &mut ModuleState,
    _my: u32,
    p: PutMetaMsg,
    replace: Option<u32>,
) -> (u32, Vec<u32>) {
    let mut mb = MetaBlock {
        index: HashIndex::new(state.width),
        nodes: Slab::new(),
        root_node: 0,
        parent: p.parent,
        children: Vec::new(),
        chunk_children: Vec::new(),
    };
    let mut node_slots = Vec::with_capacity(p.nodes.len());
    for n in &p.nodes {
        let entry_slot = mb.index.insert(IndexEntry {
            depth: n.depth,
            pre_hash: n.pre_hash,
            rem: n.rem.0.clone(),
            s_last: n.s_last.0.clone(),
            target: LocalTarget::Own(0),
        });
        let ns = mb.nodes.insert(MetaNode {
            block: n.block,
            entry_slot,
            parent: None,
            children: Vec::new(),
            depth: n.depth,
            hash: n.hash,
        });
        mb.index.set_target(entry_slot, LocalTarget::Own(ns));
        node_slots.push(ns);
    }
    // parent links
    for (i, par) in p.parents.iter().enumerate() {
        if let Some(j) = par {
            let child_slot = node_slots[i];
            let parent_slot = node_slots[*j as usize];
            mb.nodes.get_mut(child_slot).unwrap().parent = Some(parent_slot);
            mb.nodes
                .get_mut(parent_slot)
                .unwrap()
                .children
                .push(child_slot);
        }
    }
    mb.root_node = node_slots[p.root_idx as usize];
    for c in p.children {
        let entry_slot = mb.index.insert(IndexEntry {
            depth: c.depth,
            pre_hash: c.pre_hash,
            rem: c.rem.0.clone(),
            s_last: c.s_last.0.clone(),
            target: LocalTarget::Child(mb.children.len() as u32),
        });
        mb.children.push(MetaChildInfo {
            mref: c.mref,
            under_node: node_slots[c.under_node as usize],
            entry_slot,
            root_block: c.root_block,
            root_node_slot: c.root_node_slot,
        });
    }
    mb.chunk_children = p
        .chunks
        .into_iter()
        .map(|(mref, under)| (mref, node_slots[under as usize]))
        .collect();
    // ReplaceMeta keeps the old parent pointer unless the payload set one.
    if mb.parent.is_none() {
        if let Some(s) = replace {
            if let Some(old) = state.metas.get(s) {
                mb.parent = old.parent;
            }
        }
    }
    let slot = match replace {
        Some(s) => {
            state.metas.set(s, mb);
            s
        }
        None => state.metas.insert(mb),
    };
    (slot, node_slots)
}

fn remove_meta_node(mb: &mut MetaBlock, node: u32) {
    let n = mb.nodes.remove(node).expect("RemoveMetaNode: missing");
    mb.index.remove(n.entry_slot);
    // re-parent children
    if let Some(p) = n.parent {
        if let Some(pn) = mb.nodes.get_mut(p) {
            pn.children.retain(|c| *c != node);
            pn.children.extend(n.children.iter().copied());
        }
        for c in &n.children {
            if let Some(cn) = mb.nodes.get_mut(*c) {
                cn.parent = Some(p);
            }
        }
    } else {
        // removing the meta-block root: promote the first child (callers
        // only do this for leaf chains; assert simplicity)
        debug_assert!(n.children.len() <= 1, "root removal with branching");
        if let Some(&c) = n.children.first() {
            mb.nodes.get_mut(c).unwrap().parent = None;
            mb.root_node = c;
        }
    }
    // chunk/tree children hanging under the removed node re-hang under its
    // parent (or the new root)
    let new_under = n.parent.unwrap_or(mb.root_node);
    for c in &mut mb.children {
        if c.under_node == node {
            c.under_node = new_under;
        }
    }
    for c in &mut mb.chunk_children {
        if c.1 == node {
            c.1 = new_under;
        }
    }
}

/// Bit-exact matching of a query piece (rooted at the block root) against
/// a data block (§4.3's local matching).
pub fn match_block_local(block: &DataBlock, piece: &QueryPiece) -> Vec<BlockNodeResult> {
    let mut out = Vec::with_capacity(piece.trie.n_nodes());
    let root_pos = TriePos {
        node: NodeId::ROOT,
        edge_off: 0,
    };
    out.push(BlockNodeResult {
        tag: piece.tags[NodeId::ROOT.idx()],
        depth: piece.root_depth,
        anchor_node: NodeId::ROOT.0,
        anchor_off: 0,
        at_mirror: false,
        redirect: None,
    });
    // DFS: (piece node, data position, matched depth, live)
    let mut stack = vec![(NodeId::ROOT, root_pos, piece.root_depth, true)];
    while let Some((pn, pos, matched, live)) = stack.pop() {
        for child in piece.trie.node(pn).children.iter().flatten() {
            let edge = &piece.trie.node(*child).edge;
            let (res, new_pos, new_matched, new_live) = if live {
                let (consumed, stop) = extend_match(&block.trie, pos, edge.as_slice());
                let nm = matched + consumed as u64;
                let still = consumed == edge.len();
                let mirror_child = is_at(&block.trie, stop)
                    .and_then(|n| block.mirrors.get(&n))
                    .copied();
                (
                    BlockNodeResult {
                        tag: piece.tags[child.idx()],
                        depth: nm,
                        anchor_node: stop.node.0,
                        anchor_off: stop.edge_off as u32,
                        // stopped at a boundary with bits left: the child
                        // block owns the continuation — redo exactly
                        at_mirror: mirror_child.is_some() && !still,
                        // a boundary stop always anchors at the child root
                        redirect: mirror_child,
                    },
                    stop,
                    nm,
                    still,
                )
            } else {
                (
                    BlockNodeResult {
                        tag: piece.tags[child.idx()],
                        depth: matched,
                        anchor_node: pos.node.0,
                        anchor_off: pos.edge_off as u32,
                        at_mirror: false,
                        redirect: None,
                    },
                    pos,
                    matched,
                    false,
                )
            };
            out.push(res);
            stack.push((*child, new_pos, new_matched, new_live));
        }
    }
    out
}

/// Is the position exactly at a compressed node? Returns it.
pub(crate) fn is_at(trie: &Trie, pos: TriePos) -> Option<NodeId> {
    (pos.edge_off == trie.node(pos.node).edge.len()).then_some(pos.node)
}

/// Extend a match from `pos` by `bits`, stopping at divergence or
/// dead-end. Returns (bits consumed, stop position). Shared with the
/// host-side hot-path cache (`crate::cache`), whose CPU walk must agree
/// bit-for-bit with the module-side matcher.
pub(crate) fn extend_match(
    trie: &Trie,
    mut pos: TriePos,
    bits: bitstr::BitSlice<'_>,
) -> (usize, TriePos) {
    let mut i = 0;
    loop {
        let n = trie.node(pos.node);
        if pos.edge_off < n.edge.len() {
            // inside an edge: compare remaining edge bits
            let remaining = n.edge.slice(pos.edge_off..n.edge.len());
            let avail = bits.len() - i;
            let l = remaining.lcp(&bits.slice(i..bits.len()));
            i += l;
            pos.edge_off += l;
            if l < remaining.len().min(avail) || i == bits.len() {
                return (i, pos);
            }
            // consumed the whole edge remainder
            continue;
        }
        // at a node
        if i == bits.len() {
            return (i, pos);
        }
        let b = bits.get(i) as usize;
        match n.children[b] {
            None => return (i, pos),
            Some(c) => {
                pos = TriePos {
                    node: c,
                    edge_off: 0,
                };
            }
        }
    }
}

/// Graft `subtree` (root = anchor position) into `trie`; false on
/// inconsistency (occupied child slot ⇒ hash collision upstream).
fn graft_local(trie: &mut Trie, anchor_node: u32, anchor_off: u32, subtree: Trie) -> bool {
    let node = NodeId(anchor_node);
    let off = anchor_off as usize;
    let edge_len = trie.node(node).edge.len();
    // Resolve the attach node *without* mutating yet (except the edge
    // split, which is semantics-preserving), then pre-check every child
    // slot so a collision (possible only under hash-collision anchors)
    // leaves the block unmodified rather than half-grafted.
    let attach = if off == edge_len {
        node
    } else if off == 0 {
        trie.node(node).parent.expect("graft above root")
    } else {
        trie.split_edge(TriePos {
            node,
            edge_off: off,
        })
    };
    for c in subtree.node(NodeId::ROOT).children.iter().flatten() {
        let bit = subtree.node(*c).edge.get(0) as usize;
        if trie.node(attach).children[bit].is_some() {
            return false;
        }
    }
    // set-value at the anchor
    if let Some(v) = subtree.node(NodeId::ROOT).value {
        trie.set_value(attach, v);
    }
    // attach children
    for c in subtree.node(NodeId::ROOT).children.iter().flatten() {
        copy_subtree_into(trie, attach, &subtree, *c);
    }
    true
}

fn copy_subtree_into(dst: &mut Trie, dst_parent: NodeId, src: &Trie, src_node: NodeId) {
    let sn = src.node(src_node);
    let id = dst.attach_child(dst_parent, sn.edge.clone(), sn.value);
    for c in sn.children.iter().flatten() {
        copy_subtree_into(dst, id, src, *c);
    }
}

/// Delete the key at an exact node, respecting mirror pinning (mirrors
/// carry [`MIRROR_VALUE`] so compression never removes them).
fn delete_at_node(trie: &mut Trie, node: NodeId) {
    trie.unset_value(node);
    trie.recompress_at(node);
}

/// Extract the block's subtrie below (node, off) with keys' values and
/// mirror children; returns (trie, mirror children, anchor depth-in-block).
fn subtree_local(block: &DataBlock, node: NodeId, off: usize) -> (Trie, Vec<(u32, BlockRef)>, u64) {
    // Build a standalone trie rooted at the anchor position.
    let mut out = Trie::new();
    let mut children = Vec::new();
    let n = block.trie.node(node);
    let depth_in_block = n.depth as usize - (n.edge.len() - off);
    if off < n.edge.len() {
        // anchor inside the edge into `node`: subtree = remainder of this
        // edge then node's subtree
        let rest = n.edge.slice(off..n.edge.len()).to_bitstr();
        let id = out.attach_child(NodeId::ROOT, rest, filter_mirror(n.value));
        if block.mirrors.contains_key(&node) {
            children.push((id.0, block.mirrors[&node]));
        }
        copy_block_subtree(&mut out, id, block, node, &mut children);
    } else {
        if let Some(v) = filter_mirror(n.value) {
            out.set_value(NodeId::ROOT, v);
        }
        if block.mirrors.contains_key(&node) {
            children.push((NodeId::ROOT.0, block.mirrors[&node]));
        }
        copy_block_subtree(&mut out, NodeId::ROOT, block, node, &mut children);
    }
    (out, children, block.root_depth + depth_in_block as u64)
}

fn filter_mirror(v: Option<Value>) -> Option<Value> {
    v.filter(|v| *v != MIRROR_VALUE)
}

fn copy_block_subtree(
    dst: &mut Trie,
    dst_node: NodeId,
    block: &DataBlock,
    src_node: NodeId,
    children: &mut Vec<(u32, BlockRef)>,
) {
    for c in block.trie.node(src_node).children.iter().flatten() {
        let cn = block.trie.node(*c);
        let id = dst.attach_child(dst_node, cn.edge.clone(), filter_mirror(cn.value));
        if let Some(r) = block.mirrors.get(c) {
            children.push((id.0, *r));
        }
        copy_block_subtree(dst, id, block, *c, children);
    }
}

/// §4.4.3: a genuine root match implies the piece's `root_rem` equals the
/// trailing `|rem|` bits of the block root's `S_last`.
fn rem_consistent(s_last: &BitStr, root_rem: &BitStr) -> bool {
    if root_rem.len() > s_last.len() {
        // root shorter than a word: rem covers the whole string
        return root_rem.len() == s_last.len();
    }
    let from = s_last.len() - root_rem.len();
    s_last.slice(from..s_last.len()) == root_rem.as_slice()
}

/// One exact slow-path step: consume `bits` inside this block; if the walk
/// stops exactly at a mirror with bits remaining, hand over the child ref.
fn descend_local(block: &DataBlock, bits: &BitStr) -> DescendOut {
    let start = TriePos {
        node: NodeId::ROOT,
        edge_off: 0,
    };
    let (consumed, stop) = extend_match(&block.trie, start, bits.as_slice());
    // hand over to the child even when the bits end exactly at the
    // boundary — the child's root is the canonical anchor for that position
    let next = is_at(&block.trie, stop)
        .and_then(|n| block.mirrors.get(&n))
        .copied();
    DescendOut {
        consumed: consumed as u64,
        next,
        anchor_node: stop.node.0,
        anchor_off: stop.edge_off as u32,
    }
}
