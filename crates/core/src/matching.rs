//! Trie matching — the orchestration of Algorithms 2–5.
//!
//! One batch is matched in three phases, all expressed as BSP rounds over
//! the simulator:
//!
//! 1. **Master matching** (Algorithm 4): the query trie is cut into
//!    `O(P log P)` similar-sized pieces, each sent to a *uniformly random*
//!    module and matched against the replicated master table. This yields
//!    every meta-block-tree root lying on any query path.
//! 2. **Meta descent** (Algorithm 5): each matched meta-block tree is
//!    walked level by level. The query piece below a match is either
//!    *pushed* to the module holding the (small) meta-block, or — when the
//!    piece exceeds the `log⁴ P` threshold — the meta-block's `O(log² P)`
//!    entries are *pulled* to the CPU and matched there (push-pull).
//!    Every round discovers deeper verified block-root matches and the
//!    child meta-blocks to recurse into; rounds are bounded by the
//!    meta-block-tree height, `O(log P)`.
//! 3. **Block matching** (Algorithm 2): the query piece between a matched
//!    block root and the next deeper matches is matched *bit by bit*
//!    against the block — pushed if small, pulled if the piece outweighs
//!    the `O(K_B)` block. This is simultaneously the §4.4.3 verification:
//!    any inconsistency (failed `S_last`, a walk ending at a mirror with
//!    query bits left) flags the affected paths for an exact slow-path
//!    redo.

use crate::error::PimTrieError;
use crate::hvm::{hash_match_piece, HashIndex, IndexEntry, QueryPiece};
use crate::module::{
    match_block_local, BlockNodeResult, DataBlock, EntrySummary, Req, Resp, RootMatch,
};
use crate::refs::{BlockRef, MetaRef};
use crate::PimTrie;
use bitstr::hash::{HashVal, IncrementalHash};
use bitstr::{BitStr, WORD_BITS};
use std::collections::{BTreeMap, BTreeSet};
use trie_core::query::QueryTrie;
use trie_core::{NodeId, Trie};

const W: u64 = WORD_BITS as u64;

/// Where a matched path stops inside a data block.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    /// the block
    pub block: BlockRef,
    /// data node whose edge holds the position
    pub node: u32,
    /// bits of that node's edge above the position
    pub off: u32,
}

/// Counters of one matching run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchStats {
    /// pieces pushed to modules
    pub pushes: u64,
    /// metadata/block pulls to the CPU
    pub pulls: u64,
    /// meta-descent rounds
    pub descend_rounds: u64,
    /// §4.4.3 collision detections
    pub collisions: u64,
    /// paths redone through the exact slow path
    pub redo_paths: u64,
}

/// The matched trie: per query-trie node, the length of its longest
/// common prefix with the data trie and the data-side anchor.
/// Paper: §4.1.
pub struct MatchedTrie {
    /// the batch's query trie
    pub qt: QueryTrie,
    /// per qt node id: matched depth of the path to it (bits)
    pub depth_of: Vec<u64>,
    /// per qt node id: data anchor of the deepest match on its path
    pub anchor_of: Vec<Option<Anchor>>,
    /// meta location (meta-block, node slot) per matched block
    pub block_meta: BTreeMap<BlockRef, (MetaRef, u32)>,
    /// per qt node id: this node's result is untrusted (§ 4.4.3)
    pub flagged: Vec<bool>,
    /// counters
    pub stats: MatchStats,
}

/// Rolling pivot context at a query-trie node: the last `w`-boundary at or
/// above the node, the hash of the query prefix there, and the bits from
/// that boundary down to the node.
#[derive(Clone)]
pub(crate) struct NodeCtx {
    pub pre_depth: u64,
    pub pre_hash: HashVal,
    pub tail: BitStr,
}

pub(crate) fn node_ctxs(trie: &Trie, hasher: &bitstr::hash::PolyHasher) -> Vec<Option<NodeCtx>> {
    let mut out: Vec<Option<NodeCtx>> = (0..trie.id_bound()).map(|_| None).collect();
    out[NodeId::ROOT.idx()] = Some(NodeCtx {
        pre_depth: 0,
        pre_hash: hasher.empty(),
        tail: BitStr::new(),
    });
    let mut stack = vec![NodeId::ROOT];
    while let Some(id) = stack.pop() {
        let ctx = out[id.idx()].clone().unwrap();
        for c in trie.node(id).children.iter().flatten() {
            let edge = &trie.node(*c).edge;
            let top = ctx.pre_depth + ctx.tail.len() as u64;
            let bottom = top + edge.len() as u64;
            let new_pre = (bottom / W) * W;
            let cctx = if new_pre > ctx.pre_depth {
                let consumed = (new_pre - top) as usize;
                let mut bits = ctx.tail.clone();
                bits.append(&edge.slice(0..consumed));
                let h = hasher.combine(
                    ctx.pre_hash,
                    hasher.hash_bits(bits.as_slice()),
                    bits.len() as u64,
                );
                NodeCtx {
                    pre_depth: new_pre,
                    pre_hash: h,
                    tail: edge.slice(consumed..edge.len()).to_bitstr(),
                }
            } else {
                let mut tail = ctx.tail.clone();
                tail.append(&edge.as_slice());
                NodeCtx {
                    pre_depth: ctx.pre_depth,
                    pre_hash: ctx.pre_hash,
                    tail,
                }
            };
            out[c.idx()] = Some(cctx);
            stack.push(*c);
        }
    }
    out
}

/// Pivot context of an arbitrary position `(below, depth)` — on the edge
/// into `below`, `depth` bits from the query root.
pub(crate) fn ctx_at(
    trie: &Trie,
    ctxs: &[Option<NodeCtx>],
    hasher: &bitstr::hash::PolyHasher,
    below: NodeId,
    depth: u64,
) -> NodeCtx {
    let n = trie.node(below);
    if depth == n.depth as u64 {
        return ctxs[below.idx()].clone().unwrap();
    }
    let parent = n.parent.expect("position above root");
    let pctx = ctxs[parent.idx()].clone().unwrap();
    let top = pctx.pre_depth + pctx.tail.len() as u64;
    debug_assert!(depth > top.saturating_sub(pctx.tail.len() as u64));
    debug_assert!(
        depth >= top && depth <= n.depth as u64,
        "bad position depth"
    );
    let consumed = (depth - top) as usize;
    let new_pre = (depth / W) * W;
    if new_pre > pctx.pre_depth {
        let upto = (new_pre - top) as usize;
        let mut bits = pctx.tail.clone();
        bits.append(&n.edge.slice(0..upto));
        let h = hasher.combine(
            pctx.pre_hash,
            hasher.hash_bits(bits.as_slice()),
            bits.len() as u64,
        );
        NodeCtx {
            pre_depth: new_pre,
            pre_hash: h,
            tail: n.edge.slice(upto..consumed).to_bitstr(),
        }
    } else {
        let mut tail = pctx.tail.clone();
        tail.append(&n.edge.slice(0..consumed));
        NodeCtx {
            pre_depth: pctx.pre_depth,
            pre_hash: pctx.pre_hash,
            tail,
        }
    }
}

/// A matched position in query-trie coordinates.
pub(crate) type QtPos = (u32, u64); // (qt node below, global depth)

/// Build the query piece rooted at `from`, cut at every position in `cuts`
/// strictly below the root. `from = None` roots the piece at the query
/// root (depth 0).
pub(crate) fn make_piece(
    qt: &Trie,
    ctxs: &[Option<NodeCtx>],
    hasher: &bitstr::hash::PolyHasher,
    from: Option<QtPos>,
    cuts: &BTreeMap<u32, Vec<u64>>,
) -> QueryPiece {
    let mut piece = Trie::new();
    let mut tags: Vec<u32> = vec![0];
    let (root_below, root_depth) = from.unwrap_or((NodeId::ROOT.0, 0));
    let ctx = ctx_at(qt, ctxs, hasher, NodeId(root_below), root_depth);
    tags[0] = root_below;

    // first cut strictly inside (top, bottom] on the edge into `v`
    let first_cut = |v: u32, top: u64, bottom: u64| -> Option<u64> {
        cuts.get(&v)?
            .iter()
            .copied()
            .filter(|d| *d > top && *d <= bottom)
            .min()
    };

    // copy the subtree below a qt node into the piece
    fn copy_sub(
        qt: &Trie,
        piece: &mut Trie,
        tags: &mut Vec<u32>,
        qnode: NodeId,
        pnode: NodeId,
        first_cut: &dyn Fn(u32, u64, u64) -> Option<u64>,
    ) {
        for c in qt.node(qnode).children.iter().flatten() {
            let cn = qt.node(*c);
            let top = cn.depth as u64 - cn.edge.len() as u64;
            let bottom = cn.depth as u64;
            match first_cut(c.0, top, bottom) {
                Some(d) if d < bottom => {
                    // truncated leaf ending at the cut
                    let part = cn.edge.slice(0..(d - top) as usize).to_bitstr();
                    let id = piece.attach_child(pnode, part, None);
                    push_tag(tags, id, c.0);
                }
                Some(_) => {
                    // cut exactly at the node: copy the edge, stop there
                    let id = piece.attach_child(pnode, cn.edge.clone(), None);
                    push_tag(tags, id, c.0);
                }
                None => {
                    let id = piece.attach_child(pnode, cn.edge.clone(), cn.value);
                    push_tag(tags, id, c.0);
                    copy_sub(qt, piece, tags, *c, id, first_cut);
                }
            }
        }
    }

    let below = NodeId(root_below);
    let bn = qt.node(below);
    if root_depth == bn.depth as u64 {
        // piece root is the qt node itself
        if let Some(v) = bn.value {
            piece.set_value(NodeId::ROOT, v);
        }
        copy_sub(qt, &mut piece, &mut tags, below, NodeId::ROOT, &first_cut);
    } else {
        // piece root is mid-edge: one child edge = the remainder
        let bottom = bn.depth as u64;
        match first_cut(root_below, root_depth, bottom) {
            Some(d) if d < bottom => {
                let part = bn
                    .edge
                    .slice(
                        (root_depth - (bottom - bn.edge.len() as u64)) as usize
                            ..(d - (bottom - bn.edge.len() as u64)) as usize,
                    )
                    .to_bitstr();
                let id = piece.attach_child(NodeId::ROOT, part, None);
                push_tag(&mut tags, id, root_below);
            }
            cut => {
                let start = (root_depth - (bottom - bn.edge.len() as u64)) as usize;
                let part = bn.edge.slice(start..bn.edge.len()).to_bitstr();
                let id = piece.attach_child(NodeId::ROOT, part, bn.value);
                push_tag(&mut tags, id, root_below);
                if cut.is_none() {
                    copy_sub(qt, &mut piece, &mut tags, below, id, &first_cut);
                }
            }
        }
    }

    QueryPiece {
        trie: piece,
        tags,
        root_depth,
        root_pre_hash: ctx.pre_hash,
        root_rem: ctx.tail,
    }
}

fn push_tag(tags: &mut Vec<u32>, id: NodeId, tag: u32) {
    while tags.len() <= id.idx() {
        tags.push(u32::MAX);
    }
    tags[id.idx()] = tag;
}

impl PimTrie {
    /// Match a batch of strings against the data trie. The result drives
    /// every public operation. Fails only when fault recovery gives up
    /// (never on a clean simulator). Paper: §4.3 (the whole pipeline).
    pub fn match_batch(&mut self, batch: &[BitStr]) -> Result<MatchedTrie, PimTrieError> {
        let qt = QueryTrie::build(batch);
        let mut stats = MatchStats::default();
        let bound = qt.trie.id_bound();
        if batch.is_empty() {
            return Ok(MatchedTrie {
                qt,
                depth_of: vec![0; bound],
                anchor_of: vec![None; bound],
                block_meta: BTreeMap::new(),
                flagged: vec![false; bound],
                stats,
            });
        }
        let ctxs = node_ctxs(&qt.trie, &self.hasher);

        // ---- Phase 1: master matching (Algorithm 4) -------------------
        self.t_phase("master-match");
        let p = self.sys.p();
        let lg = crate::fixed::ceil_log2(p.max(2));
        let total = qt.trie.size_words() as u64;
        let kb_master = (total / (p as u64 * lg).max(1)).max(16);
        let master_roots = trie_core::partition::partition_roots(&qt.trie, kb_master);
        let mut cuts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for r in &master_roots {
            if *r != NodeId::ROOT {
                cuts.entry(r.0)
                    .or_default()
                    .push(qt.trie.node(*r).depth as u64);
            }
        }
        let mut inbox: Vec<Vec<Req>> = (0..p).map(|_| Vec::new()).collect();
        if self.adapt.enabled() {
            // The master table is replicated, so piece→module is a free
            // choice. Random placement leaves a ~2x spread at a few
            // pieces per module; with the tracker on, the host spends
            // the sizes it already knows on a longest-processing-time
            // assignment instead (heaviest piece to the lightest module,
            // deterministic tie-breaks), flattening the scatter phase.
            let mut pieces: Vec<Option<QueryPiece>> = master_roots
                .iter()
                .map(|r| {
                    let from = (*r != NodeId::ROOT).then(|| (r.0, qt.trie.node(*r).depth as u64));
                    Some(make_piece(&qt.trie, &ctxs, &self.hasher, from, &cuts))
                })
                .collect();
            let sizes: Vec<u64> = pieces
                .iter()
                .map(|pc| pc.as_ref().map_or(0, |q| q.size_words()))
                .collect();
            let mut idx: Vec<usize> = (0..pieces.len()).collect();
            idx.sort_by_key(|i| (u64::MAX - sizes[*i], *i));
            let mut loads = vec![0u64; p];
            for i in idx {
                let mut m = 0;
                for c in 1..p {
                    if loads[c] < loads[m] {
                        m = c;
                    }
                }
                loads[m] += sizes[i];
                if let Some(pc) = pieces[i].take() {
                    stats.pushes += 1;
                    inbox[m].push(Req::MatchMaster(pc));
                }
            }
        } else {
            for r in &master_roots {
                let from = (*r != NodeId::ROOT).then(|| (r.0, qt.trie.node(*r).depth as u64));
                let piece = make_piece(&qt.trie, &ctxs, &self.hasher, from, &cuts);
                stats.pushes += 1;
                let m = self.place_rng_next();
                inbox[m as usize].push(Req::MatchMaster(piece));
            }
        }
        let replies = self.rounds("match.master", inbox)?;
        let mut matches: Vec<RootMatch> = Vec::new();
        let mut seen: BTreeSet<(u32, u64, BlockRef)> = BTreeSet::new();
        for resp in replies.into_iter().flatten() {
            let Resp::Matches(ms) = resp else {
                panic!("master: unexpected response")
            };
            for m in ms {
                if seen.insert((m.qt_below, m.depth, m.block)) {
                    matches.push(m);
                }
            }
        }

        // ---- Phase 2: meta descent (Algorithm 5) ----------------------
        // hash comparisons at pivot positions — the paper's coarse filter
        self.t_phase("hash-probe");
        let mut frontier: Vec<RootMatch> = matches
            .iter()
            .filter(|m| m.descend.is_some())
            .copied()
            .collect();
        let mut frontier_seen: BTreeSet<(MetaRef, u32, u64)> = frontier
            .iter()
            .map(|m| (m.descend.unwrap(), m.qt_below, m.depth))
            .collect();
        let mut guard = 0;
        while !frontier.is_empty() {
            guard += 1;
            assert!(guard < 64, "meta descent did not terminate");
            stats.descend_rounds += 1;
            // cut map from every match known so far
            let mut cutmap: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            for m in &matches {
                cutmap.entry(m.qt_below).or_default().push(m.depth);
            }
            // Build pieces, grouped by target meta-block. The push-pull
            // decision (§3.3 / Algorithm 5) is per *target*: if the pieces
            // aimed at one meta-block together outweigh the threshold —
            // either one big piece, or many small contending pieces — the
            // meta-block's O(log² P) entries are pulled once and every
            // piece is matched on the CPU.
            // BTreeMap: group iteration orders the push/pull messages, and
            // that order must repeat across runs for seeded fault schedules
            let mut groups: BTreeMap<MetaRef, Vec<QueryPiece>> = BTreeMap::new();
            for m in frontier.drain(..) {
                let target = m.descend.unwrap();
                let piece = make_piece(
                    &qt.trie,
                    &ctxs,
                    &self.hasher,
                    Some((m.qt_below, m.depth)),
                    &cutmap,
                );
                groups.entry(target).or_default().push(piece);
            }
            let mut push_inbox: Vec<Vec<Req>> = (0..p).map(|_| Vec::new()).collect();
            let mut pulls: Vec<(MetaRef, Vec<QueryPiece>)> = Vec::new();
            for (target, pieces) in groups {
                let total: u64 = pieces.iter().map(|pc| pc.size_words()).sum();
                if total <= self.cfg.push_threshold {
                    for piece in pieces {
                        stats.pushes += 1;
                        push_inbox[target.module as usize].push(Req::MatchMeta {
                            slot: target.slot,
                            piece,
                        });
                    }
                } else {
                    stats.pulls += 1;
                    pulls.push((target, pieces));
                }
            }
            // pull round: fetch each contended meta-block once, match all
            // of its pieces on the CPU
            let mut new_matches: Vec<RootMatch> = Vec::new();
            if !pulls.is_empty() {
                let mut fetch_inbox: Vec<Vec<Req>> = (0..p).map(|_| Vec::new()).collect();
                let mut origin: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
                for (gi, (t, _)) in pulls.iter().enumerate() {
                    fetch_inbox[t.module as usize].push(Req::FetchMeta { slot: t.slot });
                    origin[t.module as usize].push(gi);
                }
                let replies = self.rounds("match.meta.pull", fetch_inbox)?;
                for (m, rs) in replies.into_iter().enumerate() {
                    for (j, resp) in rs.into_iter().enumerate() {
                        let Resp::MetaSummary { entries } = resp else {
                            panic!("pull: unexpected response")
                        };
                        let (_, pieces) = &pulls[origin[m][j]];
                        let index = pulled_index(self.cfg.hash_width, &entries);
                        let mut work = 0u64;
                        for piece in pieces {
                            new_matches.extend(cpu_match_entries(
                                &self.hasher,
                                piece,
                                &index,
                                &entries,
                                &mut work,
                            ));
                        }
                        self.sys.metrics_mut().charge_cpu(work);
                    }
                }
            }
            // push round
            if push_inbox.iter().any(|v| !v.is_empty()) {
                let replies = self.rounds("match.meta.push", push_inbox)?;
                for resp in replies.into_iter().flatten() {
                    let Resp::Matches(ms) = resp else {
                        panic!("meta: unexpected response")
                    };
                    new_matches.extend(ms);
                }
            }
            for m in new_matches {
                if seen.insert((m.qt_below, m.depth, m.block)) {
                    matches.push(m);
                }
                if let Some(d) = m.descend {
                    if frontier_seen.insert((d, m.qt_below, m.depth)) {
                        frontier.push(m);
                    }
                }
            }
        }

        // ---- Phase 3: block matching (Algorithm 2) --------------------
        self.t_phase("block-match");
        let mut cutmap: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for m in &matches {
            cutmap.entry(m.qt_below).or_default().push(m.depth);
        }
        let mut block_meta = BTreeMap::new();
        for m in &matches {
            block_meta.insert(m.block, (m.meta, m.node_slot));
        }
        // Group pieces per target block: contention-based push-pull (the
        // Pull method of §3.3). A block whose aimed pieces together exceed
        // its own O(K_B) size is fetched once to the CPU, and all of its
        // pieces are matched there — this is what keeps worst-case skew
        // (every query down one path) off any single module.
        let mut groups: BTreeMap<BlockRef, Vec<QueryPiece>> = BTreeMap::new();
        for m in &matches {
            let piece = make_piece(
                &qt.trie,
                &ctxs,
                &self.hasher,
                Some((m.qt_below, m.depth)),
                &cutmap,
            );
            groups.entry(m.block).or_default().push(piece);
        }
        let mut push_inbox: Vec<Vec<Req>> = (0..p).map(|_| Vec::new()).collect();
        let mut pushed_pieces: Vec<(BlockRef, Vec<u32>)> = Vec::new();
        let mut pulls: Vec<(BlockRef, Vec<QueryPiece>)> = Vec::new();
        let pull_threshold = self.cfg.k_b.max(self.cfg.push_threshold);
        for (block, pieces) in groups {
            let total: u64 = pieces.iter().map(|pc| pc.size_words()).sum();
            // K_B bounds a block's size, so "demand outweighs the block"
            // defaults to comparing against K_B — but adaptively-split
            // pieces are far smaller than K_B, and pulling one costs its
            // *actual* weight. Where the tracker knows that weight, use
            // it: a hot fine piece (every query descending one path) is
            // then fetched once instead of serialising its module.
            let thr = match self.adapt.size_hint(block) {
                Some(w) => w.max(self.cfg.push_threshold),
                None => pull_threshold,
            };
            if total <= thr {
                for piece in pieces {
                    stats.pushes += 1;
                    pushed_pieces.push((block, piece.tags.clone()));
                    push_inbox[block.module as usize].push(Req::MatchBlock {
                        slot: block.slot,
                        piece,
                    });
                }
            } else {
                stats.pulls += 1;
                // the pull's one-word request hides the real demand from
                // the traffic tracker — credit the aimed piece words so
                // adaptive repartitioning sees pull-contended blocks
                self.adapt.record_pull_demand(block, total);
                pulls.push((block, pieces));
            }
        }
        // results carry their block so anchors resolve directly
        let mut results: Vec<(BlockRef, BlockNodeResult)> = Vec::new();
        let mut flagged = vec![false; bound];
        // pull side: fetch each contended block once
        if !pulls.is_empty() {
            let mut fetch_inbox: Vec<Vec<Req>> = (0..p).map(|_| Vec::new()).collect();
            let mut origin: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            for (gi, (b, _)) in pulls.iter().enumerate() {
                fetch_inbox[b.module as usize].push(Req::FetchBlock { slot: b.slot });
                origin[b.module as usize].push(gi);
            }
            let replies = self.rounds("match.block.pull", fetch_inbox)?;
            for (m, rs) in replies.into_iter().enumerate() {
                for (j, resp) in rs.into_iter().enumerate() {
                    let Resp::BlockData(bd) = resp else {
                        panic!("block pull: unexpected response")
                    };
                    let (bref, pieces) = &pulls[origin[m][j]];
                    let block = DataBlock {
                        trie: bd.trie.0,
                        root_depth: bd.root_depth,
                        root_hash: bd.root_hash,
                        s_last: bd.s_last.0,
                        pre_hash: bd.pre_hash,
                        rem: bd.rem.0,
                        parent: bd.parent,
                        mirrors: bd.mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect(),
                        meta: bd.meta,
                    };
                    for piece in pieces {
                        self.sys
                            .metrics_mut()
                            .charge_cpu(block.weight() + piece.size_words());
                        if block.root_depth != piece.root_depth {
                            stats.collisions += 1;
                            flag_tags(&mut flagged, &piece.tags);
                            continue;
                        }
                        results.extend(
                            match_block_local(&block, piece)
                                .into_iter()
                                .map(|r| (*bref, r)),
                        );
                    }
                }
            }
        }
        // push side
        if push_inbox.iter().any(|v| !v.is_empty()) {
            let replies = self.rounds("match.block.push", push_inbox)?;
            let mut per_module: Vec<std::vec::IntoIter<Resp>> =
                replies.into_iter().map(|v| v.into_iter()).collect();
            for (block, tags) in &pushed_pieces {
                let resp = per_module[block.module as usize]
                    .next()
                    .expect("missing block reply");
                let Resp::BlockResults {
                    results: rs,
                    collision,
                } = resp
                else {
                    panic!("block push: unexpected response")
                };
                if collision {
                    stats.collisions += 1;
                    flag_tags(&mut flagged, tags);
                }
                results.extend(rs.into_iter().map(|r| (*block, r)));
            }
        }

        // ---- Assemble -------------------------------------------------
        // Deepest result per qt node, anchored in its block.
        let mut best: BTreeMap<u32, (u64, Anchor)> = BTreeMap::new();
        // at-mirror stops to adjudicate after depths are known
        let mut mirror_stops: Vec<(u32, u64)> = Vec::new();
        for (block, r) in &results {
            if r.tag == u32::MAX {
                continue;
            }
            if r.at_mirror {
                mirror_stops.push((r.tag, r.depth));
            }
            let anchor = match r.redirect {
                Some(child) => Anchor {
                    block: child,
                    node: NodeId::ROOT.0,
                    off: 0,
                },
                None => Anchor {
                    block: *block,
                    node: r.anchor_node,
                    off: r.anchor_off,
                },
            };
            // A position on a block boundary is reported twice: by the
            // parent piece (anchored at its mirror leaf) and by the child
            // piece (anchored at the child's root). The child's root is the
            // canonical location — values live there — so ties prefer it.
            let is_root_anchor =
                (r.anchor_node == NodeId::ROOT.0 && r.anchor_off == 0) || r.redirect.is_some();
            best.entry(r.tag)
                .and_modify(|e| {
                    let e_root = e.1.node == NodeId::ROOT.0 && e.1.off == 0;
                    if r.depth > e.0 || (r.depth == e.0 && is_root_anchor && !e_root) {
                        *e = (r.depth, anchor);
                    }
                })
                .or_insert((r.depth, anchor));
        }
        // Propagate depths, anchors and flags down the query trie.
        let mut depth_of = vec![0u64; bound];
        let mut anchor_of: Vec<Option<Anchor>> = vec![None; bound];
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let (pd, pa, pf) = qt
                .trie
                .node(id)
                .parent
                .map(|p| (depth_of[p.idx()], anchor_of[p.idx()], flagged[p.idx()]))
                .unwrap_or((0, None, false));
            match best.get(&id.0) {
                Some((d, a)) if *d >= pd => {
                    depth_of[id.idx()] = *d;
                    anchor_of[id.idx()] = Some(*a);
                }
                _ => {
                    depth_of[id.idx()] = pd;
                    anchor_of[id.idx()] = pa;
                }
            }
            flagged[id.idx()] |= pf;
            for c in qt.trie.node(id).children.iter().flatten() {
                stack.push(*c);
            }
        }
        // Adjudicate at-mirror stops (§4.4.3): a walk that parks at a
        // mirror leaf with query bits left is *benign* when a deeper piece
        // covers the continuation (the per-edge deepest-match rule skips
        // the intermediate non-critical blocks on purpose), or when the
        // child block itself matched with zero extension. Only an
        // uncovered stop indicates a hidden collision and forces a redo.
        if !mirror_stops.is_empty() {
            let mut match_pos: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            for m in &matches {
                match_pos.entry(m.qt_below).or_default().push(m.depth);
            }
            let mut reflag: Vec<u32> = Vec::new();
            for (tag, d) in mirror_stops {
                let covered_deeper = depth_of[tag as usize] > d;
                let matched_here = match_pos
                    .get(&tag)
                    .map(|v| v.iter().any(|x| *x >= d))
                    .unwrap_or(false);
                if !covered_deeper && !matched_here {
                    reflag.push(tag);
                }
            }
            if !reflag.is_empty() {
                for tag in reflag {
                    flagged[tag as usize] = true;
                }
                // re-propagate flags downward
                let mut stack = vec![NodeId::ROOT];
                while let Some(id) = stack.pop() {
                    if let Some(p) = qt.trie.node(id).parent {
                        flagged[id.idx()] |= flagged[p.idx()];
                    }
                    for c in qt.trie.node(id).children.iter().flatten() {
                        stack.push(*c);
                    }
                }
            }
        }

        Ok(MatchedTrie {
            qt,
            depth_of,
            anchor_of,
            block_meta,
            flagged,
            stats,
        })
    }

    fn place_rng_next(&mut self) -> u32 {
        self.random_module()
    }
}

fn flag_tags(flagged: &mut [bool], tags: &[u32]) {
    for &t in tags {
        if t != u32::MAX {
            flagged[t as usize] = true;
        }
    }
}

/// The index of a pulled meta-block's entries, built once per
/// `FetchMeta` reply and shared by every piece matched against it.
fn pulled_index(width: bitstr::hash::HashWidth, entries: &[EntrySummary]) -> HashIndex<usize> {
    let mut index = HashIndex::new(width);
    for (i, e) in entries.iter().enumerate() {
        index.insert(IndexEntry {
            depth: e.depth,
            pre_hash: e.pre_hash,
            rem: e.rem.clone(),
            s_last: e.s_last.clone(),
            target: i,
        });
    }
    index
}

/// CPU-side HashMatching against pulled entries (the pull arm of
/// Algorithm 5).
fn cpu_match_entries(
    hasher: &bitstr::hash::PolyHasher,
    piece: &QueryPiece,
    index: &HashIndex<usize>,
    entries: &[EntrySummary],
    work: &mut u64,
) -> Vec<RootMatch> {
    hash_match_piece(hasher, piece, index, work)
        .into_iter()
        .map(|m| {
            let e = &entries[m.target];
            RootMatch {
                qt_below: m.qt_below,
                depth: m.depth,
                block: e.target.block,
                meta: e.target.meta,
                node_slot: e.target.node_slot,
                descend: e.target.descend,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstr::hash::PolyHasher;

    fn b(s: &str) -> BitStr {
        BitStr::from_bin_str(s)
    }

    fn qt_of(keys: &[&str]) -> QueryTrie {
        let ks: Vec<BitStr> = keys.iter().map(|s| b(s)).collect();
        QueryTrie::build(&ks)
    }

    #[test]
    fn node_ctxs_reconstruct_pivot_hashes() {
        let hasher = PolyHasher::with_seed(3);
        // keys crossing several word boundaries
        let long: String = "10".repeat(100);
        let qt = qt_of(&[&long, "1011", "00"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        for id in qt.trie.node_ids() {
            let ctx = ctxs[id.idx()].as_ref().unwrap();
            let s = qt.trie.node_string(id);
            let depth = s.len() as u64;
            assert_eq!(ctx.pre_depth, depth / W * W, "{id:?}");
            assert_eq!(
                ctx.pre_hash,
                hasher.hash_bits(s.slice(0..ctx.pre_depth as usize)),
                "{id:?} pre hash"
            );
            assert_eq!(
                ctx.tail,
                s.slice(ctx.pre_depth as usize..s.len()).to_bitstr(),
                "{id:?} tail"
            );
        }
    }

    #[test]
    fn ctx_at_arbitrary_positions() {
        let hasher = PolyHasher::with_seed(5);
        let long: String = "110".repeat(60);
        let qt = qt_of(&[&long, "111"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        // probe positions along every edge
        for id in qt.trie.node_ids() {
            let n = qt.trie.node(id);
            let top = n.depth as usize - n.edge.len();
            for d in top..=n.depth as usize {
                if d == 0 {
                    continue;
                }
                let ctx = ctx_at(&qt.trie, &ctxs, &hasher, id, d as u64);
                let s = qt.trie.node_string(id);
                assert_eq!(ctx.pre_depth, d as u64 / W * W, "pos ({id:?},{d})");
                assert_eq!(
                    ctx.pre_hash,
                    hasher.hash_bits(s.slice(0..ctx.pre_depth as usize)),
                    "pos ({id:?},{d}) hash"
                );
                assert_eq!(
                    ctx.tail,
                    s.slice(ctx.pre_depth as usize..d).to_bitstr(),
                    "pos ({id:?},{d}) tail"
                );
            }
        }
    }

    #[test]
    fn make_piece_whole_trie() {
        let hasher = PolyHasher::with_seed(7);
        let qt = qt_of(&["00001001", "101001", "101011"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let piece = make_piece(&qt.trie, &ctxs, &hasher, None, &BTreeMap::new());
        assert_eq!(piece.root_depth, 0);
        assert_eq!(piece.trie.n_nodes(), qt.trie.n_nodes());
        // tags are a bijection onto qt nodes
        for id in piece.trie.node_ids() {
            let tag = piece.tags[id.idx()];
            assert_eq!(
                qt.trie.node(NodeId(tag)).depth,
                piece.trie.node(id).depth,
                "tag depth mismatch"
            );
        }
    }

    #[test]
    fn make_piece_cut_truncates_edges() {
        let hasher = PolyHasher::with_seed(9);
        let qt = qt_of(&["111111", "1110"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        // cut the deep edge at depth 5
        let deep = qt.key_node[0]; // node for "111111"
        let mut cuts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        cuts.insert(deep.0, vec![5]);
        let piece = make_piece(&qt.trie, &ctxs, &hasher, None, &cuts);
        // the piece must contain a leaf at depth 5 tagged with `deep`
        let found = piece
            .trie
            .node_ids()
            .any(|id| piece.trie.node(id).depth == 5 && piece.tags[id.idx()] == deep.0);
        assert!(found, "truncated leaf missing:\n{:?}", piece.trie);
        // and no piece node deeper than 5 on that path
        for id in piece.trie.node_ids() {
            if piece.tags[id.idx()] == deep.0 {
                assert!(piece.trie.node(id).depth <= 5);
            }
        }
    }

    #[test]
    fn make_piece_mid_edge_root() {
        let hasher = PolyHasher::with_seed(11);
        let qt = qt_of(&["11111111", "0"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let deep = qt.key_node[0];
        // root the piece at depth 3, inside the edge into `deep`
        let piece = make_piece(
            &qt.trie,
            &ctxs,
            &hasher,
            Some((deep.0, 3)),
            &BTreeMap::new(),
        );
        assert_eq!(piece.root_depth, 3);
        assert_eq!(piece.root_rem, b("111"));
        // remaining 5 bits hang below the piece root
        let child = piece.trie.node(NodeId::ROOT).children[1].expect("child");
        assert_eq!(piece.trie.node(child).edge, b("11111"));
        assert_eq!(piece.tags[child.idx()], deep.0);
    }

    #[test]
    fn make_piece_root_at_node_with_subtree() {
        let hasher = PolyHasher::with_seed(13);
        let qt = qt_of(&["1010", "1011", "10"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let mid = qt.key_node[2]; // node for "10"
        let piece = make_piece(&qt.trie, &ctxs, &hasher, Some((mid.0, 2)), &BTreeMap::new());
        assert_eq!(piece.root_depth, 2);
        // subtree below "10": "10"→"1"→{"0","1"}
        assert_eq!(piece.trie.n_nodes(), 4);
    }
}
