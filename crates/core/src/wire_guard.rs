//! CRC-64-sealed wire envelopes and the module side of the recovery
//! protocol.
//!
//! When [`PimTrieConfig::fault_tolerance`](crate::PimTrieConfig) is on,
//! every CPU↔PIM message travels inside a [`SealedReq`] / [`SealedResp`]
//! envelope: a `(seq, idx)` frame header identifying the request within
//! its round, plus a CRC-64/ECMA checksum ([`seal_crc`]) over the header
//! and the payload's standalone structural frame — the same field schema
//! ([`crate::codec::Encode`]) that Compact metering encodes, so each
//! message has one field description for both. The CRC is the
//! plain-remainder one of [`bitstr::crc::Crc64Hasher`] (the paper's
//! "second incremental hash"), run table-driven over the words. The
//! envelope costs two extra wire words per message; with fault tolerance
//! off none of this code runs and metering is bit-identical to the
//! unguarded build. Receivers do not decode frames yet, so injected
//! flips land on the envelope (`seq`/`idx` or the CRC word), never on
//! payload fields.
//!
//! The module side ([`handle_sealed`]) implements three defenses:
//!
//! * **integrity** — a request whose checksum does not verify is answered
//!   with [`Resp::CorruptReq`] and *not executed*, so a corrupted mutation
//!   can never be applied;
//! * **at-most-once execution** — replies of the current round sequence
//!   are cached by `(seq, idx)`, so when the host retries a request whose
//!   *reply* was lost or corrupted, the module returns the cached reply
//!   instead of re-executing a (possibly mutating) request;
//! * **crash fencing** — a module whose memory was wiped by a crash
//!   answers every request with [`Resp::Rebooted`] until the host resets
//!   it with [`Req::ResetModule`], instead of panicking on dangling slots.
//!
//! The host side (the retry ladder in `PimTrie::rounds`) lives in
//! `build.rs`. With tracing enabled
//! ([`PimTrie::enable_tracing`](crate::PimTrie::enable_tracing)), every
//! retry round the ladder issues is attributed to the
//! [`pim_sim::RETRANSMIT_PHASE`] (`recovery/retransmit`) trace phase and
//! its retried-request count lands on the same scope, so sealed-wire
//! recovery cost is separable from the op's own rounds in the trace.

use crate::codec::{standalone_frame, Encode};
use crate::module::{handle, ModuleState, Req, Resp};
use bitstr::crc::Crc64Hasher;
use bitstr::hash::{HashVal, PolyHasher};
use pim_sim::{PimCtx, Wire};
use std::sync::OnceLock;

fn crc64() -> &'static Crc64Hasher {
    // lint: allow(global-state) — memoized CRC-64/ECMA lookup table: the
    // init is a pure function of the fixed polynomial, so every thread
    // observes the identical table regardless of who initializes it.
    static CRC: OnceLock<Crc64Hasher> = OnceLock::new();
    CRC.get_or_init(Crc64Hasher::ecma)
}

/// The seal: CRC-64/ECMA of the word stream `[domain, seq, idx]`
/// followed by the inner message's standalone structural frame (the
/// compact encoding of `inner` alone, see [`standalone_frame`]). The
/// frame is lossless, so every field of the message — shipped tries and
/// query pieces included — is covered, and it depends on the value only,
/// not on its place in the round's group or on the negotiated codec.
pub(crate) fn seal_crc<T: Encode>(domain: u64, seq: u64, idx: u32, inner: &T) -> u64 {
    let crc = crc64();
    let head = crc.extend_words(HashVal(0), &[domain, seq, idx as u64]);
    crc.extend_words(head, standalone_frame(inner).words()).0
}

macro_rules! sealed {
    ($name:ident, $inner:ty, $domain:expr) => {
        /// A CRC-64-framed wire envelope (see module docs).
        #[derive(Clone)]
        pub(crate) struct $name {
            /// Round sequence number (one per `PimTrie::rounds` call).
            pub seq: u64,
            /// Index of the request within the module's inbox.
            pub idx: u32,
            /// CRC-64 over the frame header and the payload's frame.
            pub crc: u64,
            /// The payload.
            pub inner: $inner,
        }

        impl $name {
            pub fn seal(seq: u64, idx: u32, inner: $inner) -> Self {
                let crc = seal_crc($domain, seq, idx, &inner);
                $name {
                    seq,
                    idx,
                    crc,
                    inner,
                }
            }

            /// Recompute the checksum and compare.
            pub fn verify(&self) -> bool {
                self.crc == seal_crc($domain, self.seq, self.idx, &self.inner)
            }
        }

        impl Wire for $name {
            /// Header word (`seq`/`idx`) + CRC word + payload.
            fn wire_words(&self) -> u64 {
                2 + self.inner.wire_words()
            }

            /// Fan the flip over the whole frame: word 0 hits `seq`/`idx`,
            /// every later word the CRC word, so every injected flip both
            /// lands and is detectable.
            fn flip_bit(&mut self, r: u64) -> bool {
                let words = self.wire_words();
                let bit = r / words;
                if r % words == 0 {
                    if bit % 64 < 48 {
                        self.seq ^= 1 << (bit % 48);
                    } else {
                        self.idx ^= 1 << (bit % 32);
                    }
                } else {
                    // Payload flips wait for receivers that decode: handlers
                    // get Rust values, so a flip past the CRC word is
                    // rerouted to it.
                    self.crc ^= 1 << (bit % 64);
                }
                true
            }

            /// Compact frame: delta-coded `seq`, varint `idx`, the raw
            /// CRC word (incompressible), then the payload's structural
            /// frame (see [`crate::codec`]). The CRC covers the payload's
            /// *standalone* frame, so it is the same under either codec;
            /// fault flips land on encoded word indices but corrupt
            /// envelope fields, so detection is unchanged too.
            fn encode_frame(&self, enc: &mut pim_sim::Enc) {
                enc.put_delta(pim_sim::codec_stream::SEQ, self.seq);
                enc.put_varint(self.idx as u64);
                enc.put_word(self.crc);
                self.inner.enc(enc);
            }
        }
    };
}

sealed!(SealedReq, Req, 0x5EA1_0001);
sealed!(SealedResp, Resp, 0x5EA1_0002);

/// Module-side sealed request processing: crash fencing, integrity check,
/// at-most-once execution (see module docs), then the ordinary
/// [`handle`].
pub(crate) fn handle_sealed(
    ctx: &mut PimCtx<'_, ModuleState>,
    hasher: &PolyHasher,
    sreq: SealedReq,
) -> SealedResp {
    // A module that lost its memory cannot serve anything until the host
    // resets it — except the reset itself.
    if ctx.state.crashed && !matches!(sreq.inner, Req::ResetModule) {
        return SealedResp::seal(sreq.seq, sreq.idx, Resp::Rebooted);
    }
    if !sreq.verify() {
        return SealedResp::seal(sreq.seq, sreq.idx, Resp::CorruptReq);
    }
    if sreq.seq > ctx.state.cache_seq {
        ctx.state.cache_seq = sreq.seq;
        ctx.state.reply_cache.clear();
    }
    if let Some(r) = ctx.state.reply_cache.get(&(sreq.seq, sreq.idx)) {
        let cached = r.clone();
        return SealedResp::seal(sreq.seq, sreq.idx, cached);
    }
    let (seq, idx) = (sreq.seq, sreq.idx);
    let resp = handle(ctx, hasher, sreq.inner);
    ctx.state.reply_cache.insert((seq, idx), resp.clone());
    SealedResp::seal(seq, idx, resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{BitsMsg, TrieMsg};
    use bitstr::BitStr;

    #[test]
    fn seal_verify_roundtrip() {
        let s = SealedReq::seal(3, 1, Req::FetchBlock { slot: 9 });
        assert!(s.verify());
        assert_eq!(s.wire_words(), 3);
    }

    #[test]
    fn any_flip_is_detected() {
        for r in 0..512u64 {
            let mut s = SealedReq::seal(7, 2, Req::DropBlock { slot: 4 });
            assert!(s.flip_bit(r));
            assert!(!s.verify(), "flip {r} went undetected");
        }
        for r in 0..512u64 {
            let mut s = SealedResp::seal(
                7,
                2,
                Resp::Placed {
                    slot: 1,
                    node_slots: vec![4, 5],
                    count: 2,
                },
            );
            assert!(s.flip_bit(r));
            assert!(!s.verify(), "resp flip {r} went undetected");
        }
    }

    fn trie(keys: &[(&str, u64)]) -> trie_core::Trie {
        let mut t = trie_core::Trie::new();
        for &(k, v) in keys {
            t.insert(&BitStr::from_bin_str(k), v);
        }
        t
    }

    fn piece(t: trie_core::Trie) -> crate::hvm::QueryPiece {
        let tags = (0..t.id_bound() as u32).collect();
        crate::hvm::QueryPiece {
            trie: t,
            tags,
            root_depth: 9,
            root_pre_hash: HashVal(3),
            root_rem: BitStr::from_bin_str("01"),
        }
    }

    fn put_block(t: trie_core::Trie) -> Req {
        Req::PutBlock(crate::module::PutBlockMsg {
            trie: TrieMsg(t),
            root_depth: 64,
            root_hash: HashVal(11),
            s_last: BitsMsg(BitStr::from_bin_str("0011")),
            pre_hash: HashVal(12),
            rem: BitsMsg(BitStr::from_bin_str("01")),
            parent: None,
            mirrors: vec![],
        })
    }

    /// Tries and query pieces are sealed by content, not by size: two
    /// messages whose tries have equal wire sizes but differ in one edge
    /// bit or one value get different CRCs.
    #[test]
    fn seal_covers_trie_and_piece_content() {
        let base = [("00110", 1), ("01011", 2), ("1110", 3)];
        let edge_bit = [("00111", 1), ("01011", 2), ("1110", 3)];
        let value = [("00110", 1), ("01011", 7), ("1110", 3)];
        for other in [&edge_bit, &value] {
            let (a, b) = (trie(&base), trie(other));
            assert_eq!(a.size_words(), b.size_words());
            let ra = SealedReq::seal(1, 0, put_block(a.clone()));
            let rb = SealedReq::seal(1, 0, put_block(b.clone()));
            assert_eq!(ra.wire_words(), rb.wire_words());
            assert_ne!(ra.crc, rb.crc, "PutBlock trie content not sealed");
            let pa = SealedReq::seal(1, 0, Req::MatchMaster(piece(a.clone())));
            let pb = SealedReq::seal(1, 0, Req::MatchMaster(piece(b.clone())));
            assert_eq!(pa.wire_words(), pb.wire_words());
            assert_ne!(pa.crc, pb.crc, "query piece content not sealed");
            let subtree = |t| Resp::Subtree {
                trie: TrieMsg(t),
                children: vec![],
                depth: 5,
            };
            let sa = SealedResp::seal(1, 0, subtree(a));
            let sb = SealedResp::seal(1, 0, subtree(b));
            assert_eq!(sa.wire_words(), sb.wire_words());
            assert_ne!(sa.crc, sb.crc, "reply trie content not sealed");
        }
    }

    #[test]
    fn different_payloads_differ() {
        let a = SealedReq::seal(1, 0, Req::FetchBlock { slot: 1 });
        let b = SealedReq::seal(1, 0, Req::FetchBlock { slot: 2 });
        assert_ne!(a.crc, b.crc);
        let c = SealedReq::seal(2, 0, Req::FetchBlock { slot: 1 });
        assert_ne!(a.crc, c.crc);
    }
}
