//! The hedged-dispatch wire protocol: tagging duplicated head-key tuples
//! so the aggregation stage can deduplicate them exactly.
//!
//! When the engine hedges a W-Choices head tuple (its chosen instance is
//! stalled past the latency budget), it re-issues a copy to the next
//! candidate. Both copies carry the same *hedge tag* in the otherwise
//! unused tuple payload: a reserved NUL-prefixed marker (real payloads in
//! this codebase are either empty or a `PartialAgg` codec frame, neither
//! of which starts with NUL) followed by a little-endian
//! `u64` id unique per hedge. The aggregator treats the first copy it sees
//! as the observation and drops the second, counting it in [`audit`] so
//! drivers can assert exact conservation: duplicates dropped == hedges
//! issued.

/// Payload prefix marking a hedged tuple copy.
const HEDGE_TAG: &[u8] = b"\x00pkg-ingress:hedge";

/// Encode a hedge tag carrying `id` (the payload for both copies).
pub fn encode_tag(id: u64) -> Box<[u8]> {
    let mut buf = Vec::with_capacity(HEDGE_TAG.len() + 8);
    buf.extend_from_slice(HEDGE_TAG);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.into_boxed_slice()
}

/// `true` when `payload` is a hedge tag.
pub fn is_tagged(payload: &[u8]) -> bool {
    payload.len() == HEDGE_TAG.len() + 8 && payload.starts_with(HEDGE_TAG)
}

/// Decode the hedge id from a tagged payload; `None` for anything else.
pub fn decode_tag(payload: &[u8]) -> Option<u64> {
    if !is_tagged(payload) {
        return None;
    }
    let mut id = [0u8; 8];
    id.copy_from_slice(&payload[HEDGE_TAG.len()..]);
    Some(u64::from_le_bytes(id))
}

/// Process-wide hedge-duplicate audit, in the style of
/// `pkg_engine::tuple::audit`: the deduplicating aggregator lives in
/// `pkg-apps` while the hedges-sent counts live in engine `InstanceStats`, so a
/// crate-neutral counter is the only place both sides can meet for the
/// conservation check (duplicates dropped == hedges issued).
pub mod audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    // ordering: Relaxed — statistics only (see module doc); the counter is
    // read after the run joins every worker, which synchronizes.
    static DUPLICATES: AtomicU64 = AtomicU64::new(0);

    /// Record one deduplicated (dropped) hedge copy.
    pub fn record_duplicate() {
        // ordering: Relaxed — statistics only (see module doc).
        DUPLICATES.fetch_add(1, Ordering::Relaxed);
    }

    /// Total hedge duplicates dropped process-wide. Snapshot before a run
    /// and subtract to scope the count to that run.
    pub fn duplicates() -> u64 {
        // ordering: Relaxed — statistics only (see module doc).
        DUPLICATES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrips() {
        for id in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            let tag = encode_tag(id);
            assert!(is_tagged(&tag));
            assert_eq!(decode_tag(&tag), Some(id));
        }
    }

    #[test]
    fn ordinary_payloads_are_not_tags() {
        assert!(!is_tagged(b""));
        assert!(!is_tagged(b"plain payload"));
        assert_eq!(decode_tag(HEDGE_TAG), None, "tag without an id is not a tag");
        let mut long = encode_tag(7).to_vec();
        long.push(0);
        assert_eq!(decode_tag(&long), None, "length is part of the frame");
    }

    #[test]
    fn duplicate_audit_counts() {
        let before = audit::duplicates();
        audit::record_duplicate();
        audit::record_duplicate();
        assert!(audit::duplicates() - before >= 2);
    }
}
