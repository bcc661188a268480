//! The 128-bit SBBT branch packet (Fig. 2).
//!
//! Each packet is two little-endian 64-bit blocks:
//!
//! * Block 1: bits 63..12 the branch virtual address (52 bits); bits 3..0
//!   the opcode; bits 10..4 reserved; bit 11 the outcome.
//! * Block 2: bits 63..12 the target virtual address; bits 11..0 the number
//!   of instructions executed since the previous branch.
//!
//! Addresses store the 52 architecturally significant bits and are recovered
//! with an *arithmetic* 12-bit shift, which sign-extends kernel-half
//! canonical addresses on x86-64/ARMv8.

use crate::{Branch, BranchRecord, Opcode, TraceError, MAX_GAP};

/// Size of an encoded packet in bytes (128 bits).
pub const PACKET_BYTES: usize = 16;

const OUTCOME_BIT: u64 = 1 << 11;
const RESERVED_MASK: u64 = 0b0111_1111_0000;

/// Whether a 64-bit virtual address survives the 52-bit packet encoding,
/// i.e. its top 13 bits are a sign extension of bit 51.
fn address_encodable(addr: u64) -> bool {
    let shifted = ((addr << 12) as i64 >> 12) as u64;
    shifted == addr
}

/// Encodes a record into a 16-byte SBBT packet.
///
/// # Errors
///
/// [`TraceError::Unencodable`] if the gap exceeds [`MAX_GAP`], an address
/// does not fit the 52-bit encoding, or the record violates the §IV-C
/// validity rules.
pub fn encode_packet(rec: &BranchRecord) -> Result<[u8; PACKET_BYTES], TraceError> {
    let b = rec.branch;
    if rec.gap > MAX_GAP {
        return Err(TraceError::Unencodable(format!(
            "gap {} exceeds the 12-bit maximum {MAX_GAP}",
            rec.gap
        )));
    }
    if !address_encodable(b.ip()) || !address_encodable(b.target()) {
        return Err(TraceError::Unencodable(format!(
            "address {:#x}/{:#x} outside the 52-bit canonical range",
            b.ip(),
            b.target()
        )));
    }
    if !b.is_valid() {
        return Err(TraceError::Unencodable(
            "record violates SBBT validity rules".to_owned(),
        ));
    }
    let block1 =
        (b.ip() << 12) | (b.opcode().bits() as u64) | if b.is_taken() { OUTCOME_BIT } else { 0 };
    let block2 = (b.target() << 12) | rec.gap as u64;
    let mut out = [0u8; PACKET_BYTES];
    out[..8].copy_from_slice(&block1.to_le_bytes());
    out[8..].copy_from_slice(&block2.to_le_bytes());
    Ok(out)
}

/// Decodes a 16-byte SBBT packet.
///
/// # Errors
///
/// [`TraceError::Invalid`] (at byte `position`) if the opcode uses the
/// reserved kind, reserved bits are set, or the validity rules are violated.
pub fn decode_packet(
    bytes: &[u8; PACKET_BYTES],
    position: u64,
) -> Result<BranchRecord, TraceError> {
    let (block1, block2) = crate::bytes::split_u64_pair(bytes);

    if block1 & RESERVED_MASK != 0 {
        return Err(TraceError::invalid("reserved opcode bits set", position));
    }
    let opcode = Opcode::from_bits((block1 & 0xF) as u8)
        .ok_or_else(|| TraceError::invalid("reserved branch kind", position))?;
    let taken = block1 & OUTCOME_BIT != 0;
    let ip = ((block1 as i64) >> 12) as u64;
    let target = ((block2 as i64) >> 12) as u64;
    let gap = (block2 & 0xFFF) as u32;

    let branch = Branch::new(ip, target, opcode, taken);
    if !branch.is_valid() {
        return Err(TraceError::invalid(
            "packet violates outcome/target validity rules",
            position,
        ));
    }
    Ok(BranchRecord::new(branch, gap))
}

/// A decoded packet's fields in column form: the 4-bit opcode encoding is
/// kept as raw bits so the block decoder can write it straight into a
/// [`BranchBatch`](crate::BranchBatch) `ops` column without constructing an
/// [`Opcode`].
pub(crate) struct RawPacket {
    pub ip: u64,
    pub target: u64,
    pub gap: u32,
    pub taken: bool,
    /// The 4-bit SBBT opcode encoding: a reserved pattern only in a packet
    /// [`decode_packet_raw`] flags as malformed.
    pub op_bits: u8,
}

/// Block-decode variant of [`decode_packet`] for the `fill_batch` hot loop:
/// the packet's fields, and whether it breaks a format rule.
///
/// The fields are decoded whatever the flag says, so a block decoder can
/// write every packet and test one flag per block. A flagged packet is
/// rejected by [`decode_packet`] with the error [`malformed_error`] picks,
/// and every other packet decodes to the same record
/// (`decoders_agree_on_every_bit_pattern` pins both). The one-at-a-time
/// [`decode_packet`] stays on `Opcode::from_bits` and `Branch::is_valid`,
/// the canonical statements of the format rules.
#[inline]
pub(crate) fn decode_packet_raw(bytes: &[u8; PACKET_BYTES]) -> (RawPacket, bool) {
    let (block1, block2) = crate::bytes::split_u64_pair(bytes);

    let conditional = block1 & 0b01 != 0;
    let indirect = block1 & 0b10 != 0;
    let taken = block1 & OUTCOME_BIT != 0;
    let target = ((block2 as i64) >> 12) as u64;

    // Reserved bits clear, kind not the reserved `11` pattern, and the
    // §IV-C outcome/target validity rules. The non-short-circuiting `|`
    // keeps the combined test free of branches.
    let malformed = (block1 & RESERVED_MASK != 0)
        | (block1 & 0b1100 == 0b1100)
        | (!conditional & !taken)
        | (conditional & indirect & !taken & (target != 0));

    let packet = RawPacket {
        ip: ((block1 as i64) >> 12) as u64,
        target,
        gap: (block2 & 0xFFF) as u32,
        taken,
        op_bits: (block1 & 0xF) as u8,
    };
    (packet, malformed)
}

/// [`decode_packet_raw`] reassembled into a [`BranchRecord`] — used by the
/// decoder-agreement tests and any caller that wants fast validation with
/// the struct representation.
#[cfg(test)]
pub(crate) fn decode_packet_fast(
    bytes: &[u8; PACKET_BYTES],
    position: u64,
) -> Result<BranchRecord, TraceError> {
    let (p, malformed) = decode_packet_raw(bytes);
    if malformed {
        return Err(malformed_error(bytes, position));
    }
    let kind = match (p.op_bits >> 2) & 0b11 {
        0b00 => crate::BranchKind::Jump,
        0b01 => crate::BranchKind::Ret,
        _ => crate::BranchKind::Call, // `11` was flagged above
    };
    let opcode = Opcode::new(p.op_bits & 0b01 != 0, p.op_bits & 0b10 != 0, kind);
    Ok(BranchRecord::new(
        Branch::new(p.ip, p.target, opcode, p.taken),
        p.gap,
    ))
}

/// The error for a packet [`decode_packet_raw`] flagged, at byte
/// `position`, mirroring the order [`decode_packet`] applies its checks.
#[cold]
pub(crate) fn malformed_error(bytes: &[u8; PACKET_BYTES], position: u64) -> TraceError {
    let (block1, _) = crate::bytes::split_u64_pair(bytes);
    if block1 & RESERVED_MASK != 0 {
        return TraceError::invalid("reserved opcode bits set", position);
    }
    if block1 & 0b1100 == 0b1100 {
        return TraceError::invalid("reserved branch kind", position);
    }
    TraceError::invalid("packet violates outcome/target validity rules", position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchKind;

    fn rec(ip: u64, target: u64, op: Opcode, taken: bool, gap: u32) -> BranchRecord {
        BranchRecord::new(Branch::new(ip, target, op, taken), gap)
    }

    #[test]
    fn roundtrip_simple() {
        let r = rec(0x40_1000, 0x40_2000, Opcode::conditional_direct(), true, 7);
        let bytes = encode_packet(&r).unwrap();
        assert_eq!(decode_packet(&bytes, 0).unwrap(), r);
    }

    #[test]
    fn layout_matches_figure2() {
        let r = rec(0x1000, 0x2000, Opcode::conditional_direct(), true, 5);
        let bytes = encode_packet(&r).unwrap();
        let block1 = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let block2 = u64::from_le_bytes(bytes[8..].try_into().unwrap());
        assert_eq!(block1 >> 12, 0x1000, "ip in top 52 bits");
        assert_eq!(block1 & 0xF, 0b0001, "conditional direct jump opcode");
        assert_eq!(block1 >> 11 & 1, 1, "outcome bit");
        assert_eq!(block2 >> 12, 0x2000, "target in top 52 bits");
        assert_eq!(block2 & 0xFFF, 5, "gap in low 12 bits");
    }

    #[test]
    fn kernel_half_addresses_sign_extend() {
        // A canonical kernel-space address: top bits all ones.
        let ip = 0xFFFF_FFFF_FFE0_1230u64;
        let r = rec(ip, ip + 16, Opcode::unconditional_direct(), true, 0);
        let bytes = encode_packet(&r).unwrap();
        let back = decode_packet(&bytes, 0).unwrap();
        assert_eq!(back.branch.ip(), ip);
        assert_eq!(back.branch.target(), ip + 16);
    }

    #[test]
    fn non_canonical_address_rejected() {
        // Bit 52 set but not sign-extended: unencodable in 52 bits.
        let r = rec(1 << 52, 0, Opcode::unconditional_direct(), true, 0);
        assert!(matches!(encode_packet(&r), Err(TraceError::Unencodable(_))));
    }

    #[test]
    fn oversized_gap_rejected() {
        let r = rec(0x1000, 0x2000, Opcode::conditional_direct(), true, 4096);
        assert!(matches!(encode_packet(&r), Err(TraceError::Unencodable(_))));
    }

    #[test]
    fn max_gap_accepted() {
        let r = rec(0x1000, 0x2000, Opcode::conditional_direct(), false, 4095);
        let bytes = encode_packet(&r).unwrap();
        assert_eq!(decode_packet(&bytes, 0).unwrap().gap, 4095);
    }

    #[test]
    fn invalid_records_rejected_on_encode() {
        // Non-conditional not-taken.
        let r = rec(0x1000, 0x2000, Opcode::unconditional_direct(), false, 0);
        assert!(encode_packet(&r).is_err());
        // Conditional indirect not-taken with non-null target.
        let op = Opcode::new(true, true, BranchKind::Jump);
        let r = rec(0x1000, 0x2000, op, false, 0);
        assert!(encode_packet(&r).is_err());
    }

    #[test]
    fn invalid_packets_rejected_on_decode() {
        // Craft a packet with reserved bits set.
        let r = rec(0x1000, 0x2000, Opcode::conditional_direct(), true, 0);
        let mut bytes = encode_packet(&r).unwrap();
        bytes[0] |= 0b0001_0000; // reserved bit 4
        assert!(matches!(
            decode_packet(&bytes, 160),
            Err(TraceError::Invalid { position: 160, .. })
        ));

        // Craft a packet with the reserved kind bits (11).
        let mut bytes = encode_packet(&r).unwrap();
        bytes[0] |= 0b0000_1100;
        assert!(decode_packet(&bytes, 0).is_err());

        // Unconditional + not-taken violates rule 1.
        let mut bytes = encode_packet(&r).unwrap();
        bytes[0] &= !1; // clear conditional bit
        bytes[1] &= !(1 << 3); // clear outcome bit (bit 11 of block1)
        assert!(decode_packet(&bytes, 0).is_err());
    }

    #[test]
    fn decoders_agree_on_every_bit_pattern() {
        // Sweep the full format-rule space: every opcode nibble, outcome
        // bit, each reserved bit, and null/non-null targets. The fast
        // block decoder must accept, reject, and report positions exactly
        // like the canonical one.
        for low_bits in 0u64..4096 {
            for target in [0u64, 0x40_2000] {
                let block1 = (0x40_1000u64 << 12) | low_bits;
                let block2 = (target << 12) | 17;
                let mut bytes = [0u8; PACKET_BYTES];
                bytes[..8].copy_from_slice(&block1.to_le_bytes());
                bytes[8..].copy_from_slice(&block2.to_le_bytes());
                let canonical = decode_packet(&bytes, 4242);
                let fast = decode_packet_fast(&bytes, 4242);
                match (&canonical, &fast) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "block1 {block1:#x}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "block1 {block1:#x}")
                    }
                    _ => {
                        panic!("decoders disagree on block1 {block1:#x}: {canonical:?} vs {fast:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn all_kinds_roundtrip() {
        for op in [
            Opcode::conditional_direct(),
            Opcode::unconditional_direct(),
            Opcode::call(),
            Opcode::ret(),
            Opcode::indirect_jump(),
            Opcode::new(true, true, BranchKind::Jump),
        ] {
            let r = rec(0xABC_DEF0, 0x123_4560, op, true, 42);
            let bytes = encode_packet(&r).unwrap();
            assert_eq!(decode_packet(&bytes, 0).unwrap(), r, "{op}");
        }
    }
}
