//! The simulated packet.
//!
//! Payload bytes are counted, not stored — a packet-level simulator only
//! needs sizes, sequence numbers and flags. Wire size accounts for IP+TCP
//! headers and per-frame Ethernet overhead (header, FCS, preamble, IFG) so
//! that goodput comes out a few percent below line rate, as on real links
//! (the paper's DWRR experiment reports ≈9.6 Gbps goodput on a 10 Gbps
//! port).
//!
//! # Layout
//!
//! `Packet` is copied on every hop (port ring → wire event → next ring),
//! so its size is a first-order cache cost at fig9 scale. The struct is
//! packed to fit one cache line: `seq`/`ack`/`payload` are `u32`
//! (per-flow byte offsets — flows are capped at 4 GiB, two orders above
//! the largest figure workload, checked by the constructors), and the
//! four control flags, the ECN codepoint and the service class share one
//! 16-bit flag word. A compile-time assertion pins `size_of::<Packet>()`
//! at ≤ 64 bytes so a field addition cannot silently spill to two lines.

use crate::ids::{FlowId, NodeId};
use ecnsharp_sim::{bytes, SimTime};

/// One cache line: the packed [`Packet`] must never outgrow it.
const _: () = assert!(std::mem::size_of::<Packet>() <= 64);

/// ECN codepoint of a packet (RFC 3168, ECT(0)/ECT(1) folded together).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecn {
    /// Not ECN-capable transport.
    NotEct,
    /// ECN-capable, not marked.
    Ect,
    /// Congestion experienced.
    Ce,
}

impl Ecn {
    /// Is the packet ECN-capable (markable)?
    #[inline]
    pub fn is_ect(self) -> bool {
        !matches!(self, Ecn::NotEct)
    }

    /// Has the packet been marked?
    #[inline]
    pub fn is_ce(self) -> bool {
        matches!(self, Ecn::Ce)
    }
}

/// TCP-ish control flags (only the ones the simulation needs). This is a
/// *view*: [`Packet::flags`] unpacks the flag word into one, and the
/// per-flag setters on `Packet` write back into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Connection-open request.
    pub syn: bool,
    /// Final segment of the flow.
    pub fin: bool,
    /// Carries a (cumulative) acknowledgement.
    pub ack: bool,
    /// ECN-Echo: the receiver has seen CE (DCTCP echoes per-packet).
    pub ece: bool,
}

// Flag-word layout: four control bits, two ECN bits, class byte on top.
const FW_SYN: u16 = 1 << 0;
const FW_FIN: u16 = 1 << 1;
const FW_ACK: u16 = 1 << 2;
const FW_ECE: u16 = 1 << 3;
const FW_ECN_SHIFT: u16 = 4;
const FW_ECN_MASK: u16 = 0b11 << FW_ECN_SHIFT;
const FW_CLASS_SHIFT: u16 = 8;

/// A simulated packet, packed into a single cache line (≤ 64 bytes,
/// compile-time asserted).
///
/// Byte offsets (`seq`, `ack`, `payload`) are stored as `u32` — the
/// constructors check the 4 GiB-per-flow invariant — and read back as
/// `u64` through accessors so arithmetic at the call sites stays in the
/// wide domain. Flags, the ECN codepoint and the service class share a
/// private flag word behind accessors.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// First payload byte's offset within the flow (data packets).
    seq: u32,
    /// Cumulative acknowledgement (valid when `flags().ack`).
    ack: u32,
    /// Payload bytes carried.
    payload: u32,
    /// Packed syn/fin/ack/ece + ECN codepoint + service class.
    fw: u16,
    /// Timestamp option: senders stamp data packets with their send time;
    /// receivers echo it in the triggered ACK, giving the sender clean RTT
    /// samples even across retransmissions.
    pub ts: SimTime,
    /// Scratch: when this packet entered the egress queue of the hop it is
    /// currently traversing. Set by the port at enqueue; only meaningful
    /// inside a port.
    pub enqueued_at: SimTime,
}

/// Check the 4 GiB per-flow byte-offset invariant on narrow stores.
#[inline]
fn narrow(v: u64, what: &str) -> u32 {
    debug_assert!(v <= u32::MAX as u64, "packet {what} {v} exceeds 4 GiB");
    let _ = what;
    v as u32
}

impl Packet {
    /// A data segment.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, payload: u64) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq: narrow(seq, "seq"),
            ack: 0,
            payload: narrow(payload, "payload"),
            fw: (Ecn::Ect as u16) << FW_ECN_SHIFT,
            ts: SimTime::ZERO,
            enqueued_at: SimTime::ZERO,
        }
    }

    /// A pure acknowledgement from `src` to `dst` acking `ack` bytes.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, ack: u64) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq: 0,
            ack: narrow(ack, "ack"),
            payload: 0,
            fw: FW_ACK | (Ecn::Ect as u16) << FW_ECN_SHIFT,
            ts: SimTime::ZERO,
            enqueued_at: SimTime::ZERO,
        }
    }

    /// First payload byte's offset within the flow.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq as u64
    }

    /// Cumulative acknowledgement (valid when `flags().ack`).
    #[inline]
    pub fn ack_no(&self) -> u64 {
        self.ack as u64
    }

    /// Payload bytes carried.
    #[inline]
    pub fn payload(&self) -> u64 {
        self.payload as u64
    }

    /// Control flags, unpacked from the flag word.
    #[inline]
    pub fn flags(&self) -> Flags {
        Flags {
            syn: self.fw & FW_SYN != 0,
            fin: self.fw & FW_FIN != 0,
            ack: self.fw & FW_ACK != 0,
            ece: self.fw & FW_ECE != 0,
        }
    }

    /// Set/clear the SYN flag.
    #[inline]
    pub fn set_syn(&mut self, v: bool) {
        self.set_bit(FW_SYN, v);
    }

    /// Set/clear the FIN flag.
    #[inline]
    pub fn set_fin(&mut self, v: bool) {
        self.set_bit(FW_FIN, v);
    }

    /// Set/clear the ECN-Echo flag.
    #[inline]
    pub fn set_ece(&mut self, v: bool) {
        self.set_bit(FW_ECE, v);
    }

    #[inline]
    fn set_bit(&mut self, bit: u16, v: bool) {
        if v {
            self.fw |= bit;
        } else {
            self.fw &= !bit;
        }
    }

    /// ECN codepoint.
    #[inline]
    pub fn ecn(&self) -> Ecn {
        match (self.fw & FW_ECN_MASK) >> FW_ECN_SHIFT {
            0 => Ecn::NotEct,
            1 => Ecn::Ect,
            _ => Ecn::Ce,
        }
    }

    /// Overwrite the ECN codepoint (AQM marking, sender codepoint setup).
    #[inline]
    pub fn set_ecn(&mut self, e: Ecn) {
        self.fw = (self.fw & !FW_ECN_MASK) | ((e as u16) << FW_ECN_SHIFT);
    }

    /// Service class for multi-queue schedulers (0 = default/highest).
    #[inline]
    pub fn class(&self) -> u8 {
        (self.fw >> FW_CLASS_SHIFT) as u8
    }

    /// Set the service class.
    #[inline]
    pub fn set_class(&mut self, c: u8) {
        self.fw = (self.fw & 0xff) | ((c as u16) << FW_CLASS_SHIFT);
    }

    /// Bytes that occupy buffer space and serialization time at a port:
    /// payload + IP/TCP headers + Ethernet framing, floored at the minimum
    /// Ethernet frame (64 B on the wire + 20 B preamble/IFG).
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        (self.payload as u64 + bytes::HDR + bytes::ETH_OVERHEAD).max(84)
    }

    /// IP-level size (payload + headers) — what byte-counted buffer
    /// thresholds like Eq. 1's `K` conventionally refer to.
    #[inline]
    pub fn ip_bytes(&self) -> u64 {
        self.payload as u64 + bytes::HDR
    }

    /// Sequence number one past the last payload byte (or `seq` itself for
    /// empty segments; SYN/FIN consume one virtual byte like real TCP so
    /// they can be acknowledged).
    #[inline]
    pub fn seq_end(&self) -> u64 {
        self.seq as u64
            + self.payload as u64
            + (self.fw & FW_SYN != 0) as u64
            + (self.fw & FW_FIN != 0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_of_full_segment() {
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, bytes::MSS);
        assert_eq!(p.wire_bytes(), 1460 + 40 + 38);
        assert_eq!(p.ip_bytes(), 1500);
    }

    #[test]
    fn ack_padded_to_min_frame() {
        let p = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 1000);
        assert_eq!(p.wire_bytes(), 84);
        assert!(p.flags().ack);
        assert_eq!(p.payload(), 0);
        assert_eq!(p.ack_no(), 1000);
    }

    #[test]
    fn seq_end_counts_syn_fin() {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 100, 50);
        assert_eq!(p.seq_end(), 150);
        p.set_syn(true);
        assert_eq!(p.seq_end(), 151);
        p.set_fin(true);
        assert_eq!(p.seq_end(), 152);
    }

    #[test]
    fn ecn_predicates() {
        assert!(!Ecn::NotEct.is_ect());
        assert!(Ecn::Ect.is_ect());
        assert!(Ecn::Ce.is_ect());
        assert!(Ecn::Ce.is_ce());
        assert!(!Ecn::Ect.is_ce());
    }

    #[test]
    fn flag_word_round_trips() {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100);
        assert_eq!(p.flags(), Flags::default());
        assert_eq!(p.ecn(), Ecn::Ect);
        assert_eq!(p.class(), 0);
        p.set_ece(true);
        p.set_class(3);
        p.set_ecn(Ecn::Ce);
        assert!(p.flags().ece && !p.flags().syn);
        assert_eq!(p.ecn(), Ecn::Ce);
        assert_eq!(p.class(), 3);
        p.set_ece(false);
        p.set_ecn(Ecn::NotEct);
        assert!(!p.flags().ece);
        assert_eq!(p.ecn(), Ecn::NotEct);
        assert_eq!(p.class(), 3, "class survives flag churn");
    }

    #[test]
    fn packet_fits_one_cache_line() {
        assert!(std::mem::size_of::<Packet>() <= 64);
    }

    #[test]
    fn goodput_overhead_ratio() {
        // MSS payload per 1538 wire bytes => ~94.9% goodput at line rate,
        // matching the ~9.6/10 Gbps the paper reports.
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, bytes::MSS);
        let eff = p.payload() as f64 / p.wire_bytes() as f64;
        assert!(eff > 0.94 && eff < 0.96, "{eff}");
    }
}
