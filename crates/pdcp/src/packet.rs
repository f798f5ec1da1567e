//! Five-tuple flow identification.
//!
//! OutRAN identifies flows "based on the five tuple information (src/dst
//! IPs, src/dst ports, protocol)" (§4.2). The simulator carries packets as
//! light metadata records; a real byte-level header parser is provided for
//! the unit tests and for parity with the srsRAN patch (which inspects
//! headers before PDCP header compression).

/// Transport-protocol numbers we care about.
pub mod proto {
    /// TCP protocol number.
    pub const TCP: u8 = 6;
    /// UDP protocol number (QUIC rides on this).
    pub const UDP: u8 = 17;
}

/// The flow key: src/dst IPv4 addresses, src/dst ports, protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Convenience constructor for simulated flows: server `flow_id` to a
    /// given UE index, TCP.
    pub fn simulated(flow_id: u64, ue: u16) -> FiveTuple {
        FiveTuple {
            src_ip: 0x0a00_0001, // 10.0.0.1 (server)
            dst_ip: 0xac10_0000 | ue as u32,
            src_port: 443,
            dst_port: (10_000 + (flow_id % 50_000)) as u16,
            proto: proto::TCP,
        }
    }

    /// Serialized size of this key in the flow state (§7: 37 bytes for the
    /// five-tuple as stored by the srsRAN patch, which keeps IPv6-capable
    /// address slots).
    pub const STATE_BYTES: usize = 37;

    /// Parse the five-tuple out of a raw IPv4 header + L4 header prefix.
    ///
    /// Returns `None` for non-IPv4 or truncated buffers. Only the fields
    /// needed for the key are touched; options are skipped via IHL.
    pub fn parse_ipv4(buf: &[u8]) -> Option<FiveTuple> {
        if buf.len() < 20 {
            return None;
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return None;
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < 20 || buf.len() < ihl + 4 {
            return None;
        }
        let proto = buf[9];
        let src_ip = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
        let dst_ip = u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]);
        let src_port = u16::from_be_bytes([buf[ihl], buf[ihl + 1]]);
        let dst_port = u16::from_be_bytes([buf[ihl + 2], buf[ihl + 3]]);
        Some(FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        })
    }

    /// Length in bytes of the header written by
    /// [`FiveTuple::write_ipv4_header`] (IPv4 IHL=5 + 4 bytes of L4
    /// ports).
    pub const IPV4_HEADER_LEN: usize = 24;

    /// Render a minimal IPv4+L4 header carrying this tuple into a
    /// caller-provided buffer — the allocation-free form for per-packet
    /// hot paths; reuse one `[0u8; Self::IPV4_HEADER_LEN]` across calls.
    pub fn write_ipv4_header(&self, h: &mut [u8; Self::IPV4_HEADER_LEN]) {
        h.fill(0);
        h[0] = 0x45; // v4, IHL=5
        h[9] = self.proto;
        h[12..16].copy_from_slice(&self.src_ip.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst_ip.to_be_bytes());
        h[20..22].copy_from_slice(&self.src_port.to_be_bytes());
        h[22..24].copy_from_slice(&self.dst_port.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let t = FiveTuple {
            src_ip: 0xc0a8_0101,
            dst_ip: 0x0808_0808,
            src_port: 443,
            dst_port: 51234,
            proto: proto::TCP,
        };
        // Stale scratch contents must not leak into the header.
        let mut buf = [0xFFu8; FiveTuple::IPV4_HEADER_LEN];
        t.write_ipv4_header(&mut buf);
        assert_eq!(FiveTuple::parse_ipv4(&buf), Some(t));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(FiveTuple::parse_ipv4(&[]), None);
        assert_eq!(FiveTuple::parse_ipv4(&[0u8; 10]), None);
        // IPv6 version nibble.
        let mut v6 = vec![0u8; 40];
        v6[0] = 0x60;
        assert_eq!(FiveTuple::parse_ipv4(&v6), None);
        // Bad IHL.
        let mut bad = vec![0u8; 24];
        bad[0] = 0x42;
        assert_eq!(FiveTuple::parse_ipv4(&bad), None);
    }

    #[test]
    fn parse_skips_ip_options() {
        let t = FiveTuple {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: proto::UDP,
        };
        // IHL=6 (one option word).
        let mut buf = vec![0u8; 28];
        buf[0] = 0x46;
        buf[9] = t.proto;
        buf[12..16].copy_from_slice(&t.src_ip.to_be_bytes());
        buf[16..20].copy_from_slice(&t.dst_ip.to_be_bytes());
        buf[24..26].copy_from_slice(&t.src_port.to_be_bytes());
        buf[26..28].copy_from_slice(&t.dst_port.to_be_bytes());
        assert_eq!(FiveTuple::parse_ipv4(&buf), Some(t));
    }

    #[test]
    fn simulated_tuples_distinct_per_flow_and_ue() {
        let a = FiveTuple::simulated(1, 0);
        let b = FiveTuple::simulated(2, 0);
        let c = FiveTuple::simulated(1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
