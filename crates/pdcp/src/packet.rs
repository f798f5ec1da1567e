//! Five-tuple flow identification.
//!
//! OutRAN identifies flows "based on the five tuple information (src/dst
//! IPs, src/dst ports, protocol)" (§4.2). The srsRAN patch reads it from
//! the IP header before PDCP header compression; the simulator carries
//! packets as light metadata records, so each record holds its key.

/// Transport-protocol numbers we care about.
pub mod proto {
    /// TCP protocol number.
    pub const TCP: u8 = 6;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_tuples_distinct_per_flow_and_ue() {
        let a = FiveTuple::simulated(1, 0);
        let b = FiveTuple::simulated(2, 0);
        let c = FiveTuple::simulated(1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
