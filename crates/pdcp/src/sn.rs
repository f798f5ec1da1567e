//! PDCP sequence numbering and ciphering, with OutRAN's delayed mode.
//!
//! In standard LTE/5G, the PDCP transmitter assigns each data PDU an
//! incrementing Sequence Number (SN) at ingress and ciphers the payload
//! with a keystream keyed by the COUNT (HFN‖SN). The receiver keeps a
//! mirrored COUNT and deciphers in arrival order. That works because the
//! legacy RLC transmits SDUs FIFO.
//!
//! OutRAN reorders SDUs (MLFQ), so an SN stamped at ingress no longer
//! matches the receiver's COUNT at arrival → garbled plaintext. §4.4:
//! "OutRAN delays the PDCP's SN numbering & ciphering and performs the
//! process at the RLC layer, right before submitting the RLC PDUs to the
//! MAC layer."
//!
//! [`PdcpTx`] supports both modes so the tests can demonstrate exactly the
//! failure the paper designs around: [`SnMode::AtIngress`] breaks under
//! reordering, [`SnMode::Delayed`] does not.
//!
//! Ciphering is modelled as XOR with a COUNT-keyed keystream (the
//! structure of EEA2/NEA2 counter mode without pulling in a crypto
//! dependency — the *synchronisation* property is what matters here).

/// When SN assignment + ciphering happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnMode {
    /// Legacy PDCP: number & cipher when the packet enters PDCP.
    AtIngress,
    /// OutRAN: number & cipher at RLC dequeue, in transmission order.
    Delayed,
}

/// COUNT-keyed keystream generator (toy counter-mode stream).
#[derive(Debug, Clone, Copy)]
pub struct CipherStream {
    key: u64,
}

impl CipherStream {
    /// Create with a bearer key.
    pub fn new(key: u64) -> CipherStream {
        CipherStream { key }
    }

    /// XOR `data` with the keystream for `count` (involutive: applying it
    /// twice with the same count restores the plaintext).
    pub fn apply(&self, count: u32, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut state = self
            .key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(count as u64);
        let mut ks = 0u64;
        for (i, &b) in data.iter().enumerate() {
            if i % 8 == 0 {
                // SplitMix64 step per 8-byte block.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ks = z ^ (z >> 31);
            }
            out.push(b ^ (ks >> ((i % 8) * 8)) as u8);
        }
        out
    }
}

/// A PDCP PDU after (possibly deferred) numbering/ciphering.
#[derive(Debug, Clone)]
pub struct PdcpPdu {
    /// Assigned sequence number (None while numbering is deferred).
    pub sn: Option<u32>,
    /// Payload, ciphered iff `sn` is assigned.
    pub payload: Vec<u8>,
}

/// PDCP transmitter entity for one bearer.
#[derive(Debug, Clone)]
pub struct PdcpTx {
    mode: SnMode,
    next_sn: u32,
    cipher: CipherStream,
}

impl PdcpTx {
    /// Create a transmitter in the given mode with a bearer key.
    pub fn new(mode: SnMode, key: u64) -> PdcpTx {
        PdcpTx {
            mode,
            next_sn: 0,
            cipher: CipherStream::new(key),
        }
    }

    /// The numbering mode.
    pub fn mode(&self) -> SnMode {
        self.mode
    }

    /// SN that will be assigned next.
    pub fn next_sn(&self) -> u32 {
        self.next_sn
    }

    /// Ingress processing of an IP packet payload.
    ///
    /// * `AtIngress`: assign SN now and cipher.
    /// * `Delayed`: pass through unnumbered/plaintext; call
    ///   [`PdcpTx::finalize`] at dequeue time.
    pub fn on_ingress(&mut self, payload: Vec<u8>) -> PdcpPdu {
        match self.mode {
            SnMode::AtIngress => {
                let sn = self.bump();
                PdcpPdu {
                    sn: Some(sn),
                    payload: self.cipher.apply(sn, &payload),
                }
            }
            SnMode::Delayed => PdcpPdu { sn: None, payload },
        }
    }

    /// Deferred numbering + ciphering, applied in *transmission* order
    /// right before MAC submission (OutRAN's workflow step ③, Fig 10).
    /// No-op for PDUs already numbered at ingress.
    pub fn finalize(&mut self, pdu: &mut PdcpPdu) {
        if pdu.sn.is_none() {
            let sn = self.bump();
            pdu.payload = self.cipher.apply(sn, &pdu.payload);
            pdu.sn = Some(sn);
        }
    }

    fn bump(&mut self) -> u32 {
        let sn = self.next_sn;
        // 18-bit SN space as in NR PDCP; wraps (HFN handled by COUNT in a
        // real stack; the toy model keeps the full u32 as COUNT).
        self.next_sn = self.next_sn.wrapping_add(1);
        sn
    }
}

/// PDCP receiver entity (UE side): deciphers strictly in COUNT order, as
/// a real UE whose COUNT mirrors arrival order would.
#[derive(Debug, Clone)]
pub struct PdcpRx {
    expected_count: u32,
    cipher: CipherStream,
}

impl PdcpRx {
    /// Create a receiver sharing the bearer key.
    pub fn new(key: u64) -> PdcpRx {
        PdcpRx {
            expected_count: 0,
            cipher: CipherStream::new(key),
        }
    }

    /// Decipher the next arriving PDU using the receiver's own COUNT (the
    /// sender's SN field is *not* consulted for keystream selection —
    /// this mirrors the synchronisation hazard of §4.4: if transmission
    /// order diverged from numbering order, the keystreams mismatch).
    pub fn on_arrival(&mut self, pdu: &PdcpPdu) -> Vec<u8> {
        let count = self.expected_count;
        self.expected_count = self.expected_count.wrapping_add(1);
        self.cipher.apply(count, &pdu.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Vec<Vec<u8>> {
        (0..5u8).map(|i| vec![i; 32]).collect()
    }

    #[test]
    fn cipher_is_involutive() {
        let c = CipherStream::new(0xDEAD_BEEF);
        let msg = b"hello pdcp world, this spans multiple blocks".as_slice();
        let ct = c.apply(7, msg);
        assert_ne!(&ct[..], msg);
        let pt = c.apply(7, &ct);
        assert_eq!(&pt[..], msg);
    }

    #[test]
    fn different_counts_give_different_keystreams() {
        let c = CipherStream::new(1);
        let msg = vec![0u8; 64];
        assert_ne!(c.apply(0, &msg), c.apply(1, &msg));
    }

    #[test]
    fn in_order_at_ingress_deciphers() {
        let mut tx = PdcpTx::new(SnMode::AtIngress, 42);
        let mut rx = PdcpRx::new(42);
        for p in payloads() {
            let pdu = tx.on_ingress(p.clone());
            assert!(pdu.sn.is_some());
            assert_eq!(rx.on_arrival(&pdu), p);
        }
    }

    #[test]
    fn reordered_at_ingress_garbles() {
        // The exact failure §4.4 designs around: number at ingress, then
        // transmit out of order -> receiver's COUNT mismatches.
        let mut tx = PdcpTx::new(SnMode::AtIngress, 42);
        let mut rx = PdcpRx::new(42);
        let ps = payloads();
        let mut pdus: Vec<PdcpPdu> = ps.iter().map(|p| tx.on_ingress(p.clone())).collect();
        pdus.swap(0, 3); // scheduler reorders
        let out0 = rx.on_arrival(&pdus[0]);
        assert_ne!(out0, ps[3], "deciphering must fail under reordering");
    }

    #[test]
    fn delayed_mode_survives_reordering() {
        let mut tx = PdcpTx::new(SnMode::Delayed, 42);
        let mut rx = PdcpRx::new(42);
        let ps = payloads();
        let mut pdus: Vec<PdcpPdu> = ps.iter().map(|p| tx.on_ingress(p.clone())).collect();
        // Scheduler reorders the *unnumbered* queue...
        pdus.swap(0, 3);
        pdus.swap(1, 4);
        // ...then numbering+ciphering happen in transmission order.
        let expected: Vec<Vec<u8>> = pdus.iter().map(|p| p.payload.clone()).collect();
        for (i, pdu) in pdus.iter_mut().enumerate() {
            tx.finalize(pdu);
            assert_eq!(pdu.sn, Some(i as u32));
            let got = rx.on_arrival(pdu);
            assert_eq!(got, expected[i]);
        }
    }

    #[test]
    fn finalize_is_idempotent_for_ingress_mode() {
        let mut tx = PdcpTx::new(SnMode::AtIngress, 9);
        let mut pdu = tx.on_ingress(b"x".to_vec());
        let before = pdu.payload.clone();
        tx.finalize(&mut pdu);
        assert_eq!(pdu.payload, before);
        assert_eq!(tx.next_sn(), 1);
    }

    #[test]
    fn sn_increments_monotonically() {
        let mut tx = PdcpTx::new(SnMode::AtIngress, 0);
        for i in 0..100u32 {
            let pdu = tx.on_ingress(b"y".to_vec());
            assert_eq!(pdu.sn, Some(i));
        }
    }
}
