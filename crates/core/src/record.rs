//! A **record sublayer** — demonstrating sublayer *insertion* (paper §5:
//! "Of particular interest to us is QUIC which has a clean sub-layering
//! between networking (the transport layer) and security (the record
//! layer)").
//!
//! [`RecordStack`] wraps any sublayered endpoint and inserts a security
//! sublayer *below DM* without modifying a single line of the four TCP
//! sublayers: each native packet is sealed into a record
//! (`magic · nonce · keystream-XOR(packet)`) with a per-direction nonce
//! counter and an integrity tag. Two `RecordStack`s with the same key
//! interoperate; a wrong key (or tampering) yields garbage that fails the
//! tag check and is dropped — the paper's fungibility story extended to
//! *adding* a sublayer, not just replacing one.
//!
//! The cipher is a keyed xorshift keystream with a polynomial tag — a
//! stand-in with the right *structure* (nonce, keystream, AEAD-shaped
//! interface), explicitly **not** cryptographically secure.

use crate::stack::SlTcpStack;
use netsim::{Stack, Time};

const RECORD_MAGIC: u8 = 0xE5;
const TAG_LEN: usize = 8;

/// Keystream generator: splitmix over (key, nonce, counter).
fn keystream_block(key: u64, nonce: u64, counter: u64) -> [u8; 8] {
    let mut x = key ^ nonce.rotate_left(17) ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x.to_le_bytes()
}

fn xor_keystream(key: u64, nonce: u64, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(8).enumerate() {
        let ks = keystream_block(key, nonce, i as u64);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Keyed tag over the ciphertext (polynomial accumulate; not a MAC in the
/// cryptographic sense).
fn tag(key: u64, nonce: u64, data: &[u8]) -> [u8; TAG_LEN] {
    let mut acc = key ^ nonce.wrapping_mul(0xA076_1D64_78BD_642F);
    for &b in data {
        acc = acc.rotate_left(7) ^ b as u64;
        acc = acc.wrapping_mul(0x100_0000_01B3);
    }
    acc.to_be_bytes()
}

/// Seal a plaintext packet into a record.
pub fn seal(key: u64, nonce: u64, packet: &[u8]) -> Vec<u8> {
    let mut body = packet.to_vec();
    xor_keystream(key, nonce, &mut body);
    let t = tag(key, nonce, &body);
    let mut out = Vec::with_capacity(1 + 8 + TAG_LEN + body.len());
    out.push(RECORD_MAGIC);
    out.extend_from_slice(&nonce.to_be_bytes());
    out.extend_from_slice(&t);
    out.extend_from_slice(&body);
    out
}

/// Open a record; `None` when the magic, tag, or framing is wrong.
pub fn open(key: u64, record: &[u8]) -> Option<Vec<u8>> {
    if record.len() < 1 + 8 + TAG_LEN || record[0] != RECORD_MAGIC {
        return None;
    }
    let nonce = u64::from_be_bytes(record[1..9].try_into().unwrap());
    let (t, body) = record[9..].split_at(TAG_LEN);
    if tag(key, nonce, body) != t {
        return None;
    }
    let mut plain = body.to_vec();
    xor_keystream(key, nonce, &mut plain);
    Some(plain)
}

/// The record sublayer wrapped around a sublayered TCP endpoint.
pub struct RecordStack {
    pub inner: SlTcpStack,
    key: u64,
    tx_nonce: u64,
    pub sealed: u64,
    pub opened: u64,
    pub rejected: u64,
}

impl RecordStack {
    pub fn new(inner: SlTcpStack, key: u64) -> RecordStack {
        RecordStack { inner, key, tx_nonce: 0, sealed: 0, opened: 0, rejected: 0 }
    }
}

impl Stack for RecordStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        match open(self.key, frame) {
            Some(plain) => {
                self.opened += 1;
                self.inner.on_frame(now, &plain);
            }
            None => self.rejected += 1,
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        let plain = self.inner.poll_transmit(now)?;
        let nonce = self.tx_nonce;
        self.tx_nonce += 1;
        self.sealed += 1;
        Some(seal(self.key, nonce, &plain))
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.inner.poll_deadline(now)
    }

    fn on_tick(&mut self, now: Time) {
        self.inner.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::SlConfig;
    use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode};
    use slwire::Endpoint;

    #[test]
    fn seal_open_round_trip() {
        let pkt = b"some native packet bytes".to_vec();
        let rec = seal(42, 7, &pkt);
        assert_eq!(open(42, &rec), Some(pkt.clone()));
        assert_ne!(rec[17..].to_vec(), pkt, "payload must be transformed");
    }

    #[test]
    fn wrong_key_rejected() {
        let rec = seal(42, 7, b"secret");
        assert_eq!(open(43, &rec), None);
    }

    #[test]
    fn tampering_rejected() {
        let mut rec = seal(42, 7, b"secret payload here");
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x01;
            assert_eq!(open(42, &bad), None, "flip at {i} must fail the tag");
        }
        rec.truncate(10);
        assert_eq!(open(42, &rec), None);
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let a = seal(42, 1, b"same plaintext");
        let b = seal(42, 2, b"same plaintext");
        assert_ne!(a[17..], b[17..]);
    }

    #[test]
    fn encrypted_transfer_end_to_end() {
        // Two record-wrapped stacks over a lossy link: the inserted
        // sublayer is invisible to DM/CM/RD/OSR.
        let key = 0xC0DE_CAFE;
        let mut c = RecordStack::new(
            SlTcpStack::new(1, SlConfig::default(), slmetrics::shared()),
            key,
        );
        let mut s = RecordStack::new(
            SlTcpStack::new(2, SlConfig::default(), slmetrics::shared()),
            key,
        );
        s.inner.listen(80);
        let conn = c.inner.connect(Time::ZERO, 5000, Endpoint::new(2, 80));
        let params =
            LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.1));
        let (mut net, nc, ns) = two_party(77, c, s, params);
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_secs(3));
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        net.node_mut::<StackNode<RecordStack>>(nc).stack.inner.send(conn, &data);
        net.poll_all();
        let mut got = Vec::new();
        for _ in 0..120 {
            net.run_for(Dur::from_secs(1));
            let st = &mut net.node_mut::<StackNode<RecordStack>>(ns).stack.inner;
            if let Some(&sc) = st.established().first() {
                got.extend(st.recv(sc));
            }
            net.poll_all();
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data);
        let st = &net.node::<StackNode<RecordStack>>(nc).stack;
        assert!(st.sealed >= 20 && st.opened >= 20);
    }

    #[test]
    fn mismatched_keys_cannot_connect() {
        let mut c = RecordStack::new(
            SlTcpStack::new(1, SlConfig::default(), slmetrics::shared()),
            111,
        );
        let mut s = RecordStack::new(
            SlTcpStack::new(2, SlConfig::default(), slmetrics::shared()),
            222,
        );
        s.inner.listen(80);
        let conn = c.inner.connect(Time::ZERO, 5000, Endpoint::new(2, 80));
        let (mut net, nc, ns) =
            two_party(78, c, s, LinkParams::delay_only(Dur::from_millis(5)));
        net.poll_all();
        net.run_until(Time::ZERO + Dur::from_secs(5));
        assert_eq!(
            net.node::<StackNode<RecordStack>>(nc).stack.inner.state(conn),
            crate::cm::CmState::SynSent
        );
        assert!(net.node::<StackNode<RecordStack>>(ns).stack.rejected > 0);
    }

    #[test]
    fn plaintext_never_appears_on_the_wire() {
        // The native magic byte 0x5B must not lead any wire frame.
        let key = 9;
        let mut c = RecordStack::new(
            SlTcpStack::new(1, SlConfig::default(), slmetrics::shared()),
            key,
        );
        c.inner.connect(Time::ZERO, 5000, Endpoint::new(2, 80));
        let frame = c.poll_transmit(Time::ZERO).expect("SYN record");
        assert_eq!(frame[0], RECORD_MAGIC);
        assert!(crate::wire::Packet::decode(&frame).is_err());
    }
}
