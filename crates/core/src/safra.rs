//! Safra's termination detection algorithm (paper §6.2, reference \[16\]).
//!
//! Asynchronous computation has no supersteps and therefore no natural
//! barrier at which to declare the job finished or to cut a snapshot.
//! Trinity "calls Safra's termination detection algorithm to check whether
//! the system ceases": a token circulates the machine ring accumulating
//! per-machine message balances; the ring is quiet exactly when the token
//! returns to the initiator white with a zero total and the initiator
//! itself is white and passive.
//!
//! The rules (Dijkstra's note on Shmuel Safra's version):
//!
//! * every machine keeps a running balance `c_i` (messages sent −
//!   messages received) and a color (black after receiving any message);
//! * machine 0 initiates a white token with value 0;
//! * a machine holds the token until it is passive, then forwards it to
//!   the next machine with `q += c_i`; the token turns black if the
//!   machine is black; the machine turns white;
//! * back at machine 0 (passive): termination iff the token and machine 0
//!   are white and `q + c_0 == 0`; otherwise machine 0 starts a new round.
//!
//! This module is the pure protocol logic; `crate::async_compute` wires it
//! to the fabric.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use trinity_memstore::codec::Reader;

/// Token colors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    White,
    Black,
}

/// The circulating token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Accumulated message balance of machines already visited this round.
    pub q: i64,
    pub color: Color,
    /// What the detection round is checking for (forwarded opaquely; lets
    /// one ring serve both job termination and snapshot quiescence).
    pub purpose: u8,
}

impl Token {
    /// A fresh white token for a new round.
    pub fn fresh(purpose: u8) -> Self {
        Token {
            q: 0,
            color: Color::White,
            purpose,
        }
    }

    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        out.extend_from_slice(&self.q.to_le_bytes());
        out.push(match self.color {
            Color::White => 0,
            Color::Black => 1,
        });
        out.push(self.purpose);
        out
    }

    /// Deserialize from the wire: exactly the ten bytes `encode` writes.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        let q = r.u64().ok()? as i64;
        let color = match r.u8().ok()? {
            0 => Color::White,
            1 => Color::Black,
            _ => return None,
        };
        let purpose = r.u8().ok()?;
        r.finish().ok()?;
        Some(Token { q, color, purpose })
    }
}

/// Per-machine Safra state. All operations are lock-free so the message
/// hot path never blocks on detection bookkeeping.
#[derive(Debug, Default)]
pub struct SafraState {
    /// Messages sent minus messages received (running total, never reset).
    balance: AtomicI64,
    /// Black after receiving a message; whitened when forwarding the token.
    black: AtomicBool,
}

impl SafraState {
    pub fn new() -> Self {
        SafraState::default()
    }

    /// Record a message send.
    pub fn on_send(&self) {
        self.balance.fetch_add(1, Ordering::AcqRel);
    }

    /// Record a message receipt (the machine turns black).
    pub fn on_receive(&self) {
        self.balance.fetch_sub(1, Ordering::AcqRel);
        self.black.store(true, Ordering::Release);
    }

    /// Current balance.
    pub fn balance(&self) -> i64 {
        self.balance.load(Ordering::Acquire)
    }

    /// Fold this machine into a token being forwarded; whitens the
    /// machine (rule 3).
    pub fn forward(&self, mut token: Token) -> Token {
        token.q += self.balance();
        if self.black.swap(false, Ordering::AcqRel) {
            token.color = Color::Black;
        }
        token
    }

    /// Machine-0 evaluation when the token completes a round (the machine
    /// must be passive, which the caller guarantees). `true` means the
    /// system has ceased.
    pub fn evaluate(&self, token: &Token) -> bool {
        let self_black = self.black.load(Ordering::Acquire);
        token.color == Color::White && !self_black && token.q + self.balance() == 0
    }

    /// Whiten machine 0 before it launches a retry round.
    pub fn whiten(&self) {
        self.black.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrips_on_the_wire() {
        let t = Token {
            q: -42,
            color: Color::Black,
            purpose: 7,
        };
        assert_eq!(Token::decode(&t.encode()), Some(t));
        assert_eq!(Token::decode(&[1, 2, 3]), None);
    }

    /// One encoding per token: a color byte other than 0 or 1, and bytes
    /// after the purpose, are refused, not read as Black or ignored.
    #[test]
    fn token_decoder_keeps_the_codec_laws() {
        let mut black = Token::fresh(3).encode();
        black[8] = 1;
        assert_eq!(Token::decode(&black).map(|t| t.color), Some(Color::Black));
        black[8] = 2;
        assert_eq!(Token::decode(&black), None);
        let mut long = Token::fresh(3).encode();
        long.push(0);
        assert_eq!(Token::decode(&long), None);
        crate::codec_laws::check(
            0x5af4,
            |rng| Token {
                q: rng.u64() as i64,
                color: if rng.coin() {
                    Color::Black
                } else {
                    Color::White
                },
                purpose: rng.below(256) as u8,
            },
            Token::encode,
            Token::decode,
            true,
        );
    }

    /// Simulate a quiet 4-machine ring: one full white round must detect
    /// termination.
    #[test]
    fn quiet_ring_terminates_in_one_round() {
        let machines: Vec<SafraState> = (0..4).map(|_| SafraState::new()).collect();
        let mut token = Token::fresh(0);
        for m in machines.iter().skip(1) {
            token = m.forward(token);
        }
        assert!(machines[0].evaluate(&token));
    }

    /// A message in flight (sent but not yet received) must block
    /// detection; after receipt the blackness forces one extra round.
    #[test]
    fn in_flight_message_blocks_then_blackness_forces_retry() {
        let machines: Vec<SafraState> = (0..3).map(|_| SafraState::new()).collect();
        machines[1].on_send(); // message to machine 2, still in flight
        let mut token = Token::fresh(0);
        token = machines[1].forward(token);
        token = machines[2].forward(token);
        assert!(
            !machines[0].evaluate(&token),
            "nonzero balance must block termination"
        );
        // The message lands: machine 2 turns black.
        machines[2].on_receive();
        // Round 2: balances now sum to zero, but machine 2 is black.
        machines[0].whiten();
        let mut token = Token::fresh(0);
        token = machines[1].forward(token);
        token = machines[2].forward(token);
        assert!(
            !machines[0].evaluate(&token),
            "black token must force another round"
        );
        // Round 3: quiet and white everywhere.
        let mut token = Token::fresh(0);
        token = machines[1].forward(token);
        token = machines[2].forward(token);
        assert!(machines[0].evaluate(&token));
    }

    /// The classic false-positive scenario Safra's colors exist for: a
    /// machine already visited by the token sends a message backward to a
    /// not-yet-visited machine, which consumes it before its visit. The
    /// receive blackens the receiver, so the round is rejected.
    #[test]
    fn backward_message_cannot_fake_termination() {
        let machines: Vec<SafraState> = (0..3).map(|_| SafraState::new()).collect();
        let mut token = Token::fresh(0);
        token = machines[1].forward(token); // machine 1 visited, balance 0
                                            // Machine 1 now sends to machine 2 — after its visit.
        machines[1].on_send();
        machines[2].on_receive(); // machine 2 consumes it pre-visit
        token = machines[2].forward(token);
        // The receive blackened machine 2, so the token is black
        // regardless of the accumulated balance.
        assert_eq!(token.color, Color::Black);
        assert!(!machines[0].evaluate(&token));
    }

    #[test]
    fn initiator_activity_blocks_termination() {
        let machines: Vec<SafraState> = (0..2).map(|_| SafraState::new()).collect();
        machines[0].on_send();
        machines[1].on_receive();
        let mut token = Token::fresh(0);
        token = machines[1].forward(token);
        // q == -1, machine 0 balance == +1: sums to zero, but machine 1
        // was black → rejected.
        assert!(!machines[0].evaluate(&token));
        // Next round is genuinely quiet.
        machines[0].whiten();
        let mut token = Token::fresh(0);
        token = machines[1].forward(token);
        assert!(machines[0].evaluate(&token));
    }
}
