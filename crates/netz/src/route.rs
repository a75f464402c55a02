//! Body-routing policy: which message types a transport diverts onto its
//! out-of-band data plane (paper §VI-E).
//!
//! MPI4Spark-Optimized sends headers over the Netty socket and the bodies of
//! `ChunkFetchSuccess` / `StreamResponse` over MPI; MPI4Spark-Basic diverts
//! entire messages of every type; vanilla Spark diverts nothing. The seed
//! hard-coded those choices in three places (a `Message` method plus two
//! `matches!` blocks inside the optimized handlers). [`RoutePolicy`] is the
//! single seam all backends share, and because it is plain data the §VI-E
//! ablations (route every body, route only chunk bodies, …) become a flag
//! flip instead of a code change.

use crate::message::{Message, MessageType};

/// Set of [`MessageType`]s routed over a transport's out-of-band plane.
/// Plain bitmask data: `Copy`, comparable, buildable in `const` context.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutePolicy {
    mask: u16,
}

const fn bit(ty: MessageType) -> u16 {
    1 << (ty as u8)
}

impl RoutePolicy {
    /// Route nothing out-of-band (vanilla Spark: header and body share the
    /// socket frame).
    pub const NONE: RoutePolicy = RoutePolicy { mask: 0 };

    /// Paper §VI-E default for MPI4Spark-Optimized: divert the bodies of
    /// `ChunkFetchSuccess` and `StreamResponse`.
    pub const SHUFFLE_BODIES: RoutePolicy = RoutePolicy {
        mask: bit(MessageType::ChunkFetchSuccess) | bit(MessageType::StreamResponse),
    };

    /// Ablation: divert only shuffle chunk bodies (`ChunkFetchSuccess`);
    /// stream bodies stay on the socket.
    pub const CHUNK_BODIES: RoutePolicy = RoutePolicy { mask: bit(MessageType::ChunkFetchSuccess) };

    /// Ablation: divert every body-carrying message's body, including the
    /// small RPC payloads the paper deliberately leaves on the socket.
    pub const ALL_BODIES: RoutePolicy = RoutePolicy {
        mask: bit(MessageType::RpcRequest)
            | bit(MessageType::RpcResponse)
            | bit(MessageType::OneWayMessage)
            | bit(MessageType::ChunkFetchSuccess)
            | bit(MessageType::StreamResponse),
    };

    /// Every message type — the Basic design's "all traffic over MPI".
    pub const ALL_MESSAGES: RoutePolicy = RoutePolicy { mask: (1 << 10) - 1 };

    /// Policy routing exactly `types`.
    pub const fn of(types: &[MessageType]) -> RoutePolicy {
        let mut mask = 0u16;
        let mut i = 0;
        while i < types.len() {
            mask |= bit(types[i]);
            i += 1;
        }
        RoutePolicy { mask }
    }

    /// True when `ty` is routed out-of-band by this policy.
    pub fn routes_type(self, ty: MessageType) -> bool {
        self.mask & bit(ty) != 0
    }

    /// True when `msg`'s *body* should be diverted: the type is routed and
    /// the message actually carries a body (a routed but bodiless message
    /// has nothing to divert).
    pub fn routes_body(self, msg: &Message) -> bool {
        self.routes_type(msg.type_id()) && msg.body().is_some()
    }

    /// Report label for the named policies (`"custom"` otherwise).
    pub fn flag_name(self) -> &'static str {
        match self {
            RoutePolicy::NONE => "none",
            RoutePolicy::SHUFFLE_BODIES => "shuffle-bodies",
            RoutePolicy::CHUNK_BODIES => "chunk-bodies",
            RoutePolicy::ALL_BODIES => "all-bodies",
            RoutePolicy::ALL_MESSAGES => "all-messages",
            _ => "custom",
        }
    }
}

impl std::fmt::Debug for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RoutePolicy({} [{:#05x}])", self.flag_name(), self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Payload;

    #[test]
    fn shuffle_bodies_matches_paper_section_vi_e() {
        let p = RoutePolicy::SHUFFLE_BODIES;
        let cfs =
            Message::ChunkFetchSuccess { stream_id: 0, chunk_index: 0, body: Payload::empty() };
        let sr = Message::StreamResponse {
            stream_id: "s".into(),
            byte_count: 0,
            body: Payload::empty(),
        };
        let req = Message::ChunkFetchRequest { stream_id: 0, chunk_index: 0 };
        let rpc = Message::RpcRequest { request_id: 0, body: Payload::empty() };
        assert!(p.routes_body(&cfs));
        assert!(p.routes_body(&sr));
        assert!(!p.routes_body(&req));
        assert!(!p.routes_body(&rpc));
    }

    #[test]
    fn routed_but_bodiless_messages_are_not_diverted() {
        let p = RoutePolicy::ALL_MESSAGES;
        let req = Message::ChunkFetchRequest { stream_id: 0, chunk_index: 0 };
        assert!(p.routes_type(MessageType::ChunkFetchRequest));
        assert!(!p.routes_body(&req));
    }

    #[test]
    fn named_policies_roundtrip_through_flags() {
        assert_eq!(RoutePolicy::ALL_MESSAGES.flag_name(), "all-messages");
        assert_eq!(RoutePolicy::of(&[MessageType::RpcFailure]).flag_name(), "custom");
        assert_eq!(
            RoutePolicy::of(&[MessageType::ChunkFetchSuccess, MessageType::StreamResponse]),
            RoutePolicy::SHUFFLE_BODIES
        );
    }

    #[test]
    fn all_messages_covers_every_type() {
        for tag in 0u8..10 {
            let ty = match tag {
                0 => MessageType::RpcRequest,
                1 => MessageType::RpcResponse,
                2 => MessageType::RpcFailure,
                3 => MessageType::OneWayMessage,
                4 => MessageType::ChunkFetchRequest,
                5 => MessageType::ChunkFetchSuccess,
                6 => MessageType::ChunkFetchFailure,
                7 => MessageType::StreamRequest,
                8 => MessageType::StreamResponse,
                9 => MessageType::StreamFailure,
                _ => unreachable!(),
            };
            assert!(RoutePolicy::ALL_MESSAGES.routes_type(ty));
            assert!(!RoutePolicy::NONE.routes_type(ty));
        }
    }
}
