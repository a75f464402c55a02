//! The Optimized design's one routing rule (§VI-E).

use netz::message::MessageType;

/// The bodies of `ChunkFetchSuccess` and `StreamResponse` cross MPI; every
/// other message, RPC bodies included, stays whole on the socket. Both the
/// outbound and the inbound handler of the Optimized transport ask this
/// predicate, so the two ends cannot disagree.
pub(crate) fn diverts_body(ty: MessageType) -> bool {
    matches!(ty, MessageType::ChunkFetchSuccess | MessageType::StreamResponse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Payload;
    use netz::Message;
    use MessageType::*;

    /// All ten wire types, in tag order.
    const ALL: [MessageType; 10] = [
        RpcRequest,
        RpcResponse,
        RpcFailure,
        OneWayMessage,
        ChunkFetchRequest,
        ChunkFetchSuccess,
        ChunkFetchFailure,
        StreamRequest,
        StreamResponse,
        StreamFailure,
    ];

    /// Exactly the two shuffle bodies are diverted; RPC and one-way bodies
    /// stay on the socket. Every diverted body has the content key its MPI
    /// tag is built from.
    #[test]
    fn shuffle_bodies_matches_paper_section_vi_e() {
        for (tag, ty) in ALL.into_iter().enumerate() {
            assert_eq!(ty as usize, tag, "one entry per wire type, in tag order");
            let diverted = diverts_body(ty);
            match ty {
                ChunkFetchSuccess | StreamResponse => assert!(diverted, "{ty:?} body crosses MPI"),
                RpcRequest | RpcResponse | OneWayMessage => {
                    assert!(!diverted, "{ty:?} body stays on the socket")
                }
                _ => {}
            }
        }
        let chunk =
            Message::ChunkFetchSuccess { stream_id: 1, chunk_index: 2, body: Payload::empty() };
        let stream = Message::StreamResponse {
            stream_id: "s".into(),
            byte_count: 0,
            body: Payload::empty(),
        };
        for msg in [chunk, stream] {
            assert!(diverts_body(msg.type_id()));
            assert!(Message::peek_body_key(&msg.encode_header()).is_some(), "{msg:?}");
        }
    }

    /// A type without a body has nothing to divert.
    #[test]
    fn routed_but_bodiless_messages_are_not_diverted() {
        for ty in ALL {
            if !matches!(
                ty,
                RpcRequest | RpcResponse | OneWayMessage | ChunkFetchSuccess | StreamResponse
            ) {
                assert!(!diverts_body(ty), "bodiless {ty:?} has nothing to divert");
            }
        }
    }
}
