//! Spark's transport-layer message vocabulary (paper Table II) and the
//! `MessageWithHeader` framing of paper Fig. 6.
//!
//! Every message encodes to a *header* — `[frame_length u64][type u8]`
//! followed by type-specific fields and the body length — plus a separate
//! *body* [`Payload`]. Vanilla Netty ships header and body in one socket
//! frame; MPI4Spark-Optimized ships the header over the socket and the body
//! of `ChunkFetchSuccess` / `StreamResponse` over MPI (paper §VI-E), which
//! is why the split is first-class here.

use bytes::Bytes;
use fabric::Payload;

use crate::buf::{ByteReader, ByteWriter};
use crate::error::NetzError;

/// Spark transport message (paper Table II).
#[derive(Debug, Clone)]
pub enum Message {
    /// A request to perform a generic RPC.
    RpcRequest {
        /// Correlates the response.
        request_id: u64,
        /// Serialized RPC payload.
        body: Payload,
    },
    /// Successful response to an [`Message::RpcRequest`].
    RpcResponse {
        /// Id of the request being answered.
        request_id: u64,
        /// Serialized response payload.
        body: Payload,
    },
    /// Failed response to an [`Message::RpcRequest`].
    RpcFailure {
        /// Id of the request being answered.
        request_id: u64,
        /// Human-readable error.
        error: String,
    },
    /// An RPC that does not expect a reply.
    OneWayMessage {
        /// Serialized payload.
        body: Payload,
    },
    /// Request to fetch a single chunk of a stream (shuffle block).
    ChunkFetchRequest {
        /// Stream the chunk belongs to.
        stream_id: u64,
        /// Index of the chunk within the stream.
        chunk_index: u32,
    },
    /// Response carrying a fetched chunk — the dominant shuffle message.
    ChunkFetchSuccess {
        /// Stream the chunk belongs to.
        stream_id: u64,
        /// Index of the chunk within the stream.
        chunk_index: u32,
        /// The chunk data.
        body: Payload,
    },
    /// Failure fetching a chunk.
    ChunkFetchFailure {
        /// Stream the chunk belongs to.
        stream_id: u64,
        /// Index of the chunk within the stream.
        chunk_index: u32,
        /// Human-readable error.
        error: String,
    },
    /// Request to open a named stream (jar/file distribution).
    StreamRequest {
        /// Stream name.
        stream_id: String,
    },
    /// Successful response to a [`Message::StreamRequest`].
    StreamResponse {
        /// Stream name.
        stream_id: String,
        /// Total bytes in the stream.
        byte_count: u64,
        /// The stream data.
        body: Payload,
    },
    /// Failure opening a stream.
    StreamFailure {
        /// Stream name.
        stream_id: String,
        /// Human-readable error.
        error: String,
    },
}

/// Wire type tags (single byte, as in Spark's `Message.Type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// `RpcRequest`
    RpcRequest = 0,
    /// `RpcResponse`
    RpcResponse = 1,
    /// `RpcFailure`
    RpcFailure = 2,
    /// `OneWayMessage`
    OneWayMessage = 3,
    /// `ChunkFetchRequest`
    ChunkFetchRequest = 4,
    /// `ChunkFetchSuccess`
    ChunkFetchSuccess = 5,
    /// `ChunkFetchFailure`
    ChunkFetchFailure = 6,
    /// `StreamRequest`
    StreamRequest = 7,
    /// `StreamResponse`
    StreamResponse = 8,
    /// `StreamFailure`
    StreamFailure = 9,
}

impl MessageType {
    fn from_u8(v: u8) -> Option<MessageType> {
        use MessageType::*;
        Some(match v {
            0 => RpcRequest,
            1 => RpcResponse,
            2 => RpcFailure,
            3 => OneWayMessage,
            4 => ChunkFetchRequest,
            5 => ChunkFetchSuccess,
            6 => ChunkFetchFailure,
            7 => StreamRequest,
            8 => StreamResponse,
            9 => StreamFailure,
            _ => return None,
        })
    }
}

impl Message {
    /// Wire type tag.
    pub fn type_id(&self) -> MessageType {
        use Message::*;
        match self {
            RpcRequest { .. } => MessageType::RpcRequest,
            RpcResponse { .. } => MessageType::RpcResponse,
            RpcFailure { .. } => MessageType::RpcFailure,
            OneWayMessage { .. } => MessageType::OneWayMessage,
            ChunkFetchRequest { .. } => MessageType::ChunkFetchRequest,
            ChunkFetchSuccess { .. } => MessageType::ChunkFetchSuccess,
            ChunkFetchFailure { .. } => MessageType::ChunkFetchFailure,
            StreamRequest { .. } => MessageType::StreamRequest,
            StreamResponse { .. } => MessageType::StreamResponse,
            StreamFailure { .. } => MessageType::StreamFailure,
        }
    }

    /// The body, if this message type carries one.
    pub fn body(&self) -> Option<&Payload> {
        match self {
            Message::RpcRequest { body, .. }
            | Message::RpcResponse { body, .. }
            | Message::OneWayMessage { body }
            | Message::ChunkFetchSuccess { body, .. }
            | Message::StreamResponse { body, .. } => Some(body),
            _ => None,
        }
    }

    /// Virtual size of the body (0 when bodiless).
    pub fn body_virtual_len(&self) -> u64 {
        self.body().map_or(0, |b| b.virtual_len)
    }

    /// Encode the `MessageWithHeader` header (paper Fig. 6): frame length,
    /// type tag, the sender's trace span id, type-specific fields, and the
    /// body's virtual length.
    ///
    /// The span id is the calling thread's current send scope
    /// ([`obs::current_send_span`], 0 when untraced) — reading it here, at
    /// encode time, means the id survives transports that re-encode headers
    /// deep inside pipeline handlers. The field is always present, so traced
    /// and untraced runs have identical wire sizes and therefore identical
    /// virtual timings.
    pub fn encode_header(&self) -> Bytes {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u64(0); // frame length back-patched below
        w.put_u8(self.type_id() as u8);
        w.put_u64(obs::current_send_span());
        match self {
            Message::RpcRequest { request_id, .. } | Message::RpcResponse { request_id, .. } => {
                w.put_u64(*request_id);
            }
            Message::RpcFailure { request_id, error } => {
                w.put_u64(*request_id);
                w.put_string(error);
            }
            Message::OneWayMessage { .. } => {}
            Message::ChunkFetchRequest { stream_id, chunk_index }
            | Message::ChunkFetchSuccess { stream_id, chunk_index, .. } => {
                w.put_u64(*stream_id);
                w.put_u32(*chunk_index);
            }
            Message::ChunkFetchFailure { stream_id, chunk_index, error } => {
                w.put_u64(*stream_id);
                w.put_u32(*chunk_index);
                w.put_string(error);
            }
            Message::StreamRequest { stream_id } => w.put_string(stream_id),
            Message::StreamResponse { stream_id, byte_count, .. } => {
                w.put_string(stream_id);
                w.put_u64(*byte_count);
            }
            Message::StreamFailure { stream_id, error } => {
                w.put_string(stream_id);
                w.put_string(error);
            }
        }
        w.put_u64(self.body_virtual_len());
        w.set_u64(0, w.len() as u64 + self.body_virtual_len());
        w.freeze()
    }

    /// Decode a header produced by [`Message::encode_header`] and attach
    /// `body`.
    pub fn decode(header: &Bytes, body: Payload) -> Result<Message, NetzError> {
        let mut r = ByteReader::new(header);
        let _frame_len = r.get_u64().ok_or_else(|| NetzError::codec("truncated frame length"))?;
        let ty = r
            .get_u8()
            .and_then(MessageType::from_u8)
            .ok_or_else(|| NetzError::codec("bad message type"))?;
        let _span_id = r.get_u64().ok_or_else(|| NetzError::codec("truncated span id"))?;
        let err = |what: &str| NetzError::codec(format!("truncated {what}"));
        let msg = match ty {
            MessageType::RpcRequest => Message::RpcRequest {
                request_id: r.get_u64().ok_or_else(|| err("request id"))?,
                body,
            },
            MessageType::RpcResponse => Message::RpcResponse {
                request_id: r.get_u64().ok_or_else(|| err("request id"))?,
                body,
            },
            MessageType::RpcFailure => Message::RpcFailure {
                request_id: r.get_u64().ok_or_else(|| err("request id"))?,
                error: r.get_string().ok_or_else(|| err("error string"))?,
            },
            MessageType::OneWayMessage => Message::OneWayMessage { body },
            MessageType::ChunkFetchRequest => Message::ChunkFetchRequest {
                stream_id: r.get_u64().ok_or_else(|| err("stream id"))?,
                chunk_index: r.get_u32().ok_or_else(|| err("chunk index"))?,
            },
            MessageType::ChunkFetchSuccess => Message::ChunkFetchSuccess {
                stream_id: r.get_u64().ok_or_else(|| err("stream id"))?,
                chunk_index: r.get_u32().ok_or_else(|| err("chunk index"))?,
                body,
            },
            MessageType::ChunkFetchFailure => Message::ChunkFetchFailure {
                stream_id: r.get_u64().ok_or_else(|| err("stream id"))?,
                chunk_index: r.get_u32().ok_or_else(|| err("chunk index"))?,
                error: r.get_string().ok_or_else(|| err("error string"))?,
            },
            MessageType::StreamRequest => Message::StreamRequest {
                stream_id: r.get_string().ok_or_else(|| err("stream id"))?,
            },
            MessageType::StreamResponse => Message::StreamResponse {
                stream_id: r.get_string().ok_or_else(|| err("stream id"))?,
                byte_count: r.get_u64().ok_or_else(|| err("byte count"))?,
                body,
            },
            MessageType::StreamFailure => Message::StreamFailure {
                stream_id: r.get_string().ok_or_else(|| err("stream id"))?,
                error: r.get_string().ok_or_else(|| err("error string"))?,
            },
        };
        Ok(msg)
    }

    /// Declared body length parsed from an encoded header — the field the
    /// Optimized design reads to know how large an `MPI_Recv` to post.
    pub fn peek_body_len(header: &Bytes) -> Option<u64> {
        if header.len() < 8 {
            return None;
        }
        let tail = &header[header.len() - 8..];
        Some(u64::from_be_bytes(tail.try_into().ok()?))
    }

    /// Message type parsed from an encoded header without full decoding —
    /// the "parse the header inside the ChannelHandler" step of §VI-E.
    pub fn peek_type(header: &Bytes) -> Option<MessageType> {
        if header.len() < 9 {
            return None;
        }
        MessageType::from_u8(header[8])
    }

    /// Sender-side trace span id carried in the header (0 when the sender
    /// was not inside a traced send). Receivers use it as the causal link of
    /// their recv span.
    pub fn peek_span_id(header: &Bytes) -> Option<u64> {
        if header.len() < 17 {
            return None;
        }
        Some(u64::from_be_bytes(header[9..17].try_into().ok()?))
    }

    /// Content-derived identity of a shuffle body (`ChunkFetchSuccess` or
    /// `StreamResponse`), parsed from its encoded header. Both ends of an
    /// out-of-band body transport compute this from the same header bytes,
    /// so it can key the side channel (e.g. an MPI tag) without a lockstep
    /// sequence counter — which would desynchronize the moment one frame is
    /// lost or retried.
    ///
    /// `None` for every other type.
    pub fn peek_body_key(header: &Bytes) -> Option<u64> {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let ty = Message::peek_type(header)?;
        let mut r = ByteReader::new(header);
        r.get_u64()?; // frame length
        r.get_u8()?; // type tag
        r.get_u64()?; // span id (trace-dependent: must not key the body)
        match ty {
            MessageType::ChunkFetchSuccess => {
                let stream_id = r.get_u64()?;
                let chunk_index = r.get_u32()?;
                Some(mix(stream_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ chunk_index as u64))
            }
            MessageType::StreamResponse => {
                let name = r.get_string()?;
                let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name
                for b in name.as_bytes() {
                    h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Some(mix(h))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) -> Message {
        let header = msg.encode_header();
        let body = msg.body().cloned().unwrap_or_else(Payload::empty);
        Message::decode(&header, body).unwrap()
    }

    #[test]
    fn rpc_request_roundtrip() {
        let m = roundtrip(Message::RpcRequest {
            request_id: 77,
            body: Payload::bytes(Bytes::from_static(b"payload")),
        });
        match m {
            Message::RpcRequest { request_id, body } => {
                assert_eq!(request_id, 77);
                assert_eq!(&body.bytes[..], b"payload");
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn chunk_fetch_success_roundtrip_preserves_ids() {
        let m = roundtrip(Message::ChunkFetchSuccess {
            stream_id: 123456789,
            chunk_index: 42,
            body: Payload::bytes_scaled(Bytes::from_static(b"x"), 1 << 20),
        });
        match m {
            Message::ChunkFetchSuccess { stream_id, chunk_index, body } => {
                assert_eq!(stream_id, 123456789);
                assert_eq!(chunk_index, 42);
                assert_eq!(body.virtual_len, 1 << 20);
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn stream_response_roundtrip() {
        let m = roundtrip(Message::StreamResponse {
            stream_id: "/jars/app.jar".into(),
            byte_count: 4096,
            body: Payload::bytes_scaled(Bytes::new(), 4096),
        });
        match m {
            Message::StreamResponse { stream_id, byte_count, .. } => {
                assert_eq!(stream_id, "/jars/app.jar");
                assert_eq!(byte_count, 4096);
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn failures_carry_error_strings() {
        let m = roundtrip(Message::ChunkFetchFailure {
            stream_id: 9,
            chunk_index: 1,
            error: "block not found".into(),
        });
        match m {
            Message::ChunkFetchFailure { error, .. } => assert_eq!(error, "block not found"),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn frame_length_counts_header_plus_virtual_body() {
        let msg = Message::ChunkFetchSuccess {
            stream_id: 1,
            chunk_index: 0,
            body: Payload::bytes_scaled(Bytes::from_static(b"ab"), 1000),
        };
        let header = msg.encode_header();
        let mut r = ByteReader::new(&header);
        let frame_len = r.get_u64().unwrap();
        assert_eq!(frame_len, header.len() as u64 + 1000);
    }

    #[test]
    fn peek_type_and_body_len_match_header_fields() {
        let msg = Message::ChunkFetchSuccess {
            stream_id: 5,
            chunk_index: 3,
            body: Payload::bytes_scaled(Bytes::new(), 777),
        };
        let header = msg.encode_header();
        assert_eq!(Message::peek_type(&header), Some(MessageType::ChunkFetchSuccess));
        assert_eq!(Message::peek_body_len(&header), Some(777));
    }

    #[test]
    fn body_keys_are_content_addressed() {
        let chunk = |stream_id, chunk_index| {
            Message::ChunkFetchSuccess { stream_id, chunk_index, body: Payload::empty() }
                .encode_header()
        };
        // Same identity → same key, regardless of when it's computed.
        assert_eq!(Message::peek_body_key(&chunk(7, 3)), Message::peek_body_key(&chunk(7, 3)));
        // Distinct chunks and distinct streams get distinct keys.
        assert_ne!(Message::peek_body_key(&chunk(7, 3)), Message::peek_body_key(&chunk(7, 4)));
        assert_ne!(Message::peek_body_key(&chunk(7, 3)), Message::peek_body_key(&chunk(8, 3)));

        let stream = Message::StreamResponse {
            stream_id: "/jars/app.jar".into(),
            byte_count: 1,
            body: Payload::empty(),
        }
        .encode_header();
        assert!(Message::peek_body_key(&stream).is_some());
        assert_ne!(Message::peek_body_key(&stream), Message::peek_body_key(&chunk(7, 3)));

        // Only shuffle bodies are keyed: RPC bodies, anonymous and bodiless
        // types have no key.
        let rpc = Message::RpcResponse { request_id: 42, body: Payload::empty() }.encode_header();
        assert_eq!(Message::peek_body_key(&rpc), None);
        let req = Message::ChunkFetchRequest { stream_id: 7, chunk_index: 3 }.encode_header();
        assert_eq!(Message::peek_body_key(&req), None);
        let oneway = Message::OneWayMessage { body: Payload::empty() }.encode_header();
        assert_eq!(Message::peek_body_key(&oneway), None);
    }

    #[test]
    fn header_carries_send_scope_span_id() {
        let msg = Message::ChunkFetchRequest { stream_id: 1, chunk_index: 2 };
        let plain = msg.encode_header();
        assert_eq!(Message::peek_span_id(&plain), Some(0), "no scope -> untraced id 0");
        let tagged = {
            let _scope = obs::SendScope::enter(42);
            msg.encode_header()
        };
        assert_eq!(Message::peek_span_id(&tagged), Some(42));
        // The span id must not perturb the other header peeks.
        assert_eq!(Message::peek_type(&tagged), Some(MessageType::ChunkFetchRequest));
        assert_eq!(Message::peek_body_len(&tagged), Some(0));
        // Nor the content-addressed body key: both ends must derive the same
        // key whether or not the sender was traced.
        let keyed =
            Message::ChunkFetchSuccess { stream_id: 7, chunk_index: 3, body: Payload::empty() };
        let k0 = Message::peek_body_key(&keyed.encode_header());
        let k1 = {
            let _scope = obs::SendScope::enter(9);
            Message::peek_body_key(&keyed.encode_header())
        };
        assert_eq!(k0, k1);
        // Headers are the same size traced and untraced: identical timings.
        assert_eq!(plain.len(), tagged.len());
    }

    #[test]
    fn garbage_header_is_a_codec_error() {
        let r = Message::decode(&Bytes::from_static(&[1, 2, 3]), Payload::empty());
        assert!(r.is_err());
        let bad_type = {
            let mut w = ByteWriter::new();
            w.put_u64(9);
            w.put_u8(200);
            w.freeze()
        };
        assert!(Message::decode(&bad_type, Payload::empty()).is_err());
    }
}
