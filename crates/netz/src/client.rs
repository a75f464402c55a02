//! `TransportClient`: the caller-facing side of an established channel
//! (Spark's `TransportClient`), with blocking request APIs for RPCs, chunk
//! fetches, and streams, and continuation forms of the RPC and the chunk
//! fetch that never park.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::Payload;
use simt::sync::OnceCell;

use crate::channel::ChannelCore;
use crate::context::TransportConf;
use crate::error::NetzError;
use crate::message::Message;

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Client handle over one channel.
#[derive(Clone)]
pub struct TransportClient {
    chan: Arc<ChannelCore>,
    conf: TransportConf,
}

impl TransportClient {
    pub(crate) fn new(chan: Arc<ChannelCore>, conf: TransportConf) -> Self {
        TransportClient { chan, conf }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &Arc<ChannelCore> {
        &self.chan
    }

    /// True while the channel is open.
    pub fn is_active(&self) -> bool {
        self.chan.is_open()
    }

    /// Send a two-way RPC and block for the response (bounded by the
    /// configured request timeout).
    pub fn send_rpc(&self, body: Payload) -> Result<Payload, NetzError> {
        let (request_id, cell) = self.post_rpc();
        self.chan.write(Message::RpcRequest { request_id, body });
        self.rpc_reply(request_id, cell.take_timeout(self.conf.request_timeout_ns))
    }

    /// [`send_rpc`](TransportClient::send_rpc) without parking: `then` gets
    /// the response, or the failure, on the engine.
    pub fn send_rpc_then(
        &self,
        body: Payload,
        then: impl FnOnce(Result<Payload, NetzError>) + Send + 'static,
    ) {
        let (request_id, cell) = self.post_rpc();
        let (client, timeout) = (self.clone(), self.conf.request_timeout_ns);
        self.chan.write_then(Message::RpcRequest { request_id, body }, move || {
            cell.take_timeout_then(timeout, move |r| then(client.rpc_reply(request_id, r)));
        });
    }

    /// A fresh request id, its response registered into the returned cell.
    fn post_rpc(&self) -> (u64, OnceCell<Result<Payload, NetzError>>) {
        let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        let cell: OnceCell<Result<Payload, NetzError>> = OnceCell::new();
        let cell2 = cell.clone();
        self.chan.register_rpc(request_id, Box::new(move |r| cell2.put(r)));
        (request_id, cell)
    }

    /// The response a wait ended with: a timed-out request is forgotten.
    fn rpc_reply(
        &self,
        request_id: u64,
        reply: Option<Result<Payload, NetzError>>,
    ) -> Result<Payload, NetzError> {
        reply.unwrap_or_else(|| {
            let _ = self.chan.take_rpc(request_id);
            Err(NetzError::Timeout)
        })
    }

    /// Fire-and-forget RPC.
    pub fn send_oneway(&self, body: Payload) {
        self.chan.write(Message::OneWayMessage { body });
    }

    /// Fetch one chunk of a stream, blocking for the data.
    pub fn fetch_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, NetzError> {
        let cell: OnceCell<Result<Payload, NetzError>> = OnceCell::new();
        let cell2 = cell.clone();
        self.chan.register_chunk((stream_id, chunk_index), Box::new(move |r| cell2.put(r)));
        self.chan.write(Message::ChunkFetchRequest { stream_id, chunk_index });
        match cell.take_timeout(self.conf.request_timeout_ns) {
            Some(r) => r,
            None => {
                let _ = self.chan.take_chunk((stream_id, chunk_index));
                Err(NetzError::Timeout)
            }
        }
    }

    /// Fetch one chunk of a stream without parking: `cb` runs when the chunk
    /// (or a failure) arrives, and `written` once the request is on the wire.
    /// This is the path `ShuffleBlockFetcherIterator` drives with many chunks
    /// in flight.
    pub fn fetch_chunk_async(
        &self,
        stream_id: u64,
        chunk_index: u32,
        cb: Box<dyn FnOnce(Result<Payload, NetzError>) + Send>,
        written: impl FnOnce() + Send + 'static,
    ) {
        self.chan.register_chunk((stream_id, chunk_index), cb);
        self.chan.write_then(Message::ChunkFetchRequest { stream_id, chunk_index }, written);
    }

    /// Open a named stream and block for its data (jar/file distribution,
    /// served via `StreamRequest`/`StreamResponse`).
    pub fn open_stream(&self, stream_id: &str) -> Result<Payload, NetzError> {
        let cell: OnceCell<Result<Payload, NetzError>> = OnceCell::new();
        let cell2 = cell.clone();
        self.chan.register_stream(stream_id.to_string(), Box::new(move |r| cell2.put(r)));
        self.chan.write(Message::StreamRequest { stream_id: stream_id.to_string() });
        match cell.take_timeout(self.conf.request_timeout_ns) {
            Some(r) => r,
            None => {
                let _ = self.chan.take_stream(stream_id);
                Err(NetzError::Timeout)
            }
        }
    }

    /// Close the channel.
    pub fn close(&self) {
        self.chan.close();
    }
}
