//! `TransportClient`: the caller-facing side of an established channel
//! (Spark's `TransportClient`), with blocking request APIs for RPCs, chunk
//! fetches, and streams, and a callback-style chunk fetch.

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
        let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        let cell: OnceCell<Result<Payload, NetzError>> = OnceCell::new();
        let cell2 = cell.clone();
        self.chan.register_rpc(request_id, Box::new(move |r| cell2.put(r)));
        self.chan.write(Message::RpcRequest { request_id, body });
        match cell.take_timeout(self.conf.request_timeout_ns) {
            Some(r) => r,
            None => {
                let _ = self.chan.take_rpc(request_id);
                Err(NetzError::Timeout)
            }
        }
    }

    /// Fire-and-forget RPC.
    pub fn send_oneway(&self, body: Payload) {
        self.chan.write(Message::OneWayMessage { body });
    }

    /// Fetch one chunk of a stream, blocking for the data.
    pub fn fetch_chunk(&self, stream_id: u64, chunk_index: u32) -> Result<Payload, NetzError> {
        let cell: OnceCell<Result<Payload, NetzError>> = OnceCell::new();
        let cell2 = cell.clone();
        self.fetch_chunk_async(stream_id, chunk_index, Box::new(move |r| cell2.put(r)));
        match cell.take_timeout(self.conf.request_timeout_ns) {
            Some(r) => r,
            None => {
                let _ = self.chan.take_chunk((stream_id, chunk_index));
                Err(NetzError::Timeout)
            }
        }
    }

    /// Fetch one chunk of a stream; `cb` runs when the chunk (or a failure)
    /// arrives. This is the path `ShuffleBlockFetcherIterator` drives with
    /// many chunks in flight.
    pub fn fetch_chunk_async(
        &self,
        stream_id: u64,
        chunk_index: u32,
        cb: Box<dyn FnOnce(Result<Payload, NetzError>) + Send>,
    ) {
        self.chan.register_chunk((stream_id, chunk_index), cb);
        self.chan.write(Message::ChunkFetchRequest { stream_id, chunk_index });
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
