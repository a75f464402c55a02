//! Channel pipelines with inbound and outbound handlers (paper Figs. 5/7).
//!
//! Netty routes every read through a chain of inbound `ChannelHandler`s and
//! every write through outbound ones. MPI4Spark-Optimized's key mechanism —
//! "parse the headers of shuffle messages inside of ChannelHandlers ... and
//! perform the MPI_recv call accordingly" (§VI-E) — is expressed here as an
//! [`InboundHandler`] that intercepts a header-only frame and reattaches the
//! body it pulls from MPI; the outbound mirror diverts eligible bodies to
//! MPI instead of the socket.

use std::sync::Arc;

use crate::channel::ChannelCore;
use crate::message::Message;
use crate::wire::Frame;

/// Result of an inbound handler examining a frame.
pub enum InboundAction {
    /// Pass a (possibly rewritten) frame to the next handler / the default
    /// decoder.
    Forward(Frame),
    /// Frame fully consumed (e.g. keep-alive); dispatch nothing.
    Consume,
}

/// What a write that must not park runs once its sends are booked (see
/// [`ChannelCore::write_then`]).
pub type Then = Box<dyn FnOnce() + Send>;

/// Result of an outbound handler examining a message write.
pub enum OutboundAction {
    /// Pass a (possibly rewritten) message down the chain / to the default
    /// socket encoder, with the continuation the handler was given.
    Forward(Message, Option<Then>),
    /// Handler transmits the message itself (its sends are done, or in
    /// flight toward `then`); report bytes for metrics.
    Sent {
        /// Virtual bytes the handler moved (all paths combined).
        virtual_bytes: u64,
    },
}

/// Inbound (read-path) channel handler.
pub trait InboundHandler: Send + Sync {
    /// Inspect/transform an inbound frame.
    fn on_frame(&self, chan: &Arc<ChannelCore>, frame: Frame) -> InboundAction;
}

/// Outbound (write-path) channel handler.
pub trait OutboundHandler: Send + Sync {
    /// Inspect/transform an outbound message. A handler that transmits it
    /// itself sends with blocking calls when `then` is `None`
    /// ([`ChannelCore::write`]); otherwise it must not park: it sends with
    /// the `_then` forms and runs `then` when the last send is booked.
    fn on_write(&self, chan: &Arc<ChannelCore>, msg: Message, then: Option<Then>)
        -> OutboundAction;
}

/// An ordered set of named handlers attached to one channel.
#[derive(Default)]
pub struct Pipeline {
    inbound: Vec<(String, Arc<dyn InboundHandler>)>,
    outbound: Vec<(String, Arc<dyn OutboundHandler>)>,
}

impl Pipeline {
    /// Empty pipeline (default decode/encode only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an inbound handler.
    pub fn add_inbound(&mut self, name: impl Into<String>, h: Arc<dyn InboundHandler>) {
        self.inbound.push((name.into(), h));
    }

    /// Append an outbound handler.
    pub fn add_outbound(&mut self, name: impl Into<String>, h: Arc<dyn OutboundHandler>) {
        self.outbound.push((name.into(), h));
    }

    /// Snapshot of inbound handlers in order.
    pub fn inbound_handlers(&self) -> Vec<Arc<dyn InboundHandler>> {
        self.inbound.iter().map(|(_, h)| h.clone()).collect()
    }

    /// Snapshot of outbound handlers in order.
    pub fn outbound_handlers(&self) -> Vec<Arc<dyn OutboundHandler>> {
        self.outbound.iter().map(|(_, h)| h.clone()).collect()
    }

    /// Handler names, inbound then outbound (diagnostics).
    pub fn handler_names(&self) -> Vec<String> {
        self.inbound
            .iter()
            .map(|(n, _)| format!("in:{n}"))
            .chain(self.outbound.iter().map(|(n, _)| format!("out:{n}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Payload;

    struct Tag;
    impl InboundHandler for Tag {
        fn on_frame(&self, _c: &Arc<ChannelCore>, frame: Frame) -> InboundAction {
            InboundAction::Forward(frame)
        }
    }
    struct Drop_;
    impl OutboundHandler for Drop_ {
        fn on_write(&self, _c: &Arc<ChannelCore>, _m: Message, _t: Option<Then>) -> OutboundAction {
            OutboundAction::Sent { virtual_bytes: 0 }
        }
    }

    #[test]
    fn pipeline_registers_in_order() {
        let mut p = Pipeline::new();
        p.add_inbound("decoder", Arc::new(Tag));
        p.add_inbound("mpi-body-fetch", Arc::new(Tag));
        p.add_outbound("mpi-body-send", Arc::new(Drop_));
        assert_eq!(p.handler_names(), vec!["in:decoder", "in:mpi-body-fetch", "out:mpi-body-send"]);
        assert_eq!(p.inbound_handlers().len(), 2);
        assert_eq!(p.outbound_handlers().len(), 1);
    }

    #[test]
    fn actions_carry_payloads() {
        // Type-level smoke test that actions hold what dispatch expects.
        let m = Message::OneWayMessage { body: Payload::empty() };
        match OutboundAction::Forward(m, None) {
            OutboundAction::Forward(Message::OneWayMessage { .. }, None) => {}
            _ => panic!("wrong variant"),
        }
    }
}
