//! Channel pipelines with inbound and outbound handlers (paper Figs. 5/7).
//!
//! Netty routes every read through a chain of inbound `ChannelHandler`s and
//! every write through outbound ones. MPI4Spark-Optimized's key mechanism —
//! "parse the headers of shuffle messages inside of ChannelHandlers ... and
//! perform the MPI_recv call accordingly" (§VI-E) — is expressed here as an
//! [`InboundHandler`] that intercepts a header-only frame and reattaches the
//! body it pulls from MPI; the outbound mirror diverts eligible bodies to
//! MPI instead of the socket.
//!
//! A pipeline is built once per endpoint, by its transport's
//! [`Transport::start`](crate::Transport::start), and every channel of the
//! endpoint shares it (`Arc<Pipeline>`) — Netty's `@Sharable` handlers: no
//! handler keeps per-channel state, each takes its channel as an argument. A
//! frame or a write walks the borrowed handler list, with no lock and no copy.

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

    /// The channel has just closed, from either side (Netty's outbound
    /// `close`): forget what the handler keeps about it. Must not park.
    fn on_close(&self, _chan: &ChannelCore) {}
}

/// An ordered set of named handlers, shared by every channel of an endpoint.
#[derive(Default)]
pub struct Pipeline {
    inbound: Vec<(&'static str, Box<dyn InboundHandler>)>,
    outbound: Vec<(&'static str, Box<dyn OutboundHandler>)>,
}

impl Pipeline {
    /// Empty pipeline (default decode/encode only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an inbound handler.
    pub fn add_inbound(&mut self, name: &'static str, h: impl InboundHandler + 'static) {
        self.inbound.push((name, Box::new(h)));
    }

    /// Append an outbound handler.
    pub fn add_outbound(&mut self, name: &'static str, h: impl OutboundHandler + 'static) {
        self.outbound.push((name, Box::new(h)));
    }

    /// Inbound handlers in order.
    pub(crate) fn inbound(&self) -> impl Iterator<Item = &dyn InboundHandler> {
        self.inbound.iter().map(|(_, h)| &**h)
    }

    /// Outbound handlers in order.
    pub(crate) fn outbound(&self) -> impl Iterator<Item = &dyn OutboundHandler> {
        self.outbound.iter().map(|(_, h)| &**h)
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
        p.add_inbound("decoder", Tag);
        p.add_inbound("mpi-body-fetch", Tag);
        p.add_outbound("mpi-body-send", Drop_);
        assert_eq!(p.handler_names(), vec!["in:decoder", "in:mpi-body-fetch", "out:mpi-body-send"]);
        assert_eq!(p.inbound().count(), 2);
        assert_eq!(p.outbound().count(), 1);
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
