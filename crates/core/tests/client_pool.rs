//! One connection per peer pair, on every transport. An endpoint's client
//! pool (Spark's `TransportClientFactory`, `numConnectionsPerPeer` = 1)
//! makes one connect per remote: every caller that misses the pool while
//! that connect is in flight, by continuation or blocking, waits for it and
//! shares its outcome.

use std::sync::Arc;

use fabric::{ClusterSpec, Net, PortAddr};
use mpi4spark::transport::{MpiTransportBasic, MpiTransportOptimized};
use mpi4spark::MpiProcCtx;
use netz::{
    Endpoint, NetzError, NioTransport, NoOpRpcHandler, Transport, TransportClient, TransportConf,
    TransportContext,
};
use simt::sync::{Mutex, OnceCell};
use simt::time::millis;
use simt::Sim;

type MakeTransport = fn(Arc<MpiProcCtx>) -> Arc<dyn Transport>;

/// NIO sockets, MPI4Spark-Basic and MPI4Spark-Optimized.
const TRANSPORTS: [(&str, MakeTransport); 3] = [
    ("nio", |_| Arc::new(NioTransport)),
    ("basic", |ctx| Arc::new(MpiTransportBasic::new(ctx))),
    ("optimized", |ctx| Arc::new(MpiTransportOptimized::new(ctx))),
];

/// Where rank 0 serves.
const SERVER: PortAddr = PortAddr { node: 0, port: 500 };

/// A connect to an unbound port fails after this long.
const CONNECT_TIMEOUT: u64 = millis(5);

/// Rank 1 runs `case` on a client endpoint over `transport`; rank 0 binds
/// its server on [`SERVER`] once `case` calls its second argument. Returns
/// what `case` returned.
fn on_client<R: Send + 'static>(
    transport: MakeTransport,
    case: impl FnOnce(&Endpoint, &dyn Fn()) -> R + Send + 'static,
) -> R {
    let out: Arc<Mutex<Option<R>>> = Arc::default();
    let (seen, case) = (out.clone(), Arc::new(Mutex::new(Some(case))));
    let sim = Sim::new();
    sim.spawn("launcher", move || {
        let net = Net::new(&ClusterSpec::test(2));
        let (net2, up, done) = (net.clone(), OnceCell::<()>::new(), OnceCell::<()>::new());
        rmpi::mpiexec(&net, &[0, 1], move |world| {
            let rank = world.rank();
            let mut conf = TransportConf::default_sockets();
            conf.connect_timeout_ns = CONNECT_TIMEOUT;
            let ctx = TransportContext::with_transport(
                net2.clone(),
                conf,
                Arc::new(NoOpRpcHandler),
                transport(MpiProcCtx::world_proc(world)),
            );
            if rank == 0 {
                up.take();
                let server = ctx.create_server("server", SERVER.node, SERVER.port);
                done.take();
                server.shutdown();
            } else {
                let ep = ctx.create_client_endpoint("client", 1);
                let serve = || {
                    up.put(());
                    simt::sleep(millis(1)); // the server binds
                };
                let case = case.lock().take().expect("one client rank");
                *seen.lock() = Some(case(&ep, &serve));
                ep.shutdown();
                done.put(());
            }
        });
    });
    sim.run().unwrap().assert_clean();
    sim.shutdown();
    let r = out.lock().take().expect("the case ran");
    r
}

fn channels_opened(net: &Net) -> u64 {
    net.obs().registry().snapshot().counter(obs::keys::NETZ_CHANNELS_OPENED)
}

#[test]
fn concurrent_client_then_calls_share_one_connect() {
    for (name, transport) in TRANSPORTS {
        let (order, shared, opened) = on_client(transport, move |ep, serve| {
            serve();
            let got: Arc<Mutex<Vec<(usize, TransportClient)>>> = Arc::default();
            for i in 0..8 {
                let got = got.clone();
                ep.client_then(SERVER, move |c| got.lock().push((i, c.expect("connect"))));
            }
            assert!(got.lock().is_empty(), "{name}: a connect takes a round trip");
            simt::sleep(millis(1));
            let got = got.lock().clone();
            let order: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
            let first = got[0].1.channel();
            let shared = got.iter().all(|(_, c)| Arc::ptr_eq(c.channel(), first));
            (order, shared, channels_opened(ep.net()))
        });
        assert_eq!(order, (0..8).collect::<Vec<_>>(), "{name}: every caller, in arrival order");
        assert!(shared, "{name}: every caller got the same channel");
        assert_eq!(opened, 2, "{name}: one `Connect`, one channel per side");
    }
}

#[test]
fn a_blocking_client_joins_the_connect_a_continuation_started() {
    for (name, transport) in TRANSPORTS {
        let (shared, opened) = on_client(transport, |ep, serve| {
            serve();
            let first: Arc<Mutex<Option<TransportClient>>> = Arc::default();
            let put = first.clone();
            ep.client_then(SERVER, move |c| *put.lock() = Some(c.expect("connect")));
            let joined = ep.client(SERVER).expect("the joined connect");
            let first = first.lock().take().expect("the continuation, first in line, ran first");
            (Arc::ptr_eq(first.channel(), joined.channel()), channels_opened(ep.net()))
        });
        assert!(shared, "{name}: both callers got the same channel");
        assert_eq!(opened, 2, "{name}: one `Connect`, one channel per side");
    }
}

#[test]
fn a_failed_connect_fails_every_waiter_once_and_the_next_call_connects_again() {
    type Outcomes = Arc<Mutex<Vec<(usize, u64, Result<TransportClient, NetzError>)>>>;
    for (name, transport) in TRANSPORTS {
        let (outcomes, blocking, opened) = on_client(transport, |ep, serve| {
            let outcomes: Outcomes = Arc::default();
            for i in 0..3 {
                let (log, ep2) = (outcomes.clone(), ep.clone());
                ep.client_then(SERVER, move |r| {
                    log.lock().push((i, simt::now(), r));
                    if i == 0 {
                        // A retry from a waiter makes a connect of its own.
                        let log = log.clone();
                        ep2.client_then(SERVER, move |r| log.lock().push((3, simt::now(), r)));
                    }
                });
            }
            let blocking = ep.client(SERVER).map(|_| ()).map_err(|e| (e, simt::now()));
            simt::sleep(3 * CONNECT_TIMEOUT);
            serve();
            let again = ep.client(SERVER).expect("a fresh connect, to a bound server");
            assert!(again.is_active());
            let outcomes: Vec<_> = outcomes
                .lock()
                .iter()
                .map(|(i, at, r)| (*i, *at, r.as_ref().map(|_| ()).map_err(Clone::clone)))
                .collect();
            (outcomes, blocking, channels_opened(ep.net()))
        });
        let (error, failed_at) = blocking.expect_err("the blocking caller shares the failure");
        assert!(matches!(error, NetzError::ConnectFailed(_)), "{name}: {error:?}");
        assert!(failed_at >= CONNECT_TIMEOUT, "{name}: failed at the connect's timeout");
        let want: Vec<_> = (0..3).map(|i| (i, failed_at, Err(error.clone()))).collect();
        assert_eq!(outcomes[..3], want, "{name}: one failure per waiter, at once");
        let [(3, retry_failed_at, Err(NetzError::ConnectFailed(_)))] = outcomes[3..] else {
            panic!("{name}: the retry fails once, on its own: {outcomes:?}");
        };
        assert!(retry_failed_at >= failed_at + CONNECT_TIMEOUT, "{name}: a connect of its own");
        assert_eq!(opened, 2, "{name}: only the last connect opened channels");
    }
}
