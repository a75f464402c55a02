//! Property-based tests (seeded case loops) over the stack's core invariants:
//! codecs round-trip, partitioners cover and stay stable, shuffles preserve
//! multisets, sorts order totally, the virtual clock never regresses, and
//! retried fetches decode identically to fault-free runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use simt::{for_each_case, SeededRng};
use sparklet::data::{decode_batch, encode_batch};
use sparklet::rdd::partitioner::{HashPartitioner, Partitioner, RangePartitioner};
use sparklet::Blob;

/// `lo..hi` draws of `item`.
fn draw_vec<T>(
    rng: &mut SeededRng,
    lo: u64,
    hi: u64,
    mut item: impl FnMut(&mut SeededRng) -> T,
) -> Vec<T> {
    let n = rng.next_range(lo, hi);
    (0..n).map(|_| item(rng)).collect()
}

#[test]
fn element_batches_roundtrip() {
    for_each_case(64, |rng| {
        let v = draw_vec(rng, 0, 200, |r| (r.next_u64(), r.next_u64()));
        let (bytes, virt) = encode_batch(&v);
        let back: Vec<(u64, u64)> = decode_batch(&bytes);
        assert_eq!(back, v);
        assert_eq!(virt, 4 + 16 * v.len() as u64);
    });
}

#[test]
fn blob_batches_roundtrip() {
    for_each_case(64, |rng| {
        let blobs =
            draw_vec(rng, 0, 100, |r| Blob::new(r.next_u64(), r.next_range(0, 10_000_000) as u32));
        let (bytes, virt) = encode_batch(&blobs);
        let back: Vec<Blob> = decode_batch(&bytes);
        assert_eq!(back, blobs);
        let expected: u64 = 4 + blobs.iter().map(|b| u64::from(b.len)).sum::<u64>();
        assert_eq!(virt, expected);
    });
}

#[test]
fn string_batches_roundtrip() {
    // One- to four-byte UTF-8 scalars, so length prefixes count bytes.
    const ALPHABET: [char; 8] = ['a', 'Z', '7', ' ', 'é', 'ß', '√', '🦀'];
    for_each_case(64, |rng| {
        let v = draw_vec(rng, 0, 50, |r| {
            draw_vec(r, 0, 41, |r| ALPHABET[r.next_range(0, 8) as usize])
                .into_iter()
                .collect::<String>()
        });
        let (bytes, _) = encode_batch(&v);
        let back: Vec<String> = decode_batch(&bytes);
        assert_eq!(back, v);
    });
}

#[test]
fn hash_partitioner_in_range_and_stable() {
    for_each_case(64, |rng| {
        let keys = draw_vec(rng, 1, 500, SeededRng::next_u64);
        let parts = rng.next_range(1, 64) as usize;
        let p = HashPartitioner::new(parts);
        for k in &keys {
            let a = Partitioner::<u64>::partition(&p, k);
            assert!(a < parts);
            assert_eq!(a, Partitioner::<u64>::partition(&p, k));
        }
    });
}

#[test]
fn range_partitioner_is_monotone() {
    for_each_case(64, |rng| {
        let sample = draw_vec(rng, 1, 300, SeededRng::next_u64);
        let parts = rng.next_range(1, 16) as usize;
        let mut probes = draw_vec(rng, 0, 100, SeededRng::next_u64);
        let p = RangePartitioner::from_sample(sample, parts);
        probes.sort_unstable();
        let mut last = 0usize;
        for k in &probes {
            let part = p.partition(k);
            assert!(part < p.num_partitions());
            assert!(part >= last, "monotonicity violated");
            last = part;
        }
    });
}

#[test]
fn message_codec_roundtrips() {
    use fabric::Payload;
    use netz::Message;
    for_each_case(64, |rng| {
        let (request_id, stream) = (rng.next_u64(), rng.next_u64());
        let chunk = rng.next_u64() as u32;
        let virt = rng.next_range(0, 100_000_000);
        let body = || Payload::bytes_scaled(bytes::Bytes::new(), virt);
        let cases = vec![
            Message::RpcRequest { request_id, body: body() },
            Message::ChunkFetchRequest { stream_id: stream, chunk_index: chunk },
            Message::ChunkFetchSuccess { stream_id: stream, chunk_index: chunk, body: body() },
            Message::StreamResponse {
                stream_id: format!("s{stream}"),
                byte_count: virt,
                body: body(),
            },
        ];
        for msg in cases {
            let header = msg.encode_header();
            let body = msg.body().cloned().unwrap_or_else(Payload::empty);
            let back = Message::decode(&header, body).unwrap();
            assert_eq!(&header[..], &back.encode_header()[..]);
            assert_eq!(Message::peek_body_len(&header).unwrap(), msg.body_virtual_len());
        }
    });
}

#[test]
fn virtual_clock_is_monotone() {
    for_each_case(64, |rng| {
        let delays = draw_vec(rng, 1, 40, |r| r.next_range(0, 10_000));
        let expected: u64 = delays.iter().sum();
        let sim = simt::Sim::new();
        sim.spawn("t", move || {
            let mut last = simt::now();
            for d in delays {
                simt::sleep(d);
                let now = simt::now();
                assert!(now >= last);
                last = now;
            }
        });
        assert_eq!(sim.run().unwrap().now, expected);
    });
}

/// The small Vanilla cluster the cluster-backed properties run on.
fn run_vanilla<R: Send + Sync + 'static>(
    app: impl FnOnce(&sparklet::scheduler::SparkContext) -> R + Send + 'static,
) -> R {
    use sparklet::deploy::{simulate, ClusterConfig, ProcessBuilderLauncher};
    let spec = fabric::ClusterSpec::test(4);
    let mut conf = sparklet::SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 1_000;
    let cluster = ClusterConfig::paper_layout(spec.len(), conf);
    let (out, _) = simulate(
        &spec,
        cluster,
        Arc::new(sparklet::VanillaBackend::default()),
        Arc::new(ProcessBuilderLauncher),
        app,
    );
    out
}

// Cluster-backed properties use fewer cases — each runs a full simulated
// Spark cluster.
#[test]
fn shuffle_preserves_multisets() {
    for_each_case(8, |rng| {
        let mut records = draw_vec(rng, 1, 300, |r| (r.next_range(0, 50), r.next_u64()));
        let parts = rng.next_range(1, 12) as usize;
        let input = records.clone();
        let mut out = run_vanilla(move |sc| {
            sc.parallelize(input, 5).partition_by(Arc::new(HashPartitioner::new(parts))).collect()
        });
        out.sort_unstable();
        records.sort_unstable();
        assert_eq!(out, records);
    });
}

#[test]
fn distributed_groupby_matches_local() {
    for_each_case(8, |rng| {
        let records = draw_vec(rng, 1, 200, |r| (r.next_range(0, 20), r.next_range(0, 1000)));
        let input = records.clone();
        let out = run_vanilla(move |sc| sc.parallelize(input, 4).group_by_key(3).collect());
        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (k, v) in &records {
            oracle.entry(*k).or_default().push(*v);
        }
        assert_eq!(out.len(), oracle.len());
        for (k, mut vs) in out {
            vs.sort_unstable();
            let mut expect = oracle[&k].clone();
            expect.sort_unstable();
            assert_eq!(vs, expect);
        }
    });
}

// Chaos equivalence uses even fewer cases: each runs a clean cluster to
// measure the shuffle-read window, then a faulted one against it.
fn chaos_equivalence_case(records: Vec<(u64, u64)>, chaos_seed: u64) {
    use sparklet::deploy::ClusterConfig;
    use workloads::System;

    let spec = fabric::ClusterSpec::test(5);
    let mut conf = sparklet::SparkConf::default();
    conf.executor_cores = 4;
    conf.cost.task_overhead_ns = 10_000;
    conf.merge_chunks_per_request = false; // per-block chunks → per-block retry
    conf.connect_timeout_ns = simt::time::millis(50);
    conf.request_timeout_ns = simt::time::millis(200);
    conf.fetch_timeout_ns = simt::time::millis(300);
    conf.fetch_max_retries = 8;
    conf.fetch_retry_base_ns = simt::time::millis(20);
    conf.fetch_retry_max_ns = simt::time::millis(200);

    let records2 = records.clone();
    let app = move |sc: &sparklet::scheduler::SparkContext| {
        let mut groups = sc.parallelize(records2.clone(), 9).group_by_key(9).collect();
        groups.sort_by_key(|(k, _)| *k);
        groups.iter_mut().for_each(|(_, v)| v.sort_unstable());
        groups
    };

    let clean =
        System::Vanilla.run(&spec, ClusterConfig::paper_layout(spec.len(), conf), app.clone());
    let stage = clean
        .jobs
        .iter()
        .flat_map(|j| j.stages.iter())
        .find(|s| s.name == "Job0-ResultStage")
        .expect("groupby has a result stage");
    let (start, dur) = (stage.start_ns, (stage.end_ns - stage.start_ns).max(1_000));

    // Flap every worker↔worker link across the measured shuffle-read
    // window (workers are nodes 0-2 under the paper layout).
    let mut plan = fabric::FaultPlan::seeded(chaos_seed);
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        plan = plan.flap_link(a, b, start, (dur / 3).max(8), (dur / 6).max(2), 6);
    }
    let faulted = System::Vanilla.run_with_chaos(
        &spec,
        ClusterConfig::paper_layout(spec.len(), conf),
        plan.build(),
        app,
    );
    assert_eq!(faulted.result, clean.result);
}

// A fetch completed *through retries* decodes byte-identically to a
// fault-free run: a mid-shuffle drop window changes timing, retry
// counts, and message fates — never the collected data.
#[test]
fn retried_fetches_decode_identically_to_fault_free_runs() {
    for_each_case(6, |rng| {
        let records = draw_vec(rng, 50, 200, |r| (r.next_range(0, 20), r.next_u64()));
        chaos_equivalence_case(records, rng.next_u64());
    });
}
