//! Layer probes: each layer's public functions called directly, outside
//! the service, on the workload's own case base and requests. They say
//! what a layer costs per call; the traced run says how often and where
//! the service calls it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rqfa_core::{Generation, PlaneEngine, Request, Retrieval, RetrievalPlane, Q15};
use rqfa_net::{
    decode_frame, decode_message, encode_message, Message, RetryPolicy, Submit, WireOutcome,
    WireReply,
};
use rqfa_persist::{DurableCaseBase, PersistPolicy, StoreSet};
use rqfa_service::cache::RetrievalCache;
use rqfa_service::remote::{NodeServer, RemoteShard};
use rqfa_service::{AllocationService, ServiceConfig};
use rqfa_workloads::MutationGen;

use crate::inputs::Inputs;
use crate::machine::ScratchDir;
use crate::spec::Spec;
use crate::tally::{quantile, ratio};

/// Requests per kernel call in the batch probe: the service's default
/// dispatch batch.
const KERNEL_BATCH: usize = 32;

/// What the probes measured.
#[derive(Debug, Default)]
pub struct Probes {
    pub cache_lookup_ns: f64,
    pub cache_insert_ns: f64,
    pub cache_hit_ratio: f64,
    pub kernel_batch_ns_per_req: f64,
    pub kernel_single_ns_per_req: f64,
    pub compile_us: f64,
    pub encode_submit_ns: f64,
    pub decode_submit_ns: f64,
    pub encode_reply_ns: f64,
    pub decode_reply_ns: f64,
    pub submit_frame_bytes: f64,
    pub reply_frame_bytes: f64,
    pub heartbeat_rtt_p50_us: f64,
    pub heartbeat_rtt_p99_us: f64,
    pub apply_p50_us: f64,
    pub apply_p99_us: f64,
    pub wal_bytes_per_mutation: f64,
    pub appends_per_mutation: f64,
}

/// Mean ns per item of `body` run once over `items` items.
fn per_item_ns(items: usize, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Runs every probe. `samples` bounds the requests each probe uses.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    scratch: &ScratchDir,
    seed: u64,
    samples: usize,
) -> Probes {
    let mut probes = Probes::default();
    let requests: Vec<&Request> = inputs
        .arrivals
        .iter()
        .take(samples)
        .map(|a| &a.request)
        .collect();

    // core: the plane kernel, one request per call and 32 per call.
    let mut engine = PlaneEngine::new();
    let compiles = 5;
    probes.compile_us = per_item_ns(compiles, || {
        for _ in 0..compiles {
            black_box(RetrievalPlane::compile(black_box(&inputs.base)));
        }
    }) / 1_000.0;
    let mut answers: Vec<Retrieval<Q15>> = Vec::with_capacity(requests.len());
    probes.kernel_single_ns_per_req = per_item_ns(requests.len(), || {
        for request in &requests {
            let answer = engine.retrieve(&inputs.base, request);
            answers.push(answer.expect("generated request is valid"));
        }
    });
    probes.kernel_batch_ns_per_req = per_item_ns(requests.len(), || {
        for batch in requests.chunks(KERNEL_BATCH) {
            black_box(engine.retrieve_batch(&inputs.base, black_box(batch)));
        }
    });

    cache_probe(spec, inputs, &answers, &mut probes);
    net_probe(inputs, &requests, &answers, &mut probes);
    // Only a workload that runs durable has a case base the snapshot
    // format is known to hold (large generated bases exceed its limit).
    if spec.durable {
        persist_probe(inputs, scratch, seed, (samples / 100).max(20), &mut probes);
    }
    probes
}

/// The workload's fingerprint stream through a cache of the default
/// capacity: exact hit count, then the cost of a lookup and an insert.
fn cache_probe(spec: &Spec, inputs: &Inputs, answers: &[Retrieval<Q15>], probes: &mut Probes) {
    let capacity = ServiceConfig::default().cache_capacity;
    let fingerprints: Vec<u64> = inputs
        .arrivals
        .iter()
        .map(|a| a.request.fingerprint())
        .collect();
    // Any stored value costs the same; cycle through the real answers.
    let value = |i: usize| &answers[i % answers.len()];
    let mut generation = Generation::GENESIS;
    let mut cache = RetrievalCache::new(capacity);
    let mut hits = 0u64;
    for (i, &fingerprint) in fingerprints.iter().enumerate() {
        // A mutation bumps the shard's generation, which makes every
        // cached entry stale at once.
        if spec
            .mutate_every
            .is_some_and(|every| i > 0 && i % every == 0)
        {
            generation = generation.next();
        }
        if cache.lookup(fingerprint, generation).is_some() {
            hits += 1;
        } else {
            cache.insert(fingerprint, generation, value(i));
        }
    }
    probes.cache_hit_ratio = ratio(hits, fingerprints.len() as u64);
    probes.cache_lookup_ns = per_item_ns(fingerprints.len(), || {
        for &fingerprint in &fingerprints {
            black_box(cache.lookup(black_box(fingerprint), generation));
        }
    });
    let mut fresh = RetrievalCache::new(capacity);
    probes.cache_insert_ns = per_item_ns(fingerprints.len(), || {
        for (i, &fingerprint) in fingerprints.iter().enumerate() {
            fresh.insert(black_box(fingerprint), generation, value(i));
        }
    });
}

/// Wire encode and decode of the workload's own requests and answers,
/// and the round trip of a frame that asks the node for no service work.
fn net_probe(
    inputs: &Inputs,
    requests: &[&Request],
    answers: &[Retrieval<Q15>],
    probes: &mut Probes,
) {
    let submits: Vec<Message> = requests
        .iter()
        .zip(&inputs.arrivals)
        .enumerate()
        .map(|(id, (request, arrival))| {
            Message::Submit(Submit {
                id: id as u64,
                class: arrival.class,
                deadline_us: arrival.deadline_us,
                request: (*request).clone(),
            })
        })
        .collect();
    let replies: Vec<Message> = answers
        .iter()
        .zip(&inputs.arrivals)
        .enumerate()
        .map(|(id, (answer, arrival))| {
            Message::Reply(WireReply {
                id: id as u64,
                class: arrival.class,
                outcome: WireOutcome::Allocated {
                    best: answer.best.expect("a validated type holds a variant"),
                    evaluated: answer.evaluated as u64,
                    cached: false,
                },
                latency_us: 100,
            })
        })
        .collect();
    let codec = |messages: &[Message]| {
        let mut frames = Vec::with_capacity(messages.len());
        let encode_ns = per_item_ns(messages.len(), || {
            for message in messages {
                frames.push(encode_message(message).expect("message encodes"));
            }
        });
        let decode_ns = per_item_ns(frames.len(), || {
            for bytes in &frames {
                let frame = decode_frame(bytes).expect("own frame decodes");
                black_box(decode_message(&frame).expect("own message decodes"));
            }
        });
        let bytes: usize = frames.iter().map(Vec::len).sum();
        (
            encode_ns,
            decode_ns,
            bytes as f64 / frames.len().max(1) as f64,
        )
    };
    (
        probes.encode_submit_ns,
        probes.decode_submit_ns,
        probes.submit_frame_bytes,
    ) = codec(&submits);
    (
        probes.encode_reply_ns,
        probes.decode_reply_ns,
        probes.reply_frame_bytes,
    ) = codec(&replies);

    let node = Arc::new(
        AllocationService::new(&inputs.base, &ServiceConfig::default())
            .expect("probe service starts"),
    );
    let server = NodeServer::spawn(Arc::clone(&node)).expect("loopback listener binds");
    let remote = RemoteShard::tcp(
        server.addr(),
        Duration::from_millis(300),
        RetryPolicy::loopback(),
    );
    let mut round_trips_ns: Vec<u32> = (0..(requests.len() / 4).max(50))
        .filter_map(|_| {
            let start = Instant::now();
            remote.call_heartbeat(0).ok()?;
            u32::try_from(start.elapsed().as_nanos()).ok()
        })
        .collect();
    probes.heartbeat_rtt_p50_us = quantile(&mut round_trips_ns, 0.5) / 1_000.0;
    probes.heartbeat_rtt_p99_us = quantile(&mut round_trips_ns, 0.99) / 1_000.0;
    drop(remote);
    server.shutdown();
    if let Ok(service) = Arc::try_unwrap(node) {
        service.shutdown();
    }
}

/// `DurableCaseBase::apply` on file stores, no service around it: the
/// cost of one write-ahead append with its fsync.
fn persist_probe(
    inputs: &Inputs,
    scratch: &ScratchDir,
    seed: u64,
    mutations: usize,
    probes: &mut Probes,
) {
    let dir = scratch.join("persist-probe");
    let stores = StoreSet::in_dir(&dir).expect("probe directory is writable");
    let mut durable = DurableCaseBase::create(&inputs.base, stores, PersistPolicy::manual())
        .expect("durable case base is created");
    let stats = durable.stats();
    let stream = MutationGen::new(&inputs.base, seed).take(mutations);
    let mut apply_ns: Vec<u32> = stream
        .iter()
        .map(|mutation| {
            let start = Instant::now();
            durable.apply(mutation).expect("generated mutation applies");
            u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
        })
        .collect();
    probes.apply_p50_us = quantile(&mut apply_ns, 0.5) / 1_000.0;
    probes.apply_p99_us = quantile(&mut apply_ns, 0.99) / 1_000.0;
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
    probes.wal_bytes_per_mutation = ratio(wal_bytes, mutations as u64);
    probes.appends_per_mutation = ratio(stats.appends.get(), mutations as u64);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
