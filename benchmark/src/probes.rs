//! Layer probes: each calls one layer's public functions on inputs sized
//! from the workload's own counts and reports the cost of one operation.
//! A probe runs one batch per cycle, every batch at least 2 ms long, and the
//! least batch is its result, so a probe sees the same noise filter as the
//! workload's slices.

use std::hint::black_box;
use std::time::{Duration, Instant};

use predis_crypto::{Hash, Keypair, MerkleTree, SignerId};
use predis_erasure::ReedSolomon;
use predis_mempool::{BundleProducer, Mempool, TxPool};
use predis_parallel::Pool;
use predis_sim::prelude::*;
use predis_sim::Payload;
use predis_telemetry::{BundleKey, Counters, Labels, LogHistogram, Stage, Timelines};
use predis_types::{
    Bundle, ChainId, ClientId, Height, PredisBlock, SizedBundle, TipList, Transaction, TxId, View,
};

/// Least wall of a probe batch.
const MIN_BATCH: Duration = Duration::from_millis(2);

/// Input sizes, taken from the workload's constants and its run's counts.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n_c: usize,
    pub f: usize,
    pub bundle_txs: usize,
    pub tx_size: usize,
    /// Recipients of one multicast.
    pub fanout: usize,
    /// Actors of the world.
    pub nodes: usize,
    /// Events pending in the queue: actors plus messages in flight.
    pub depth: usize,
    /// Bundles per chain a cut confirms.
    pub bundles_per_cut: usize,
}

/// One probe: a batch runner returning the wall of `iters` operations
/// (set-up inside the runner is not timed), the calibrated batch size, and
/// the least cost seen so far.
pub struct Probe {
    pub name: &'static str,
    run: Box<dyn FnMut(u64) -> Duration>,
    iters: u64,
    pub ns_per_op: f64,
}

impl Probe {
    fn new(name: &'static str, run: impl FnMut(u64) -> Duration + 'static) -> Probe {
        Probe {
            name,
            run: Box::new(run),
            iters: 0,
            ns_per_op: f64::INFINITY,
        }
    }

    /// Runs one batch and folds it into the floor. The first call sizes the
    /// batch: the count doubles until a batch lasts 2 ms, then stays fixed.
    pub fn batch(&mut self) -> Duration {
        if self.iters == 0 {
            self.iters = 1;
            while (self.run)(self.iters) < MIN_BATCH && self.iters < 1 << 24 {
                self.iters *= 2;
            }
        }
        let wall = (self.run)(self.iters);
        self.ns_per_op = self
            .ns_per_op
            .min(wall.as_nanos() as f64 / self.iters as f64);
        wall
    }
}

fn timed(body: impl FnOnce()) -> Duration {
    let start = Instant::now();
    body();
    start.elapsed()
}

fn key(chain: usize) -> Keypair {
    Keypair::for_node(SignerId(chain as u32))
}

fn txs(n: usize, salt: u64, size: usize) -> Vec<Transaction> {
    (0..n as u64)
        .map(|i| Transaction::with_size(TxId(salt << 24 | i), ClientId(0), 0, size as u32))
        .collect()
}

/// A chain of `len` valid bundles from `chain`, as the network delivers
/// them: shared, with the signature and body check already memoised by the
/// first receiver.
fn bundle_chain(shape: &Shape, chain: usize, len: usize, tips: &TipList) -> Vec<SizedBundle> {
    let mut producer = BundleProducer::new(ChainId(chain as u32), key(chain), shape.bundle_txs);
    let mut pool = TxPool::new();
    (0..len)
        .map(|h| {
            for tx in txs(shape.bundle_txs, (chain * len + h) as u64, shape.tx_size) {
                pool.push(tx);
            }
            let bundle: SizedBundle = producer
                .produce(&mut pool, tips.clone(), Hash::ZERO, false)
                .expect("pool was filled")
                .into();
            assert!(bundle.verify(), "probe bundle must be valid");
            bundle
        })
        .collect()
}

/// A mempool of node `me` in which every chain holds `height` bundles that
/// every producer has acknowledged.
fn filled_mempool(shape: &Shape, me: usize, chains: &[Vec<SizedBundle>]) -> Mempool {
    let mut pool = Mempool::new(shape.n_c, shape.f, Some(ChainId(me as u32)));
    let height = chains[0].len();
    for h in 0..height {
        for chain in chains {
            pool.insert_bundle(chain[h].clone())
                .expect("probe bundles extend their chain");
        }
    }
    pool
}

/// Bundles whose tip lists acknowledge every chain up to their own height,
/// so a quorum has acknowledged all of them once they are inserted.
fn settled_chains(shape: &Shape, height: usize) -> Vec<Vec<SizedBundle>> {
    (0..shape.n_c)
        .map(|c| {
            let mut producer = BundleProducer::new(ChainId(c as u32), key(c), shape.bundle_txs);
            let mut pool = TxPool::new();
            (1..=height)
                .map(|h| {
                    for tx in txs(shape.bundle_txs, (c * height + h) as u64, shape.tx_size) {
                        pool.push(tx);
                    }
                    let tips = TipList::from(vec![Height(h as u64); shape.n_c]);
                    producer
                        .produce(&mut pool, tips, Hash::ZERO, false)
                        .expect("pool was filled")
                        .into()
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Ping;

impl Payload for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Keeps `timers` timers pending, re-arming each as it fires.
struct TimerChurn {
    timers: u64,
}

const CHURN_PERIOD: SimDuration = SimDuration::from_millis(1);

impl Actor<Ping> for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        for i in 0..self.timers {
            let phase = SimDuration::from_nanos(1 + i * 997 % CHURN_PERIOD.as_nanos());
            ctx.set_timer(phase, TimerTag::of_kind(1));
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: TimerTag) {
        ctx.set_timer(CHURN_PERIOD, tag);
    }
}

/// Multicasts to `fanout` silent receivers every period.
struct Caster {
    fanout: u32,
}

impl Actor<Ping> for Caster {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        if ctx.node().0 == 0 {
            ctx.set_timer(CHURN_PERIOD, TimerTag::of_kind(1));
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: TimerTag) {
        ctx.multicast((1..=self.fanout).map(NodeId), Ping);
        ctx.set_timer(CHURN_PERIOD, tag);
    }
}

fn lan_sim() -> Sim<Ping> {
    let mut sim = Sim::new(1, Network::new(LatencyModel::lan(), SimDuration::ZERO));
    sim.set_sim_threads(1);
    sim
}

/// Every probe, in the order of the metric table.
pub fn all(shape: Shape) -> Vec<Probe> {
    let s = shape;
    let mut probes = Vec::new();

    // sim: the queue is private to the crate, so it is driven through `Sim`
    // with actors that do nothing but keep it at the workload's depth.
    probes.push(Probe::new("sim.queue_ns_per_op", move |iters| {
        let actors = s.nodes.clamp(1, s.depth);
        let per_actor = (s.depth / actors).max(1) as u64;
        let mut sim = lan_sim();
        for _ in 0..actors {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(TimerChurn { timers: per_actor }),
                SimTime::ZERO,
            );
        }
        sim.run_until(SimTime::from_millis(2));
        let per_ms = actors as u64 * per_actor;
        let until = 2 + iters.div_ceil(per_ms);
        let before = sim.events_processed();
        let wall = timed(|| sim.run_until(SimTime::from_millis(until)));
        // The batch holds whole periods; scale to the asked count.
        let done = (sim.events_processed() - before).max(1);
        wall.mul_f64(iters as f64 / done as f64)
    }));
    probes.push(Probe::new("sim.net_schedule_ns", move |iters| {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let links = s.nodes.clamp(2, 4096) as u64;
        for _ in 0..links {
            net.add_link(LinkConfig::paper_default());
        }
        timed(|| {
            for i in 0..iters {
                let from = NodeId((i % links) as u32);
                let to = NodeId(((i * 7 + 1) % links) as u32);
                black_box(net.schedule(SimTime::from_nanos(i * 1_000), from, to, 512));
            }
        })
    }));
    probes.push(Probe::new("sim.multicast_ns_per_msg", move |iters| {
        let mut sim = lan_sim();
        for _ in 0..=s.fanout {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(Caster {
                    fanout: s.fanout as u32,
                }),
                SimTime::ZERO,
            );
        }
        sim.run_until(SimTime::from_millis(2));
        let until = 2 + iters.div_ceil(s.fanout as u64);
        let before = sim.metrics().counter("net.messages");
        let wall = timed(|| sim.run_until(SimTime::from_millis(until)));
        let done = (sim.metrics().counter("net.messages") - before).max(1);
        wall.mul_f64(iters as f64 / done as f64)
    }));

    // mempool
    let tips0 = TipList::new(s.n_c);
    let inbound = bundle_chain(&s, 1, 512, &tips0);
    probes.push(Probe::new("mempool.insert_ns", move |iters| {
        let mut total = Duration::ZERO;
        let mut left = iters as usize;
        while left > 0 {
            let take = left.min(inbound.len());
            let mut pool = Mempool::new(s.n_c, s.f, Some(ChainId(0)));
            let batch: Vec<SizedBundle> = inbound[..take].to_vec();
            total += timed(|| {
                for b in batch {
                    black_box(pool.insert_bundle(b).expect("in order"));
                }
            });
            left -= take;
        }
        total
    }));
    let chains = settled_chains(&s, s.bundles_per_cut);
    let leader = filled_mempool(&s, 0, &chains);
    let replica = filled_mempool(&s, 1, &chains);
    let base = leader.committed_base();
    let block: PredisBlock = leader
        .build_block(View(1), Hash::ZERO, &base, &key(0))
        .expect("settled chains give a non-empty cut");
    replica
        .validate_block(&block, &base)
        .expect("probe block must validate");
    {
        let base = base.clone();
        let leader = filled_mempool(&s, 0, &chains);
        probes.push(Probe::new("mempool.cut_ns", move |iters| {
            timed(|| {
                for _ in 0..iters {
                    black_box(leader.cut(black_box(&base)));
                }
            })
        }));
    }
    {
        let base = base.clone();
        probes.push(Probe::new("mempool.build_block_ns", move |iters| {
            let k = key(0);
            timed(|| {
                for _ in 0..iters {
                    black_box(leader.build_block(View(1), Hash::ZERO, black_box(&base), &k));
                }
            })
        }));
    }
    {
        let block = block.clone();
        probes.push(Probe::new("mempool.validate_block_ns", move |iters| {
            timed(|| {
                for _ in 0..iters {
                    black_box(replica.validate_block(black_box(&block), &base)).ok();
                }
            })
        }));
    }
    probes.push(Probe::new("mempool.produce_ns", move |iters| {
        let mut producer = BundleProducer::new(ChainId(0), key(0), s.bundle_txs);
        let mut pool = TxPool::new();
        for i in 0..iters {
            for tx in txs(s.bundle_txs, i, s.tx_size) {
                pool.push(tx);
            }
        }
        let tips = TipList::new(s.n_c);
        timed(|| {
            for _ in 0..iters {
                black_box(producer.produce(&mut pool, tips.clone(), Hash::ZERO, false));
            }
        })
    }));

    // types
    probes.push(Probe::new("types.bundle_build_ns", move |iters| {
        let bodies: Vec<Vec<Transaction>> = (0..iters)
            .map(|i| txs(s.bundle_txs, i, s.tx_size))
            .collect();
        let tips = TipList::new(s.n_c);
        let k = key(0);
        timed(|| {
            for (h, body) in bodies.into_iter().enumerate() {
                black_box(Bundle::build(
                    ChainId(0),
                    Height(h as u64 + 1),
                    Hash::ZERO,
                    tips.clone(),
                    body,
                    Hash::ZERO,
                    &k,
                ));
            }
        })
    }));
    let one_bundle: Bundle = Bundle::build(
        ChainId(0),
        Height(1),
        Hash::ZERO,
        TipList::new(s.n_c),
        txs(s.bundle_txs, 0, s.tx_size),
        Hash::ZERO,
        &key(0),
    );
    probes.push(Probe::new("types.bundle_verify_ns", move |iters| {
        timed(|| {
            for _ in 0..iters {
                assert!(black_box(&one_bundle).verify());
            }
        })
    }));
    probes.push(Probe::new("types.tiplist_merge_ns", move |iters| {
        let mut mine = TipList::new(s.n_c);
        let theirs: Vec<TipList> = (0..16u64)
            .map(|i| TipList::from(vec![Height(i); s.n_c]))
            .collect();
        timed(|| {
            for i in 0..iters as usize {
                mine.merge(black_box(&theirs[i % theirs.len()]));
            }
            black_box(&mine);
        })
    }));
    probes.push(Probe::new("types.block_digest_ns", move |iters| {
        timed(|| {
            for _ in 0..iters {
                black_box(black_box(&block).digest());
            }
        })
    }));

    // crypto
    probes.push(Probe::new("crypto.sha256_ns_per_64kib", |iters| {
        let data = vec![0xabu8; 64 << 10];
        timed(|| {
            for _ in 0..iters {
                black_box(Hash::digest(black_box(&data)));
            }
        })
    }));
    let leaves: Vec<Hash> = (0..s.bundle_txs as u64)
        .map(|i| Hash::digest(&i.to_be_bytes()))
        .collect();
    {
        let leaves = leaves.clone();
        probes.push(Probe::new("crypto.merkle_root_ns", move |iters| {
            let inputs: Vec<Vec<Hash>> = (0..iters).map(|_| leaves.clone()).collect();
            timed(|| {
                for input in inputs {
                    black_box(MerkleTree::from_leaves(input).root());
                }
            })
        }));
    }
    probes.push(Probe::new("crypto.merkle_verify_ns", move |iters| {
        let tree = MerkleTree::from_leaves(leaves.clone());
        let root = tree.root();
        let at = leaves.len() / 2;
        let proof = tree.proof(at).expect("index inside the tree");
        timed(|| {
            for _ in 0..iters {
                assert!(black_box(&proof).verify(root, leaves[at]));
            }
        })
    }));
    probes.push(Probe::new("crypto.sign_ns", |iters| {
        let k = key(0);
        let msg = Hash::digest(b"bundle header");
        timed(|| {
            for _ in 0..iters {
                black_box(k.sign(black_box(msg)));
            }
        })
    }));
    probes.push(Probe::new("crypto.verify_ns", |iters| {
        let msg = Hash::digest(b"bundle header");
        let sig = key(0).sign(msg);
        timed(|| {
            for _ in 0..iters {
                assert!(black_box(&sig).verify(black_box(msg)));
            }
        })
    }));

    // erasure: the simulator counts codec calls and moves sizes, it does not
    // run the codec; these probes say what running it would cost.
    let blob: Vec<u8> = (0..s.bundle_txs * s.tx_size)
        .map(|i| (i % 251) as u8)
        .collect();
    let k = s.n_c - s.f;
    {
        let blob = blob.clone();
        probes.push(Probe::new("erasure.encode_ns_per_bundle", move |iters| {
            let rs = ReedSolomon::new(k, s.n_c).expect("k < n");
            timed(|| {
                for _ in 0..iters {
                    black_box(rs.encode_blob(black_box(&blob)));
                }
            })
        }));
    }
    for (name, lose) in [
        ("erasure.decode_ns_per_bundle", s.n_c - k),
        ("erasure.decode_fast_ns_per_bundle", 0),
    ] {
        let blob = blob.clone();
        probes.push(Probe::new(name, move |iters| {
            let rs = ReedSolomon::new(k, s.n_c).expect("k < n");
            let shards = rs.encode_blob(&blob);
            let inputs: Vec<Vec<Option<Vec<u8>>>> = (0..iters)
                .map(|_| {
                    let mut received: Vec<_> = shards.iter().cloned().map(Some).collect();
                    received.iter_mut().take(lose).for_each(|slot| *slot = None);
                    received
                })
                .collect();
            timed(|| {
                for mut received in inputs {
                    black_box(
                        rs.decode_blob(&mut received, blob.len())
                            .expect("k survive"),
                    );
                }
            })
        }));
    }

    // telemetry
    probes.push(Probe::new("telemetry.counter_incr_ns", |iters| {
        let mut counters = Counters::new();
        let handles: Vec<_> = (0..64)
            .map(|n| counters.handle("node.deliveries", Labels::node(n)))
            .collect();
        timed(|| {
            for i in 0..iters as usize {
                counters.incr_by_handle(handles[i % handles.len()], 1);
            }
            black_box(&counters);
        })
    }));
    probes.push(Probe::new("telemetry.counter_incr_named_ns", |iters| {
        let mut counters = Counters::new();
        timed(|| {
            for i in 0..iters {
                counters.incr("zone.heartbeats", Labels::node(i % 64), 1);
            }
            black_box(&counters);
        })
    }));
    probes.push(Probe::new("telemetry.hist_record_ns", |iters| {
        let mut hist = LogHistogram::new();
        timed(|| {
            for i in 0..iters {
                hist.record(100_000_000 + i * 7_919 % 50_000_000);
            }
            black_box(&hist);
        })
    }));
    probes.push(Probe::new("telemetry.timeline_mark_ns", |iters| {
        let mut timelines = Timelines::default();
        timed(|| {
            for i in 0..iters {
                let key = BundleKey {
                    producer: i % 8,
                    chain: i % 8,
                    height: i / 64,
                };
                timelines.mark(key, Stage::ALL[(i / 8 % 8) as usize], i);
            }
            black_box(&timelines);
        })
    }));

    // parallel
    probes.push(Probe::new("parallel.pool_map_us_per_task", |iters| {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..iters).collect();
        timed(|| {
            black_box(pool.map(items, |x| x.wrapping_mul(0x9e37_79b9)));
        })
    }));

    probes
}

/// A fixed arithmetic kernel of eight independent xorshift streams: it keeps
/// the core's execution ports full, as the SHA-256 rounds of the crypto
/// layer do, so it slows when a neighbour takes a share of the core. (A
/// single dependent stream does not: on this host it stayed within 3 % while
/// signing cost moved by 45 %.)
pub fn host_compute() -> Duration {
    timed(|| {
        let mut x: [u64; 8] = std::array::from_fn(|i| 0x2545_f491_4f6c_dd1d + i as u64);
        for _ in 0..10_000_000u64 {
            for v in &mut x {
                *v ^= *v << 13;
                *v ^= *v >> 7;
                *v ^= *v << 17;
            }
        }
        black_box(x);
    })
}

/// A fixed pointer chase over a table larger than the caches: moves with
/// memory latency, which is what neighbours on a shared host disturb and
/// what the simulator's event loop is bound by.
pub struct MemChase {
    next: Vec<u32>,
}

impl MemChase {
    pub fn new() -> MemChase {
        // One cycle through 8 Mi entries (32 MiB), by Sattolo's shuffle.
        let n = 8usize << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        MemChase { next }
    }

    pub fn run(&self) -> Duration {
        timed(|| {
            let mut at = 0u32;
            for _ in 0..400_000 {
                at = self.next[at as usize];
            }
            black_box(at);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape {
            n_c: 4,
            f: 1,
            bundle_txs: 8,
            tx_size: 64,
            fanout: 3,
            nodes: 6,
            depth: 40,
            bundles_per_cut: 2,
        }
    }

    #[test]
    fn every_probe_runs_and_reports_a_positive_cost() {
        let mut probes = all(small());
        let mut names: Vec<&str> = probes.iter().map(|p| p.name).collect();
        for p in &mut probes {
            p.batch();
            assert!(p.ns_per_op.is_finite() && p.ns_per_op > 0.0, "{}", p.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), probes.len(), "probe names must be unique");
    }

    #[test]
    fn probe_cost_is_the_least_batch() {
        let mut walls = [9u64, 3, 6].into_iter();
        let mut p = Probe::new("x", move |iters| {
            Duration::from_nanos(iters * walls.next().unwrap_or(6))
        });
        p.iters = 1_000;
        p.batch();
        p.batch();
        p.batch();
        assert_eq!(p.ns_per_op, 3.0);
    }
}
