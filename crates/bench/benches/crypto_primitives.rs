//! Microbenchmarks of the from-scratch crypto substrate: SHA-256, Merkle
//! roots over a bundle's transactions, simulated signatures — and the
//! shapes the Predis hot path is made of (DESIGN.md §8): the 18-byte
//! transaction leaf, the 64-byte interior node, the in-place root, and a
//! whole 50-transaction bundle built and verified — and, since a built
//! bundle carries its own fold, built and accepted by a committee of eight.
//! A movement of `sim_rate` on the `pbft_predis` benchmark workload should
//! show here first.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use predis_crypto::{merkle_root, Hash, Keypair, MerkleTree, SignerId};
use predis_mempool::{BundleProducer, Mempool, TxPool};
use predis_types::{Bundle, ChainId, ClientId, Height, TipList, Transaction, TxId};

fn bench(c: &mut Criterion) {
    println!("sha256 backend: {}", predis_crypto::sha256::backend());
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xabu8; 1024];
    g.bench_function("sha256_1kib", |b| b.iter(|| Hash::digest(black_box(&data))));

    // The two sub-100 ns shapes run 1 000 per timed iteration, so the
    // timer's own cost stays below a per cent.
    let txs: Vec<Transaction> = (0..1000)
        .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
        .collect();
    g.bench_function("tx_leaf_hash_x1000", |b| {
        b.iter(|| {
            for tx in black_box(&txs) {
                black_box(tx.hash());
            }
        })
    });
    let digests: Vec<Hash> = txs.iter().map(Transaction::hash).collect();
    g.bench_function("hash_combine_x1000", |b| {
        b.iter(|| {
            for pair in black_box(&digests).windows(2) {
                black_box(Hash::combine(pair[0], pair[1]));
            }
            black_box(Hash::combine(digests[999], digests[0]))
        })
    });

    let leaves = &digests[..50];
    g.bench_function("merkle_root_50_leaves", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(leaves.to_vec())).root())
    });
    for n in [50, 400] {
        g.bench_function(format!("merkle_root_in_place_{n}"), |b| {
            b.iter_batched(
                || digests[..n].to_vec(),
                |mut scratch| merkle_root(black_box(&mut scratch)).root,
                BatchSize::SmallInput,
            )
        });
    }

    let key = Keypair::for_node(SignerId(0));
    let msg = Hash::digest(b"bundle header");
    g.bench_function("sign", |b| b.iter(|| key.sign(black_box(msg))));
    let sig = key.sign(msg);
    g.bench_function("verify", |b| b.iter(|| sig.verify(black_box(msg))));

    let build = |txs: Vec<Transaction>| {
        Bundle::build(
            ChainId(0),
            Height(1),
            Hash::ZERO,
            TipList::new(8),
            txs,
            Hash::ZERO,
            &key,
        )
    };
    g.bench_function("bundle_build_50tx", |b| {
        b.iter_batched(|| txs[..50].to_vec(), build, BatchSize::SmallInput)
    });
    let bundle = build(txs[..50].to_vec());
    g.bench_function("bundle_verify_50tx", |b| {
        b.iter(|| black_box(&bundle).verify())
    });

    // What one production timer sets off across an 8-node committee: one
    // `produce`, the producer's own insert, seven receivers' inserts.
    g.bench_function("bundle_produce_accept_50tx_n8", |b| {
        const N: usize = 8;
        let mut producer = BundleProducer::new(ChainId(0), key, 50);
        let mut committee: Vec<Mempool> = (0..N as u32)
            .map(|me| Mempool::new(N, 2, Some(ChainId(me))))
            .collect();
        let mut next_tx = 0;
        let mut fifty_queued = || {
            let mut txpool = TxPool::new();
            for id in next_tx..next_tx + 50 {
                txpool.push(Transaction::new(TxId(id), ClientId(0), 0));
            }
            next_tx += 50;
            txpool
        };
        let mut produce_and_accept = |mut txpool: TxPool| {
            let bundle = producer
                .produce(&mut txpool, TipList::new(N), Hash::ZERO, false)
                .expect("fifty queued");
            for mempool in &mut committee {
                black_box(mempool.insert_bundle(bundle.clone())).expect("extends chain 0");
            }
        };
        // Warm: the chains' containers have grown before the clock starts.
        for _ in 0..64 {
            produce_and_accept(fifty_queued());
        }
        b.iter_batched(fifty_queued, produce_and_accept, BatchSize::SmallInput)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench
}
criterion_main!(benches);
