//! The crypto substrate through the public facade, so the tier-1 command
//! (`cargo test -q` at the root) runs whichever SHA-256 backend this CPU
//! selects: NIST vectors, the golden bundle/block digests the trace
//! fingerprints hang off, and the fixed-shape and in-place shortcuts against
//! the general paths they replace.

use predis::crypto::sha256::{backend, sha256, Sha256};
use predis::crypto::{merkle_root, Hash, Keypair, MerkleTree, Signature, SignerId};
use predis::types::{
    Bundle, ChainId, ClientId, Height, PredisBlock, TipList, Transaction, TxId, View,
};

fn hex(bytes: &[u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn nist_vectors_on_the_dispatched_backend() {
    println!("sha256 backend: {}", backend());
    assert!(["x86-sha-ni", "portable"].contains(&backend()));
    let vectors: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (msg, want) in vectors {
        assert_eq!(hex(&sha256(msg)), want);
    }
    let mut h = Sha256::new();
    for _ in 0..1000 {
        h.update(&[b'a'; 1000]);
    }
    assert_eq!(
        hex(&h.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// Same fixture and constants as `predis-types`'
/// `golden_bundle_and_block_digests`; produced by the scalar code that
/// preceded the backend split.
#[test]
fn golden_bundle_and_block_digests() {
    let txs: Vec<Transaction> = (0..50u64)
        .map(|i| Transaction::new(TxId(1000 + i), ClientId((i % 4) as u32), 0))
        .collect();
    let bundle = Bundle::build(
        ChainId(3),
        Height(7),
        Hash::digest(b"golden-parent"),
        TipList::from((1..=8u64).map(Height).collect::<Vec<_>>()),
        txs,
        Hash::digest(b"golden-stripes"),
        &Keypair::for_node(SignerId(3)),
    );
    assert!(bundle.verify());
    assert_eq!(
        hex(&bundle.header.tx_root.0),
        "5eb74220ab3f4b57bb5fd16e0039d1b236583be87ea777fa1a21be9a35572aaa"
    );
    assert_eq!(
        hex(&bundle.hash().0),
        "38a6f5e71fa6405ffba168f37cb545819178d3e8efc4fb4301367342c896ddff"
    );
    assert_eq!(
        hex(&bundle.header.signature.tag.0),
        "a7596c865601c54a34240f6451f49a4ecdb081eb868f9519421766ac46aa75c7"
    );
    let block = PredisBlock {
        parent: Hash::digest(b"golden-block-parent"),
        view: View(3),
        base: vec![Height(4), Height(5), Height(3), Height(3)],
        cut: vec![Height(5), Height(5), Height(4), Height(4)],
        headers: vec![
            Some(bundle.hash()),
            None,
            Some(Hash::digest(b"h2")),
            Some(Hash::digest(b"h3")),
        ],
        tx_root: bundle.header.tx_root,
        signature: Signature::default(),
    };
    assert_eq!(
        hex(&block.digest().0),
        "8a691dfad57eef8658a705b97d8630f55af6f8f0f2623d7079c67d90e29059fc"
    );
}

#[test]
fn shortcuts_equal_the_general_paths() {
    let leaves: Vec<Hash> = (0..130u64)
        .map(|i| Hash::digest(&i.to_be_bytes()))
        .collect();
    for pair in leaves.windows(2) {
        let concatenated = [pair[0].0, pair[1].0].concat();
        assert_eq!(Hash::combine(pair[0], pair[1]), Hash::digest(&concatenated));
    }
    for n in 0..=leaves.len() {
        let folded = merkle_root(&mut leaves[..n].to_vec());
        assert_eq!(
            folded.root,
            MerkleTree::from_leaves(leaves[..n].to_vec()).root(),
            "n={n}"
        );
        assert!(!folded.mutated, "n={n}");
    }
    let data: Vec<u8> = (0..200u8).collect();
    for len in 0..=data.len() {
        let mut streamed = Sha256::new();
        for byte in &data[..len] {
            streamed.update(std::slice::from_ref(byte));
        }
        assert_eq!(streamed.finalize(), sha256(&data[..len]), "len {len}");
    }
}
