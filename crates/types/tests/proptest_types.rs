//! Property tests for tip lists, the cut rule, and bundle integrity.

use predis_crypto::{Hash, Keypair, SignerId};
use predis_types::{
    quorum_cut_height, Bundle, ChainId, ClientId, Height, SizedBundle, TipList, Transaction, TxId,
};
use proptest::prelude::*;

/// One way to alter a bundle after `build`.
#[derive(Debug, Clone, Copy)]
enum Forgery {
    TxRoot,
    Signer,
    BumpHeight,
    Truncate,
    /// `[.., t]` → `[.., t, t]`: on an odd layer the root does not move
    /// (CVE-2012-2459); only the equal-sibling flag of the fold catches it.
    DuplicateTail,
    Replace,
    Swap,
}

/// Applies the `pick`-th forgery that a body of this length admits (an empty
/// body has no transaction to touch, a single one nothing to swap with).
fn forge(good: &Bundle, pick: u16, i: u16, j: u16) -> (Forgery, Bundle) {
    use Forgery::*;
    let n = good.txs.len();
    let (i, j) = (i as usize, j as usize);
    let admitted: &[Forgery] = match n {
        0 => &[TxRoot, Signer, BumpHeight],
        1 => &[TxRoot, Signer, BumpHeight, Truncate, DuplicateTail, Replace],
        _ => &[
            TxRoot,
            Signer,
            BumpHeight,
            Truncate,
            DuplicateTail,
            Replace,
            Swap,
        ],
    };
    let kind = admitted[pick as usize % admitted.len()];
    let mut bad = good.clone();
    match kind {
        TxRoot => bad.header.tx_root = Hash::digest(b"forged root"),
        // A well-formed tag over the right digest, by somebody else.
        Signer => {
            let other = SignerId(good.header.chain.0 + 1);
            bad.header.signature = Keypair::for_node(other).sign(good.header.digest());
        }
        BumpHeight => bad.header.height = good.header.height.next(),
        Truncate => {
            bad.txs.pop();
        }
        DuplicateTail => bad.txs.push(good.txs[n - 1]),
        Replace => bad.txs[i % n] = Transaction::new(TxId(1 << 40), ClientId(9), 0),
        Swap => {
            let a = i % n;
            let b = (a + 1 + j % (n - 1)) % n;
            bad.txs.swap(a, b);
        }
    }
    (kind, bad)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge is the lattice join: the result dominates both inputs and is
    /// the least such list.
    #[test]
    fn merge_is_join(
        a in proptest::collection::vec(0u64..100, 4),
        b in proptest::collection::vec(0u64..100, 4),
    ) {
        let ta = TipList::from(a.iter().map(|&h| Height(h)).collect::<Vec<_>>());
        let tb = TipList::from(b.iter().map(|&h| Height(h)).collect::<Vec<_>>());
        let mut m = ta.clone();
        m.merge(&tb);
        prop_assert!(m.dominates(&ta));
        prop_assert!(m.dominates(&tb));
        // Least upper bound: every entry equals one of the inputs'.
        for (i, &h) in m.heights().iter().enumerate() {
            prop_assert!(h == ta.get(ChainId(i as u32)) || h == tb.get(ChainId(i as u32)));
        }
    }

    /// dominates is a partial order: reflexive and antisymmetric.
    #[test]
    fn dominates_partial_order(
        a in proptest::collection::vec(0u64..20, 4),
        b in proptest::collection::vec(0u64..20, 4),
    ) {
        let ta = TipList::from(a.iter().map(|&h| Height(h)).collect::<Vec<_>>());
        let tb = TipList::from(b.iter().map(|&h| Height(h)).collect::<Vec<_>>());
        prop_assert!(ta.dominates(&ta));
        if ta.dominates(&tb) && tb.dominates(&ta) {
            prop_assert_eq!(ta.heights(), tb.heights());
        }
    }

    /// The cut is monotone: improving any acknowledgement never lowers it.
    #[test]
    fn cut_is_monotone(
        acks in proptest::collection::vec(0u64..50, 4..16),
        bump_idx in any::<u16>(),
        bump in 1u64..10,
    ) {
        let f = (acks.len() - 1) / 3;
        let hs: Vec<Height> = acks.iter().map(|&h| Height(h)).collect();
        let before = quorum_cut_height(&hs, f);
        let mut bumped = hs.clone();
        let i = bump_idx as usize % bumped.len();
        bumped[i] = Height(bumped[i].0 + bump);
        let after = quorum_cut_height(&bumped, f);
        prop_assert!(after >= before);
    }

    /// Bundle build/verify roundtrips and any body tampering is caught.
    #[test]
    fn bundle_integrity(n_txs in 0usize..20, tamper in any::<u16>()) {
        let key = Keypair::for_node(SignerId(2));
        let txs: Vec<Transaction> = (0..n_txs as u64)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect();
        let bundle = Bundle::build(
            ChainId(2), Height(1), Hash::ZERO, TipList::new(4), txs, Hash::ZERO, &key,
        );
        prop_assert!(bundle.verify());
        if n_txs > 0 {
            let mut bad = bundle.clone();
            let i = tamper as usize % n_txs;
            bad.txs[i] = Transaction::new(TxId(7777), ClientId(9), 0);
            prop_assert!(!bad.verify());
        }
    }

    /// A built bundle is valid through every door — the handle `build`
    /// returns with its fold, a fresh handle around a copy, the bare value —
    /// under one identity; a bundle altered after `build` is valid through
    /// none, because a fresh handle starts with an empty memo and meets the
    /// real fold of its own body.
    #[test]
    fn forged_bundles_meet_the_real_fold(
        n_txs in 0usize..=130,
        pick in any::<u16>(),
        i in any::<u16>(),
        j in any::<u16>(),
    ) {
        let key = Keypair::for_node(SignerId(2));
        let txs: Vec<Transaction> = (0..n_txs as u64)
            .map(|t| Transaction::new(TxId(t), ClientId(0), 0))
            .collect();
        let built = SizedBundle::build(
            ChainId(2), Height(3), Hash::digest(b"parent"), TipList::new(4), txs, Hash::ZERO, &key,
        );
        let bundle: Bundle = (*built).clone();
        let fresh = SizedBundle::from(bundle.clone());
        prop_assert!(built.verify());
        prop_assert!(fresh.verify());
        prop_assert!(bundle.verify());
        prop_assert_eq!(built.hash(), bundle.hash());
        prop_assert_eq!(fresh.hash(), bundle.hash());

        let (kind, forged) = forge(&bundle, pick, i, j);
        prop_assert!(forged != bundle, "{:?} changed nothing", kind);
        prop_assert!(!forged.verify(), "{:?} passed the bare check", kind);
        let shared = SizedBundle::from(forged.clone());
        prop_assert!(!shared.verify(), "{:?} passed the shared check", kind);
        // The memoized verdict is the same verdict.
        prop_assert!(!shared.verify());
        prop_assert_eq!(shared.hash(), forged.hash());
        // The honest allocation's memo is its own: still valid.
        prop_assert!(built.verify());
    }
}
