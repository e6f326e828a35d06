//! The paper's analytic performance model (§III-F).
//!
//! Eq. 1 bounds one consensus round's confirmed bytes by the committee's
//! upload capacity spent on bundle multicasts; Eq. 2 turns it into TPS.
//! The model predicts Predis's graceful degradation with `n_c` — each new
//! node consumes others' bandwidth but contributes its own — which Fig. 4's
//! scalability experiment (and `tests/full_stack.rs`) checks against the
//! simulator.

use serde::{Deserialize, Serialize};

/// Inputs of the Eq. 1/Eq. 2 model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelInputs {
    /// Number of consensus nodes `n_c`.
    pub n_c: usize,
    /// Upload bandwidth of every node, bits per second (the paper allows
    /// heterogeneous `x_i`; use [`predis_tps_heterogeneous`] for that).
    pub upload_bps: u64,
    /// Transaction size `b` in bytes.
    pub tx_size: usize,
}

impl ModelInputs {
    /// The paper's default configuration: 100 Mbps, 512-byte transactions.
    pub fn paper_default(n_c: usize) -> ModelInputs {
        ModelInputs {
            n_c,
            upload_bps: 100_000_000,
            tx_size: 512,
        }
    }
}

/// Eq. 2 with homogeneous bandwidth: `TPS = Σ x_i / (b · (n_c − 1))`.
///
/// # Examples
///
/// ```
/// use predis::model::{predis_tps, ModelInputs};
///
/// // 4 nodes, 100 Mbps, 512 B txs: ~32.5 ktps upper bound.
/// let tps = predis_tps(ModelInputs::paper_default(4));
/// assert!((32_000.0..34_000.0).contains(&tps));
/// ```
pub fn predis_tps(inputs: ModelInputs) -> f64 {
    let bytes_per_sec = inputs.upload_bps as f64 / 8.0;
    inputs.n_c as f64 * bytes_per_sec / (inputs.tx_size as f64 * (inputs.n_c as f64 - 1.0))
}

/// Eq. 2 with per-node bandwidths `x_i` (bits per second).
///
/// # Panics
///
/// Panics if fewer than two nodes are given (the model divides by
/// `n_c − 1`).
pub fn predis_tps_heterogeneous(upload_bps: &[u64], tx_size: usize) -> f64 {
    assert!(upload_bps.len() >= 2, "the model needs at least two nodes");
    let n = upload_bps.len() as f64;
    upload_bps
        .iter()
        .map(|&x| (x as f64 / 8.0) / (tx_size as f64 * (n - 1.0)))
        .sum()
}

/// The leader's bandwidth cost of distributing one candidate block's
/// content to the committee, in bytes — `O(n_c · n_tx)` for batch
/// proposals versus `O(n_c)` for Predis blocks (§III-F "Block Size").
pub fn leader_dispatch_bytes(
    n_c: usize,
    txs_per_block: usize,
    tx_size: usize,
    predis: bool,
) -> u64 {
    let copies = (n_c - 1) as u64;
    if predis {
        // A Predis block: ~2 heights + 1 bundle header per chain + roots.
        let block = 32 * 2 + 64 + n_c as u64 * (16 + 220);
        block * copies
    } else {
        (txs_per_block as u64 * tx_size as u64) * copies
    }
}

/// §IV-B robustness model (Eq. 3): the general node-failure probability
/// `p_c = (f/N) · p_b + (1 − f/N) · p_h ≈ f/N` with `p_b = 1` and a small
/// honest-failure rate `p_h` (the paper cites ~3%/year server failure).
pub fn node_failure_probability(f: usize, n_nodes: usize, p_h: f64) -> f64 {
    assert!(n_nodes > 0, "need at least one node");
    assert!((0.0..=1.0).contains(&p_h), "p_h must be a probability");
    let byz = f as f64 / n_nodes as f64;
    byz + (1.0 - byz) * p_h
}

/// §IV-B (Eq. 4): the number of relayers per zone needed so that the
/// probability of *all* of them failing stays below `p_r`:
/// the smallest `n_zr` with `p_c^n_zr ≤ p_r`.
///
/// # Examples
///
/// ```
/// use predis::model::{node_failure_probability, relayers_needed};
///
/// // The paper's setting: p_c ≈ f/N over the whole network (N ≫ n_c), so
/// // n_zr = n_c = 4 relayers already push the all-fail probability below
/// // the 0.02% threshold — e.g. f = 1 of a 32-node fleet:
/// let p_c = node_failure_probability(1, 32, 0.0); // 0.03125
/// assert!(relayers_needed(p_c, 0.0002) <= 4);
/// ```
///
/// # Panics
///
/// Panics unless `0 < p_c < 1` and `0 < p_r < 1`.
pub fn relayers_needed(p_c: f64, p_r: f64) -> usize {
    assert!(p_c > 0.0 && p_c < 1.0, "p_c must be in (0,1)");
    assert!(p_r > 0.0 && p_r < 1.0, "p_r must be in (0,1)");
    (p_r.ln() / p_c.ln()).ceil() as usize
}

/// The §IV-B guarantee the paper states: with `n_zr = n_c` relayers per
/// zone, the probability that a node can reach at least one live relayer.
pub fn zone_availability(p_c: f64, n_zr: usize) -> f64 {
    1.0 - p_c.powi(n_zr as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tps_degrades_gracefully_with_n() {
        let t4 = predis_tps(ModelInputs::paper_default(4));
        let t8 = predis_tps(ModelInputs::paper_default(8));
        let t16 = predis_tps(ModelInputs::paper_default(16));
        // Monotone decrease...
        assert!(t4 > t8 && t8 > t16);
        // ...but approaching an asymptote (x / b), not collapsing:
        // t16 / t4 = (16/15) / (4/3) = 0.8.
        assert!(t16 / t4 > 0.75, "degradation should be graceful");
        let asymptote = 100_000_000.0 / 8.0 / 512.0;
        assert!(t16 > asymptote && t16 < asymptote * 1.1);
    }

    #[test]
    fn heterogeneous_matches_homogeneous_when_equal() {
        let homo = predis_tps(ModelInputs::paper_default(4));
        let het = predis_tps_heterogeneous(&[100_000_000; 4], 512);
        assert!((homo - het).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_sums_contributions() {
        // Doubling one node's bandwidth adds exactly its extra share.
        let base = predis_tps_heterogeneous(&[100_000_000; 4], 512);
        let boosted =
            predis_tps_heterogeneous(&[200_000_000, 100_000_000, 100_000_000, 100_000_000], 512);
        let extra = (100_000_000.0 / 8.0) / (512.0 * 3.0);
        assert!((boosted - base - extra).abs() < 1e-6);
    }

    #[test]
    fn predis_dispatch_is_constant_in_tx_count() {
        let small = leader_dispatch_bytes(4, 100, 512, true);
        let big = leader_dispatch_bytes(4, 100_000, 512, true);
        assert_eq!(small, big);
        // Batch dispatch grows linearly.
        let b_small = leader_dispatch_bytes(4, 100, 512, false);
        let b_big = leader_dispatch_bytes(4, 100_000, 512, false);
        assert_eq!(b_big, b_small * 1000);
        // And Predis is orders of magnitude cheaper at high volume.
        assert!(big * 100 < b_big);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn heterogeneous_needs_two_nodes() {
        predis_tps_heterogeneous(&[1], 512);
    }

    #[test]
    fn eq3_failure_probability_approximates_f_over_n() {
        // The paper argues p_c ≈ f/N because p_h (~3%/year) is negligible.
        let exact = node_failure_probability(5, 16, 0.03);
        let approx = 5.0 / 16.0;
        assert!((exact - approx).abs() < 0.03);
        assert_eq!(node_failure_probability(0, 10, 0.0), 0.0);
    }

    #[test]
    fn eq4_paper_guarantee_at_nc_4() {
        // n_c = 4, f = 1: p_c = 0.25; with n_zr = n_c = 4 relayers the
        // availability is 1 - 0.25^4 = 99.6%... the paper's 99.98% figure
        // corresponds to its f/N with larger N; check both directions.
        let p_c = node_failure_probability(1, 4, 0.0);
        assert!(zone_availability(p_c, 4) > 0.996);
        // With the fleet-level ratio f/N (f = 1 of a 32-node network):
        let p_fleet = node_failure_probability(1, 32, 0.0);
        assert!(zone_availability(p_fleet, 4) > 0.9998);
        // Eq. 4 inverted: how many relayers for 99.98%?
        assert!(relayers_needed(p_c, 0.0002) <= 7);
        assert_eq!(relayers_needed(0.25, 0.0002), 7);
        assert_eq!(relayers_needed(0.03125, 0.0002), 3);
    }

    #[test]
    fn more_relayers_more_availability() {
        let p_c = 0.2;
        let mut last = 0.0;
        for n in 1..=8 {
            let a = zone_availability(p_c, n);
            assert!(a > last);
            last = a;
        }
    }
}
