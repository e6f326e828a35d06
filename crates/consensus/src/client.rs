//! Open-loop clients driving the throughput–latency experiments.
//!
//! Each client submits transactions at a fixed offered rate to its entry
//! replica and records end-to-end latency (submit → first commit reply),
//! exactly the latency definition the paper uses ("the time elapsed from
//! when a client sends a transaction to replicas to when the client
//! receives a reply").

use std::collections::BTreeMap;

use predis_sim::{Codec, NarrowContext, NodeId, ProtocolCore, SimDuration, SimTime, TimerTag};
use predis_types::{ClientId, Transaction, TxId};
use rand::Rng;

use crate::config::{timers, Roster};
use crate::msg::ConsMsg;

/// Metric name under which client latencies are recorded.
pub const CLIENT_LATENCY: &str = "client_latency";

/// Open-loop pacing: a fixed offered rate split into periodic ticks, with
/// the fractional remainder carried between ticks so the long-run average
/// hits the rate exactly. Shared by [`ClientCore`] (one user per actor)
/// and [`ClientSwarm`] (a whole population per actor).
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rate_tps: f64,
    tick: SimDuration,
    per_tick: f64,
    carry: f64,
}

impl OpenLoop {
    /// Pacing for `rate_tps` transactions per second: tick every 5 ms (or
    /// slower for very low rates) and emit a fractional batch per tick.
    ///
    /// # Panics
    ///
    /// Panics if `rate_tps` is not positive.
    pub fn new(rate_tps: f64) -> OpenLoop {
        assert!(rate_tps > 0.0, "client rate must be positive");
        let tick =
            SimDuration::from_millis(5).max(SimDuration::from_secs_f64((1.0 / rate_tps).min(1.0)));
        let per_tick = rate_tps * tick.as_secs_f64();
        OpenLoop {
            rate_tps,
            tick,
            per_tick,
            carry: 0.0,
        }
    }

    /// The submission tick period.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The configured offered rate.
    pub fn rate_tps(&self) -> f64 {
        self.rate_tps
    }

    /// Mean transactions per tick (the Poisson λ for stochastic arrivals).
    pub fn per_tick(&self) -> f64 {
        self.per_tick
    }

    /// Transactions due this tick (deterministic fractional carry).
    pub fn due(&mut self) -> u64 {
        self.due_scaled(1.0)
    }

    /// Like [`OpenLoop::due`], with the instantaneous rate scaled by
    /// `mult` (flash-crowd ramps).
    pub fn due_scaled(&mut self, mult: f64) -> u64 {
        self.carry += self.per_tick * mult;
        let n = self.carry as u64;
        self.carry -= n as f64;
        n
    }
}

/// Draws `Poisson(lambda)` via Knuth's product-of-uniforms, chunked so
/// `e^-λ` never underflows for the large aggregate rates a swarm carries.
fn poisson_draw<R: Rng>(rng: &mut R, mut lambda: f64) -> u64 {
    const CHUNK: f64 = 500.0;
    let mut total = 0u64;
    while lambda > CHUNK {
        total += poisson_knuth(rng, CHUNK);
        lambda -= CHUNK;
    }
    total + poisson_knuth(rng, lambda)
}

fn poisson_knuth<R: Rng>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// An open-loop transaction generator.
#[derive(Debug)]
pub struct ClientCore {
    id: ClientId,
    roster: Roster,
    /// Offered-load pacing (tick period + fractional per-tick batch).
    pacing: OpenLoop,
    tx_size: u32,
    next_seq: u64,
    /// Total transactions submitted.
    pub submitted: u64,
    /// Total commit confirmations received.
    pub confirmed: u64,
    /// Broadcast each submission to every replica (classic PBFT clients,
    /// used by the batch protocols) instead of just the entry replica
    /// (Predis/Narwhal-style load spreading).
    broadcast: bool,
    /// §III-E censorship defence: if set, transactions unconfirmed after
    /// this long are consigned to the next replica (at most `f + 1`
    /// attempts reach an honest one).
    resubmit_after: Option<SimDuration>,
    /// Outstanding transactions awaiting confirmation: id -> (tx, attempts).
    outstanding: BTreeMap<TxId, (Transaction, u32)>,
    /// Transactions that were resubmitted at least once.
    pub resubmitted: u64,
    started_at_nanos: u64,
}

impl ClientCore {
    /// Creates a client submitting `rate_tps` transactions per second of
    /// `tx_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `rate_tps` is not positive.
    pub fn new(id: ClientId, roster: Roster, rate_tps: f64, tx_size: u32) -> ClientCore {
        ClientCore {
            id,
            roster,
            pacing: OpenLoop::new(rate_tps),
            tx_size,
            next_seq: 0,
            submitted: 0,
            confirmed: 0,
            broadcast: false,
            resubmit_after: None,
            outstanding: BTreeMap::new(),
            resubmitted: 0,
            started_at_nanos: 0,
        }
    }

    /// Enables the censorship defence of §III-E: a transaction unconfirmed
    /// after `after` is consigned to the next consensus node, so it reaches
    /// an honest replica within `f + 1` attempts.
    pub fn resubmit_unconfirmed_after(mut self, after: SimDuration) -> ClientCore {
        self.resubmit_after = Some(after);
        self
    }

    /// Classic-PBFT submission: every transaction goes to all replicas, so
    /// whichever node is leader can batch it. Used for the Batch data
    /// plane; Predis and microblock planes want entry-replica submission so
    /// the load spreads over all producers.
    pub fn broadcast_submissions(mut self) -> ClientCore {
        self.broadcast = true;
        self
    }

    /// The configured offered rate.
    pub fn rate_tps(&self) -> f64 {
        self.pacing.rate_tps()
    }

    fn entry_node(&self) -> NodeId {
        self.roster
            .consensus_node(self.roster.entry_replica(self.id))
    }

    fn fresh_tx(&mut self, now_nanos: u64) -> Transaction {
        // Globally unique id: client in the top bits.
        let id = TxId(((self.id.0 as u64) << 40) | self.next_seq);
        self.next_seq += 1;
        Transaction::with_size(id, self.id, now_nanos, self.tx_size)
    }
}

impl ProtocolCore<ConsMsg> for ClientCore {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        self.started_at_nanos = ctx.now().as_nanos();
        ctx.set_timer(self.pacing.tick(), TimerTag::of_kind(timers::CLIENT_SUBMIT));
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _from: NodeId,
        msg: ConsMsg,
    ) {
        if let ConsMsg::Reply { txs } = msg {
            let now = ctx.now().as_nanos();
            for (id, submitted_at) in txs {
                // With resubmission tracking, duplicate replies (several
                // repliers, or replies to both submissions) count once.
                if self.resubmit_after.is_some() && self.outstanding.remove(&id).is_none() {
                    continue;
                }
                self.confirmed += 1;
                let latency = SimDuration::from_nanos(now.saturating_sub(submitted_at));
                ctx.metrics().record_latency(CLIENT_LATENCY, latency);
            }
        }
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if tag.kind != timers::CLIENT_SUBMIT {
            return;
        }
        let n = self.pacing.due();
        let entry = self.entry_node();
        let now_nanos = ctx.now().as_nanos();
        for _ in 0..n {
            let tx = self.fresh_tx(now_nanos);
            if self.broadcast {
                let all = self.roster.consensus.iter().copied();
                ctx.multicast(all, ConsMsg::Submit(tx));
            } else {
                ctx.send(entry, ConsMsg::Submit(tx));
            }
            if self.resubmit_after.is_some() {
                self.outstanding.insert(tx.id, (tx, 0));
            }
            self.submitted += 1;
        }
        // §III-E censorship defence: consign stale transactions to the
        // next replica (round-robin from the entry), up to f + 1 attempts.
        if let Some(after) = self.resubmit_after {
            let cutoff = ctx.now().as_nanos().saturating_sub(after.as_nanos());
            let max_attempts = self.roster.f() as u32 + 1;
            let entry_idx = self.roster.entry_replica(self.id);
            let stale: Vec<TxId> = self
                .outstanding
                .iter()
                .filter(|(_, (tx, attempts))| {
                    tx.submitted_at_nanos <= cutoff && *attempts < max_attempts
                })
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                let (mut tx, attempts) = self.outstanding.remove(&id).expect("present");
                let target = self
                    .roster
                    .consensus_node(entry_idx + 1 + attempts as usize);
                tx.submitted_at_nanos = now_nanos; // restart the clock
                ctx.send(target, ConsMsg::Submit(tx));
                self.resubmitted += 1;
                self.outstanding.insert(id, (tx, attempts + 1));
            }
        }
        let tick = self.pacing.tick();
        ctx.set_timer(tick, TimerTag::of_kind(timers::CLIENT_SUBMIT));
    }
}

/// How a flash crowd ramps a [`ClientSwarm`]'s offered rate: from `at`,
/// the rate climbs linearly over `ramp` to `peak_mult` times the base
/// rate and stays there.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowd {
    /// When the crowd starts arriving.
    pub at: SimTime,
    /// How long the ramp to peak takes (zero = a step).
    pub ramp: SimDuration,
    /// Peak rate as a multiple of the base rate.
    pub peak_mult: f64,
}

/// A population of open-loop users modeled as one aggregate arrival
/// process — the mega-scale replacement for one boxed [`ClientCore`] per
/// user.
///
/// One swarm actor carries the summed rate of `users` users (millions,
/// if asked): per tick it draws the number of arrivals — deterministic
/// fractional carry by default, `Poisson(λ)` with [`ClientSwarm::poisson_arrivals`]
/// — and submits them round-robin across all entry replicas, which is
/// where a large user population's independent entry choices converge
/// anyway. Memory is O(1) in the user count.
#[derive(Debug)]
pub struct ClientSwarm {
    id: ClientId,
    roster: Roster,
    users: u64,
    pacing: OpenLoop,
    poisson: bool,
    crowd: Option<FlashCrowd>,
    tx_size: u32,
    next_seq: u64,
    /// Round-robin entry-replica cursor.
    rr: usize,
    /// Total transactions submitted.
    pub submitted: u64,
    /// Total commit confirmations received.
    pub confirmed: u64,
}

impl ClientSwarm {
    /// A swarm of `users` users each offering `per_user_tps`, submitting
    /// transactions of `tx_size` bytes. `id` namespaces the swarm's
    /// transaction ids (one distinct `ClientId` per swarm).
    ///
    /// # Panics
    ///
    /// Panics if the aggregate rate `users * per_user_tps` is not positive.
    pub fn new(
        id: ClientId,
        roster: Roster,
        users: u64,
        per_user_tps: f64,
        tx_size: u32,
    ) -> ClientSwarm {
        ClientSwarm {
            id,
            roster,
            users,
            pacing: OpenLoop::new(users as f64 * per_user_tps),
            poisson: false,
            crowd: None,
            tx_size,
            next_seq: 0,
            rr: 0,
            submitted: 0,
            confirmed: 0,
        }
    }

    /// Draws per-tick arrivals from `Poisson(λ)` (independent users)
    /// instead of the deterministic fractional carry.
    pub fn poisson_arrivals(mut self) -> ClientSwarm {
        self.poisson = true;
        self
    }

    /// Adds a flash-crowd rate ramp.
    pub fn with_flash_crowd(mut self, crowd: FlashCrowd) -> ClientSwarm {
        self.crowd = Some(crowd);
        self
    }

    /// The modeled user count.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// The aggregate base offered rate.
    pub fn rate_tps(&self) -> f64 {
        self.pacing.rate_tps()
    }

    fn rate_mult(&self, now: SimTime) -> f64 {
        let Some(c) = self.crowd else { return 1.0 };
        if now < c.at {
            return 1.0;
        }
        let into = now.saturating_since(c.at);
        if c.ramp.is_zero() || into >= c.ramp {
            c.peak_mult
        } else {
            1.0 + (c.peak_mult - 1.0) * (into.as_secs_f64() / c.ramp.as_secs_f64())
        }
    }
}

impl ProtocolCore<ConsMsg> for ClientSwarm {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        ctx.set_timer(self.pacing.tick(), TimerTag::of_kind(timers::CLIENT_SUBMIT));
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _from: NodeId,
        msg: ConsMsg,
    ) {
        if let ConsMsg::Reply { txs } = msg {
            let now = ctx.now().as_nanos();
            for (_, submitted_at) in txs {
                self.confirmed += 1;
                let latency = SimDuration::from_nanos(now.saturating_sub(submitted_at));
                ctx.metrics().record_latency(CLIENT_LATENCY, latency);
            }
        }
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if tag.kind != timers::CLIENT_SUBMIT {
            return;
        }
        let mult = self.rate_mult(ctx.now());
        let n = if self.poisson {
            poisson_draw(ctx.rng(), self.pacing.per_tick() * mult)
        } else {
            self.pacing.due_scaled(mult)
        };
        let now_nanos = ctx.now().as_nanos();
        let replicas = self.roster.consensus.len();
        for _ in 0..n {
            let id = TxId(((self.id.0 as u64) << 40) | self.next_seq);
            self.next_seq += 1;
            let tx = Transaction::with_size(id, self.id, now_nanos, self.tx_size);
            let entry = self.roster.consensus_node(self.rr);
            self.rr = (self.rr + 1) % replicas.max(1);
            ctx.send(entry, ConsMsg::Submit(tx));
            self.submitted += 1;
        }
        let tick = self.pacing.tick();
        ctx.set_timer(tick, TimerTag::of_kind(timers::CLIENT_SUBMIT));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster() -> Roster {
        Roster::new(vec![NodeId(0), NodeId(1)], vec![NodeId(2)])
    }

    #[test]
    fn rate_splits_into_ticks() {
        let c = ClientCore::new(ClientId(0), roster(), 1000.0, 512);
        // 5 ms tick at 1000 tps = 5 txs per tick.
        assert!((c.pacing.per_tick() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn low_rates_use_longer_ticks() {
        let c = ClientCore::new(ClientId(0), roster(), 2.0, 512);
        assert_eq!(c.pacing.tick(), SimDuration::from_millis(500));
        assert!((c.pacing.per_tick() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_carry_hits_rate_exactly() {
        // 333 tps over 5 ms ticks = 1.665 per tick; over 1000 ticks the
        // carry must deliver the rate to within one transaction.
        let mut p = OpenLoop::new(333.0);
        let total: u64 = (0..1000).map(|_| p.due()).sum();
        let expect = 333.0 * p.tick().as_secs_f64() * 1000.0;
        assert!((total as f64 - expect).abs() <= 1.0, "{total} vs {expect}");
    }

    #[test]
    fn poisson_draw_matches_mean_and_handles_large_lambda() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(7);
        for lambda in [0.5, 30.0, 2_000.0] {
            let n = 400;
            let total: u64 = (0..n).map(|_| poisson_draw(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            // 5-sigma band around the mean.
            let tol = 5.0 * (lambda / n as f64).sqrt() + 1e-9;
            assert!((mean - lambda).abs() < tol, "lambda {lambda}: mean {mean}");
        }
        assert_eq!(poisson_draw(&mut rng, 0.0), 0);
    }

    #[test]
    fn swarm_flash_crowd_ramps_linearly() {
        let s = ClientSwarm::new(ClientId(9), roster(), 1_000_000, 0.001, 256).with_flash_crowd(
            FlashCrowd {
                at: SimTime::from_secs(10),
                ramp: SimDuration::from_secs(4),
                peak_mult: 3.0,
            },
        );
        assert_eq!(s.users(), 1_000_000);
        assert!((s.rate_tps() - 1000.0).abs() < 1e-9);
        assert!((s.rate_mult(SimTime::from_secs(5)) - 1.0).abs() < 1e-9);
        assert!((s.rate_mult(SimTime::from_secs(12)) - 2.0).abs() < 1e-9);
        assert!((s.rate_mult(SimTime::from_secs(60)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tx_ids_are_unique_per_client() {
        let mut c = ClientCore::new(ClientId(3), roster(), 10.0, 512);
        let a = c.fresh_tx(0);
        let b = c.fresh_tx(0);
        assert_ne!(a.id, b.id);
        assert_eq!(a.id.0 >> 40, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ClientCore::new(ClientId(0), roster(), 0.0, 512);
    }
}
