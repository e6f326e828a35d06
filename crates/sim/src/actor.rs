//! Actors: the programming model for simulated nodes.
//!
//! A simulated node is an [`Actor`]: a state machine that reacts to message
//! deliveries and timer expirations through a [`Context`] that lets it send
//! messages, arm timers and record metrics. Protocol logic is usually written
//! as a [`ProtocolCore`] over its own message type `T` and lifted into an
//! [`Actor`] over any envelope message `M` that can carry `T` (see
//! [`Codec`]); this is how consensus-layer and network-layer protocols are
//! composed into one simulation.

use std::fmt::Debug;

use rand::rngs::SmallRng;

use crate::metrics::Metrics;
use crate::queue::TimerSlots;
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated node; indexes into the simulation's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A timer handle, used to cancel a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// An opaque per-protocol timer tag delivered back on expiry.
///
/// Protocols namespace their tags with distinct `kind` values; `a` and `b`
/// carry protocol-specific payloads (view numbers, heights, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerTag {
    /// Protocol-chosen discriminator for the timer's purpose.
    pub kind: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl TimerTag {
    /// Creates a tag with payload words set to zero.
    pub const fn of_kind(kind: u32) -> Self {
        TimerTag { kind, a: 0, b: 0 }
    }

    /// Creates a tag with one payload word.
    pub const fn with_a(kind: u32, a: u64) -> Self {
        TimerTag { kind, a, b: 0 }
    }

    /// Creates a tag with both payload words.
    pub const fn new(kind: u32, a: u64, b: u64) -> Self {
        TimerTag { kind, a, b }
    }
}

/// A message payload that can travel through the simulated network.
///
/// The simulator never serializes payloads; it only needs their wire size to
/// model bandwidth. Implementations should report the size the message would
/// have on a real wire (including protocol framing they care about).
///
/// Payloads are `Send` because the parallel engine moves in-flight events
/// between partition workers at window barriers; payload types are plain
/// data (or `Arc`-shared immutable data), so this costs nothing in practice.
pub trait Payload: Clone + Debug + Send + 'static {
    /// Size of this message on the wire, in bytes.
    fn wire_size(&self) -> usize;
}

/// Embeds a protocol message type `T` in an envelope message type `Self`.
///
/// This is what lets a protocol core written against its own message enum be
/// reused inside a larger simulation whose nodes speak a union of several
/// protocols (e.g. consensus messages *and* network-layer dissemination
/// messages).
pub trait Codec<T>: Payload {
    /// Wraps a protocol message into the envelope.
    fn wrap(msg: T) -> Self;
    /// Extracts the protocol message, or returns `None` if the envelope
    /// carries a different protocol.
    fn unwrap(self) -> Option<T>;
}

/// Every payload trivially embeds itself.
impl<T: Payload> Codec<T> for T {
    fn wrap(msg: T) -> Self {
        msg
    }
    fn unwrap(self) -> Option<T> {
        Some(self)
    }
}

/// Operations an actor may queue during a callback; applied by the engine.
#[derive(Debug)]
pub(crate) enum Op<M> {
    Send {
        to: NodeId,
        msg: M,
        /// Wire size, computed once when the send was queued; the engine
        /// charges bandwidth from this instead of re-walking the payload.
        bytes: usize,
    },
    SetTimer {
        id: TimerId,
        fire_at: SimTime,
        tag: TimerTag,
    },
    CancelTimer {
        id: TimerId,
    },
    /// Voluntarily halt this node (used by churn experiments).
    Halt,
}

/// The capability handed to an actor during a callback.
///
/// All side effects (sends, timers) are buffered and applied by the engine
/// when the callback returns, which keeps event ordering deterministic.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) node_count: u32,
    pub(crate) link_free_at: SimTime,
    pub(crate) timers: &'a mut TimerSlots,
    pub(crate) ops: &'a mut Vec<Op<M>>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) metrics: &'a mut Metrics,
}

impl<'a, M> Context<'a, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes in the simulation.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// How far this node's upload link is backlogged: the time until a
    /// message queued right now would start transmitting. Producers use
    /// this for backpressure (don't generate faster than the wire drains).
    pub fn link_backlog(&self) -> SimDuration {
        self.link_free_at.saturating_since(self.now)
    }

    /// Queues a unicast message. Delivery time is computed by the network
    /// model (upload serialization + propagation latency). The wire size is
    /// computed here, once, and travels with the message.
    pub fn send(&mut self, to: NodeId, msg: M)
    where
        M: Payload,
    {
        let bytes = msg.wire_size();
        self.ops.push(Op::Send { to, msg, bytes });
    }

    /// Queues the same message to every node in `to`, as sequential unicasts
    /// on this node's upload link (the bandwidth-honest multicast model).
    ///
    /// The sender itself is skipped (a node never pays upload bandwidth to
    /// talk to itself), an empty recipient list queues nothing, the wire
    /// size is computed once for the whole fan-out, and the message is moved
    /// (not cloned) into the final slot.
    pub fn multicast<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
        M: Payload,
    {
        let me = self.node;
        let mut targets = to.into_iter().filter(|&dst| dst != me);
        let Some(first) = targets.next() else { return };
        let bytes = msg.wire_size();
        let mut prev = first;
        for dst in targets {
            self.ops.push(Op::Send {
                to: prev,
                msg: msg.clone(),
                bytes,
            });
            prev = dst;
        }
        self.ops.push(Op::Send {
            to: prev,
            msg,
            bytes,
        });
    }

    /// Arms a timer firing `delay` from now; returns a handle for
    /// cancellation. The tag is delivered back in `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        let id = self.timers.arm();
        self.ops.push(Op::SetTimer {
            id,
            fire_at: self.now + delay,
            tag,
        });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ops.push(Op::CancelTimer { id });
    }

    /// Halts this node: it stops receiving messages and timers. Used to model
    /// voluntary departure (churn).
    pub fn halt(&mut self) {
        self.ops.push(Op::Halt);
    }

    /// Deterministic per-node randomness.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The simulation-wide metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Reborrows this context as a context for an embedded protocol message
    /// type `T`, so a [`ProtocolCore`] over `T` can be driven from an actor
    /// whose envelope is `M`.
    pub fn narrow<T>(&mut self) -> NarrowContext<'_, 'a, M, T>
    where
        M: Codec<T>,
    {
        NarrowContext {
            inner: self,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A view of a [`Context`] that sends protocol messages `T` wrapped in the
/// envelope `M`. Created by [`Context::narrow`].
///
/// Only [`NarrowContext::send`] and [`NarrowContext::multicast`] differ from
/// the underlying context (they wrap `T` into the envelope before queueing);
/// everything else — timers, rng, metrics, topology queries — comes straight
/// from [`Context`] via `Deref`, so the envelope logic lives in exactly one
/// place.
pub struct NarrowContext<'b, 'a, M, T> {
    inner: &'b mut Context<'a, M>,
    _marker: std::marker::PhantomData<T>,
}

impl<'b, 'a, M, T> std::ops::Deref for NarrowContext<'b, 'a, M, T> {
    type Target = Context<'a, M>;
    fn deref(&self) -> &Context<'a, M> {
        self.inner
    }
}

impl<'b, 'a, M, T> std::ops::DerefMut for NarrowContext<'b, 'a, M, T> {
    fn deref_mut(&mut self) -> &mut Context<'a, M> {
        self.inner
    }
}

impl<'b, 'a, M: Codec<T>, T> NarrowContext<'b, 'a, M, T> {
    /// See [`Context::send`]; the protocol message is wrapped into the
    /// envelope first.
    pub fn send(&mut self, to: NodeId, msg: T) {
        self.inner.send(to, M::wrap(msg));
    }
    /// See [`Context::multicast`]; the protocol message is wrapped into the
    /// envelope once and fanned out by the underlying context.
    pub fn multicast<I>(&mut self, to: I, msg: T)
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.inner.multicast(to, M::wrap(msg));
    }
}

/// A simulated node's behaviour over envelope message type `M`.
///
/// The `Any` supertrait allows post-run downcasting via
/// [`crate::engine::Sim::actor_as`]; the `Send` supertrait lets the parallel
/// engine move whole partitions (actors included) onto worker threads for
/// the span of a lookahead window.
///
/// An actor that bumps a counter per event holds a
/// [`CounterHandle`](crate::metrics::CounterHandle): one handle names the
/// same cell in every metrics sink, the engine's and a partition worker's
/// alike. Mint it where its key is first known — in the constructor, or in
/// [`Actor::on_start`] when the label is the node's own
/// [`Context::node`].
pub trait Actor<M>: std::any::Any + Send {
    /// Called once when the simulation starts (or when the node joins), and
    /// again on every revival after a crash.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer armed by this node fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: TimerTag) {
        let _ = (ctx, tag);
    }

    /// The actor's kind label for dispatch profiling.
    ///
    /// Defaults to the concrete type name. At [`crate::engine::Sim::add_node`]
    /// time the engine looks the returned string up among the names it has
    /// seen; only a new one is shortened (module paths stripped) and the
    /// result interned to a dense index, which names that shorten alike
    /// share. This is never called on the hot path.
    fn kind_name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// Approximate resident bytes of this actor's state, for the engine's
    /// `mem.bytes_per_node` / `mem.resident_bytes` report metrics.
    ///
    /// The default counts the actor's own struct (which, via
    /// monomorphization, is the concrete size even through `Box<dyn
    /// Actor>`); actors holding heap containers should add their heap
    /// footprint. Accuracy to the byte is not required — the metric gates
    /// the *scaling shape* (bytes per node at mega-scale), not an exact
    /// allocator measurement.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// A protocol state machine over its own message type `T`.
///
/// Implementations stay independent of the envelope type; [`ActorOf`] lifts
/// them into an [`Actor`] for any envelope `M: Codec<T>` (which requires
/// cores to be `Send`, like every [`Actor`]).
pub trait ProtocolCore<T>: Send + 'static {
    /// Approximate resident bytes of this core's state. See
    /// [`Actor::approx_bytes`].
    fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Called once when the simulation starts (and on every revival). See
    /// [`Actor::on_start`].
    fn start<M: Codec<T>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, T>) {
        let _ = ctx;
    }

    /// Called on delivery of a protocol message.
    fn message<M: Codec<T>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, T>, from: NodeId, msg: T);

    /// Called when a timer fires.
    fn timer<M: Codec<T>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, T>, tag: TimerTag) {
        let _ = (ctx, tag);
    }
}

/// Lifts a [`ProtocolCore`] over `T` into an [`Actor`] over envelope `M`.
///
/// Messages that do not decode to `T` are ignored, so several `ActorOf`
/// layers can coexist behind a dispatching actor. The `T` parameter names
/// the protocol message type the core speaks.
#[derive(Debug)]
pub struct ActorOf<C, T> {
    core: C,
    _protocol: std::marker::PhantomData<fn(T)>,
}

impl<C, T> ActorOf<C, T> {
    /// Wraps a protocol core.
    pub fn new(core: C) -> Self {
        ActorOf {
            core,
            _protocol: std::marker::PhantomData,
        }
    }

    /// Read access to the wrapped core (for post-run inspection).
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Write access to the wrapped core (for configuring a built world
    /// before it starts).
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Consumes the wrapper, returning the core.
    pub fn into_inner(self) -> C {
        self.core
    }
}

impl<M, T, C> Actor<M> for ActorOf<C, T>
where
    M: Codec<T> + 'static,
    T: 'static,
    C: ProtocolCore<T>,
{
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.core.start(&mut ctx.narrow());
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        if let Some(t) = msg.unwrap() {
            self.core.message(&mut ctx.narrow(), from, t);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: TimerTag) {
        self.core.timer(&mut ctx.narrow(), tag);
    }

    fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(usize);
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    /// Runs `f` against a standalone context for node 1 of 4, returning the
    /// ops it queued.
    fn with_context(f: impl FnOnce(&mut Context<'_, Ping>)) -> Vec<Op<Ping>> {
        let mut timers = TimerSlots::new();
        let mut ops: Vec<Op<Ping>> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut metrics = Metrics::new();
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId(1),
            node_count: 4,
            link_free_at: SimTime::ZERO,
            timers: &mut timers,
            ops: &mut ops,
            rng: &mut rng,
            metrics: &mut metrics,
        };
        f(&mut ctx);
        ops
    }

    #[test]
    fn multicast_skips_self_and_empty_lists() {
        // Empty recipient list: nothing queued, no clone, no size walk.
        assert!(with_context(|ctx| ctx.multicast(Vec::new(), Ping(8))).is_empty());
        // Self-only list: likewise nothing.
        assert!(with_context(|ctx| ctx.multicast(vec![NodeId(1)], Ping(8))).is_empty());
        // Self mixed into a real list: only the two peers get a send, each
        // carrying the size computed once up front.
        let ops = with_context(|ctx| {
            ctx.multicast(vec![NodeId(0), NodeId(1), NodeId(2)], Ping(8));
        });
        let sends: Vec<(NodeId, usize)> = ops
            .iter()
            .map(|op| match op {
                Op::Send { to, bytes, .. } => (*to, *bytes),
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(sends, vec![(NodeId(0), 8), (NodeId(2), 8)]);
    }

    #[test]
    fn send_memoizes_wire_size_in_the_op() {
        let ops = with_context(|ctx| ctx.send(NodeId(3), Ping(21)));
        match &ops[..] {
            [Op::Send { to, msg, bytes }] => {
                assert_eq!(*to, NodeId(3));
                assert_eq!(*bytes, 21);
                assert_eq!(*bytes, msg.wire_size());
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn identity_codec_roundtrips() {
        let p = Ping(42);
        let wrapped = <Ping as Codec<Ping>>::wrap(p.clone());
        assert_eq!(wrapped.clone().unwrap(), Some(p));
        assert_eq!(wrapped.wire_size(), 42);
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn timer_tag_constructors() {
        assert_eq!(
            TimerTag::of_kind(3),
            TimerTag {
                kind: 3,
                a: 0,
                b: 0
            }
        );
        assert_eq!(
            TimerTag::with_a(3, 9),
            TimerTag {
                kind: 3,
                a: 9,
                b: 0
            }
        );
        assert_eq!(
            TimerTag::new(1, 2, 3),
            TimerTag {
                kind: 1,
                a: 2,
                b: 3
            }
        );
    }
}
