//! The star topology baseline: consensus nodes push complete blocks
//! directly to the full nodes assigned to them. Bandwidth per consensus
//! node grows linearly with the number of full nodes — the degradation
//! Fig. 7 and Fig. 8 measure Multi-Zone against.

use predis_sim::{Codec, CounterHandle, Labels, NarrowContext, NodeId, ProtocolCore, TimerTag};

use crate::msg::{net_timers, NetMsg};
use crate::source::SyntheticLoad;

/// A consensus node in the star topology: at every block boundary it sends
/// the complete block to each of its assigned full nodes.
#[derive(Debug)]
pub struct StarSource {
    assigned: Vec<NodeId>,
    load: SyntheticLoad,
    next_block: u64,
    /// `star.blocks_sent`, minted at construction.
    blocks_sent: CounterHandle,
}

impl StarSource {
    /// Creates a star source serving `assigned` full nodes under `load`.
    pub fn new(assigned: Vec<NodeId>, load: SyntheticLoad) -> StarSource {
        StarSource {
            assigned,
            load,
            next_block: 0,
            blocks_sent: CounterHandle::of("star.blocks_sent", Labels::GLOBAL),
        }
    }
}

impl ProtocolCore<NetMsg> for StarSource {
    fn start<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let first = self.load.start_at + self.load.interval;
        ctx.set_timer(first, TimerTag::of_kind(net_timers::SOURCE_TICK));
    }

    fn message<M: Codec<NetMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        _from: NodeId,
        _msg: NetMsg,
    ) {
    }

    fn timer<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        tag: TimerTag,
    ) {
        if tag.kind != net_timers::SOURCE_TICK {
            return;
        }
        if self.load.blocks > 0 && self.next_block >= self.load.blocks {
            return;
        }
        let msg = NetMsg::FullBlock {
            block: self.next_block,
            bytes: self.load.block_bytes(),
        };
        let assigned = self.assigned.clone();
        ctx.multicast(assigned, msg);
        ctx.metrics().incr_handle(self.blocks_sent, 1);
        self.next_block += 1;
        let interval = self.load.interval;
        ctx.set_timer(interval, TimerTag::of_kind(net_timers::SOURCE_TICK));
    }
}

/// A full node that records the arrival of each block exactly once
/// (star topology sink; also reused as the "consensus throughput drain"
/// in the Fig. 7 composition).
#[derive(Debug, Default)]
pub struct BlockSink {
    /// Blocks received.
    pub received: u64,
    /// Total payload bytes received.
    pub bytes: u64,
    seen: std::collections::HashSet<u64>,
}

impl BlockSink {
    /// Creates an empty sink.
    pub fn new() -> BlockSink {
        BlockSink::default()
    }
}

impl ProtocolCore<NetMsg> for BlockSink {
    fn message<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        _from: NodeId,
        msg: NetMsg,
    ) {
        if let NetMsg::FullBlock { block, bytes } | NetMsg::Push { block, bytes } = msg {
            if self.seen.insert(block) {
                self.received += 1;
                self.bytes += bytes;
                let now = ctx.now();
                ctx.metrics().mark_arrival(block, now);
            }
        }
    }
}
