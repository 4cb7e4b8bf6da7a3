//! Commands a protocol issues to its host, and statistics events.

use sb_chunks::ChunkTag;
use sb_mem::{CoreId, DirId};
use sb_net::{MsgSize, TrafficClass};
use sb_sigs::SigHandle;

/// A protocol actor: a processor core or a directory module. (BulkSC's
/// central arbiter is modelled as the directory agent of the centre tile.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// Core agent on a tile.
    Core(CoreId),
    /// Directory agent on a tile.
    Dir(DirId),
}

impl Endpoint {
    /// The tile index hosting this endpoint.
    pub fn tile(self) -> u16 {
        match self {
            Endpoint::Core(c) => c.0,
            Endpoint::Dir(d) => d.0,
        }
    }
}

/// Statistics events emitted by protocols. Hosts forward them to the
/// figure collectors; they have no semantic effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A chunk began trying to form its group (or acquire its commit
    /// resources, for the baselines).
    GroupFormationStarted {
        /// The committing chunk.
        tag: ChunkTag,
    },
    /// A chunk's group formed (resources acquired); commit processing
    /// begins. The bottleneck-ratio metric (§6.4.1) is sampled at each of
    /// these events.
    GroupFormed {
        /// The committing chunk.
        tag: ChunkTag,
        /// Number of directory modules in the group.
        dirs: u32,
    },
    /// Group formation failed (collision or resource conflict).
    GroupFailed {
        /// The committing chunk.
        tag: ChunkTag,
    },
    /// The chunk's commit fully completed.
    CommitCompleted {
        /// The committing chunk.
        tag: ChunkTag,
    },
    /// A completed chunk entered a wait queue (TCC/SEQ serialize chunks
    /// that share directory modules; §6.4.2's chunk-queue-length metric
    /// counts these).
    ChunkQueued {
        /// The queued chunk.
        tag: ChunkTag,
    },
    /// A queued chunk left the wait queue.
    ChunkUnqueued {
        /// The dequeued chunk.
        tag: ChunkTag,
    },
    /// A directory module was grabbed on behalf of a committing chunk
    /// (§3.2: the module's CST entry turned blocking — ScalableBulk's
    /// `Held`, an occupancy grant in SEQ/SEQ-TS/TCC, an arbiter slot in
    /// BulkSC). Purely observational: the trace exporter turns matching
    /// grab/release pairs into directory-occupancy spans.
    DirGrabbed {
        /// The grabbed directory module.
        dir: DirId,
        /// The chunk holding the grab.
        tag: ChunkTag,
    },
    /// The matching release of an earlier [`ProtoEvent::DirGrabbed`]:
    /// the module finished (or abandoned) the chunk's commit and can
    /// serve the next one.
    DirReleased {
        /// The released directory module.
        dir: DirId,
        /// The chunk that held the grab.
        tag: ChunkTag,
    },
}

/// An effect requested by a protocol, executed by the host.
#[derive(Clone, Debug)]
pub enum Command<M> {
    /// Send a protocol-internal message over the network.
    Send {
        /// Sending actor (determines the injection port and hop count).
        src: Endpoint,
        /// Receiving actor.
        dst: Endpoint,
        /// Wire size (for latency and Figures 18–19).
        size: MsgSize,
        /// Traffic class (for Figures 18–19).
        class: TrafficClass,
        /// The message; redelivered to the protocol on arrival.
        msg: M,
    },
    /// Deliver `msg` back to the protocol at `dst` after `delay` cycles
    /// without touching the network (local timer: backoff, service delay).
    After {
        /// Delay in cycles.
        delay: u64,
        /// Actor the message is delivered to.
        dst: Endpoint,
        /// The message.
        msg: M,
    },
    /// Notify the committing processor that its chunk committed
    /// (`commit success` in Table 1). The host models the network message
    /// from `from` to `core` and retires the chunk.
    CommitSuccess {
        /// The committing processor.
        core: CoreId,
        /// The committed chunk.
        tag: ChunkTag,
        /// The directory (group leader / arbiter) sending the notification.
        from: DirId,
    },
    /// Notify the committing processor that its commit failed
    /// (`commit failure`); the processor backs off and retries.
    CommitFailure {
        /// The committing processor.
        core: CoreId,
        /// The failed chunk.
        tag: ChunkTag,
        /// The directory sending the notification.
        from: DirId,
    },
    /// Send a bulk invalidation (`bulk inv`: the W signature) from a
    /// directory to a sharer processor. The host expands the signature
    /// against the core's caches, decides whether the core's in-flight
    /// chunks squash, and eventually calls
    /// [`CommitProtocol::bulk_inv_acked`](crate::CommitProtocol::bulk_inv_acked).
    BulkInv {
        /// The issuing directory (acks return here).
        from: DirId,
        /// The sharer processor to invalidate.
        to: CoreId,
        /// The committing chunk whose writes are being published.
        tag: ChunkTag,
        /// The committing chunk's W signature (shared, O(1) to clone).
        wsig: SigHandle,
        /// Wire size: ScalableBulk/BulkSC carry the 2 Kbit signature
        /// (`MsgSize::Signature`); TCC/SEQ send line-granular
        /// invalidations modelled as one `MsgSize::Line` message per
        /// directory.
        size: MsgSize,
    },
    /// Update directory `dir`'s sharer state for a committed chunk: every
    /// tracked line matching `wsig` becomes dirty-owned by `committer`.
    ApplyCommit {
        /// The directory to update.
        dir: DirId,
        /// The committed chunk's W signature (shared, O(1) to clone).
        wsig: SigHandle,
        /// The committing processor.
        committer: CoreId,
    },
    /// A statistics event.
    Event(ProtoEvent),
}

/// The buffer protocols push [`Command`]s into; the host drains it after
/// every protocol upcall.
///
/// # Examples
///
/// ```
/// use sb_proto::{Command, Endpoint, Outbox};
/// use sb_mem::DirId;
/// use sb_net::{MsgSize, TrafficClass};
///
/// let mut out: Outbox<&'static str> = Outbox::new();
/// out.send(
///     Endpoint::Dir(DirId(0)),
///     Endpoint::Dir(DirId(1)),
///     MsgSize::Small,
///     TrafficClass::SmallCMessage,
///     "grab",
/// );
/// assert_eq!(out.drain().len(), 1);
/// ```
#[derive(Debug)]
pub struct Outbox<M> {
    cmds: Vec<Command<M>>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox { cmds: Vec::new() }
    }

    /// Pushes a raw command.
    pub fn push(&mut self, cmd: Command<M>) {
        self.cmds.push(cmd);
    }

    /// Queues a network send.
    pub fn send(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        size: MsgSize,
        class: TrafficClass,
        msg: M,
    ) {
        self.cmds.push(Command::Send {
            src,
            dst,
            size,
            class,
            msg,
        });
    }

    /// Queues a local timer delivery.
    pub fn after(&mut self, delay: u64, dst: Endpoint, msg: M) {
        self.cmds.push(Command::After { delay, dst, msg });
    }

    /// Queues a commit-success notification.
    pub fn commit_success(&mut self, core: CoreId, tag: ChunkTag, from: DirId) {
        self.cmds.push(Command::CommitSuccess { core, tag, from });
    }

    /// Queues a commit-failure notification.
    pub fn commit_failure(&mut self, core: CoreId, tag: ChunkTag, from: DirId) {
        self.cmds.push(Command::CommitFailure { core, tag, from });
    }

    /// Queues a bulk invalidation carrying the full signature.
    pub fn bulk_inv(&mut self, from: DirId, to: CoreId, tag: ChunkTag, wsig: SigHandle) {
        self.bulk_inv_sized(from, to, tag, wsig, MsgSize::Signature);
    }

    /// Queues a bulk invalidation with an explicit wire size.
    pub fn bulk_inv_sized(
        &mut self,
        from: DirId,
        to: CoreId,
        tag: ChunkTag,
        wsig: SigHandle,
        size: MsgSize,
    ) {
        self.cmds.push(Command::BulkInv {
            from,
            to,
            tag,
            wsig,
            size,
        });
    }

    /// Queues a directory-state update for a committed chunk.
    pub fn apply_commit(&mut self, dir: DirId, wsig: SigHandle, committer: CoreId) {
        self.cmds.push(Command::ApplyCommit {
            dir,
            wsig,
            committer,
        });
    }

    /// Queues a statistics event.
    pub fn event(&mut self, ev: ProtoEvent) {
        self.cmds.push(Command::Event(ev));
    }

    /// Takes all queued commands, leaving the outbox empty.
    pub fn drain(&mut self) -> Vec<Command<M>> {
        std::mem::take(&mut self.cmds)
    }

    /// Moves all queued commands into `dst` (cleared first), keeping both
    /// buffers' capacity. Hot event loops call this once per protocol
    /// upcall so no step allocates a fresh command vector.
    pub fn drain_into(&mut self, dst: &mut Vec<Command<M>>) {
        dst.clear();
        dst.append(&mut self.cmds);
    }

    /// Number of queued commands.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether no commands are queued.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sigs::SignatureConfig;

    fn empty_sig() -> SigHandle {
        SigHandle::empty(SignatureConfig::paper_default())
    }

    #[test]
    fn outbox_accumulates_and_drains() {
        let mut out: Outbox<u32> = Outbox::new();
        assert!(out.is_empty());
        out.after(5, Endpoint::Core(CoreId(1)), 7);
        out.commit_success(CoreId(1), ChunkTag::new(CoreId(1), 0), DirId(0));
        out.commit_failure(CoreId(1), ChunkTag::new(CoreId(1), 1), DirId(0));
        out.bulk_inv(
            DirId(0),
            CoreId(2),
            ChunkTag::new(CoreId(1), 0),
            empty_sig(),
        );
        out.apply_commit(DirId(0), empty_sig(), CoreId(1));
        out.event(ProtoEvent::CommitCompleted {
            tag: ChunkTag::new(CoreId(1), 0),
        });
        assert_eq!(out.len(), 6);
        let cmds = out.drain();
        assert_eq!(cmds.len(), 6);
        assert!(out.is_empty());
        assert!(matches!(cmds[0], Command::After { delay: 5, .. }));
        assert!(matches!(cmds[1], Command::CommitSuccess { .. }));
        assert!(matches!(cmds[5], Command::Event(_)));
    }

    #[test]
    fn endpoint_tile() {
        assert_eq!(Endpoint::Core(CoreId(4)).tile(), 4);
        assert_eq!(Endpoint::Dir(DirId(9)).tile(), 9);
        assert_ne!(Endpoint::Core(CoreId(4)), Endpoint::Dir(DirId(4)));
    }
}
