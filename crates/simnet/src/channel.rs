use graybox_clock::ProcessId;

use crate::SimTime;

/// Unique identity of a message instance, assigned at send (or injection)
/// time. Duplicated messages get fresh ids so the happened-before recorder
/// and delivery accounting can tell copies apart.
pub type MsgId = u64;

/// A message in flight: payload plus routing and identity metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Unique id of this message instance.
    pub id: MsgId,
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// The protocol payload.
    pub payload: M,
    /// When the message was sent (or injected).
    pub sent_at: SimTime,
}
