//! Per-call I/O context for the NoFTL interface.

use ipa_flash::{OpOrigin, SpanId};

/// Context attached to a NoFTL I/O call: the scheduling/statistics origin
/// and the causal span the call executes under.
///
/// The default (`Host` origin, no span) matches the behaviour of the
/// former context-less `read_page`/`write_page`/`write_delta` methods; the
/// region layer attributes events with its own region id and the call's
/// LBA. A span set here flows down to the device's per-command lifecycle
/// events; without one the device attributes commands to its innermost open
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCtx {
    /// Whether the op is synchronous host I/O, asynchronous host I/O
    /// (cleaner/checkpoint writes) or background management work.
    pub origin: OpOrigin,
    /// Causal span (transaction, flush, recovery, GC episode) the call
    /// belongs to.
    pub span: Option<SpanId>,
}

impl Default for IoCtx {
    fn default() -> Self {
        IoCtx { origin: OpOrigin::Host, span: None }
    }
}

impl IoCtx {
    /// Synchronous host I/O (the default).
    pub fn host() -> Self {
        IoCtx::default()
    }

    /// Asynchronous host I/O: counted and latency-tracked as host work,
    /// but the host clock does not block on it.
    pub fn host_async() -> Self {
        IoCtx { origin: OpOrigin::HostAsync, ..IoCtx::default() }
    }

    /// Background management work (GC, wear leveling, cleaners).
    pub fn background() -> Self {
        IoCtx { origin: OpOrigin::Background, ..IoCtx::default() }
    }

    /// Attach the causal span this call executes under.
    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = Some(span);
        self
    }
}

impl From<OpOrigin> for IoCtx {
    fn from(origin: OpOrigin) -> Self {
        IoCtx { origin, ..IoCtx::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_synchronous_host() {
        let ctx = IoCtx::default();
        assert_eq!(ctx.origin, OpOrigin::Host);
        assert_eq!(ctx.span, None);
        assert_eq!(ctx, IoCtx::host());
    }

    #[test]
    fn from_origin_and_overrides() {
        let ctx: IoCtx = OpOrigin::Background.into();
        assert_eq!(ctx, IoCtx::background());
        let ctx = IoCtx::host_async().with_span(SpanId(5));
        assert_eq!(ctx.origin, OpOrigin::HostAsync);
        assert_eq!(ctx.span, Some(SpanId(5)));
    }
}
