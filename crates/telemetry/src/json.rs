//! qlog-style JSON-lines structured output.
//!
//! [`JsonlWriter`] serialises every event as one self-contained JSON
//! object per line — `{"at_ns":…,"node":…,"event":"…",…}` — to any
//! `io::Write` sink. All values are numbers, booleans, or static
//! identifier strings, so no escaping is required and the output is a
//! deterministic function of the event stream. Write errors set a sticky
//! flag instead of panicking (this crate denies clippy's hot-path panic
//! lints); callers check [`JsonlWriter::had_error`] after the run.

use crate::event::{
    AlphaUpdated, CeMarked, CwndUpdated, EpisodeEntered, EpisodeExited, FlowCompleted,
    LinkStateChanged, Meta, PacketDropped, PacketEnqueued, RtoFired, SojournSampled,
};
use crate::subscribe::Subscriber;
use std::io::Write;

/// Subscriber writing one JSON object per event to `W`.
#[derive(Debug)]
pub struct JsonlWriter<W: Write + Send + 'static> {
    w: W,
    failed: bool,
}

impl<W: Write + Send + 'static> JsonlWriter<W> {
    /// Wrap a sink. Consider a `BufWriter` for file sinks; the writer
    /// itself does not buffer.
    pub fn new(w: W) -> Self {
        JsonlWriter { w, failed: false }
    }

    /// Whether any write failed since construction. Once set it stays
    /// set, and further events are dropped silently.
    pub fn had_error(&self) -> bool {
        self.failed
    }

    /// Flush and return the underlying sink.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }

    #[inline]
    fn emit(&mut self, line: std::fmt::Arguments<'_>) {
        if self.failed {
            return;
        }
        if writeln!(self.w, "{line}").is_err() {
            self.failed = true;
        }
    }
}

impl<W: Write + Send + 'static> Subscriber for JsonlWriter<W> {
    fn on_packet_enqueued(&mut self, meta: &Meta, ev: &PacketEnqueued) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"packet_enqueued","port":{},"flow":{},"seq":{},"payload":{},"wire_bytes":{},"backlog_bytes":{},"marked":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port,
            ev.flow,
            ev.seq,
            ev.payload,
            ev.wire_bytes,
            ev.backlog_bytes,
            ev.marked
        ));
    }

    fn on_packet_dropped(&mut self, meta: &Meta, ev: &PacketDropped) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"packet_dropped","port":{},"flow":{},"seq":{},"payload":{},"wire_bytes":{},"reason":"{}"}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port,
            ev.flow,
            ev.seq,
            ev.payload,
            ev.wire_bytes,
            ev.reason.as_str()
        ));
    }

    fn on_ce_marked(&mut self, meta: &Meta, ev: &CeMarked) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"ce_marked","port":{},"flow":{},"seq":{},"site":"{}"}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port,
            ev.flow,
            ev.seq,
            ev.site.as_str()
        ));
    }

    fn on_sojourn_sampled(&mut self, meta: &Meta, ev: &SojournSampled) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"sojourn_sampled","port":{},"flow":{},"sojourn_ns":{},"backlog_bytes":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port,
            ev.flow,
            ev.sojourn_ns,
            ev.backlog_bytes
        ));
    }

    fn on_episode_entered(&mut self, meta: &Meta, ev: &EpisodeEntered) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"episode_entered","port":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port
        ));
    }

    fn on_episode_exited(&mut self, meta: &Meta, ev: &EpisodeExited) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"episode_exited","port":{},"marks":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.port,
            ev.marks
        ));
    }

    fn on_cwnd_updated(&mut self, meta: &Meta, ev: &CwndUpdated) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"cwnd_updated","flow":{},"cwnd_bytes":{},"ssthresh_bytes":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.flow,
            ev.cwnd_bytes,
            ev.ssthresh_bytes
        ));
    }

    fn on_alpha_updated(&mut self, meta: &Meta, ev: &AlphaUpdated) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"alpha_updated","flow":{},"alpha":{:.6}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.flow,
            ev.alpha
        ));
    }

    fn on_rto_fired(&mut self, meta: &Meta, ev: &RtoFired) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"rto_fired","flow":{},"streak":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.flow,
            ev.streak
        ));
    }

    fn on_link_state_changed(&mut self, meta: &Meta, ev: &LinkStateChanged) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"link_state_changed","node_a":{},"node_b":{},"up":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.node_a,
            ev.node_b,
            ev.up
        ));
    }

    fn on_flow_completed(&mut self, meta: &Meta, ev: &FlowCompleted) {
        self.emit(format_args!(
            r#"{{"at_ns":{},"node":{},"event":"flow_completed","flow":{},"bytes":{},"fct_ns":{},"completed":{}}}"#,
            meta.at.as_nanos(),
            meta.node,
            ev.flow,
            ev.bytes,
            ev.fct_ns,
            ev.completed
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, MarkSite};
    use ecnsharp_sim::SimTime;

    fn meta() -> Meta {
        Meta {
            at: SimTime::from_micros(3),
            node: 9,
        }
    }

    #[test]
    fn events_serialise_one_line_each() {
        let mut w = JsonlWriter::new(Vec::new());
        w.on_packet_dropped(
            &meta(),
            &PacketDropped {
                port: 2,
                flow: 5,
                seq: 1460,
                payload: 1460,
                wire_bytes: 1500,
                reason: DropReason::Burst,
            },
        );
        w.on_ce_marked(
            &meta(),
            &CeMarked {
                port: 2,
                flow: 5,
                seq: 1460,
                site: MarkSite::Dequeue,
            },
        );
        w.on_alpha_updated(
            &meta(),
            &AlphaUpdated {
                flow: 5,
                alpha: 0.25,
            },
        );
        assert!(!w.had_error());
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"at_ns":3000,"node":9,"event":"packet_dropped","port":2,"flow":5,"seq":1460,"payload":1460,"wire_bytes":1500,"reason":"burst"}"#
        );
        assert!(lines[1].contains(r#""site":"dequeue""#));
        assert!(lines[2].ends_with(r#""alpha":0.250000}"#));
    }

    /// A sink that always fails, to exercise the sticky error flag.
    struct Broken;
    impl Write for Broken {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("broken"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_are_sticky_not_fatal() {
        let mut w = JsonlWriter::new(Broken);
        w.on_episode_entered(&meta(), &EpisodeEntered { port: 0 });
        assert!(w.had_error());
        // Further events are swallowed without panicking.
        w.on_episode_exited(&meta(), &EpisodeExited { port: 0, marks: 1 });
        assert!(w.had_error());
    }
}
