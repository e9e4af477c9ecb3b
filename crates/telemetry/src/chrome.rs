//! Chrome trace-event JSON writer.
//!
//! Emits the subset of the trace-event format that chrome://tracing and
//! Perfetto load without configuration: complete events (`"ph": "X"`)
//! with microsecond-denominated `ts`/`dur` fields. We map one simulated
//! cycle to one microsecond, so the Perfetto timeline reads directly in
//! cycles. `pid` groups a subsystem (cores vs. memory hierarchy) and
//! `tid` selects the row within it.
//!
//! A paper-scale trace has ~10^6 events, so nothing is accumulated:
//! every call appends its event's text through the [`JsonEmitter`] and
//! the caller may drain [`ChromeWriter::buffer_mut`] between calls.

use crate::json::JsonEmitter;

/// The `args` object of a memory-request slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceArgs {
    /// Line address of the request (shown in hex).
    pub line_addr: u64,
    /// Requesting core.
    pub core: u64,
    /// L2 bank that served it.
    pub bank: u64,
}

/// Writer of one trace-event document
/// (`{"traceEvents": [...], "displayTimeUnit": "ns"}`); events appear in
/// call order. Viewers want metadata first.
#[derive(Debug)]
pub struct ChromeWriter {
    json: JsonEmitter,
    /// Reused for the formatted (hex) strings of one event.
    scratch: String,
}

impl ChromeWriter {
    /// Opens a document, two-space `pretty` or compact, in a buffer
    /// pre-sized to `capacity` bytes.
    #[must_use]
    pub fn new(pretty: bool, capacity: usize) -> ChromeWriter {
        let mut json = JsonEmitter::new(pretty, capacity);
        json.begin_object();
        json.key("traceEvents");
        json.begin_array();
        ChromeWriter {
            json,
            scratch: String::new(),
        }
    }

    /// Labels a row group (`kind` = `process_name`, `tid` 0) or a row
    /// (`thread_name`) with a metadata ("M") event.
    pub fn metadata(&mut self, kind: &'static str, pid: u32, tid: u32, name: &str) {
        let json = &mut self.json;
        json.begin_object();
        json.field_str("name", kind);
        json.field_str("ph", "M");
        json.field_uint("pid", u64::from(pid));
        json.field_uint("tid", u64::from(tid));
        json.key("args");
        json.begin_object();
        json.field_str("name", name);
        json.end_object();
        json.end_object();
    }

    /// Appends a complete ("X") event: a slice `dur` cycles long
    /// starting at cycle `ts` on row `(pid, tid)`; `args` are shown when
    /// the slice is selected.
    #[allow(clippy::too_many_arguments)]
    pub fn slice(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: u32,
        args: Option<SliceArgs>,
    ) {
        let json = &mut self.json;
        json.begin_object();
        json.field_str("name", name);
        json.field_str("cat", cat);
        json.field_str("ph", "X");
        json.field_uint("ts", ts);
        json.field_uint("dur", dur);
        json.field_uint("pid", u64::from(pid));
        json.field_uint("tid", u64::from(tid));
        if let Some(args) = args {
            self.scratch.clear();
            push_hex(&mut self.scratch, args.line_addr);
            json.key("args");
            json.begin_object();
            json.field_str("line_addr", &self.scratch);
            json.field_uint("core", args.core);
            json.field_uint("bank", args.bank);
            json.end_object();
        }
        json.end_object();
    }

    /// Appends one endpoint of a `stall-cause` flow arrow, labelled with
    /// the stalled `pc`: a flow-start ("s") or, when `start` is false, a
    /// flow-finish ("f"). Perfetto draws an arrow from each start to the
    /// finish sharing its `id`, binding each endpoint to the slice
    /// enclosing its `(pid, tid, ts)` point — which is how stall
    /// intervals are visually linked to the memory request that caused
    /// them.
    pub fn flow(&mut self, pc: u64, id: u64, ts: u64, pid: u32, tid: u32, start: bool) {
        self.scratch.clear();
        self.scratch.push_str("stall pc ");
        push_hex(&mut self.scratch, pc);
        let json = &mut self.json;
        json.begin_object();
        json.field_str("name", &self.scratch);
        json.field_str("cat", "stall-cause");
        json.field_str("ph", if start { "s" } else { "f" });
        json.field_uint("id", id);
        json.field_uint("ts", ts);
        json.field_uint("pid", u64::from(pid));
        json.field_uint("tid", u64::from(tid));
        if !start {
            // Bind the finish to the enclosing slice, not the next one.
            json.field_str("bp", "e");
        }
        json.end_object();
    }

    /// The text emitted so far; a streaming caller writes it out and
    /// clears it between events.
    pub fn buffer_mut(&mut self) -> &mut String {
        self.json.buffer_mut()
    }

    /// Closes the document and returns what is left in the buffer.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.json.end_array();
        self.json.field_str("displayTimeUnit", "ns");
        self.json.end_object();
        self.json.finish()
    }
}

/// Appends `v` as `{:#x}` would (`0x` + lower-case digits, no padding).
fn push_hex(out: &mut String, v: u64) {
    out.push_str("0x");
    let nibbles = (64 - v.leading_zeros()).div_ceil(4).max(1);
    for shift in (0..nibbles).rev() {
        let nibble = (v >> (4 * shift)) & 0xf;
        out.push(char::from_digit(nibble as u32, 16).expect("nibble < 16"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_the_trace_event_keys_in_call_order() {
        let mut trace = ChromeWriter::new(false, 0);
        trace.metadata("thread_name", 1, 0, "core 0");
        let args = SliceArgs {
            line_addr: 0xabc,
            core: 0,
            bank: 3,
        };
        trace.slice("load", "request", 100, 40, 4, 0, Some(args));
        trace.flow(0x8000_0010, 7, 120, 4, 0, true);
        trace.flow(0x8000_0010, 7, 150, 1, 0, false);
        let text = trace.finish();
        assert_eq!(
            text,
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core 0"}},"#,
                r#"{"name":"load","cat":"request","ph":"X","ts":100,"dur":40,"pid":4,"tid":0,"#,
                r#""args":{"line_addr":"0xabc","core":0,"bank":3}},"#,
                r#"{"name":"stall pc 0x80000010","cat":"stall-cause","ph":"s","id":7,"ts":120,"#,
                r#""pid":4,"tid":0},"#,
                r#"{"name":"stall pc 0x80000010","cat":"stall-cause","ph":"f","id":7,"ts":150,"#,
                r#""pid":1,"tid":0,"bp":"e"}"#,
                r#"],"displayTimeUnit":"ns"}"#,
            )
        );
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn draining_between_events_does_not_change_the_text() {
        let write = |drain: bool| {
            let mut text = String::new();
            let mut trace = ChromeWriter::new(true, 0);
            for ts in 0..3 {
                trace.slice("running", "core-state", ts, 1, 1, 0, None);
                if drain {
                    text.push_str(trace.buffer_mut());
                    trace.buffer_mut().clear();
                }
            }
            text.push_str(&trace.finish());
            text
        };
        assert_eq!(write(true), write(false));
        assert!(crate::json::parse(&write(true)).is_ok());
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let text = ChromeWriter::new(false, 0).finish();
        assert_eq!(text, r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#);
    }

    #[test]
    fn hex_matches_the_fmt_alternate_form() {
        for v in [0, 1, 0xf, 0x10, 0xabc, 0x8000_0010, u64::MAX] {
            let mut out = String::new();
            push_hex(&mut out, v);
            assert_eq!(out, format!("{v:#x}"));
        }
    }
}
