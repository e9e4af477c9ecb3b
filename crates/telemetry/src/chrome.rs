//! Chrome trace-event JSON writer.
//!
//! Emits the subset of the trace-event format that chrome://tracing and
//! Perfetto load without configuration: complete events (`"ph": "X"`)
//! with microsecond-denominated `ts`/`dur` fields. We map one simulated
//! cycle to one microsecond, so the Perfetto timeline reads directly in
//! cycles. `pid` groups a subsystem (cores vs. memory hierarchy) and
//! `tid` selects the row within it.
//!
//! A paper-scale trace has ~10^6 events, so nothing is accumulated and
//! no event is built as a [`JsonValue`](crate::JsonValue) tree.
//! Every event sits at the same depth of one fixed document, so its text
//! is a fixed template with a hole per value. The writer derives the
//! templates of its mode once, from the tree writer's own text of each
//! event shape (compact JSON with `"$"` for each value), and then writes
//! an event as that sequence of template pieces and values into a
//! [`Record`] at the end of the document: integers through
//! `json::write_u64`, strings copied when plain and
//! through the tree writer's escaper when not. Pretty and compact text are
//! the same code with other templates, and the bytes are the tree
//! serialiser's by construction. The caller may drain
//! [`ChromeWriter::text`] between calls.

use crate::json::{is_plain, parse, push_escaped, Record, RECORD_BYTES};

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

/// Every event shape as compact JSON with `"$"` for each value:
/// metadata, slice, slice with `args`, flow start, flow finish.
const SHAPES: [&str; 5] = [
    r#"{"name":"$","ph":"M","pid":"$","tid":"$","args":{"name":"$"}}"#,
    r#"{"name":"$","cat":"$","ph":"X","ts":"$","dur":"$","pid":"$","tid":"$"}"#,
    r#"{"name":"$","cat":"$","ph":"X","ts":"$","dur":"$","pid":"$","tid":"$","args":{"line_addr":"$","core":"$","bank":"$"}}"#,
    r#"{"name":"$","cat":"stall-cause","ph":"s","id":"$","ts":"$","pid":"$","tid":"$"}"#,
    r#"{"name":"$","cat":"stall-cause","ph":"f","id":"$","ts":"$","pid":"$","tid":"$","bp":"e"}"#,
];

/// Bytes of room zero-filled at a time past the end of the document.
const ZERO_FILL: usize = 64 << 10;

/// The text between two values of an event, padded so that appending
/// it is one fixed-size copy.
#[derive(Debug)]
struct Piece {
    padded: [u8; 64],
    len: usize,
}

/// Writer of one trace-event document
/// (`{"traceEvents": [...], "displayTimeUnit": "ns"}`); events appear in
/// call order. Viewers want metadata first.
#[derive(Debug)]
pub struct ChromeWriter {
    /// The document up to `len`; past it, room the next events are
    /// written into as [`Record`]s (initialised: zero-filled when it
    /// was added, or old text after a [`clear`](Self::clear)).
    text: Vec<u8>,
    len: usize,
    /// No event has been written yet.
    empty: bool,
    /// The pieces of each of [`SHAPES`] in this writer's mode.
    shapes: [Vec<Piece>; SHAPES.len()],
    /// What follows the last event: `]` and the rest of the document.
    close: String,
}

impl ChromeWriter {
    /// Opens a document, two-space `pretty` or compact, in a buffer
    /// pre-sized to `capacity` bytes.
    #[must_use]
    pub fn new(pretty: bool, capacity: usize) -> ChromeWriter {
        let mut head = String::new();
        let mut close = String::new();
        let shapes = SHAPES.map(|event| {
            let doc = format!(r#"{{"traceEvents":[{event}],"displayTimeUnit":"ns"}}"#);
            let doc = parse(&doc).expect("every shape is JSON");
            let text = if pretty {
                doc.to_string_pretty()
            } else {
                doc.to_string_compact()
            };
            // The event runs from after `[` to its own closing brace.
            let start = text.find('[').expect("a shape has its event list") + 1;
            let end = text[..text.rfind(']').expect("a shape closes its list")]
                .trim_end()
                .len();
            (head, close) = (text[..start].to_owned(), text[end..].to_owned());
            let pieces = text[start..end].split(r#""$""#).map(|piece| {
                let mut padded = [0; 64];
                padded[..piece.len()].copy_from_slice(piece.as_bytes());
                Piece {
                    padded,
                    len: piece.len(),
                }
            });
            pieces.collect()
        });
        let mut text = Vec::with_capacity(capacity);
        text.extend_from_slice(head.as_bytes());
        ChromeWriter {
            text,
            len: head.len(),
            empty: true,
            shapes,
            close,
        }
    }

    /// Labels a row group (`kind` = `process_name`, `tid` 0) or a row
    /// (`thread_name`) with a metadata ("M") event.
    pub fn metadata(&mut self, kind: &'static str, pid: u32, tid: u32, name: &str) {
        let mut e = self.event(0, kind.len() + name.len());
        e.string(kind);
        e.uint(u64::from(pid));
        e.uint(u64::from(tid));
        e.string(name);
        e.end();
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
        let mut e = self.event(1 + usize::from(args.is_some()), name.len() + cat.len());
        e.string(name);
        e.string(cat);
        for value in [ts, dur, u64::from(pid), u64::from(tid)] {
            e.uint(value);
        }
        if let Some(args) = args {
            e.hex(b"", args.line_addr);
            e.uint(args.core);
            e.uint(args.bank);
        }
        e.end();
    }

    /// Appends one endpoint of a `stall-cause` flow arrow, labelled with
    /// the stalled `pc`: a flow-start ("s") or, when `start` is false, a
    /// flow-finish ("f", bound to the enclosing slice, not the next one).
    /// Perfetto draws an arrow from each start to the finish sharing its
    /// `id`, binding each endpoint to the slice enclosing its
    /// `(pid, tid, ts)` point — which is how stall intervals are visually
    /// linked to the memory request that caused them.
    pub fn flow(&mut self, pc: u64, id: u64, ts: u64, pid: u32, tid: u32, start: bool) {
        let mut e = self.event(3 + usize::from(!start), 0);
        e.hex(b"stall pc ", pc);
        for value in [id, ts, u64::from(pid), u64::from(tid)] {
            e.uint(value);
        }
        e.end();
    }

    /// The text written since the last [`clear`](Self::clear); a
    /// streaming caller writes it out and clears it between events.
    #[must_use]
    pub fn text(&self) -> &[u8] {
        &self.text[..self.len]
    }

    /// Forgets the text written so far (the buffer stays).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Closes the document and returns what is left of its text.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.text.truncate(self.len);
        // An empty list closes on the `]`, without the whitespace.
        let close = if self.empty {
            self.close.trim_start()
        } else {
            &self.close
        };
        self.text.extend_from_slice(close.as_bytes());
        self.text
    }

    /// Starts an event of `shape` whose strings are `strings` bytes
    /// long, zero-filling more room if what is left could not hold it,
    /// then writes the `,` after the previous event.
    fn event(&mut self, shape: usize, strings: usize) -> Event<'_> {
        // An escape is at most six bytes (`\u001f`) per string byte.
        let room = RECORD_BYTES + 6 * strings;
        if self.len + room > self.text.len() {
            // A block at a time, so that it is still in cache when the
            // events overwrite it, no byte past the document's end is
            // touched by more than a block, and the buffer is not
            // regrown while its capacity lasts.
            let end = self.len + room;
            let block = (end + ZERO_FILL).min(self.text.capacity());
            self.text.resize(block.max(end), 0);
        }
        let mut text = Record::new(&mut self.text[self.len..]);
        if !self.empty {
            text.bytes(b",");
        }
        self.empty = false;
        Event {
            text,
            pieces: self.shapes[shape].iter(),
            len: &mut self.len,
        }
    }
}

/// One event being written: a local, so that its cursor lives in a
/// register while its text is stored. Each value is preceded by the
/// next piece of its shape.
struct Event<'a> {
    text: Record<'a>,
    pieces: std::slice::Iter<'a, Piece>,
    /// The writer's length, advanced when the event ends.
    len: &'a mut usize,
}

// Every method here, and `Record`'s, is `#[inline(always)]`: the cursor
// stays in a register only if nothing an event calls takes the `Event`
// by address. On 720 k slices through the writer alone (2.0 GHz Xeon
// VM, two vCPUs) that took an event from 113–131 ns to 71–114 ns.
impl Event<'_> {
    #[inline(always)]
    fn piece(&mut self) {
        let piece = self
            .pieces
            .next()
            .expect("a shape has a piece per value and one more");
        self.text.padded(&piece.padded, piece.len);
    }

    #[inline(always)]
    fn uint(&mut self, value: u64) {
        self.piece();
        self.text.uint(value);
    }

    /// A string holding `prefix` then `value` in `0x` hex.
    #[inline(always)]
    fn hex(&mut self, prefix: &[u8], value: u64) {
        self.piece();
        self.text.bytes(b"\"");
        self.text.bytes(prefix);
        self.text.hex(value);
        self.text.bytes(b"\"");
    }

    /// A string, through the tree writer's escaper when it needs it.
    #[inline(always)]
    fn string(&mut self, value: &str) {
        self.piece();
        if is_plain(value) {
            self.text.bytes(b"\"");
            self.text.bytes(value.as_bytes());
            self.text.bytes(b"\"");
        } else {
            let mut escaped = Vec::new();
            push_escaped(&mut escaped, value);
            self.text.bytes(&escaped);
        }
    }

    /// Closes the event, leaving it in the document.
    fn end(mut self) {
        self.piece();
        *self.len += self.text.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event shape, both args variants and both flow ends.
    fn sample(trace: &mut ChromeWriter) {
        trace.metadata("thread_name", 1, 0, "core \"0\"\n");
        let args = SliceArgs {
            line_addr: 0xabc,
            core: 0,
            bank: 3,
        };
        trace.slice("load", "request", 100, 40, 4, 0, Some(args));
        trace.slice("running", "core-state", 0, u64::MAX, 1, u32::MAX, None);
        let max = SliceArgs {
            line_addr: u64::MAX,
            core: u64::MAX,
            bank: u64::MAX,
        };
        trace.slice(
            "store",
            "bank",
            u64::MAX,
            u64::MAX,
            u32::MAX,
            u32::MAX,
            Some(max),
        );
        trace.flow(0x8000_0010, 7, 120, 4, 0, true);
        trace.flow(0x8000_0010, 7, 150, 1, 0, false);
    }

    fn text(pretty: bool, events: bool) -> String {
        let mut trace = ChromeWriter::new(pretty, 0);
        if events {
            sample(&mut trace);
        }
        String::from_utf8(trace.finish()).unwrap()
    }

    #[test]
    fn events_carry_the_trace_event_keys_in_call_order() {
        let text = text(false, true);
        assert_eq!(
            text,
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core \"0\"\n"}},"#,
                r#"{"name":"load","cat":"request","ph":"X","ts":100,"dur":40,"pid":4,"tid":0,"#,
                r#""args":{"line_addr":"0xabc","core":0,"bank":3}},"#,
                r#"{"name":"running","cat":"core-state","ph":"X","ts":0,"#,
                r#""dur":18446744073709551615,"pid":1,"tid":4294967295},"#,
                r#"{"name":"store","cat":"bank","ph":"X","ts":18446744073709551615,"#,
                r#""dur":18446744073709551615,"pid":4294967295,"tid":4294967295,"args":{"#,
                r#""line_addr":"0xffffffffffffffff","core":18446744073709551615,"#,
                r#""bank":18446744073709551615}},"#,
                r#"{"name":"stall pc 0x80000010","cat":"stall-cause","ph":"s","id":7,"ts":120,"#,
                r#""pid":4,"tid":0},"#,
                r#"{"name":"stall pc 0x80000010","cat":"stall-cause","ph":"f","id":7,"ts":150,"#,
                r#""pid":1,"tid":0,"bp":"e"}"#,
                r#"],"displayTimeUnit":"ns"}"#,
            )
        );
        assert!(crate::json::parse(&text).is_ok());
    }

    /// Both layouts are the tree serialiser's text: parsed and written
    /// again by `JsonValue`'s writer, each document comes back unchanged.
    #[test]
    fn both_layouts_are_the_emitters_text() {
        for events in [false, true] {
            let tree = crate::json::parse(&text(false, events)).unwrap();
            assert_eq!(text(false, events), tree.to_string_compact());
            assert_eq!(text(true, events), tree.to_string_pretty());
        }
    }

    #[test]
    fn draining_between_events_does_not_change_the_text() {
        let mut drained = Vec::new();
        let mut trace = ChromeWriter::new(true, 0);
        for ts in 0..3 {
            trace.slice("running", "core-state", ts, 1, 1, 0, None);
            drained.extend_from_slice(trace.text());
            trace.clear();
        }
        drained.extend(trace.finish());
        let mut whole = ChromeWriter::new(true, 0);
        for ts in 0..3 {
            whole.slice("running", "core-state", ts, 1, 1, 0, None);
        }
        assert_eq!(drained, whole.finish());
    }

    #[test]
    fn empty_trace_is_still_valid() {
        assert_eq!(
            text(false, false),
            r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#
        );
    }
}
