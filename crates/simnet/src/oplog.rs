//! The deterministic **operation log** (oplog): an append-only record of
//! every nondeterministic decision a simulation run makes.
//!
//! A recorded run logs three kinds of operations, in execution order:
//!
//! * [`Op::Draw`] — every pseudo-random value consumed, tagged with the
//!   [`DrawStream`] it belongs to (message delays, non-FIFO delivery
//!   picks, state-corruption bytes, fault targeting);
//! * [`Op::Pop`] — every scheduler pop (`(time, seq)` of the event the
//!   event loop executed);
//! * [`Op::Failpoint`] — every firing of a named failpoint (see
//!   [`crate::failpoint`](mod@crate::failpoint)), with its human-readable detail.
//!
//! Because process handlers are deterministic functions of their inputs,
//! the oplog is a *complete* witness of the run: replaying it (see
//! [`crate::replay`]) re-executes the run bit-exactly **without the
//! original RNG** — every draw is read back from the log and every pop
//! and failpoint is verified against it, so any divergence is detected at
//! the first mismatching operation rather than at the final verdict.
//!
//! # Storage
//!
//! Recording sits on the simulator's hot path (one pop record per event,
//! one draw record per delay), so ops are stored as fixed-size packed
//! records — a kind byte, an interned site index, and two 64-bit
//! operands — rather than as enum values carrying heap strings. Records
//! live in fixed-size segments (4096 records each) instead of one flat
//! `Vec`: appending never relocates earlier records, so a million-event
//! recording costs a bounded ~100 KiB allocation every 4096 ops rather
//! than doubling-reallocs that copy the whole log (tens of megabytes of
//! memcpy at scale, and a measurable per-event tax even on small runs).
//! Repeated
//! failpoint site names are interned into a small side table, so a
//! million `channel.drop` firings store the string once. The enum-shaped
//! [`Op`] view is materialized on demand ([`OpLog::get`] /
//! [`OpLog::iter`]).
//!
//! The log serializes to a line-oriented text format (one op per line,
//! [`OpLog::to_text`]/[`OpLog::parse`]) so replay artifacts can be
//! diffed byte-for-byte and attached to incident reports.

use std::fmt;
use std::fmt::Write as _;

use crate::SimTime;

/// Which consumer a recorded pseudo-random draw belongs to.
///
/// Replay verifies the stream tag of every draw, so a log can never feed
/// a delay value into, say, fault targeting without being caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawStream {
    /// A message delay (`min_delay..=max_delay`).
    Delay,
    /// A non-FIFO delivery pick (index into the channel queue).
    NonFifoPick,
    /// Raw corruption entropy (`Corruptible::corrupt` draws).
    Corrupt,
    /// Fault targeting (which channel / process / message a fault hits).
    FaultTarget,
}

impl DrawStream {
    /// Stable one-word tag used by the text format.
    pub fn tag(self) -> &'static str {
        match self {
            DrawStream::Delay => "delay",
            DrawStream::NonFifoPick => "pick",
            DrawStream::Corrupt => "corrupt",
            DrawStream::FaultTarget => "fault",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "delay" => DrawStream::Delay,
            "pick" => DrawStream::NonFifoPick,
            "corrupt" => DrawStream::Corrupt,
            "fault" => DrawStream::FaultTarget,
            _ => return None,
        })
    }
}

impl fmt::Display for DrawStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One logged operation (the materialized view of a packed record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A pseudo-random value was consumed.
    Draw {
        /// The stream the value was drawn for.
        stream: DrawStream,
        /// The value (for ranged draws, the in-range result; for raw
        /// corruption entropy, the full 64-bit output).
        value: u64,
    },
    /// The event loop popped and executed the scheduled event
    /// `(time, seq)`.
    Pop {
        /// Virtual time of the popped event.
        time: SimTime,
        /// Monotonic sequence number assigned at scheduling time.
        seq: u64,
    },
    /// A named failpoint fired.
    Failpoint {
        /// Virtual time of the firing.
        time: SimTime,
        /// The failpoint's registered name (e.g. `"channel.drop"`).
        site: String,
        /// Human-readable description of what the firing did.
        detail: String,
    },
}

/// Packed record kinds. Draws use `1 + stream index` so one byte carries
/// both the op kind and the stream tag.
const KIND_POP: u8 = 0;
const KIND_DRAW_DELAY: u8 = 1;
const KIND_DRAW_PICK: u8 = 2;
const KIND_DRAW_CORRUPT: u8 = 3;
const KIND_DRAW_FAULT: u8 = 4;
const KIND_FAILPOINT: u8 = 5;

fn stream_kind(stream: DrawStream) -> u8 {
    match stream {
        DrawStream::Delay => KIND_DRAW_DELAY,
        DrawStream::NonFifoPick => KIND_DRAW_PICK,
        DrawStream::Corrupt => KIND_DRAW_CORRUPT,
        DrawStream::FaultTarget => KIND_DRAW_FAULT,
    }
}

fn kind_stream(kind: u8) -> Option<DrawStream> {
    Some(match kind {
        KIND_DRAW_DELAY => DrawStream::Delay,
        KIND_DRAW_PICK => DrawStream::NonFifoPick,
        KIND_DRAW_CORRUPT => DrawStream::Corrupt,
        KIND_DRAW_FAULT => DrawStream::FaultTarget,
        _ => return None,
    })
}

/// One fixed-size record: `kind` selects the op, `site` indexes the
/// interned site table (failpoints only), `a`/`b` carry the operands
/// (`value`/unused for draws, `time`/`seq` for pops, `time`/detail-index
/// for failpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp {
    kind: u8,
    site: u16,
    a: u64,
    b: u64,
}

/// Records per storage segment. 4096 × 24 B ≈ 96 KiB: big enough that
/// the segment-boundary branch is cold, small enough that the allocation
/// pause stays bounded.
const SEG: usize = 4096;

/// The append-only operation log of one simulation run.
///
/// Equality compares the packed representation directly; this is sound
/// because both recording and parsing intern sites (and append details)
/// in first-appearance order, so equal runs produce identical tables.
/// (`PartialEq` is hand-written to compare the *logical* record
/// sequence, so preallocated-but-empty segments don't make two equal
/// logs compare unequal.)
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// Packed records in execution order, in fixed [`SEG`]-sized
    /// segments (only the last segment is partial). Appends never move
    /// earlier records — see the module docs on storage.
    segments: Vec<Vec<PackedOp>>,
    /// Total record count across all segments.
    len: usize,
    sites: Vec<String>,
    details: Vec<String>,
}

impl PartialEq for OpLog {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.sites == other.sites
            && self.details == other.details
            && self.packed_iter().eq(other.packed_iter())
    }
}

impl Eq for OpLog {}

/// Error from [`OpLog::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLogParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for OpLogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oplog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for OpLogParseError {}

/// Magic first line of the text format.
pub const OPLOG_HEADER: &str = "graybox-oplog v1";

impl OpLog {
    /// An empty log.
    pub fn new() -> Self {
        OpLog::default()
    }

    /// An empty log with its first segment preallocated. Recording paths
    /// use this to keep early appends off the allocator. Segments are
    /// fixed-size, so any nonzero `capacity` reserves one full segment.
    pub fn with_capacity(capacity: usize) -> Self {
        let segments = if capacity == 0 {
            Vec::new()
        } else {
            vec![Vec::with_capacity(SEG)]
        };
        OpLog {
            segments,
            len: 0,
            sites: Vec::new(),
            details: Vec::new(),
        }
    }

    /// The packed records in execution order, across segments.
    fn packed_iter(&self) -> impl Iterator<Item = &PackedOp> + '_ {
        self.segments.iter().flatten()
    }

    /// Appends one packed record, opening a fresh segment when the
    /// current one is full. The in-segment push never reallocates:
    /// segments are created at full capacity.
    #[inline]
    fn push_record(&mut self, record: PackedOp) {
        match self.segments.last_mut() {
            Some(seg) if seg.len() < SEG => seg.push(record),
            _ => {
                let mut seg = Vec::with_capacity(SEG);
                seg.push(record);
                self.segments.push(seg);
            }
        }
        self.len += 1;
    }

    fn intern_site(&mut self, site: &str) -> u16 {
        // Linear scan: runs fire a handful of distinct sites (the nine
        // fault primitives), so this beats hashing.
        match self.sites.iter().position(|s| s == site) {
            Some(index) => u16::try_from(index).expect("site table fits u16"),
            None => {
                let index = u16::try_from(self.sites.len()).expect("site table fits u16");
                self.sites.push(site.to_string());
                index
            }
        }
    }

    /// Appends a draw record — the hot-path form of
    /// [`push`](OpLog::push)`(Op::Draw { .. })`.
    pub fn push_draw(&mut self, stream: DrawStream, value: u64) {
        self.push_record(PackedOp {
            kind: stream_kind(stream),
            site: 0,
            a: value,
            b: 0,
        });
    }

    /// Appends a scheduler-pop record — the hot-path form of
    /// [`push`](OpLog::push)`(Op::Pop { .. })`.
    pub fn push_pop(&mut self, time: SimTime, seq: u64) {
        self.push_record(PackedOp {
            kind: KIND_POP,
            site: 0,
            a: time.ticks(),
            b: seq,
        });
    }

    /// Appends a failpoint-firing record, interning the site name.
    pub fn push_failpoint(&mut self, time: SimTime, site: &str, detail: String) {
        let site = self.intern_site(site);
        let detail_index = u64::try_from(self.details.len()).expect("detail table fits u64");
        self.details.push(detail);
        self.push_record(PackedOp {
            kind: KIND_FAILPOINT,
            site,
            a: time.ticks(),
            b: detail_index,
        });
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        match op {
            Op::Draw { stream, value } => self.push_draw(stream, value),
            Op::Pop { time, seq } => self.push_pop(time, seq),
            Op::Failpoint { time, site, detail } => self.push_failpoint(time, &site, detail),
        }
    }

    fn materialize(&self, record: PackedOp) -> Op {
        match record.kind {
            KIND_POP => Op::Pop {
                time: SimTime::from(record.a),
                seq: record.b,
            },
            KIND_FAILPOINT => Op::Failpoint {
                time: SimTime::from(record.a),
                site: self.sites[usize::from(record.site)].clone(),
                detail: self.details[usize::try_from(record.b).expect("detail index fits usize")]
                    .clone(),
            },
            kind => Op::Draw {
                stream: kind_stream(kind).expect("packed record has a valid kind"),
                value: record.a,
            },
        }
    }

    /// The `index`-th logged operation, materialized.
    pub fn get(&self, index: usize) -> Option<Op> {
        self.segments
            .get(index / SEG)
            .and_then(|seg| seg.get(index % SEG))
            .map(|record| self.materialize(*record))
    }

    /// Iterates the logged operations in execution order, materializing
    /// each.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        self.packed_iter().map(|record| self.materialize(*record))
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty log.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of draws logged for `stream`.
    pub fn draws_in(&self, stream: DrawStream) -> usize {
        let kind = stream_kind(stream);
        self.packed_iter().filter(|r| r.kind == kind).count()
    }

    /// Number of failpoint firings logged for `site`.
    pub fn failpoint_firings(&self, site: &str) -> usize {
        let Some(index) = self.sites.iter().position(|s| s == site) else {
            return 0;
        };
        let site = u16::try_from(index).expect("site table fits u16");
        self.packed_iter()
            .filter(|r| r.kind == KIND_FAILPOINT && r.site == site)
            .count()
    }

    /// Serializes the log to the line-oriented text format:
    ///
    /// ```text
    /// graybox-oplog v1
    /// d delay 5
    /// p 17 42
    /// f 80 channel.drop drop message #0 on p0→p1
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 + self.len * 12);
        out.push_str(OPLOG_HEADER);
        out.push('\n');
        for record in self.packed_iter() {
            match record.kind {
                KIND_POP => {
                    let _ = writeln!(out, "p {} {}", record.a, record.b);
                }
                KIND_FAILPOINT => {
                    let site = &self.sites[usize::from(record.site)];
                    let detail =
                        &self.details[usize::try_from(record.b).expect("detail index fits usize")];
                    // Details are free text (no newlines by construction of
                    // the injectors; sanitize defensively so the format
                    // stays line-oriented).
                    let _ = write!(out, "f {} {site} ", record.a);
                    for (i, piece) in detail.split('\n').enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        out.push_str(piece);
                    }
                    // The space after the site is kept even for an empty
                    // detail: `parse` reads it back as an empty detail,
                    // keeping round trips byte-stable.
                    out.push('\n');
                }
                kind => {
                    let stream = kind_stream(kind).expect("packed record has a valid kind");
                    let _ = writeln!(out, "d {} {}", stream.tag(), record.a);
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`OpLog::to_text`].
    pub fn parse(text: &str) -> Result<Self, OpLogParseError> {
        let err = |line: usize, message: &str| OpLogParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim_end() == OPLOG_HEADER => {}
            _ => return Err(err(1, "missing `graybox-oplog v1` header")),
        }
        let mut log = OpLog::new();
        for (index, line) in lines {
            let lineno = index + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(2, ' ');
            let kind = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default();
            match kind {
                "d" => {
                    let (tag, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(lineno, "draw needs `<stream> <value>`"))?;
                    let stream = DrawStream::from_tag(tag)
                        .ok_or_else(|| err(lineno, "unknown draw stream"))?;
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| err(lineno, "draw value is not a u64"))?;
                    log.push_draw(stream, value);
                }
                "p" => {
                    let (time, seq) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(lineno, "pop needs `<time> <seq>`"))?;
                    let time = time
                        .parse::<u64>()
                        .map_err(|_| err(lineno, "pop time is not a u64"))?;
                    let seq = seq
                        .parse::<u64>()
                        .map_err(|_| err(lineno, "pop seq is not a u64"))?;
                    log.push_pop(SimTime::from(time), seq);
                }
                "f" => {
                    let (time, rest) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(lineno, "failpoint needs `<time> <site> [detail]`"))?;
                    let time = time
                        .parse::<u64>()
                        .map_err(|_| err(lineno, "failpoint time is not a u64"))?;
                    let (site, detail) = match rest.split_once(' ') {
                        Some((site, detail)) => (site, detail),
                        None => (rest, ""),
                    };
                    log.push_failpoint(SimTime::from(time), site, detail.to_string());
                }
                _ => return Err(err(lineno, "unknown op kind (expected d/p/f)")),
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpLog {
        let mut log = OpLog::new();
        log.push(Op::Draw {
            stream: DrawStream::Delay,
            value: 5,
        });
        log.push(Op::Pop {
            time: SimTime::from(17),
            seq: 42,
        });
        log.push(Op::Failpoint {
            time: SimTime::from(80),
            site: "channel.drop".to_string(),
            detail: "drop message #0 on p0→p1".to_string(),
        });
        log.push(Op::Draw {
            stream: DrawStream::Corrupt,
            value: u64::MAX,
        });
        log
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let log = sample();
        let text = log.to_text();
        assert!(text.starts_with(OPLOG_HEADER));
        let parsed = OpLog::parse(&text).expect("parses");
        assert_eq!(parsed, log);
        // Re-serialization is byte-stable.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn counts_by_stream_and_site() {
        let log = sample();
        assert_eq!(log.len(), 4);
        assert_eq!(log.draws_in(DrawStream::Delay), 1);
        assert_eq!(log.draws_in(DrawStream::Corrupt), 1);
        assert_eq!(log.draws_in(DrawStream::FaultTarget), 0);
        assert_eq!(log.failpoint_firings("channel.drop"), 1);
        assert_eq!(log.failpoint_firings("channel.flush"), 0);
    }

    #[test]
    fn get_and_iter_materialize_in_order() {
        let log = sample();
        assert_eq!(
            log.get(1),
            Some(Op::Pop {
                time: SimTime::from(17),
                seq: 42,
            })
        );
        assert_eq!(log.get(4), None);
        let all: Vec<Op> = log.iter().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(log.get(3), Some(all[3].clone()));
    }

    #[test]
    fn repeated_sites_are_interned_once() {
        let mut log = OpLog::with_capacity(64);
        for i in 0..1000u64 {
            log.push_failpoint(SimTime::from(i), "channel.drop", String::new());
            log.push_failpoint(SimTime::from(i), "msg.inject", String::new());
        }
        assert_eq!(log.sites.len(), 2);
        assert_eq!(log.failpoint_firings("channel.drop"), 1000);
        assert_eq!(log.failpoint_firings("msg.inject"), 1000);
    }

    #[test]
    fn failpoint_without_detail_parses() {
        let text = format!("{OPLOG_HEADER}\nf 3 sim.delay\n");
        let log = OpLog::parse(&text).expect("parses");
        assert_eq!(
            log.get(0).unwrap(),
            Op::Failpoint {
                time: SimTime::from(3),
                site: "sim.delay".to_string(),
                detail: String::new(),
            }
        );
    }

    #[test]
    fn bad_inputs_are_rejected_with_line_numbers() {
        assert!(OpLog::parse("nonsense").is_err());
        let bad_stream = format!("{OPLOG_HEADER}\nd warp 3\n");
        let e = OpLog::parse(&bad_stream).unwrap_err();
        assert_eq!(e.line, 2);
        let bad_kind = format!("{OPLOG_HEADER}\nx 1 2\n");
        assert!(OpLog::parse(&bad_kind).is_err());
        let bad_value = format!("{OPLOG_HEADER}\nd delay many\n");
        assert!(OpLog::parse(&bad_value).is_err());
    }
}
