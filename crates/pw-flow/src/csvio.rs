//! CSV persistence for flow-record datasets.
//!
//! A deliberately simple, dependency-free line format (one record per line,
//! hex-encoded payload) so datasets can be saved, inspected with standard
//! tools, and reloaded for the multi-day experiments.
//!
//! Two ingest modes cover the two deployment realities:
//!
//! - [`read_flows`] — strict: the first malformed row aborts the load.
//!   Right for curated datasets, where damage means the file is wrong.
//! - [`read_flows_lossy`] — degraded: malformed rows are returned as typed
//!   [`RowError`]s (line number, offending field, reason) alongside the rows
//!   that did parse, so a live feed with a corrupt record keeps flowing and
//!   the damage can be quarantined instead of killing the monitor. A row
//!   that is not UTF-8 is one more malformed row: its error names the
//!   column holding the bad byte.
//!
//! Both readers share one line driver. It parses complete lines in place
//! in the reader's own buffer; only a line that crosses the end of that
//! buffer is copied, into one reused scratch vector. A byte recognizer
//! takes every row in exactly the form [`format_flow`] writes in a single
//! pass. Any row it declines goes to [`parse_flow`], the exact parser and
//! the single source of [`RowError`]s, so the records and errors a reader
//! returns never depend on which path took a row.
//!
//! [`format_flow`] and [`parse_flow`] expose the single-line codec; the
//! streaming engine's checkpoint format reuses them verbatim.

use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;

use pw_netsim::SimTime;

use crate::packet::{Payload, Proto};
use crate::record::{FlowRecord, FlowState, ParseError};

/// Column header written by [`write_flows`].
pub const HEADER: &str =
    "start_ms,end_ms,src,sport,dst,dport,proto,src_pkts,src_bytes,dst_pkts,dst_bytes,state,payload_hex";

/// Fields per row in the flow CSV format.
pub const FIELDS: usize = 13;

/// Longest row [`format_flow`] writes: six `u64` counters and times, two
/// dotted quads, two ports, the protocol and state tokens, a full hex
/// payload and the commas between fields.
const MAX_ROW_LEN: usize = 6 * 20 + 2 * 15 + 2 * 5 + 3 + 4 + 2 * Payload::MAX + (FIELDS - 1);

/// One malformed row: where it was and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    /// 1-based line number in the source stream.
    pub line: usize,
    /// What was wrong ([`ParseError::field`] names the offending column,
    /// when one is identifiable).
    pub error: ParseError,
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for RowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Error raised while parsing a flow CSV.
#[derive(Debug)]
pub enum ParseFlowError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first line was not the expected [`HEADER`].
    BadHeader {
        /// What the first line actually said (lossily decoded if it was
        /// not UTF-8).
        found: String,
    },
    /// A malformed row (strict mode only — [`read_flows_lossy`] collects
    /// these instead of failing).
    Row(RowError),
}

impl std::fmt::Display for ParseFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFlowError::Io(e) => write!(f, "i/o error reading flow csv: {e}"),
            ParseFlowError::BadHeader { found } => {
                write!(f, "unexpected flow csv header `{found}`")
            }
            ParseFlowError::Row(e) => write!(f, "malformed flow csv at {e}"),
        }
    }
}

impl std::error::Error for ParseFlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFlowError::Io(e) => Some(e),
            ParseFlowError::BadHeader { .. } => None,
            ParseFlowError::Row(e) => Some(e),
        }
    }
}

impl From<io::Error> for ParseFlowError {
    fn from(e: io::Error) -> Self {
        ParseFlowError::Io(e)
    }
}

impl From<RowError> for ParseFlowError {
    fn from(e: RowError) -> Self {
        ParseFlowError::Row(e)
    }
}

/// Lower-case hex digits, indexed by nibble.
const HEX_DIGITS: [u8; 16] = *b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`HEX_VALUES`].
const NOT_HEX: u8 = 0xff;

/// The nibble each ASCII hex digit (either case) stands for, by byte;
/// [`NOT_HEX`] for every other byte.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < HEX_DIGITS.len() {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

fn nibble(b: u8) -> Option<u8> {
    let v = HEX_VALUES[usize::from(b)];
    (v != NOT_HEX).then_some(v)
}

fn hex_byte(hi: u8, lo: u8) -> Option<u8> {
    Some(nibble(hi)? << 4 | nibble(lo)?)
}

/// Decodes exactly `[0-9a-fA-F]{2k}`: no sign, no other byte.
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    s.chunks_exact(2)
        .map(|pair| match *pair {
            [hi, lo] => hex_byte(hi, lo),
            _ => None,
        })
        .collect::<Option<Vec<u8>>>()
        .ok_or_else(|| "invalid digit found in string".into())
}

fn push_decimal(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let mut rest = v;
    let mut len = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
        len += 1;
        if rest == 0 {
            break;
        }
    }
    for &d in digits.iter().skip(digits.len() - len) {
        out.push(char::from(d));
    }
}

fn push_ip(out: &mut String, ip: Ipv4Addr) {
    for (i, octet) in ip.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_decimal(out, u64::from(octet));
    }
}

/// Appends `r` as one CSV row, without a newline.
fn push_flow(out: &mut String, r: &FlowRecord) {
    push_decimal(out, r.start.as_millis());
    out.push(',');
    push_decimal(out, r.end.as_millis());
    out.push(',');
    push_ip(out, r.src);
    out.push(',');
    push_decimal(out, r.sport.into());
    out.push(',');
    push_ip(out, r.dst);
    out.push(',');
    push_decimal(out, r.dport.into());
    out.push(',');
    out.push_str(r.proto.token());
    for counter in [r.src_pkts, r.src_bytes, r.dst_pkts, r.dst_bytes] {
        out.push(',');
        push_decimal(out, counter);
    }
    out.push(',');
    out.push_str(r.state.token());
    out.push(',');
    for &b in r.payload.as_bytes() {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
}

/// Renders one record as a CSV line (no trailing newline) in the exact
/// format [`write_flows`] emits and [`parse_flow`] reads back.
pub fn format_flow(r: &FlowRecord) -> String {
    let mut line = String::with_capacity(MAX_ROW_LEN);
    push_flow(&mut line, r);
    line
}

/// Parses one CSV line (as produced by [`format_flow`]) into a record.
///
/// This is the exact parser: it accepts whatever the standard library's
/// number and address parsers accept (a leading `+`, leading zeros on
/// counters), and it is what decides every row the readers' fast path
/// declines.
///
/// # Errors
///
/// Returns a [`RowError`] carrying `lineno` and the offending field.
pub fn parse_flow(line: &str, lineno: usize) -> Result<FlowRecord, RowError> {
    let err = |error: ParseError| RowError {
        line: lineno,
        error,
    };
    let invalid = |field: &'static str, value: &str, reason: String| {
        err(ParseError::InvalidField {
            field,
            value: value.to_owned(),
            reason,
        })
    };
    // Split straight into a fixed-size array: per-field indexing below is
    // infallible by type.
    let mut fields: [&str; FIELDS] = [""; FIELDS];
    let mut got = 0usize;
    for col in line.split(',') {
        if got < FIELDS {
            fields[got] = col;
        }
        got += 1;
    }
    if got != FIELDS {
        return Err(err(ParseError::WrongFieldCount {
            expected: FIELDS,
            got,
        }));
    }
    let parse_u64 = |s: &str, what: &'static str| {
        s.parse::<u64>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let parse_u16 = |s: &str, what: &'static str| {
        s.parse::<u16>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let parse_ip = |s: &str, what: &'static str| {
        s.parse::<Ipv4Addr>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let proto: Proto = fields[6].parse().map_err(err)?;
    let state: FlowState = fields[11].parse().map_err(err)?;
    let payload_bytes =
        hex_decode(fields[12]).map_err(|reason| invalid("payload_hex", fields[12], reason))?;
    Ok(FlowRecord {
        start: SimTime::from_millis(parse_u64(fields[0], "start_ms")?),
        end: SimTime::from_millis(parse_u64(fields[1], "end_ms")?),
        src: parse_ip(fields[2], "src")?,
        sport: parse_u16(fields[3], "sport")?,
        dst: parse_ip(fields[4], "dst")?,
        dport: parse_u16(fields[5], "dport")?,
        proto,
        src_pkts: parse_u64(fields[7], "src_pkts")?,
        src_bytes: parse_u64(fields[8], "src_bytes")?,
        dst_pkts: parse_u64(fields[9], "dst_pkts")?,
        dst_bytes: parse_u64(fields[10], "dst_bytes")?,
        state,
        payload: Payload::capture(&payload_bytes),
    })
}

/// The error for a row that is not UTF-8: the first column holding an
/// invalid byte, its value decoded lossily. A bad byte past the last
/// column makes it a field-count error, as for any over-long row.
fn not_utf8(line: &[u8], lineno: usize) -> RowError {
    let columns = || line.split(|&b| b == b',');
    let error = HEADER
        .split(',')
        .zip(columns())
        .find_map(|(field, col)| {
            let reason = std::str::from_utf8(col).err()?.to_string();
            Some(ParseError::InvalidField {
                field,
                value: String::from_utf8_lossy(col).into_owned(),
                reason,
            })
        })
        .unwrap_or_else(|| ParseError::WrongFieldCount {
            expected: FIELDS,
            got: columns().count(),
        });
    RowError {
        line: lineno,
        error,
    }
}

/// The cold path for one complete row: [`parse_flow`] when it is UTF-8,
/// [`not_utf8`] when it is not.
fn parse_exact(line: &[u8], lineno: usize) -> Result<FlowRecord, RowError> {
    match std::str::from_utf8(line) {
        Ok(line) => parse_flow(line, lineno),
        Err(_) => Err(not_utf8(line, lineno)),
    }
}

/// Consumes `byte` at the head of `s`.
fn eat(s: &mut &[u8], byte: u8) -> Option<()> {
    let (&head, tail) = s.split_first()?;
    (head == byte).then(|| *s = tail)
}

/// Consumes a run of 1 to `max` ASCII digits (`max` ≤ 19, so the value
/// fits a `u64`); declines an empty or longer run.
fn digits(s: &mut &[u8], max: usize) -> Option<u64> {
    let mut value = 0u64;
    let mut len = 0;
    while let Some((&b, tail)) = s.split_first() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        if len == max {
            return None;
        }
        value = value * 10 + u64::from(d);
        len += 1;
        *s = tail;
    }
    (len > 0).then_some(value)
}

fn u64_field(s: &mut &[u8]) -> Option<u64> {
    let v = digits(s, 19)?;
    eat(s, b',')?;
    Some(v)
}

fn port_field(s: &mut &[u8]) -> Option<u16> {
    let v = digits(s, 5)?;
    eat(s, b',')?;
    u16::try_from(v).ok()
}

/// A dotted quad without leading zeros (which the exact parser refuses).
fn ip_field(s: &mut &[u8]) -> Option<Ipv4Addr> {
    let mut octets = [0u8; 4];
    for (i, octet) in octets.iter_mut().enumerate() {
        if i > 0 {
            eat(s, b'.')?;
        }
        if s.first() == Some(&b'0') && s.get(1).is_some_and(u8::is_ascii_digit) {
            return None;
        }
        *octet = u8::try_from(digits(s, 3)?).ok()?;
    }
    eat(s, b',')?;
    Some(Ipv4Addr::from(octets))
}

/// Consumes the token of one of `all`, then a comma.
fn token_field<T: Copy>(s: &mut &[u8], all: &[T], token: fn(T) -> &'static str) -> Option<T> {
    let (value, tail) = all.iter().find_map(|&t| {
        let tail = s.strip_prefix(token(t).as_bytes())?.strip_prefix(b",")?;
        Some((t, tail))
    })?;
    *s = tail;
    Some(value)
}

/// Decodes hex pairs straight into a payload, stopping after
/// [`Payload::MAX`] bytes; a hex digit left over (an odd-length or
/// over-long run) is left in `s` for the caller's terminator check to
/// decline.
fn payload_field(s: &mut &[u8]) -> Option<Payload> {
    let mut bytes = [0u8; Payload::MAX];
    let mut len = 0;
    for slot in &mut bytes {
        let [hi, lo, ref tail @ ..] = **s else {
            break;
        };
        let Some(b) = hex_byte(hi, lo) else {
            break;
        };
        *slot = b;
        len += 1;
        *s = tail;
    }
    Some(Payload::capture(bytes.get(..len)?))
}

/// Recognizes a row in exactly the form [`format_flow`] writes (plus
/// leading zeros on counters and upper-case hex, which parse to the same
/// record), returning the record and the bytes after its payload. `None`
/// declines the row and is never an error: [`parse_exact`] then decides.
/// Every row it accepts is plain ASCII that [`parse_flow`] reads as the
/// same record.
fn recognize(mut s: &[u8]) -> Option<(FlowRecord, &[u8])> {
    let s = &mut s;
    let record = FlowRecord {
        start: SimTime::from_millis(u64_field(s)?),
        end: SimTime::from_millis(u64_field(s)?),
        src: ip_field(s)?,
        sport: port_field(s)?,
        dst: ip_field(s)?,
        dport: port_field(s)?,
        proto: token_field(s, &Proto::ALL, Proto::token)?,
        src_pkts: u64_field(s)?,
        src_bytes: u64_field(s)?,
        dst_pkts: u64_field(s)?,
        dst_bytes: u64_field(s)?,
        state: token_field(s, &FlowState::ALL, FlowState::token)?,
        payload: payload_field(s)?,
    };
    Some((record, *s))
}

/// `line` without its `\n` and the one `\r` before it, the way
/// [`BufRead::lines`] trims: an unterminated last line keeps its `\r`.
fn chomp(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => line,
    }
}

/// Parses one complete line, its terminator already chomped; a blank
/// line is skipped.
fn parse_line(
    line: &[u8],
    lineno: usize,
    row: &mut impl FnMut(Result<FlowRecord, RowError>) -> Result<(), RowError>,
) -> Result<(), RowError> {
    if line.is_empty() {
        return Ok(());
    }
    row(match recognize(line) {
        Some((record, [])) => Ok(record),
        _ => parse_exact(line, lineno),
    })
}

/// The line driver behind both readers. Checks the header, then splits
/// the rest of `r` into lines exactly as [`BufRead::lines`] would
/// (numbered from 1 at the header, blank lines skipped) and hands each
/// row's outcome to `row`; an `Err` from `row` ends the read with it.
///
/// Rows are parsed where they sit in `r`'s buffer: the recognizer runs
/// at the start of each line and, when it reaches the row's newline,
/// that was the only pass over its bytes. Otherwise the line's end is
/// searched for and the line goes to [`parse_line`], or, when it runs
/// past the buffer's end, is gathered in `carry` across refills first.
fn read_rows<R: BufRead>(
    mut r: R,
    mut row: impl FnMut(Result<FlowRecord, RowError>) -> Result<(), RowError>,
) -> Result<(), ParseFlowError> {
    let mut carry = Vec::new();
    if r.read_until(b'\n', &mut carry)? == 0 {
        return Ok(());
    }
    let header = chomp(&carry);
    if header != HEADER.as_bytes() {
        return Err(ParseFlowError::BadHeader {
            found: String::from_utf8_lossy(header).into_owned(),
        });
    }
    carry.clear();
    let mut lineno = 1;
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let filled = buf.len();
        if filled == 0 {
            break;
        }
        let mut rest = buf;
        if !carry.is_empty() {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                r.consume(filled);
                continue;
            };
            let (end_of_line, after) = rest.split_at(nl + 1);
            carry.extend_from_slice(end_of_line);
            lineno += 1;
            parse_line(chomp(&carry), lineno, &mut row)?;
            carry.clear();
            rest = after;
        }
        while !rest.is_empty() {
            let fast = recognize(rest).and_then(|(record, tail)| {
                let after = tail
                    .strip_prefix(b"\n")
                    .or_else(|| tail.strip_prefix(b"\r\n"))?;
                Some((record, after))
            });
            if let Some((record, after)) = fast {
                lineno += 1;
                row(Ok(record))?;
                rest = after;
                continue;
            }
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                break;
            };
            let (line, after) = rest.split_at(nl + 1);
            lineno += 1;
            parse_line(chomp(line), lineno, &mut row)?;
            rest = after;
        }
        r.consume(filled);
    }
    if !carry.is_empty() {
        parse_line(&carry, lineno + 1, &mut row)?;
    }
    Ok(())
}

/// Writes `flows` (preceded by [`HEADER`]) to `w`.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_flows<W: Write>(mut w: W, flows: &[FlowRecord]) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    let mut line = String::with_capacity(MAX_ROW_LEN + 1);
    for r in flows {
        line.clear();
        push_flow(&mut line, r);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Reads flows previously written by [`write_flows`], strictly: the first
/// malformed row aborts the load.
///
/// # Errors
///
/// Returns [`ParseFlowError`] on I/O failure, a wrong header, or any
/// malformed line (the header line is required).
pub fn read_flows<R: BufRead>(r: R) -> Result<Vec<FlowRecord>, ParseFlowError> {
    let mut out = Vec::new();
    read_rows(r, |row| {
        out.push(row?);
        Ok(())
    })?;
    Ok(out)
}

/// Reads flows tolerantly: rows that parse are returned, rows that do not
/// (including rows that are not UTF-8) come back as [`RowError`]s for the
/// caller to quarantine, and the load itself never fails on row content.
///
/// # Errors
///
/// Only I/O failures and a wrong header abort the read — a damaged header
/// means the whole file is in the wrong format, not that one row is bad.
pub fn read_flows_lossy<R: BufRead>(
    r: R,
) -> Result<(Vec<FlowRecord>, Vec<RowError>), ParseFlowError> {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    read_rows(r, |row| {
        match row {
            Ok(f) => out.push(f),
            Err(e) => bad.push(e),
        }
        Ok(())
    })?;
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn sample() -> Vec<FlowRecord> {
        vec![
            FlowRecord {
                start: SimTime::from_millis(1000),
                end: SimTime::from_millis(2500),
                src: Ipv4Addr::new(10, 1, 0, 5),
                sport: 40000,
                dst: Ipv4Addr::new(8, 8, 8, 8),
                dport: 53,
                proto: Proto::Udp,
                src_pkts: 1,
                src_bytes: 70,
                dst_pkts: 1,
                dst_bytes: 200,
                state: FlowState::UdpReplied,
                payload: Payload::capture(b"query\x00\x01"),
            },
            FlowRecord {
                start: SimTime::from_millis(5000),
                end: SimTime::from_millis(5000),
                src: Ipv4Addr::new(10, 2, 3, 4),
                sport: 50000,
                dst: Ipv4Addr::new(1, 2, 3, 4),
                dport: 8,
                proto: Proto::Tcp,
                src_pkts: 3,
                src_bytes: 120,
                dst_pkts: 0,
                dst_bytes: 0,
                state: FlowState::SynNoAnswer,
                payload: Payload::empty(),
            },
        ]
    }

    #[test]
    fn round_trip() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let back = read_flows(buf.as_slice()).unwrap();
        assert_eq!(back, flows);
    }

    #[test]
    fn line_codec_round_trips() {
        for f in sample() {
            assert_eq!(parse_flow(&format_flow(&f), 1).unwrap(), f);
        }
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_flows(&mut buf, &[]).unwrap();
        assert!(read_flows(buf.as_slice()).unwrap().is_empty());
        // Entirely empty input is also fine.
        assert!(read_flows(&b""[..]).unwrap().is_empty());
        let (ok, bad) = read_flows_lossy(&b""[..]).unwrap();
        assert!(ok.is_empty() && bad.is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        let e = read_flows(&b"nope\n"[..]).unwrap_err();
        assert!(e.to_string().contains("header"));
        // Lossy mode is equally strict about the header: the whole file is
        // in the wrong format, not one row.
        assert!(read_flows_lossy(&b"nope\n"[..]).is_err());
    }

    #[test]
    fn rejects_wrong_field_count() {
        let mut buf = format!("{HEADER}\n");
        buf.push_str("1,2,3\n");
        let e = read_flows(buf.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains("13 fields"));
    }

    #[test]
    fn rejects_bad_payload_hex() {
        let mut buf = format!("{HEADER}\n");
        buf.push_str("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,zz\n");
        assert!(read_flows(buf.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_state() {
        let mut buf = format!("{HEADER}\n");
        buf.push_str("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,WAT,\n");
        let e = read_flows(buf.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("WAT"));
    }

    #[test]
    fn row_errors_name_line_and_field() {
        let mut buf = format!("{HEADER}\n");
        buf.push_str("1,2,10.0.0.1,notaport,10.0.0.2,2,tcp,1,40,0,0,SYN,\n");
        let ParseFlowError::Row(e) = read_flows(buf.as_bytes()).unwrap_err() else {
            panic!("expected a row error");
        };
        assert_eq!(e.line, 2);
        assert_eq!(e.error.field(), Some("sport"));
        assert!(e.to_string().contains("notaport"));
    }

    #[test]
    fn lossy_read_quarantines_bad_rows_and_keeps_good_ones() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("1,2,3\n"); // line 4: field count
        text.push_str(&format_flow(&flows[0]));
        text.push('\n'); // line 5: fine
        text.push_str("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,WAT,\n"); // line 6: state
        let (ok, bad) = read_flows_lossy(text.as_bytes()).unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(ok[2], flows[0]);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].line, 4);
        assert_eq!(
            bad[0].error,
            ParseError::WrongFieldCount {
                expected: 13,
                got: 3
            }
        );
        assert_eq!(bad[1].line, 6);
        assert_eq!(bad[1].error.field(), Some("state"));
    }

    #[test]
    fn skips_blank_lines() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        buf.extend_from_slice(b"\n\n");
        assert_eq!(read_flows(buf.as_slice()).unwrap().len(), 2);
    }

    #[test]
    fn format_flow_matches_field_by_field_display() {
        let mut flows = sample();
        flows.push(FlowRecord {
            start: SimTime::from_millis(u64::MAX),
            end: SimTime::from_millis(0),
            src: Ipv4Addr::new(255, 0, 10, 100),
            sport: u16::MAX,
            dst: Ipv4Addr::new(0, 0, 0, 0),
            dport: 0,
            src_pkts: u64::MAX,
            src_bytes: 10,
            dst_pkts: 999,
            dst_bytes: 1_000_000_000_000,
            state: FlowState::ResetAfterData,
            payload: Payload::capture(&[0xab; 80]),
            ..flows[0]
        });
        for r in &flows {
            let hex: String = r
                .payload
                .as_bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            let expected = format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{hex}",
                r.start.as_millis(),
                r.end.as_millis(),
                r.src,
                r.sport,
                r.dst,
                r.dport,
                r.proto,
                r.src_pkts,
                r.src_bytes,
                r.dst_pkts,
                r.dst_bytes,
                r.state,
            );
            assert_eq!(format_flow(r), expected);
            assert!(format_flow(r).len() <= MAX_ROW_LEN);
        }
    }

    #[test]
    fn payload_hex_is_exactly_even_length_hex_digits() {
        let row = |hex: &str| format!("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,{hex}");
        // A multi-byte character at an odd byte offset must be refused,
        // not sliced through, and a sign is not a hex digit.
        for hex in ["a\u{e9}b", "+f", "-f", " f", "0x", "\u{e9}"] {
            let e = parse_flow(&row(hex), 2).unwrap_err();
            assert_eq!(e.error.field(), Some("payload_hex"), "{hex:?}");
            let text = format!("{HEADER}\n{}\n", row(hex));
            let (ok, bad) = read_flows_lossy(text.as_bytes()).unwrap();
            assert!(ok.is_empty(), "{hex:?}");
            assert_eq!(bad, vec![e], "{hex:?}");
        }
        let r = parse_flow(&row("00fFAb"), 2).unwrap();
        assert_eq!(r.payload.as_bytes(), [0x00, 0xff, 0xab]);
    }

    #[test]
    fn non_utf8_rows_are_quarantined_with_their_column() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows[..1]).unwrap();
        buf.extend_from_slice(b"\xff\xfe\n");
        buf.extend_from_slice(b"1,2,10.0.0.1,4\xff,10.0.0.2,2,tcp,1,40,0,0,SYN,\n");
        buf.extend_from_slice(b"1,2,3\xff,4\n");
        buf.extend_from_slice(format_flow(&flows[1]).as_bytes());
        let (ok, bad) = read_flows_lossy(buf.as_slice()).unwrap();
        assert_eq!(ok, flows);
        let invalid = |line, field, value: &str| RowError {
            line,
            error: ParseError::InvalidField {
                field,
                value: value.to_owned(),
                reason: "invalid utf-8 sequence of 1 bytes from index 0".to_owned(),
            },
        };
        let mut sport = invalid(4, "sport", "4\u{fffd}");
        if let ParseError::InvalidField { reason, .. } = &mut sport.error {
            *reason = "invalid utf-8 sequence of 1 bytes from index 1".to_owned();
        }
        assert_eq!(
            bad,
            vec![
                invalid(3, "start_ms", "\u{fffd}\u{fffd}"),
                sport,
                RowError {
                    line: 5,
                    error: ParseError::InvalidField {
                        field: "src",
                        value: "3\u{fffd}".to_owned(),
                        reason: "invalid utf-8 sequence of 1 bytes from index 1".to_owned(),
                    },
                },
            ]
        );
        // Strict mode stops at the same row error instead of an I/O error.
        let ParseFlowError::Row(e) = read_flows(buf.as_slice()).unwrap_err() else {
            panic!("expected a row error");
        };
        assert_eq!(e, bad[0]);
        // A header that is not UTF-8 means the file is in the wrong format.
        let e = read_flows_lossy(&b"start_ms\xff\n"[..]).unwrap_err();
        assert!(
            matches!(&e, ParseFlowError::BadHeader { found } if found == "start_ms\u{fffd}"),
            "{e:?}"
        );
    }

    #[test]
    fn line_ends_follow_buf_read_lines() {
        let flows = sample();
        let rows: Vec<String> = flows.iter().map(format_flow).collect();
        // CRLF rows, blank lines of either kind, and an unterminated last row.
        let text = format!("{HEADER}\r\n{}\r\n\r\n\n{}", rows[0], rows[1]);
        assert_eq!(read_flows(text.as_bytes()).unwrap(), flows);
        // An unterminated last row keeps its `\r`, which makes its payload bad.
        let text = format!("{HEADER}\n{}\r", rows[0]);
        let (ok, bad) = read_flows_lossy(text.as_bytes()).unwrap();
        assert!(ok.is_empty());
        assert_eq!(
            (bad[0].line, bad[0].error.field()),
            (2, Some("payload_hex"))
        );
        // Rows the standard parsers accept but the writer never emits still
        // parse, through the exact path.
        let text = format!(
            "{HEADER}\n+1000,002500,10.1.0.5,40000,8.8.8.8,+53,udp,1,70,1,200,UDPR,7175657279\n"
        );
        let got = read_flows(text.as_bytes()).unwrap();
        assert_eq!(got[0].start, flows[0].start);
        assert_eq!(got[0].dport, 53);
    }
}
