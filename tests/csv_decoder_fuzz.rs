//! Seeded fuzzing of the flow-CSV decoder.
//!
//! Rows are `format_flow` renderings of random records, most of them
//! damaged by one byte-level mutation: a bit flip, an inserted `,` `+`
//! `\r` or non-ASCII byte, a truncation, a doubled field, or a field
//! replaced by a 20-digit number. The suite asserts that
//!
//! - nothing panics;
//! - `parse_flow(format_flow(r)) == r` for every clean record;
//! - the readers' fast path agrees with `parse_flow`, the exact parser,
//!   on every line: each record and each `RowError` `read_flows_lossy`
//!   returns is the one `parse_flow` gives for that line, and a line that
//!   is not UTF-8 is an error naming the column that holds the bad byte;
//! - `read_flows_lossy` returns the same rows and errors whatever the
//!   reader's buffer size, so lines that cross the buffer's end parse
//!   like any other.
//!
//! Everything is driven by `ChaosRng` with fixed seeds and iteration
//! counts, so a failure replays exactly.

use std::io::BufReader;
use std::net::Ipv4Addr;

use peerwatch::chaos::ChaosRng;
use peerwatch::flow::csvio::{format_flow, parse_flow, read_flows_lossy, RowError, FIELDS, HEADER};
use peerwatch::flow::{FlowRecord, FlowState, ParseError, Payload, Proto};
use peerwatch::netsim::SimTime;

/// Single-row documents checked against the exact parser.
const ROWS: usize = 4_000;
/// Multi-row documents checked across buffer sizes.
const DOCUMENTS: usize = 40;
/// Rows per multi-row document.
const ROWS_PER_DOCUMENT: usize = 60;
/// Reader buffer capacities, from one byte to larger than a document.
const CAPACITIES: [usize; 4] = [1, 7, 64, 8192];

const STATES: [FlowState; 6] = [
    FlowState::Established,
    FlowState::SynNoAnswer,
    FlowState::Rejected,
    FlowState::ResetAfterData,
    FlowState::UdpReplied,
    FlowState::UdpSilent,
];

/// A counter of random magnitude: small, mid-sized or up to `u64::MAX`.
fn counter(rng: &mut ChaosRng) -> u64 {
    match rng.below(3) {
        0 => rng.below(100) as u64,
        1 => rng.next_u64() >> 24,
        _ => rng.next_u64(),
    }
}

fn ip(rng: &mut ChaosRng) -> Ipv4Addr {
    Ipv4Addr::from(rng.next_u64() as u32)
}

fn record(rng: &mut ChaosRng) -> FlowRecord {
    let payload: Vec<u8> = (0..rng.below(Payload::MAX + 1))
        .map(|_| rng.next_u64() as u8)
        .collect();
    FlowRecord {
        start: SimTime::from_millis(counter(rng)),
        end: SimTime::from_millis(counter(rng)),
        src: ip(rng),
        sport: rng.next_u64() as u16,
        dst: ip(rng),
        dport: rng.next_u64() as u16,
        proto: if rng.chance(0.5) {
            Proto::Tcp
        } else {
            Proto::Udp
        },
        src_pkts: counter(rng),
        src_bytes: counter(rng),
        dst_pkts: counter(rng),
        dst_bytes: counter(rng),
        state: STATES[rng.below(STATES.len())],
        payload: Payload::capture(&payload),
    }
}

/// Byte ranges of the comma-separated fields of `row`.
fn field_spans(row: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in row.iter().enumerate() {
        if b == b',' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    spans.push((start, row.len()));
    spans
}

/// `row` with one random mutation applied (or none, one time in six).
fn mutate(rng: &mut ChaosRng, mut row: Vec<u8>) -> Vec<u8> {
    match rng.below(6) {
        0 => {}
        1 => {
            let at = rng.below(row.len());
            row[at] ^= 1 << rng.below(8);
        }
        2 => {
            const INSERTS: [&[u8]; 7] = [b",", b"+", b"\r", b"\xff", b"\x80", b"\xc3\xa9", b"0"];
            let at = rng.below(row.len() + 1);
            row.splice(at..at, INSERTS[rng.below(INSERTS.len())].iter().copied());
        }
        3 => row.truncate(rng.below(row.len())),
        4 => {
            let spans = field_spans(&row);
            let (s, e) = spans[rng.below(spans.len())];
            let mut doubled = row[s..e].to_vec();
            doubled.push(b',');
            row.splice(s..s, doubled);
        }
        _ => {
            let spans = field_spans(&row);
            let (s, e) = spans[rng.below(spans.len())];
            let twenty = if rng.chance(0.5) {
                b"18446744073709551616".to_vec()
            } else {
                (0..20).map(|_| b'0' + rng.below(10) as u8).collect()
            };
            row.splice(s..e, twenty);
        }
    }
    row
}

/// `rows` after the header, each ended by `eol` except, when
/// `terminated` is false, the last.
fn document(rows: &[Vec<u8>], eol: &[u8], terminated: bool) -> Vec<u8> {
    let mut doc = format!("{HEADER}\n").into_bytes();
    for (i, row) in rows.iter().enumerate() {
        doc.extend_from_slice(row);
        if terminated || i + 1 < rows.len() {
            doc.extend_from_slice(eol);
        }
    }
    doc
}

type Outcome = (Vec<FlowRecord>, Vec<RowError>);

fn read_at(doc: &[u8], capacity: usize) -> Outcome {
    read_flows_lossy(BufReader::with_capacity(capacity, doc)).expect("header is valid")
}

#[test]
fn clean_rows_round_trip_through_the_line_codec() {
    let mut rng = ChaosRng::new(0x05EE_D0C5);
    for _ in 0..ROWS {
        let r = record(&mut rng);
        assert_eq!(parse_flow(&format_flow(&r), 1), Ok(r));
    }
}

#[test]
fn every_line_reads_as_the_exact_parser_reads_it() {
    let mut rng = ChaosRng::new(0xF022_0001);
    let mut accepted = 0;
    for _ in 0..ROWS {
        let clean = format_flow(&record(&mut rng)).into_bytes();
        let row = mutate(&mut rng, clean);
        let terminated = rng.chance(0.5);
        let doc = document(std::slice::from_ref(&row), b"\n", terminated);
        let got = read_flows_lossy(doc.as_slice()).expect("header is valid");

        // The row may itself hold `\n`s after mutation: it is then several
        // lines, each trimmed the way `BufRead::lines` trims: one `\r`
        // before a `\n` goes, an unterminated last line keeps its `\r`.
        let mut want: Outcome = (Vec::new(), Vec::new());
        let lines: Vec<&[u8]> = row.split(|&b| b == b'\n').collect();
        for (i, &line) in lines.iter().enumerate() {
            let line = if terminated || i + 1 < lines.len() {
                line.strip_suffix(b"\r").unwrap_or(line)
            } else {
                line
            };
            if line.is_empty() {
                continue;
            }
            let lineno = i + 2;
            match std::str::from_utf8(line) {
                Ok(text) => match parse_flow(text, lineno) {
                    Ok(r) => want.0.push(r),
                    Err(e) => want.1.push(e),
                },
                // Not UTF-8: the first column holding a bad byte is named,
                // or, past the last column, the row has too many fields.
                Err(_) => {
                    let columns: Vec<&[u8]> = line.split(|&b| b == b',').collect();
                    let (bad, reason) = columns
                        .iter()
                        .enumerate()
                        .find_map(|(i, c)| Some((i, std::str::from_utf8(c).err()?)))
                        .expect("a line that is not UTF-8 has a column that is not");
                    let error = match HEADER.split(',').nth(bad) {
                        Some(field) => ParseError::InvalidField {
                            field,
                            value: String::from_utf8_lossy(columns[bad]).into_owned(),
                            reason: reason.to_string(),
                        },
                        None => ParseError::WrongFieldCount {
                            expected: FIELDS,
                            got: columns.len(),
                        },
                    };
                    want.1.push(RowError {
                        line: lineno,
                        error,
                    });
                }
            }
        }
        assert_eq!(got, want, "row {:?}", String::from_utf8_lossy(&row));
        accepted += got.0.len();
    }
    // The unmutated sixth of the rows, at least, went through.
    assert!(accepted >= ROWS / 8, "only {accepted} rows parsed");
}

#[test]
fn a_non_utf8_byte_is_reported_in_its_column() {
    let mut rng = ChaosRng::new(0xF022_0002);
    for _ in 0..ROWS {
        let mut row = format_flow(&record(&mut rng)).into_bytes();
        let at = rng.below(row.len() + 1);
        // A lone byte >= 0x80 between ASCII bytes is never valid UTF-8.
        row.insert(at, 0x80 | rng.next_u64() as u8);
        let (ok, bad) =
            read_flows_lossy(document(std::slice::from_ref(&row), b"\n", true).as_slice())
                .expect("a bad row never fails the load");
        let column = row[..at].iter().filter(|&&b| b == b',').count();
        let (s, e) = field_spans(&row)[column];
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].line, 2);
        assert_eq!(bad[0].error.field(), HEADER.split(',').nth(column));
        assert!(bad[0]
            .to_string()
            .contains(&*String::from_utf8_lossy(&row[s..e])));
    }
}

#[test]
fn buffer_size_never_changes_what_is_read() {
    let mut rng = ChaosRng::new(0xF022_0003);
    for d in 0..DOCUMENTS {
        let rows: Vec<Vec<u8>> = (0..ROWS_PER_DOCUMENT)
            .map(|_| {
                let row = format_flow(&record(&mut rng)).into_bytes();
                if rng.chance(0.3) {
                    mutate(&mut rng, row)
                } else {
                    row
                }
            })
            .collect();
        let eol: &[u8] = if d % 4 < 2 { b"\n" } else { b"\r\n" };
        let doc = document(&rows, eol, d % 2 == 0);
        let whole = read_flows_lossy(doc.as_slice()).expect("header is valid");
        assert!(whole.0.len() + whole.1.len() >= ROWS_PER_DOCUMENT / 2);
        for capacity in CAPACITIES {
            assert_eq!(
                read_at(&doc, capacity),
                whole,
                "document {d}, capacity {capacity}"
            );
        }
    }
}
