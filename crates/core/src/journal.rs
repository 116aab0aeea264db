//! Crash-safe campaign journal: append-only JSONL with per-record
//! checksums.
//!
//! A supervised campaign ([`crate::supervisor`]) survives being killed
//! because every state transition is journaled *before* the campaign
//! acts on it. The format is deliberately boring:
//!
//! * one record per line (JSONL), so a torn final write corrupts at most
//!   the tail;
//! * every line is `{"crc":"<fnv64 hex>","rec":<payload>}` — the
//!   checksum covers the serialized payload, so bit rot and truncation
//!   are both detectable without trusting file length;
//! * the file is *created* atomically (header written to a tmp file,
//!   `fsync`, `rename`), so a journal either exists with a valid header
//!   or not at all;
//! * recovery ([`load`]) keeps the longest valid prefix and rewrites the
//!   file to exactly that prefix — again via tmp + rename — so a resumed
//!   campaign never appends after garbage.
//!
//! The workspace is offline (no serde), so this module carries a minimal
//! JSON value type ([`Json`]) with a serializer and a recursive-descent
//! parser sufficient for the journal's flat-ish records.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use needle_frames::symeq::fnv1a64;

/// A JSON value, as minimal as the journal can get away with.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number (journal counters, indices).
    Int(i64),
    /// Floating number (percentages, rates). Serialized with `{:?}` so
    /// the decimal form round-trips bit-exactly.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload (accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Unsigned payload.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Float payload (accepts ints).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to a single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    // JSON has no inf/nan; null is the least-bad encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    /// Returns a byte offset + message on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                message: "trailing data after JSON value".into(),
            });
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn jerr<T>(pos: usize, message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        pos,
        message: message.into(),
    })
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        jerr(*pos, format!("expected {:?}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return jerr(*pos, "unexpected end of input");
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return jerr(*pos, "expected ',' or '}'"),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return jerr(*pos, "expected ',' or ']'"),
                }
            }
        }
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => jerr(*pos, format!("unexpected character {:?}", c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        jerr(*pos, format!("expected {lit:?}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonError {
        pos: start,
        message: "non-utf8 number".into(),
    })?;
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .or_else(|_| jerr(start, format!("bad number {text:?}")))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .or_else(|_| jerr(start, format!("bad number {text:?}")))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return jerr(*pos, "expected string");
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return jerr(*pos, "unterminated string");
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return jerr(*pos, "unterminated escape");
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError {
                                pos: *pos,
                                message: "truncated \\u escape".into(),
                            })?;
                        let code = u32::from_str_radix(hex, 16)
                            .or_else(|_| jerr(*pos, format!("bad \\u escape {hex:?}")))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return jerr(*pos, format!("bad escape \\{}", other as char)),
                }
            }
            c if c < 0x80 => out.push(c as char),
            _ => {
                // Multi-byte UTF-8: copy the whole sequence.
                let start = *pos - 1;
                let len = utf8_len(c);
                let chunk = b.get(start..start + len).ok_or(JsonError {
                    pos: start,
                    message: "truncated utf8".into(),
                })?;
                let s = std::str::from_utf8(chunk).map_err(|_| JsonError {
                    pos: start,
                    message: "invalid utf8".into(),
                })?;
                out.push_str(s);
                *pos = start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Journal failures.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure, with context.
    Io(String),
    /// The journal exists but its header record is missing or corrupt —
    /// there is nothing safe to resume from.
    MissingHeader(PathBuf),
    /// The header does not describe the campaign the caller asked to
    /// resume (different unit list).
    HeaderMismatch(String),
    /// The test kill-hook fired: the campaign must stop as if the
    /// process had been killed.
    Killed,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::MissingHeader(p) => {
                write!(f, "journal {} has no valid header record", p.display())
            }
            JournalError::HeaderMismatch(why) => {
                write!(f, "journal does not match this campaign: {why}")
            }
            JournalError::Killed => write!(f, "campaign killed by test hook"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_ctx<T>(what: &str, path: &Path, r: std::io::Result<T>) -> Result<T, JournalError> {
    r.map_err(|e| JournalError::Io(format!("{what} {}: {e}", path.display())))
}

/// Sync the directory containing `path`. An atomic tmp+rename only
/// survives power loss once the *directory entry* is durable too:
/// renaming flushes nothing by itself, so without this a crash can leave
/// a correctly-named journal whose contents (or the rename itself) never
/// reached disk.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    let d = io_ctx("open dir", parent, File::open(parent))?;
    io_ctx("sync dir", parent, d.sync_all())
}

/// Encode one journal line: `{"crc":"<hex>","rec":<payload>}`. The
/// checksum is FNV-1a 64 — not cryptographic; it only needs to catch
/// torn writes and bit rot.
fn encode_line(rec: &Json) -> String {
    let payload = rec.encode();
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{}}}\n",
        fnv1a64(payload.as_bytes()),
        payload
    )
}

/// Decode + verify one journal line; `None` means corrupt.
fn decode_line(line: &str) -> Option<Json> {
    let line = line.trim_end();
    let rest = line.strip_prefix("{\"crc\":\"")?;
    let (hex, rest) = rest.split_at_checked(16)?;
    let payload = rest.strip_prefix("\",\"rec\":")?.strip_suffix('}')?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    if fnv1a64(payload.as_bytes()) != want {
        return None;
    }
    Json::parse(payload).ok()
}

/// An open, append-mode campaign journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    records: usize,
    /// Test hook: simulate the process dying after this many records —
    /// the append that would produce record `kill_after + 1` fails with
    /// [`JournalError::Killed`] *without writing*, exactly like a
    /// SIGKILL between two writes.
    kill_after: Option<usize>,
    /// `sync_data` once per this many appends (default 1 = every
    /// append). High-rate journals (the shard dedup ledger) raise this:
    /// the checksummed longest-prefix recovery already tolerates a lost
    /// tail, so batching fsyncs trades a bounded recovery window for
    /// throughput.
    sync_every: usize,
    /// Appends since the last `sync_data`.
    unsynced: usize,
}

impl Journal {
    /// Create a fresh journal whose first record is `header`. The file
    /// appears atomically: header goes to `<path>.tmp`, is synced, then
    /// renamed over `path`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn create(path: &Path, header: &Json) -> Result<Journal, JournalError> {
        let tmp = tmp_path(path);
        {
            let mut f = io_ctx("create", &tmp, File::create(&tmp))?;
            io_ctx("write", &tmp, f.write_all(encode_line(header).as_bytes()))?;
            io_ctx("sync", &tmp, f.sync_all())?;
        }
        io_ctx("rename", path, fs::rename(&tmp, path))?;
        sync_parent_dir(path)?;
        let file = io_ctx(
            "open",
            path,
            OpenOptions::new().append(true).open(path),
        )?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            records: 1,
            kill_after: None,
            sync_every: 1,
            unsynced: 0,
        })
    }

    /// Reopen an existing (already recovered) journal for appending.
    ///
    /// # Errors
    /// I/O failures.
    pub fn reopen(path: &Path, existing_records: usize) -> Result<Journal, JournalError> {
        let file = io_ctx(
            "open",
            path,
            OpenOptions::new().append(true).open(path),
        )?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            records: existing_records,
            kill_after: None,
            sync_every: 1,
            unsynced: 0,
        })
    }

    /// Arm the kill test hook (counted over the journal's lifetime
    /// record count, header included).
    pub fn kill_after(&mut self, records: usize) {
        self.kill_after = Some(records);
    }

    /// Append one record (write + flush + data sync).
    ///
    /// # Errors
    /// I/O failures, or [`JournalError::Killed`] if the kill hook fired.
    pub fn append(&mut self, rec: &Json) -> Result<(), JournalError> {
        if let Some(k) = self.kill_after {
            if self.records >= k {
                return Err(JournalError::Killed);
            }
        }
        let line = encode_line(rec);
        io_ctx("append", &self.path, self.file.write_all(line.as_bytes()))?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            io_ctx("sync", &self.path, self.file.sync_data())?;
            self.unsynced = 0;
        }
        self.records += 1;
        Ok(())
    }

    /// Change the fsync cadence (see the `sync_every` field). A value of
    /// 0 is treated as 1.
    pub fn set_sync_every(&mut self, every: usize) {
        self.sync_every = every.max(1);
    }

    /// Force any batched appends to disk now.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.unsynced > 0 {
            io_ctx("sync", &self.path, self.file.sync_data())?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Records written over the journal's lifetime (header included).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Valid records, header first.
    pub records: Vec<Json>,
    /// Corrupt tail lines dropped during recovery.
    pub dropped: usize,
    /// Whether the on-disk file was rewritten to the valid prefix.
    pub repaired: bool,
}

/// Load a journal, verifying every record's checksum. The first invalid
/// record and everything after it are dropped (append-only corruption is
/// always a tail), and the file is rewritten to the surviving prefix via
/// tmp + rename so subsequent appends land after valid data.
///
/// # Errors
/// I/O failures, or [`JournalError::MissingHeader`] when not even the
/// header survives.
pub fn load(path: &Path) -> Result<LoadedJournal, JournalError> {
    let mut text = String::new();
    {
        let mut f = io_ctx("open", path, File::open(path))?;
        io_ctx("read", path, f.read_to_string(&mut text))?;
    }
    let mut records = Vec::new();
    let mut good_bytes = 0usize;
    let mut dropped = 0usize;
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        let complete = line.ends_with('\n');
        match (complete, decode_line(line)) {
            (true, Some(rec)) if dropped == 0 => {
                records.push(rec);
                good_bytes = offset + line.len();
            }
            _ => dropped += 1,
        }
        offset += line.len();
    }
    if records.is_empty() {
        return Err(JournalError::MissingHeader(path.to_path_buf()));
    }
    let repaired = good_bytes < text.len();
    if repaired {
        let tmp = tmp_path(path);
        {
            let mut f = io_ctx("create", &tmp, File::create(&tmp))?;
            io_ctx("write", &tmp, f.write_all(&text.as_bytes()[..good_bytes]))?;
            io_ctx("sync", &tmp, f.sync_all())?;
        }
        io_ctx("rename", path, fs::rename(&tmp, path))?;
        sync_parent_dir(path)?;
    }
    Ok(LoadedJournal {
        records,
        dropped,
        repaired,
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "needle-journal-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(i: i64) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("unit".into())),
            ("n".into(), Json::Int(i)),
            ("f".into(), Json::Float(0.1 + i as f64)),
        ])
    }

    #[test]
    fn json_roundtrips() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\\".into())),
            ("i".into(), Json::Int(-42)),
            ("f".into(), Json::Float(0.30000000000000004)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::Str("é⊕".into())]),
            ),
            ("o".into(), Json::Obj(vec![("k".into(), Json::Int(7))])),
        ]);
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,", "\"unterminated", "12 34", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn append_and_load_roundtrip() {
        let p = tdir("roundtrip").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        for i in 1..5 {
            j.append(&rec(i)).unwrap();
        }
        let l = load(&p).unwrap();
        assert_eq!(l.records.len(), 5);
        assert_eq!(l.dropped, 0);
        assert!(!l.repaired);
        assert_eq!(l.records[3], rec(3));
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let p = tdir("torn").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        for i in 1..4 {
            j.append(&rec(i)).unwrap();
        }
        drop(j);
        // Tear the last record in half (no trailing newline).
        let text = fs::read_to_string(&p).unwrap();
        let keep = text.len() - 10;
        fs::write(&p, &text[..keep]).unwrap();
        let l = load(&p).unwrap();
        assert_eq!(l.records.len(), 3);
        assert_eq!(l.dropped, 1);
        assert!(l.repaired);
        // The repaired file loads clean.
        let l2 = load(&p).unwrap();
        assert_eq!(l2.records.len(), 3);
        assert!(!l2.repaired);
    }

    #[test]
    fn bad_checksum_drops_the_tail_only() {
        let p = tdir("crc").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        for i in 1..4 {
            j.append(&rec(i)).unwrap();
        }
        drop(j);
        let text = fs::read_to_string(&p).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Flip a payload byte of record 2 without touching its crc.
        lines[2] = lines[2].replace("\"n\":2", "\"n\":9");
        fs::write(&p, lines.join("\n") + "\n").unwrap();
        let l = load(&p).unwrap();
        // Records 0 and 1 survive; 2 (bad crc) and 3 (after it) drop.
        assert_eq!(l.records.len(), 2);
        assert_eq!(l.dropped, 2);
        assert!(l.repaired);
    }

    #[test]
    fn kill_hook_fails_the_append_without_writing() {
        let p = tdir("kill").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        j.kill_after(2);
        j.append(&rec(1)).unwrap();
        let err = j.append(&rec(2)).unwrap_err();
        assert!(matches!(err, JournalError::Killed));
        drop(j);
        assert_eq!(load(&p).unwrap().records.len(), 2);
    }

    #[test]
    fn repair_after_corruption_still_recovers_longest_valid_prefix() {
        // Satellite check: the durability changes (pre-rename fsync +
        // parent-dir sync) must not change repair semantics. Corrupt a
        // middle record AND tear the tail; repair keeps exactly the
        // longest valid prefix and the repaired file stays appendable.
        let p = tdir("repair-prefix").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        for i in 1..6 {
            j.append(&rec(i)).unwrap();
        }
        drop(j);
        let text = fs::read_to_string(&p).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Record 3 gets a payload flip (crc mismatch) and the last line
        // is torn mid-record.
        lines[3] = lines[3].replace("\"n\":3", "\"n\":8");
        let last = lines.pop().unwrap();
        lines.push(last[..last.len() / 2].to_string());
        fs::write(&p, lines.join("\n") + "\n").unwrap();
        let l = load(&p).unwrap();
        assert_eq!(l.records.len(), 3, "prefix is records 0..=2");
        assert_eq!(l.records[2], rec(2));
        assert!(l.repaired);
        // Appends after repair land after valid data.
        let mut j = Journal::reopen(&p, l.records.len()).unwrap();
        j.append(&rec(10)).unwrap();
        drop(j);
        let l2 = load(&p).unwrap();
        assert!(!l2.repaired);
        assert_eq!(l2.records.len(), 4);
        assert_eq!(l2.records[3], rec(10));
    }

    #[test]
    fn batched_sync_writes_every_record() {
        // sync_every batches fsyncs, not writes: every appended record
        // must still be present on disk after drop without an explicit
        // sync() call.
        let p = tdir("batched").join("j.jsonl");
        let mut j = Journal::create(&p, &rec(0)).unwrap();
        j.set_sync_every(16);
        for i in 1..40 {
            j.append(&rec(i)).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        let l = load(&p).unwrap();
        assert_eq!(l.records.len(), 40);
        assert_eq!(l.dropped, 0);
    }

    #[test]
    fn empty_or_headerless_journal_is_an_error() {
        let d = tdir("empty");
        let p = d.join("j.jsonl");
        fs::write(&p, "").unwrap();
        assert!(matches!(
            load(&p),
            Err(JournalError::MissingHeader(_))
        ));
        fs::write(&p, "not a journal\n").unwrap();
        assert!(matches!(
            load(&p),
            Err(JournalError::MissingHeader(_))
        ));
    }
}
