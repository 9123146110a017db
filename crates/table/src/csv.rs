//! Dependency-free CSV reader/writer (RFC 4180 subset: quoted fields,
//! doubled-quote escapes, CR/LF/CRLF record separators).
//!
//! Reading is one byte scan that yields each field as a `Cow<str>`: a
//! field without a `"` is borrowed straight from the input text; only a
//! field that contains a quote is unescaped into bytes of its own. The
//! separators are ASCII, so every borrowed slice ends on a char boundary.
//!
//! Reading a CSV produces a [`Table`]: the first record is the header, types
//! are inferred per column with the paper's first-ten-values rule, and cells
//! are parsed as the inferred type (falling back to strings on mismatch).
//! The columns are built from the borrowed fields directly;
//! [`parse_records`] is an owned view of the same scan.

use crate::coltype::infer_type_from_text;
use crate::table::{Column, Table};
use crate::value::parse_as;
use std::borrow::Cow;
use std::io::{self, BufRead, Write};

/// Every field of a CSV text in reading order, with the record bounds:
/// record `i` is `fields[ends[i - 1]..ends[i]]` (`ends[-1]` being 0).
struct Records<'a> {
    fields: Vec<Cow<'a, str>>,
    ends: Vec<usize>,
}

impl<'a> Records<'a> {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn record(&self, i: usize) -> &[Cow<'a, str>] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.fields[start..self.ends[i]]
    }
}

/// One pass over `text`. A record ends at `\r\n`, `\r` or `\n` outside
/// quotes; the last record needs no terminator. At the end of the input a
/// pending field is kept only if it is non-empty or its record already
/// holds a field, so a text ending in a line break adds no empty record
/// (and neither does a trailing lone `""`).
fn scan(text: &str) -> Records<'_> {
    let b = text.as_bytes();
    let mut out = Records { fields: Vec::new(), ends: Vec::new() };
    let mut record_start = 0;
    let mut pos = 0;
    loop {
        let stop = field_stop(b, pos);
        let (field, end) = if b.get(stop) == Some(&b'"') {
            let (owned, end) = quoted_field(text, pos, stop);
            (Cow::Owned(owned), end)
        } else {
            (Cow::Borrowed(&text[pos..stop]), stop)
        };
        match b.get(end) {
            Some(b',') => {
                out.fields.push(field);
                pos = end + 1;
            }
            Some(&c) => {
                out.fields.push(field);
                out.ends.push(out.fields.len());
                record_start = out.fields.len();
                pos = end + 1;
                if c == b'\r' && b.get(pos) == Some(&b'\n') {
                    pos += 1;
                }
            }
            None => {
                if !field.is_empty() || out.fields.len() > record_start {
                    out.fields.push(field);
                    out.ends.push(out.fields.len());
                }
                return out;
            }
        }
    }
}

/// Offset of the first `,`, `\r`, `\n` or `"` at or after `pos`, or
/// `b.len()` if there is none.
fn field_stop(b: &[u8], pos: usize) -> usize {
    b[pos..]
        .iter()
        .position(|&c| matches!(c, b',' | b'\r' | b'\n' | b'"'))
        .map_or(b.len(), |n| pos + n)
}

/// The slow path for a field holding a `"` at byte `quote`: the quote
/// state machine from the field's start `start`. Inside quotes `""` is a
/// literal quote and separators are data; a quote may open anywhere in
/// the field, and an unclosed one runs to the end of the input. Returns
/// the unescaped field and the byte offset of its terminator (a `,`,
/// `\r`, `\n`, or `text.len()`).
fn quoted_field(text: &str, start: usize, quote: usize) -> (String, usize) {
    let b = text.as_bytes();
    let mut field = String::from(&text[start..quote]);
    let mut pos = quote + 1;
    loop {
        // Inside quotes: copy up to the next quote.
        let Some(q) = b[pos..].iter().position(|&c| c == b'"').map(|n| pos + n) else {
            field.push_str(&text[pos..]);
            return (field, b.len());
        };
        field.push_str(&text[pos..q]);
        if b.get(q + 1) == Some(&b'"') {
            field.push('"');
            pos = q + 2;
            continue;
        }
        // Outside quotes: copy up to a separator, or re-open at a quote.
        pos = q + 1;
        let stop = field_stop(b, pos);
        field.push_str(&text[pos..stop]);
        if b.get(stop) != Some(&b'"') {
            return (field, stop);
        }
        pos = stop + 1;
    }
}

/// Parse CSV text into raw string records.
pub fn parse_records(text: &str) -> Vec<Vec<String>> {
    let records = scan(text);
    (0..records.len())
        .map(|i| records.record(i).iter().map(|f| f.as_ref().to_owned()).collect())
        .collect()
}

/// Read a table from CSV text. The first record is the header row.
pub fn table_from_csv(id: &str, name: &str, text: &str) -> Table {
    let records = scan(text);
    let mut table = Table::new(id, name);
    if records.ends.is_empty() {
        return table;
    }
    let header = records.record(0);
    for (ci, col_name) in header.iter().enumerate() {
        let cells =
            (1..records.len()).map(|r| records.record(r).get(ci).map_or("", |c| c.as_ref()));
        let ty = infer_type_from_text(cells.clone());
        let values = cells.map(|c| parse_as(c, ty)).collect();
        table.push_column(Column::with_type(col_name.as_ref(), ty, values));
    }
    debug_assert_eq!(table.num_cols(), header.len());
    table
}

/// Read a table from any `BufRead` source.
pub fn table_from_reader<R: BufRead>(id: &str, name: &str, mut r: R) -> io::Result<Table> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    Ok(table_from_csv(id, name, &text))
}

fn needs_quoting(s: &str) -> bool {
    s.contains([',', '"', '\n', '\r'])
}

/// Serialize a table to CSV text.
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    for (i, c) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, &c.name);
    }
    out.push('\n');
    for r in 0..table.num_rows() {
        for (ci, _) in table.columns.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            push_field(&mut out, &table.cell(r, ci).render());
        }
        out.push('\n');
    }
    out
}

fn push_field(out: &mut String, s: &str) {
    if needs_quoting(s) {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Write a table as CSV to an `io::Write` sink (buffered writes recommended).
pub fn write_csv<W: Write>(table: &Table, w: &mut W) -> io::Result<()> {
    w.write_all(table_to_csv(table).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColType, Value};
    use proptest::prelude::*;

    /// The char-at-a-time state machine the byte scan replaced, kept as
    /// the reference the scan is checked against.
    fn reference_records(text: &str) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = text.chars().peekable();
        let mut any = false;

        while let Some(c) = chars.next() {
            any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => record.push(std::mem::take(&mut field)),
                    '\r' => {
                        if chars.peek() == Some(&'\n') {
                            chars.next();
                        }
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    _ => field.push(c),
                }
            }
        }
        if any && (!field.is_empty() || !record.is_empty()) {
            record.push(field);
            records.push(record);
        }
        records
    }

    /// The columns `table_from_csv` built from owned reference records:
    /// `(name, type, values)` per header field.
    fn reference_columns(text: &str) -> Vec<(String, ColType, Vec<Value>)> {
        let mut records = reference_records(text);
        if records.is_empty() {
            return Vec::new();
        }
        let header = records.remove(0);
        header
            .into_iter()
            .enumerate()
            .map(|(ci, name)| {
                let cells = records.iter().map(|r| r.get(ci).map_or("", String::as_str));
                let ty = infer_type_from_text(cells.clone());
                (name, ty, cells.map(|c| parse_as(c, ty)).collect())
            })
            .collect()
    }

    fn columns_of(t: &Table) -> Vec<(String, ColType, Vec<Value>)> {
        t.columns.iter().map(|c| (c.name.clone(), c.ty, c.values.clone())).collect()
    }

    /// Records and columns both agree with the reference on `text`.
    fn assert_matches_reference(text: &str) {
        assert_eq!(parse_records(text), reference_records(text), "records of {text:?}");
        let t = table_from_csv("t", "t", text);
        assert_eq!(columns_of(&t), reference_columns(text), "columns of {text:?}");
    }

    #[test]
    fn scan_matches_reference_on_edge_cases() {
        for text in [
            "\"\"",
            "a\n\"\"",
            "a,",
            "a,b\n1,",
            "\r",
            "a\rb",
            "ab\"c,d\"e",
            "a,b,c\n1\n2,3,4,5\n\n6,7\n",
            "\"",
            "\"unclosed,\nfield",
            "x\n\"\"\"\"",
            "x\n\"a\"\"\"",
            "h\r\n\"q\"\r\n",
            "n,v\n\"1,234\",5\n\"\",\"\"\n",
            "é,\"ü\"\"ß\"\n日本,\"語\"x\n",
        ] {
            assert_matches_reference(text);
        }
        // The named cases, spelled out.
        assert!(parse_records("\"\"").is_empty(), "a lone \"\" is no record");
        assert_eq!(parse_records("a\n\"\""), vec![vec!["a"]]);
        assert_eq!(parse_records("a,"), vec![vec!["a", ""]]);
        assert_eq!(parse_records("\r"), vec![vec![""]]);
        assert_eq!(parse_records("ab\"c,d\"e"), vec![vec!["abc,de"]]);
        let t = table_from_csv("t", "t", "a,b,c\n1\n2,3,4,5\n");
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.cell(0, 1), &Value::Null);
        assert_eq!(t.cell(1, 2), &Value::Int(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// Over an alphabet weighted toward the separators and the quote,
        /// with one multi-byte char, the byte scan gives the same records
        /// and the same typed columns as the reference state machine.
        #[test]
        fn prop_scan_matches_reference(text in "[,,,,\"\"\"\"\r\r\n\n\nab1 é]{0,48}") {
            prop_assert_eq!(parse_records(&text), reference_records(&text));
            let t = table_from_csv("t", "t", &text);
            prop_assert_eq!(columns_of(&t), reference_columns(&text));
        }
    }

    #[test]
    fn parses_simple() {
        let recs = parse_records("a,b\n1,2\n3,4\n");
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn parses_quotes_and_newlines() {
        let recs = parse_records("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",2\n");
        assert_eq!(recs[1], vec!["x,y", "he said \"hi\""]);
        assert_eq!(recs[2], vec!["multi\nline", "2"]);
    }

    #[test]
    fn handles_crlf_and_missing_final_newline() {
        let recs = parse_records("a,b\r\n1,2");
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn empty_input() {
        assert!(parse_records("").is_empty());
    }

    #[test]
    fn typed_table() {
        let t = table_from_csv(
            "t",
            "t",
            "city,pop,rate,since\nvienna,1900000,0.5,2001-01-01\ngraz,290000,0.25,1999-06-30\n",
        );
        assert_eq!(t.column(0).ty, ColType::Str);
        assert_eq!(t.column(1).ty, ColType::Int);
        assert_eq!(t.column(2).ty, ColType::Float);
        assert_eq!(t.column(3).ty, ColType::Date);
        assert_eq!(t.cell(0, 1), &Value::Int(1900000));
        assert!(matches!(t.cell(1, 3), Value::Date(_)));
    }

    #[test]
    fn nulls_parse_as_null() {
        let t = table_from_csv("t", "t", "x\n1\n\n3\nnan\n");
        assert_eq!(t.column(0).ty, ColType::Int);
        assert_eq!(t.column(0).null_count(), 2);
    }

    #[test]
    fn roundtrip() {
        let src = "name,note\nann,\"likes, commas\"\nbob,\"quote \"\" inside\"\n";
        let t = table_from_csv("t", "t", src);
        let out = table_to_csv(&t);
        let t2 = table_from_csv("t", "t", &out);
        assert_eq!(t2.cell(0, 1), &Value::Str("likes, commas".into()));
        assert_eq!(t2.cell(1, 1), &Value::Str("quote \" inside".into()));
    }

    #[test]
    fn write_csv_matches_to_csv() {
        let t = table_from_csv("t", "t", "a,b\n1,x\n");
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), table_to_csv(&t));
    }

    #[test]
    fn ragged_records_tolerated() {
        let t = table_from_csv("t", "t", "a,b\n1\n2,3\n");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 1), &Value::Null);
    }
}
