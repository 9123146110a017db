//! Data sketches for tabular data (paper §III-A).
//!
//! Three sketch families are produced for every table:
//!
//! * a table-level **content snapshot**: a MinHash signature over the set of
//!   stringified rows (first 10,000 rows);
//! * per-column **MinHash sketches**: a signature over the set of rendered
//!   cell values, and — for string columns — a second signature over the set
//!   of *words* occurring in the column (so `street` appearing in two
//!   address-like columns makes them similar even without value overlap);
//! * per-column **numerical sketches**: `[unique_frac, nan_frac,
//!   cell_width, p10..p90, mean, std, min, max]`.
//!
//! All hashing is stable (see [`tsfm_table::hash`]) so sketches are
//! reproducible across runs.

#![forbid(unsafe_code)]

pub mod content;
pub mod minhash;
pub mod numeric;
pub mod table_sketch;

pub use content::content_snapshot;
pub use minhash::{MinHash, MinHasher};
pub use numeric::NumericalSketch;
pub use table_sketch::{ColumnSketch, SketchConfig, TableSketch};

use tsfm_table::hash::{hash_str, ByteHasher};

/// Split a string into lowercase word tokens (alphanumeric runs), the
/// element set of the word-level MinHash.
pub fn words_of(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
}

/// Visit the word tokens of [`words_of`] without allocating a `String`
/// per word: ASCII words (the overwhelming majority in real lakes) are
/// lowercased in a reused buffer; anything else falls back to
/// `str::to_lowercase`, so the visited strings are byte-identical to
/// `words_of` in every case (including special casings like final sigma
/// that `char`-wise lowercasing would get wrong).
pub fn for_each_word(s: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for w in s.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
        if w.is_ascii() {
            buf.clear();
            buf.push_str(w);
            buf.make_ascii_lowercase();
            f(buf);
        } else {
            f(&w.to_lowercase());
        }
    }
}

/// Visit the hash of every word token of [`words_of`], in order: each
/// call gets `hash_str(w)` for the next word `w`. An ASCII string (the
/// common case) is split, lowercased and hashed byte by byte with no
/// buffer at all; anything else goes through [`for_each_word`], so the
/// hashes are those of `words_of`' output in every case.
pub fn for_each_word_hash(s: &str, buf: &mut String, mut f: impl FnMut(u64)) {
    if !s.is_ascii() {
        for_each_word(s, buf, |w| f(hash_str(w)));
        return;
    }
    // For ASCII, `char::is_alphanumeric` is `u8::is_ascii_alphanumeric`.
    let mut word: Option<ByteHasher> = None;
    for &b in s.as_bytes() {
        if b.is_ascii_alphanumeric() {
            word.get_or_insert_with(ByteHasher::new).write_u8(b.to_ascii_lowercase());
        } else if let Some(h) = word.take() {
            f(h.finish());
        }
    }
    if let Some(h) = word {
        f(h.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_splitting() {
        let ws: Vec<String> = words_of("Austria Vienna").collect();
        assert_eq!(ws, vec!["austria", "vienna"]);
        let ws: Vec<String> = words_of("12 High-Street, apt. 4B").collect();
        assert_eq!(ws, vec!["12", "high", "street", "apt", "4b"]);
        assert_eq!(words_of("  ").count(), 0);
    }

    #[test]
    fn for_each_word_matches_words_of() {
        // Including non-ASCII and the Greek final-sigma special casing,
        // where char-wise lowercasing would diverge from str::to_lowercase.
        for s in ["Austria Vienna", "12 High-Street, apt. 4B", "  ", "ÓBUDA Straße ΟΔΟΣ x"] {
            let expect: Vec<String> = words_of(s).collect();
            let mut got = Vec::new();
            let mut buf = String::new();
            for_each_word(s, &mut buf, |w| got.push(w.to_string()));
            assert_eq!(got, expect, "input {s:?}");
        }
    }

    #[test]
    fn for_each_word_hash_matches_words_of() {
        for s in [
            "Austria Vienna",
            "Main-Street 12, APT.4b",
            "",
            " ,;",
            "trailing word",
            "x",
            "ÓBUDA Straße ΟΔΟΣ x",
        ] {
            let expect: Vec<u64> = words_of(s).map(|w| hash_str(&w)).collect();
            let mut got = Vec::new();
            for_each_word_hash(s, &mut String::new(), |h| got.push(h));
            assert_eq!(got, expect, "input {s:?}");
        }
    }
}
