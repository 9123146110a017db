//! The rule registry and every rule's implementation.
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `no-unwrap-in-lib` | no `.unwrap()` / `.expect()` / `panic!` family in non-test library code of `store`/`sketch`/`search`/`obs` |
//! | `unsafe-needs-safety-comment` | every `unsafe` token carries a `// SAFETY:` comment within the 3 lines above |
//! | `no-spawn-outside-pool` | `std::thread::spawn` only in the serve worker pool and the CLI manifest watcher |
//! | `wire-error-taxonomy-coverage` | every `StoreError` variant has a serialization arm in `wire.rs::error_json` |
//! | `format-magic-once` | all `TSFM*` magic byte-strings of a crate are defined in exactly one module |
//! | `durable-write-required` | no raw `File::create` / `fs::write` in `tsfm_store` library code outside the `durable` module |
//! | `suppression-needs-justification` | every `tsfm_lint: allow(…)` names a known rule and carries a non-empty justification |
//!
//! Suppress a finding with a comment on the same line or the line above:
//!
//! ```text
//! // tsfm_lint: allow(no-unwrap-in-lib, "why this site cannot fail")
//! ```

use crate::analysis::FileAnalysis;

pub const NO_UNWRAP: &str = "no-unwrap-in-lib";
pub const UNSAFE_COMMENT: &str = "unsafe-needs-safety-comment";
pub const NO_SPAWN: &str = "no-spawn-outside-pool";
pub const WIRE_COVERAGE: &str = "wire-error-taxonomy-coverage";
pub const MAGIC_ONCE: &str = "format-magic-once";
pub const DURABLE_WRITE: &str = "durable-write-required";
pub const SUPPRESSION: &str = "suppression-needs-justification";

/// Name + one-line summary, surfaced by `--list-rules` and the README.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: NO_UNWRAP,
        summary: "no .unwrap()/.expect()/panic! family in non-test library code of store/sketch/search/obs",
    },
    RuleInfo {
        name: UNSAFE_COMMENT,
        summary: "every `unsafe` carries a `// SAFETY:` comment within the 3 lines above",
    },
    RuleInfo {
        name: NO_SPAWN,
        summary: "std::thread::spawn only in store::serve::pool and the CLI watcher",
    },
    RuleInfo {
        name: WIRE_COVERAGE,
        summary: "every StoreError variant has a serialization arm in wire.rs error_json",
    },
    RuleInfo {
        name: MAGIC_ONCE,
        summary: "all TSFM* magic byte-strings of a crate live in exactly one module",
    },
    RuleInfo {
        name: DURABLE_WRITE,
        summary: "no raw File::create / fs::write in tsfm_store library code outside durable",
    },
    RuleInfo {
        name: SUPPRESSION,
        summary: "every tsfm_lint allow() names a known rule and justifies itself",
    },
];

pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub message: String,
}

/// Crates whose `src/` trees are panic-audited. The serve frontend is
/// `crates/store/src/serve/`, so it is covered by the store entry.
const PANIC_AUDITED: &[&str] =
    &["crates/store/src/", "crates/sketch/src/", "crates/search/src/", "crates/obs/src/"];

/// The only files allowed to call `std::thread::spawn`: the bounded
/// serve worker pool and the CLI's manifest-watcher thread.
const SPAWN_ALLOWED: &[&str] = &["crates/store/src/serve/pool.rs", "src/bin/tsfm.rs"];

/// `no-unwrap-in-lib`: panic surfaces in audited library code.
pub fn no_unwrap_in_lib(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if !PANIC_AUDITED.iter().any(|p| fa.rel.starts_with(p)) {
        return;
    }
    const PATTERNS: &[(&str, bool, &str)] = &[
        (".unwrap(", false, ".unwrap()"),
        (".expect(", false, ".expect()"),
        ("panic!", true, "panic!"),
        ("unreachable!", true, "unreachable!"),
        ("todo!", true, "todo!"),
        ("unimplemented!", true, "unimplemented!"),
    ];
    for &(needle, word_start, label) in PATTERNS {
        for at in fa.code_hits(needle, word_start) {
            out.push(Finding {
                rule: NO_UNWRAP,
                file: fa.rel.clone(),
                line: fa.line_of(at),
                message: format!(
                    "{label} in library code: return a typed error, use a poison-tolerant \
                     lock helper, or justify with an allow comment"
                ),
            });
        }
    }
}

/// `unsafe-needs-safety-comment`: a `// SAFETY:` comment must sit within
/// the 3 lines above (or on) each `unsafe` token.
pub fn unsafe_needs_safety_comment(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for at in fa.code_hits("unsafe", true) {
        // Word-end boundary: `unsafe_code` (the forbid attribute) is not
        // the `unsafe` keyword.
        let end = at + "unsafe".len();
        if fa.code.as_bytes().get(end).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        let line = fa.line_of(at);
        if !fa.comment_nearby(line, "SAFETY:", 3) {
            out.push(Finding {
                rule: UNSAFE_COMMENT,
                file: fa.rel.clone(),
                line,
                message: "unsafe without a `// SAFETY:` comment in the 3 lines above".to_string(),
            });
        }
    }
}

/// `no-spawn-outside-pool`: unbounded thread creation is confined to the
/// pool (which bounds and reuses workers) and the CLI watcher.
pub fn no_spawn_outside_pool(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if SPAWN_ALLOWED.contains(&fa.rel.as_str()) {
        return;
    }
    for at in fa.code_hits("thread::spawn", true) {
        out.push(Finding {
            rule: NO_SPAWN,
            file: fa.rel.clone(),
            line: fa.line_of(at),
            message: "std::thread::spawn outside the serve worker pool: route work through \
                      serve::pool (bounded, panic-contained) or a scoped thread"
                .to_string(),
        });
    }
}

/// Store library paths whose writes must go through the durable commit
/// protocol, and the one module allowed to hold the raw primitives.
const DURABLE_SCOPE: &str = "crates/store/src/";
const DURABLE_MODULE: &str = "crates/store/src/durable.rs";

/// `durable-write-required`: raw write primitives in `tsfm_store` library
/// code. Everything the store persists must go through
/// `durable::commit_file` (tmp + fsync + rename + directory sync) so a
/// crash can never leave a torn file behind; `File::create` and
/// `fs::write` outside the `durable` module bypass that protocol.
pub fn durable_write_required(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if !fa.rel.starts_with(DURABLE_SCOPE) || fa.rel == DURABLE_MODULE {
        return;
    }
    const PATTERNS: &[(&str, &str)] = &[("File::create", "File::create"), ("fs::write", "fs::write")];
    for &(needle, label) in PATTERNS {
        for at in fa.code_hits(needle, true) {
            out.push(Finding {
                rule: DURABLE_WRITE,
                file: fa.rel.clone(),
                line: fa.line_of(at),
                message: format!(
                    "{label} in store library code bypasses the durable commit protocol: \
                     write through durable::commit_file, or justify \
                     with an allow comment"
                ),
            });
        }
    }
}

/// `suppression-needs-justification`: allows must name a known rule and
/// carry a non-empty quoted justification.
pub fn suppression_needs_justification(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for allow in &fa.allows {
        if !RULES.iter().any(|r| r.name == allow.rule) {
            out.push(Finding {
                rule: SUPPRESSION,
                file: fa.rel.clone(),
                line: allow.line,
                message: format!("allow names unknown rule {:?}", allow.rule),
            });
        } else if allow.justification.is_none() {
            out.push(Finding {
                rule: SUPPRESSION,
                file: fa.rel.clone(),
                line: allow.line,
                message: format!(
                    "bare allow({}) without a justification: write \
                     `tsfm_lint: allow({}, \"why\")`",
                    allow.rule, allow.rule
                ),
            });
        }
    }
}

/// `wire-error-taxonomy-coverage`: cross-file — every variant of
/// `pub enum StoreError` must appear as `StoreError::Variant` in the file
/// defining `fn error_json`.
pub fn wire_error_taxonomy_coverage(analyses: &[FileAnalysis], out: &mut Vec<Finding>) {
    let Some((enum_fa, variants)) = analyses.iter().find_map(|fa| {
        fa.code.find("enum StoreError").map(|at| (fa, enum_variants(&fa.code, at)))
    }) else {
        return; // no StoreError in this tree: rule does not apply
    };
    let Some(wire_fa) = analyses.iter().find(|fa| fa.code.contains("fn error_json")) else {
        out.push(Finding {
            rule: WIRE_COVERAGE,
            file: enum_fa.rel.clone(),
            line: 1,
            message: "StoreError is defined but no `fn error_json` serializer exists".to_string(),
        });
        return;
    };
    let anchor = wire_fa.code.find("fn error_json").map_or(1, |at| wire_fa.line_of(at));
    for v in variants {
        if !wire_fa.code.contains(&format!("StoreError::{v}")) {
            out.push(Finding {
                rule: WIRE_COVERAGE,
                file: wire_fa.rel.clone(),
                line: anchor,
                message: format!(
                    "StoreError::{v} has no serialization arm in error_json — every taxonomy \
                     variant must reach the wire"
                ),
            });
        }
    }
}

/// Extract variant names from the enum whose `enum` keyword starts at
/// `start` in the code view. Payloads and attributes are skipped by
/// bracket depth; variants are the depth-1 identifiers.
fn enum_variants(code: &str, start: usize) -> Vec<String> {
    let b = code.as_bytes();
    let Some(open) = code[start..].find('{').map(|o| start + o) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut expecting = true;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' | b'(' | b'[' => {
                depth += 1;
                if depth > 1 {
                    expecting = false;
                }
            }
            b'}' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 => expecting = true,
            c if depth == 1 && expecting && c.is_ascii_uppercase() => {
                let len = b[i..]
                    .iter()
                    .take_while(|&&c| c.is_ascii_alphanumeric() || c == b'_')
                    .count();
                out.push(code[i..i + len].to_string());
                expecting = false;
                i += len;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// `format-magic-once`: collect every `"TSFM…"`-shaped literal definition
/// in non-test `src/` code, grouped by crate; a crate defining magics in
/// more than one file gets a finding on each stray definition.
pub fn format_magic_once(analyses: &[FileAnalysis], out: &mut Vec<Finding>) {
    // (crate, file, line, magic)
    let mut defs: Vec<(String, String, usize, String)> = Vec::new();
    for fa in analyses {
        if !(fa.rel.contains("/src/") || fa.rel.starts_with("src/")) {
            continue;
        }
        let mut from = 0usize;
        // Only byte-string literals count as definitions: magics live on
        // disk as `b"TSFM...."`. Plain `"TSFM..."` str literals are format
        // *names* in error messages, not duplicate definitions.
        while let Some(off) = fa.literals[from..].find("b\"TSFM") {
            let at = from + off;
            from = at + 1;
            let content_start = at + 2;
            let Some(close) = fa.literals[content_start..].find('"') else {
                continue;
            };
            let magic = &fa.literals[content_start..content_start + close];
            let well_formed = magic.len() == 8
                && magic[4..].bytes().all(|b| b.is_ascii_uppercase() || b.is_ascii_digit());
            if !well_formed || fa.in_test(at) {
                continue;
            }
            let crate_key = fa
                .rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .map_or_else(|| "root".to_string(), |c| format!("crates/{c}"));
            defs.push((crate_key, fa.rel.clone(), fa.line_of(at), magic.to_string()));
        }
    }
    let mut crates: Vec<&str> = defs.iter().map(|(c, ..)| c.as_str()).collect();
    crates.sort_unstable();
    crates.dedup();
    for ck in crates {
        let mut files: Vec<&str> =
            defs.iter().filter(|(c, ..)| c == ck).map(|(_, f, ..)| f.as_str()).collect();
        files.sort_unstable();
        files.dedup();
        if files.len() <= 1 {
            continue;
        }
        // Canonical module: the file with the most definitions (ties:
        // lexicographically first) keeps them; every other file is flagged.
        let mut ranked: Vec<(usize, &str)> = files
            .iter()
            .map(|&f| (defs.iter().filter(|(_, df, ..)| df == f).count(), f))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        let canonical = ranked[0].1;
        for (_, file, line, magic) in defs.iter().filter(|(c, f, ..)| c == ck && f != canonical) {
            out.push(Finding {
                rule: MAGIC_ONCE,
                file: file.clone(),
                line: *line,
                message: format!(
                    "magic {magic:?} defined outside {canonical}, the crate's single \
                     format-magic module"
                ),
            });
        }
    }
}
