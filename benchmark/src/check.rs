//! `check`: the benchmark's `[profile.release]` must equal the root
//! manifest's. The library is compiled under *this* package's profile, so
//! a drift between the two would measure a different program than the one
//! `cargo build --release` at the root produces.

use std::path::Path;

/// The settings of a manifest's `[profile.release]` table: its
/// `key = value` lines, comments and blank lines dropped, in order.
/// `None` when the manifest has no such table.
pub fn release_profile(manifest: &str) -> Option<Vec<String>> {
    let mut lines = manifest.lines().skip_while(|l| l.trim() != "[profile.release]");
    lines.next()?;
    Some(
        lines
            .map(str::trim)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect(),
    )
}

/// Compare this package's release profile with the root manifest's.
pub fn profiles_match() -> Result<(), String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let ours = release_profile(&read(&here.join("Cargo.toml"))?);
    let root = release_profile(&read(&here.join("../Cargo.toml"))?);
    if ours == root {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, the root manifest has \
             {root:?}; copy the root's table verbatim"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_the_table_and_stops_at_the_next_header() {
        let m = "[package]\nname = \"x\"\n\n# note\n[profile.release]\n# why\ndebug = true\n\nlto = \"fat\"\n[lints]\nworkspace = true\n";
        assert_eq!(
            release_profile(m),
            Some(vec!["debug = true".to_string(), "lto = \"fat\"".to_string()])
        );
        assert_eq!(release_profile("[package]\nname = \"x\"\n"), None);
    }

    #[test]
    fn the_committed_manifests_agree() {
        profiles_match().unwrap();
    }
}
