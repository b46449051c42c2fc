//! The golden-file check every `BENCH_<name>.json` test shares.

use std::path::Path;

/// Writes the fresh report `json` to `$CARGO_TARGET_TMPDIR/BENCH_<name>.json`
/// and panics unless it equals the committed `BENCH_<name>.json` at the
/// workspace root byte for byte. The failure names the report, the first
/// differing line and the fresh file, so accepting an intended change is
/// one `cp` of the fresh file over the committed one.
pub fn assert_golden(name: &str, json: &str) {
    let file = format!("BENCH_{name}.json");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(&file);
    std::fs::write(&fresh, json).unwrap_or_else(|e| panic!("writing {}: {e}", fresh.display()));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let committed = root.join(&file);
    let golden = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("reading {}: {e}", committed.display()));
    if golden == json {
        return;
    }
    let mut want = golden.split_inclusive('\n');
    let mut got = json.split_inclusive('\n');
    let (line, want, got) = (1..)
        .map(|n| (n, want.next(), got.next()))
        .find(|(_, w, g)| w != g)
        .expect("unequal reports differ in some line");
    let (fresh, committed) = (fresh.display(), committed.display());
    panic!(
        "{file}: the fresh report differs from the committed one at line {line}\n  \
         committed: {}\n  fresh:     {}\nfresh report: {fresh}\n\
         to accept an intended change: cp {fresh} {committed}",
        shown(want),
        shown(got),
    );
}

/// One report line as the failure shows it.
fn shown(line: Option<&str>) -> &str {
    line.map_or("<end of file>", |l| l.trim_end_matches('\n'))
}
