//! Shared access to the committed golden fixtures under `tests/golden`.

use std::fs;
use std::path::PathBuf;

/// How the E16/E17 smoke fixtures were recorded. They must come from the
/// pre-chaos engine, never from the code under test.
const FIXTURE_RECIPE: &str = "build `exp` at commit b3d5949 (the async core, before the chaos \
     layer), run `exp run async-flooding async-raes-load --smoke`, and copy the two \
     `*.smoke.jsonl` files into crates/bench/tests/golden/";

/// Reads the golden fixture `name`, panicking with the file path and the
/// regeneration recipe when it is missing or unreadable.
pub fn read_golden_fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read(&path).unwrap_or_else(|err| {
        panic!(
            "golden fixture {} is unreadable ({err}); regenerate it: {FIXTURE_RECIPE}",
            path.display()
        )
    })
}
