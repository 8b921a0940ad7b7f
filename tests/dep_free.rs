//! The workspace builds with no network: every package in `Cargo.lock`
//! is a path member, so none carries a `source =` (registry or git) line.
//! This also keeps out ambient-entropy crates (`rand`'s `thread_rng` and
//! `OsRng`, `getrandom`), which the `disallowed-*` lists in `clippy.toml`
//! cannot name without the dependency they would forbid.

#[test]
fn cargo_lock_has_only_path_packages() {
    let lock = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock"))
        .expect("read the workspace Cargo.lock");
    let mut package = "";
    let mut fetched = Vec::new();
    for line in lock.lines() {
        if let Some(name) = line.strip_prefix("name = ") {
            package = name;
        } else if line.starts_with("source = ") {
            fetched.push(format!("{package}: {line}"));
        }
    }
    assert!(
        fetched.is_empty(),
        "packages from outside the workspace (vendor them as a member, like crates/proptest): {fetched:?}"
    );
}
