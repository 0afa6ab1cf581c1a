//! CHANGES.md is read entry by entry: its newest entry (the first, a `- `
//! line and the indented lines under it) stays at most ten lines of at most
//! 100 characters each, counted as `char`s.

/// The newest entry's lines.
fn newest_entry(changes: &str) -> Vec<&str> {
    let mut lines = changes.lines().skip_while(|line| !line.starts_with("- "));
    let first = lines.next().into_iter();
    first
        .chain(lines.take_while(|line| !line.starts_with("- ") && !line.trim().is_empty()))
        .collect()
}

#[test]
fn the_newest_changes_entry_is_at_most_ten_lines_of_at_most_100_characters() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CHANGES.md");
    let changes = std::fs::read_to_string(path).expect("CHANGES.md reads");
    let entry = newest_entry(&changes);
    assert!(!entry.is_empty(), "CHANGES.md has an entry");
    assert!(entry.len() <= 10, "the newest entry has {} lines:\n{}", entry.len(), entry.join("\n"));
    for line in entry {
        let chars = line.chars().count();
        assert!(chars <= 100, "a line of {chars} characters in the newest entry:\n{line}");
    }
}

#[test]
fn an_entry_ends_at_the_next_entry() {
    let changes = "- Second: two.\n  more.\n- First: one.\n";
    assert_eq!(newest_entry(changes), ["- Second: two.", "  more."]);
}
