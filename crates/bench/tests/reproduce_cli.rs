//! The `reproduce` binary's argument handling, checked by spawning it.

use std::process::{Command, Output};

use dandelion_common::encoding::utf8_lossy;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce spawns")
}

#[test]
fn list_prints_the_twelve_paper_experiments() {
    let output = reproduce(&["--list"]);
    assert!(output.status.success());
    let stdout = utf8_lossy(&output.stdout);
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        names,
        [
            "fig1", "fig2", "table1", "fig5", "fig6", "fig7a", "fig7", "fig8", "fig9", "text2sql",
            "fig10", "security"
        ]
    );
}

/// A flag the binary does not know is an error, not a silent run of every
/// experiment — `--save` and the five repo-only names are gone with what
/// they selected.
#[test]
fn unknown_flags_and_names_exit_2_with_a_message() {
    for args in [
        &["--save", "fig5"][..],
        &["--bogus"],
        &["--list", "--typo"],
        &["network"],
    ] {
        let output = reproduce(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} ran something");
        let message = utf8_lossy(&output.stderr);
        assert!(message.contains("unknown"), "{args:?}: {message}");
    }
}
