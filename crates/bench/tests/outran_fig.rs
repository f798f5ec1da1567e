//! `outran-fig` as CI drives it: exit codes, and what `--check` names.
//! Only the three figures that simulate nothing are run (a debug build
//! is fast enough for those); the `figures` CI job runs them all.

const CHEAP: [&str; 3] = ["table1_qos", "table2_quic", "fig2_distributions"];

/// Exit code, stdout, stderr.
fn outran_fig(args: &[&str]) -> (i32, String, String) {
    let o = std::process::Command::new(env!("CARGO_BIN_EXE_outran-fig"))
        .args(args)
        .output()
        .expect("spawn outran-fig");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    let code = o.status.code().expect("exited, not signalled");
    (code, text(o.stdout), text(o.stderr))
}

#[test]
fn check_names_the_tampered_figure_and_its_line() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/tampered");
    let with_cheap = |flag| [&[flag, dir], &CHEAP[..]].concat();
    assert_eq!(outran_fig(&with_cheap("--write")).0, 0);
    assert_eq!(outran_fig(&with_cheap("--check")).0, 0);

    // Change the first digit of table 2's first data row (line 4).
    let path = format!("{dir}/table2_quic.txt");
    let mut text = std::fs::read_to_string(&path).expect("just written");
    let row = text.match_indices('\n').nth(2).expect("four lines").0;
    let at = row
        + text[row..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a number");
    let other = if &text[at..=at] == "9" { "8" } else { "9" };
    text.replace_range(at..=at, other);
    std::fs::write(&path, text).expect("temp dir is writable");

    let (code, stdout, _) = outran_fig(&with_cheap("--check"));
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("STALE table2_quic: line 4:"), "{stdout}");
    assert!(stdout.contains("ok    table1_qos\n"), "{stdout}");
    assert!(stdout.contains("ok    fig2_distributions\n"), "{stdout}");
}

#[test]
fn bad_input_is_a_structured_error_not_a_panic() {
    let hostile: [&[&str]; 4] = [
        &["--check", "/no/such/dir"],
        &["fig99_nope"],
        &["--threads", "0", "table1_qos"],
        &[],
    ];
    for args in hostile {
        let (code, stdout, stderr) = outran_fig(args);
        assert_eq!((code, stdout.as_str()), (2, ""), "{args:?}: {stderr}");
        assert!(stderr.starts_with("outran-fig: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let (_, _, stderr) = outran_fig(&["fig99_nope"]);
    assert!(
        stderr.contains("unknown figure or flag `fig99_nope`"),
        "{stderr}"
    );
    assert!(
        stderr.contains("figures: table1_qos table2_quic"),
        "{stderr}"
    );
}
