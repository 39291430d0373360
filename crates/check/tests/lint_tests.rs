//! Rule-level tests for `nvc_check::lint` against synthetic sources —
//! each rule's positive case, negative case, and the token-level
//! immunities (strings, comments, test blocks) regex linting lacks.

use nvc_check::config::Config;
use nvc_check::lint::{is_crate_root, lint_file, FileReport};

fn cfg() -> Config {
    Config::parse(
        r#"
[ratchet]
serve_panic_ceiling = 0

[wallclock]
crates = ["entropy"]

[lock_order]
levels = ["registry", "ring", "conn"]
conn = ["out", "outbox"]
"#,
    )
    .expect("test policy parses")
}

fn lint(rel: &str, src: &str) -> FileReport {
    lint_file(rel, src, &cfg())
}

fn rules(report: &FileReport) -> Vec<&'static str> {
    report.diags.iter().map(|d| d.rule).collect()
}

#[test]
fn unjustified_ordering_is_flagged() {
    let report = lint(
        "crates/x/src/util.rs",
        "fn f(a: &std::sync::atomic::AtomicBool) {\n    a.store(true, Ordering::Relaxed);\n}\n",
    );
    assert_eq!(rules(&report), vec!["order-comment"]);
    assert_eq!(report.diags[0].line, 2);
    assert_eq!(report.ordering_sites, 1);
}

#[test]
fn adjacent_order_comment_covers_the_site() {
    for src in [
        // Line above.
        "fn f() {\n    // order: Relaxed — a statistic.\n    a.store(1, Ordering::Relaxed);\n}\n",
        // Trailing on the same line.
        "fn f() {\n    a.store(1, Ordering::Relaxed); // order: Relaxed — a statistic.\n}\n",
    ] {
        let report = lint("crates/x/src/util.rs", src);
        assert!(rules(&report).is_empty(), "covered site flagged in {src:?}");
        assert_eq!(report.ordering_sites, 1);
    }
}

#[test]
fn multi_line_justifications_cover_via_continuation_lines() {
    // The opener sits 3 lines above the site — too far on its own — but
    // its contiguous continuation lines carry the coverage down.
    let src = "fn f() {\n\
               \x20   // order: AcqRel — the false-to-true edge elects\n\
               \x20   // exactly one waker to unpark the poller; see the\n\
               \x20   // matching Release in drain().\n\
               \x20   a.swap(true, Ordering::AcqRel);\n}\n";
    let report = lint("crates/x/src/util.rs", src);
    assert!(rules(&report).is_empty(), "{:?}", report.diags);

    // A gap in the comment block breaks the chain.
    let src = "fn f() {\n\
               \x20   // order: AcqRel — too far away now.\n\n\n\n\
               \x20   a.swap(true, Ordering::AcqRel);\n}\n";
    let report = lint("crates/x/src/util.rs", src);
    assert_eq!(rules(&report), vec!["order-comment"]);
}

#[test]
fn split_chains_anchor_at_the_statement_not_the_ordering_token() {
    // rustfmt puts the Ordering token 3 lines below the statement start
    // where the justification sits; the anchor keeps it covered.
    let src = "fn f() {\n\
               \x20   // order: Relaxed — a drained statistic.\n\
               \x20   self.inner\n\
               \x20       .depth\n\
               \x20       .fetch_sub(n, Ordering::Relaxed);\n}\n";
    let report = lint("crates/x/src/util.rs", src);
    assert!(rules(&report).is_empty(), "{:?}", report.diags);
}

#[test]
fn non_atomic_orderings_and_quoted_text_are_immune() {
    let src = concat!(
        "fn f(o: std::cmp::Ordering) -> bool {\n",
        "    let s = \"a.load(Ordering::Acquire)\";\n",
        "    // a.load(Ordering::Acquire) — commented out, not code\n",
        "    o == Ordering::Equal && !s.is_empty()\n",
        "}\n",
    );
    let report = lint("crates/x/src/util.rs", src);
    assert!(rules(&report).is_empty(), "{:?}", report.diags);
    assert_eq!(report.ordering_sites, 0, "no atomic site seen at all");
}

#[test]
fn test_modules_are_exempt_from_order_comments() {
    let src = concat!(
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        FLAG.store(true, Ordering::SeqCst);\n",
        "    }\n",
        "}\n",
    );
    let report = lint("crates/x/src/util.rs", src);
    assert!(rules(&report).is_empty(), "{:?}", report.diags);
}

#[test]
fn ratchet_counts_only_real_panic_sites_outside_tests() {
    let src = concat!(
        "fn f(v: Option<u32>) -> u32 {\n",
        "    let a = v.unwrap();\n",                 // counted
        "    let b = v.expect(\"reason\");\n",       // counted
        "    let c = v.unwrap_or(0);\n",             // exact-ident: no
        "    let d = v.unwrap_or_else(|| 0);\n",     // exact-ident: no
        "    let s = \"x.unwrap()\"; let _ = s;\n",  // string: no
        "    // x.unwrap() in a comment\n",          // comment: no
        "    if a > 9 { unreachable!(\"nine\") }\n", // counted
        "    a + b + c + d\n",
        "}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { None::<u32>.unwrap(); panic!(\"fine in tests\"); }\n",
        "}\n",
    );
    let report = lint("crates/serve/src/x.rs", src);
    assert_eq!(report.panic_sites, vec![2, 3, 8]);

    // The shared stream session is under the same ratchet…
    let report = lint("crates/video/src/session.rs", src);
    assert_eq!(report.panic_sites, vec![2, 3, 8]);

    // …the rest of its crate, like every other file outside
    // crates/serve/src, is not.
    let report = lint("crates/video/src/x.rs", src);
    assert!(report.panic_sites.is_empty());
}

#[test]
fn wallclock_reads_flag_only_in_deterministic_crates() {
    let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let report = lint("crates/entropy/src/range.rs", src);
    assert_eq!(rules(&report), vec!["wallclock", "wallclock"]);
    // Out-of-scope crate: same code, no finding.
    let report = lint("crates/serve/src/x.rs", src);
    assert!(rules(&report).is_empty());
}

#[test]
fn lock_inversion_is_flagged_and_straight_order_is_not() {
    // `out` (conn, innermost) held via `let`, then `registry`
    // (outermost) acquired inside the same scope: inversion.
    let src = concat!(
        "fn f(&self) {\n",
        "    let g = self.out.lock_clean();\n",
        "    let r = self.registry.lock_clean();\n",
        "    drop((g, r));\n",
        "}\n",
    );
    let report = lint("crates/serve/src/x.rs", src);
    assert_eq!(rules(&report), vec!["lock-order"]);
    assert!(
        report.diags[0].msg.contains("registry"),
        "{}",
        report.diags[0].msg
    );

    // Declared order: clean.
    let src = concat!(
        "fn f(&self) {\n",
        "    let r = self.registry.lock_clean();\n",
        "    let g = self.out.lock_clean();\n",
        "    drop((r, g));\n",
        "}\n",
    );
    assert!(rules(&lint("crates/serve/src/x.rs", src)).is_empty());

    // A statement-temporary guard drops at the `;`: the next statement
    // acquiring an outer lock is NOT an inversion.
    let src = concat!(
        "fn f(&self) {\n",
        "    self.out.lock_clean().push(1);\n",
        "    let r = self.registry.lock_clean();\n",
        "    drop(r);\n",
        "}\n",
    );
    assert!(rules(&lint("crates/serve/src/x.rs", src)).is_empty());

    // A `let`-bound guard releases at the end of its block: a sibling
    // block acquiring the outer lock afterwards is clean.
    let src = concat!(
        "fn f(&self) {\n",
        "    { let g = self.ring.lock_clean(); drop(g); }\n",
        "    let r = self.registry.lock_clean();\n",
        "    drop(r);\n",
        "}\n",
    );
    assert!(rules(&lint("crates/serve/src/x.rs", src)).is_empty());
}

#[test]
fn unclassified_receivers_are_ignored_by_lock_order() {
    let src = "fn f(&self) { let a = self.cache.lock_clean(); let b = self.registry.lock_clean(); drop((a, b)); }\n";
    assert!(rules(&lint("crates/serve/src/x.rs", src)).is_empty());
}

#[test]
fn unsafe_keyword_and_bare_crate_roots_are_flagged() {
    let report = lint(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\nfn f() {}\n",
    );
    assert!(rules(&report).is_empty());

    let report = lint("crates/x/src/lib.rs", "fn f() {}\n");
    assert_eq!(rules(&report), vec!["no-unsafe"]);
    assert_eq!(report.diags[0].line, 1);

    // `unsafe` in code is flagged wherever it appears; `"unsafe"` in a
    // string is not.
    let report = lint(
        "crates/x/src/util.rs",
        "fn f() { let s = \"unsafe\"; let _ = s; unsafe { std::hint::unreachable_unchecked() } }\n",
    );
    assert_eq!(rules(&report), vec!["no-unsafe"]);
}

#[test]
fn crate_root_classification() {
    assert!(is_crate_root("crates/serve/src/lib.rs"));
    assert!(is_crate_root("src/lib.rs"));
    assert!(is_crate_root("crates/bench/src/bin/fanout.rs"));
    assert!(is_crate_root("examples/quickstart.rs"));
    assert!(is_crate_root("crates/check/src/bin/nvc_lint.rs"));
    assert!(!is_crate_root("crates/serve/src/server.rs"));
    assert!(!is_crate_root("crates/serve/src/poll.rs"));
}
