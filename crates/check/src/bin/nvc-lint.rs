#![forbid(unsafe_code)]
//! Workspace invariant linter. Run from anywhere in the repo:
//!
//! ```text
//! cargo run -p nvc-check --bin nvc-lint -- --workspace
//! ```
//!
//! Policy lives in `lint-ratchet.toml` at the workspace root; the rules
//! are documented in `nvc_check::lint`. Exit status is non-zero when
//! any rule fires or the serve panic count exceeds the ratchet ceiling.

use nvc_check::config::Config;
use nvc_check::lint;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RATCHET_FILE: &str = "lint-ratchet.toml";

fn main() -> ExitCode {
    for arg in std::env::args().skip(1) {
        if arg != "--workspace" {
            eprintln!("usage: nvc-lint --workspace");
            return ExitCode::from(2);
        }
    }
    let Some(root) = find_root() else {
        eprintln!("nvc-lint: no {RATCHET_FILE} found here or in any parent directory");
        return ExitCode::from(2);
    };
    let policy = match std::fs::read_to_string(root.join(RATCHET_FILE)) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("nvc-lint: reading {RATCHET_FILE}: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&policy) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("nvc-lint: {RATCHET_FILE}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();

    let mut diags = Vec::new();
    let mut panic_sites: Vec<(String, u32)> = Vec::new();
    let mut ordering_sites = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nvc-lint: reading {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = lint::lint_file(&rel, &src, &cfg);
        ordering_sites += report.ordering_sites;
        diags.extend(report.diags);
        panic_sites.extend(report.panic_sites.into_iter().map(|l| (rel.clone(), l)));
    }

    let mut failed = !diags.is_empty();
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for d in &diags {
        println!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.msg);
    }

    let count = panic_sites.len();
    match count.cmp(&cfg.serve_panic_ceiling) {
        std::cmp::Ordering::Greater => {
            failed = true;
            println!(
                "serve panic ratchet exceeded: {count} panic-family sites in \
                 crates/serve/src and {}, ceiling is {} — remove these or lower existing ones:",
                lint::SESSION_FILE,
                cfg.serve_panic_ceiling
            );
            for (file, line) in &panic_sites {
                println!("{file}:{line}: [serve-ratchet] panic-family call site");
            }
        }
        std::cmp::Ordering::Less => {
            println!(
                "note: serve panic count is {count}, below the ceiling of {} — tighten \
                 serve_panic_ceiling in {RATCHET_FILE} to {count} to lock it in",
                cfg.serve_panic_ceiling
            );
        }
        std::cmp::Ordering::Equal => {}
    }

    println!(
        "nvc-lint: {} files, {ordering_sites} atomic Ordering sites justified, serve \
         panic count {count}/{}, lock hierarchy {}: {}",
        files.len(),
        cfg.serve_panic_ceiling,
        cfg.lock_levels
            .iter()
            .map(|l| l.name.as_str())
            .collect::<Vec<_>>()
            .join(" → "),
        if failed { "FAIL" } else { "clean" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Ascends from the current directory to the workspace root, identified
/// by the ratchet file.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join(RATCHET_FILE).is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every `.rs` file under `dir`, skipping build output and
/// hidden directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
