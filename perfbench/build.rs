//! Stamps the compiler version and, when built inside a git checkout,
//! the commit into the binary, so every result carries its host facts
//! without the benchmark spawning processes while it measures.
//!
//! The script reruns whenever HEAD moves (checkout, commit, reset) and
//! whenever a source the benchmark builds from changes, so the stamped
//! commit, with a `-dirty` suffix for uncommitted edits to those
//! sources, is always the one the binary was built from.

use std::path::Path;
use std::process::Command;

/// Directories, relative to the checkout root, the benchmark compiles.
const SOURCES: [&str; 3] = ["crates", "shims", "perfbench/src"];

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn rerun_if_changed(path: &Path) {
    println!("cargo:rerun-if-changed={}", path.display());
}

/// The commit of the checkout at `root`, or `None` outside a git
/// checkout. Only `root/.git` is consulted: a checkout that merely sits
/// inside some other repository is not attributed to that repository.
fn commit(root: &Path) -> Option<String> {
    let git_dir = root.join(".git");
    if !git_dir.is_dir() {
        return None;
    }
    // HEAD names the branch; the branch's ref file (or packed-refs)
    // names the commit; the index changes on every commit and add.
    rerun_if_changed(&git_dir.join("HEAD"));
    rerun_if_changed(&git_dir.join("index"));
    if let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) {
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            let ref_file = git_dir.join(reference);
            if ref_file.exists() {
                rerun_if_changed(&ref_file);
            }
        }
    }
    if git_dir.join("packed-refs").exists() {
        rerun_if_changed(&git_dir.join("packed-refs"));
    }
    let git_dir = git_dir.to_str()?;
    let work_tree = root.to_str()?;
    let git = |args: &[&str]| {
        let mut full = vec!["--git-dir", git_dir, "--work-tree", work_tree];
        full.extend_from_slice(args);
        capture("git", &full)
    };
    let hash = git(&["rev-parse", "--short=12", "HEAD"])?;
    // `:/` anchors each pathspec at the checkout root, not at the
    // script's working directory.
    let pathspecs: Vec<String> = SOURCES.iter().map(|s| format!(":/{s}")).collect();
    let mut status = vec!["status", "--porcelain", "--untracked-files=no", "--"];
    status.extend(pathspecs.iter().map(String::as_str));
    let dirty = git(&status).is_some();
    Some(if dirty { format!("{hash}-dirty") } else { hash })
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark sits one level below the checkout root");
    println!("cargo:rerun-if-changed=build.rs");
    for source in SOURCES {
        rerun_if_changed(&root.join(source));
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = commit(root).unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
