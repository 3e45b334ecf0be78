//! Workspace invariant enforcement (`cargo xtask lint`).
//!
//! The treecode's performance guarantees are structural — allocation-free
//! evaluation kernels, a panic-free library surface, no accidental exact
//! float comparisons, and documented `unsafe` — but nothing in the type
//! system enforces them. This crate parses every workspace source file and
//! turns those properties into hard CI failures:
//!
//! * **alloc** — no `Vec::new` / `vec![]` / `to_vec` / `clone` /
//!   `Box::new` / `collect` in the designated hot modules
//!   (`core::{eval,compile,upward}`, `multipole::{workspace,expansion,
//!   translation,harmonics,legendre,batch}`, `engine::{batch,fanout}` —
//!   see [`HOT_MODULES`]) outside `#[cfg(test)]`,
//! * **panic** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` in library code outside `#[cfg(test)]`,
//! * **float_cmp** — no `==` / `!=` against float expressions outside
//!   tests,
//! * **safety** — every `unsafe` token (fn, impl, block) carries a
//!   `// SAFETY:` comment on the same line or within three lines above,
//! * **ordering** — every explicit atomic ordering
//!   (`Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}`) in library
//!   code carries a `// ordering:` justification on the same line or in
//!   the comment block directly above (the registry the mbt-check model
//!   suite keeps honest; `crates/check` itself is exempt — it implements
//!   the memory model),
//! * **sync** — the concurrency facade modules (see
//!   [`SYNC_FACADE_MODULES`]) never name `std::sync` directly; they go
//!   through `mbt_check::sync` so model-checker builds instrument them.
//!
//! Any line can opt out with `// lint: allow(<lint>, <reason>)`; the
//! reason is mandatory, so the waiver list doubles as an audited registry
//! of every exception (see `DESIGN.md` §8).

#![forbid(unsafe_code)]

pub mod lints;
pub mod scan;

pub use lints::{Lint, Violation};

use std::path::{Path, PathBuf};

/// The modules whose steady-state paths must not allocate (lint `alloc`).
/// The `mbt-obs` recording primitives are included: spans, ring pushes,
/// histogram updates, and slow-log appends sit on the engine's serving
/// path, so their record sides must stay allocation-free (snapshot /
/// drain sides carry audited waivers).
pub const HOT_MODULES: &[&str] = &[
    "crates/core/src/eval.rs",
    "crates/core/src/compile.rs",
    "crates/core/src/upward.rs",
    "crates/multipole/src/workspace.rs",
    "crates/multipole/src/expansion.rs",
    "crates/multipole/src/translation.rs",
    "crates/multipole/src/harmonics.rs",
    "crates/multipole/src/legendre.rs",
    "crates/multipole/src/batch.rs",
    "crates/multipole/src/simd.rs",
    "crates/engine/src/batch.rs",
    "crates/engine/src/fanout.rs",
    "crates/fmm/src/compiled.rs",
    "crates/fmm/src/grid.rs",
    "crates/shard/src/skeleton.rs",
    "crates/obs/src/span.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/hist.rs",
];

/// Crates whose `src/` trees count as harnesses, not library surface
/// (binaries and dev tooling may unwrap on bad CLI input).
const HARNESS_CRATES: &[&str] = &["crates/bench/", "crates/xtask/"];

/// Modules that must reach synchronization primitives exclusively through
/// the `mbt_check::sync` facade (lint `sync`). These are exactly the
/// modules the model suite (`crates/check/tests/models.rs`) exercises — a
/// raw `std::sync` here would silently drop the code out of every
/// model-checker build.
pub const SYNC_FACADE_MODULES: &[&str] = &[
    "crates/obs/src/span.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/hist.rs",
    "crates/engine/src/cache.rs",
    "crates/engine/src/stats.rs",
    "crates/engine/src/wfq.rs",
    "crates/engine/src/tenant.rs",
    "crates/engine/src/flight.rs",
];

/// What lints apply to one source file.
// each flag is an independent applicability axis set by `classify`, not
// encoded state — a bitflags type would only obscure the fixture tests
#[allow(clippy::struct_excessive_bools)]
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Subject to the hot-path allocation lint.
    pub hot: bool,
    /// Subject to the panic and float-compare lints (library, non-test).
    pub library: bool,
    /// Subject to the atomic-ordering justification lint.
    pub ordering: bool,
    /// Subject to the `std::sync`-forbidden facade lint.
    pub sync_facade: bool,
}

/// Classifies a workspace-relative path (`/`-separated).
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    let hot = HOT_MODULES.contains(&rel);
    let is_test_tree =
        rel.contains("/tests/") || rel.contains("/benches/") || rel.starts_with("tests/");
    let is_harness = HARNESS_CRATES.iter().any(|c| rel.starts_with(c))
        || rel.starts_with("examples/")
        || rel.contains("/src/bin/")
        || rel.starts_with("shims/");
    let in_lib_tree =
        rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    let library = in_lib_tree && !is_test_tree && !is_harness;
    FileClass {
        hot,
        library,
        // the checker crate implements the memory model; annotating its
        // own internals with `// ordering:` would be circular
        ordering: library && !rel.starts_with("crates/check/"),
        sync_facade: SYNC_FACADE_MODULES.contains(&rel),
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", ".github"];

/// All `.rs` files under `root`, workspace-relative, sorted.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints one source text under a given classification (the unit the
/// fixture tests drive directly).
#[must_use]
pub fn lint_source(class: &FileClass, path: &str, source: &str) -> Vec<Violation> {
    let scanned = scan::scan(source);
    lints::lint_scanned(class, path, &scanned)
}

/// Runs every lint over the whole workspace rooted at `root`.
pub fn run_lints(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let class = classify(&rel);
        let source = std::fs::read_to_string(&path)?;
        all.extend(lint_source(&class, &rel, &source));
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(classify("crates/core/src/eval.rs").hot);
        assert!(classify("crates/core/src/eval.rs").library);
        assert!(classify("crates/core/src/compile.rs").hot);
        assert!(classify("crates/multipole/src/batch.rs").hot);
        assert!(classify("crates/multipole/src/batch.rs").library);
        assert!(classify("crates/multipole/src/simd.rs").hot);
        assert!(classify("crates/multipole/src/simd.rs").library);
        assert!(!classify("crates/core/src/mac.rs").hot);
        // every engine sweep — treecode, FMM and direct in `batch.rs`,
        // the sharded fan-out beside it — is hot
        assert!(classify("crates/engine/src/batch.rs").hot);
        assert!(classify("crates/engine/src/batch.rs").library);
        assert!(classify("crates/engine/src/fanout.rs").hot);
        assert!(classify("crates/obs/src/ring.rs").hot);
        assert!(classify("crates/obs/src/hist.rs").hot);
        assert!(classify("crates/obs/src/span.rs").hot);
        assert!(classify("crates/obs/src/span.rs").library);
        assert!(!classify("crates/obs/src/export.rs").hot);
        assert!(!classify("crates/engine/src/cache.rs").hot);
        assert!(classify("crates/engine/src/cache.rs").library);
        assert!(classify("crates/solvers/src/cg.rs").library);
        assert!(!classify("crates/core/tests/alloc_count.rs").library);
        assert!(!classify("crates/bench/src/lib.rs").library);
        assert!(!classify("crates/bench/src/bin/table1.rs").library);
        assert!(!classify("shims/rayon/src/lib.rs").library);
        assert!(!classify("examples/quickstart.rs").library);
        assert!(classify("src/lib.rs").library);
        assert!(!classify("tests/end_to_end.rs").library);
    }

    #[test]
    fn ordering_and_sync_classification() {
        // every library file outside crates/check is ordering-audited
        assert!(classify("crates/obs/src/ring.rs").ordering);
        assert!(classify("crates/engine/src/stats.rs").ordering);
        assert!(classify("crates/multipole/src/simd.rs").ordering);
        // the checker implements the memory model — exempt
        assert!(classify("crates/check/src/sync_impl.rs").library);
        assert!(!classify("crates/check/src/sync_impl.rs").ordering);
        // tests and harnesses are never ordering-audited
        assert!(!classify("crates/engine/tests/cache.rs").ordering);
        assert!(!classify("crates/bench/src/lib.rs").ordering);
        // the facade list is exact: members in, neighbours out
        for rel in SYNC_FACADE_MODULES {
            assert!(classify(rel).sync_facade, "{rel} must be facade-linted");
            assert!(classify(rel).library, "{rel} must be library code");
        }
        assert!(!classify("crates/engine/src/engine.rs").sync_facade);
        assert!(!classify("crates/engine/src/registry.rs").sync_facade);
        assert!(!classify("crates/check/src/sync_impl.rs").sync_facade);
    }
}
