//! Self-test of the static-analysis pass: every rule family must fire on
//! its seeded-violation fixture, stay silent on the fixture's clean twin,
//! and the real workspace must pass at zero violations.
//!
//! This is the guarantee behind trusting a green `cargo xtask lint`: the
//! fixtures prove each family actually detects its bug class (including
//! the non-vacuity check that deletes a real replayer match arm), so
//! silence on the real tree means absence of violations, not absence of
//! checking.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use xtask::index::{FileKind, SourceFile, WorkspaceIndex};
use xtask::lint::{lint_workspace, TRACE_CONFORMANCE};
use xtask::report::{violations_from_json, LintReport, Violation};
use xtask::rules::{conformance, determinism, float_order, hot_path, panic_budget, rng_custody};

const BAD_SIM_STATE: &str = include_str!("../fixtures/determinism/bad_sim_state.rs");
const BAD_ENTROPY: &str = include_str!("../fixtures/determinism/bad_entropy.rs");
const BAD_THREAD: &str = include_str!("../fixtures/determinism/bad_thread.rs");
const GOOD_CLEAN: &str = include_str!("../fixtures/determinism/good_clean.rs");
const BAD_FLOAT_ORDER: &str = include_str!("../fixtures/float_order/bad_partial_cmp.rs");
const GOOD_FLOAT_ORDER: &str = include_str!("../fixtures/float_order/good_total_cmp.rs");
const BAD_RNG: &str = include_str!("../fixtures/rng_custody/bad_ambient_stream.rs");
const GOOD_RNG: &str = include_str!("../fixtures/rng_custody/good_borrowed_stream.rs");
const BAD_HOT: &str = include_str!("../fixtures/hot_path/bad_alloc_in_region.rs");
const GOOD_HOT: &str = include_str!("../fixtures/hot_path/good_scratch_buffers.rs");
const BAD_PANIC: &str = include_str!("../fixtures/panic_budget/bad_panic_sites.rs");
const CONF_DEF: &str = include_str!("../fixtures/conformance/trace_def.rs");
const CONF_EMIT_ALL: &str = include_str!("../fixtures/conformance/emit_all.rs");
const CONF_EMIT_PARTIAL: &str = include_str!("../fixtures/conformance/emit_partial.rs");
const CONF_REPLAY_ALL: &str = include_str!("../fixtures/conformance/replay_all.rs");
const CONF_REPLAY_WILDCARD: &str = include_str!("../fixtures/conformance/replay_wildcard.rs");

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives under the workspace root")
        .to_path_buf()
}

fn parse(rel: &str, crate_name: &str, src: &str) -> SourceFile {
    SourceFile::parse(rel, crate_name, FileKind::Lib, src)
}

fn rule_counts(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts
}

// ---- determinism family (ported rules) ---------------------------------

#[test]
fn fixture_hash_container_and_wall_clock_are_caught() {
    let f = parse(
        "crates/diknn-sim/src/bad_sim_state.rs",
        "diknn-sim",
        BAD_SIM_STATE,
    );
    let counts = rule_counts(&determinism::scan(&f));
    // Two idents on the `use` line plus two struct fields.
    assert_eq!(counts.get("hash-container"), Some(&4), "{counts:?}");
    assert_eq!(counts.get("wall-clock"), Some(&1), "{counts:?}");
}

#[test]
fn fixture_thread_rng_and_float_eq_are_caught() {
    let f = parse(
        "crates/diknn-core/src/bad_entropy.rs",
        "diknn-core",
        BAD_ENTROPY,
    );
    let counts = rule_counts(&determinism::scan(&f));
    assert_eq!(counts.get("ambient-randomness"), Some(&1), "{counts:?}");
    // `radius != 0.0` — a float literal next to the operator. (The rule is
    // token-local, so ident-vs-ident `dist == radius` is left to review.)
    assert_eq!(counts.get("float-eq"), Some(&1), "{counts:?}");
}

#[test]
fn fixture_raw_threads_are_caught() {
    // Outside `crates/diknn-workloads/src/parallel.rs` the rule fires in
    // any crate, the engine crate included.
    for (rel, krate) in [
        ("crates/diknn-bench/src/bad_thread.rs", "diknn-bench"),
        ("crates/diknn-sim/src/bad_thread.rs", "diknn-sim"),
    ] {
        let f = parse(rel, krate, BAD_THREAD);
        let counts = rule_counts(&determinism::scan(&f));
        // spawn, scope, and Builder.
        assert_eq!(counts.get("raw-thread"), Some(&3), "{rel}: {counts:?}");
    }
}

#[test]
fn fixture_clean_determinism_twin_is_silent() {
    let f = parse(
        "crates/diknn-sim/src/good_clean.rs",
        "diknn-sim",
        GOOD_CLEAN,
    );
    let v = determinism::scan(&f);
    assert!(v.is_empty(), "{v:?}");
}

// ---- float-order family ------------------------------------------------

#[test]
fn fixture_partial_cmp_comparators_are_caught() {
    let f = parse(
        "crates/diknn-core/src/bad.rs",
        "diknn-core",
        BAD_FLOAT_ORDER,
    );
    let v = float_order::scan(&f);
    // sort_by, min_by, binary_search_by, and the float-keyed sort_by_key.
    assert_eq!(v.len(), 4, "{v:?}");
    assert!(v.iter().all(|v| v.rule == "float-order"));
}

#[test]
fn fixture_total_cmp_twin_is_silent() {
    let f = parse(
        "crates/diknn-core/src/good.rs",
        "diknn-core",
        GOOD_FLOAT_ORDER,
    );
    let v = float_order::scan(&f);
    assert!(v.is_empty(), "{v:?}");
}

// ---- rng-custody family ------------------------------------------------

#[test]
fn fixture_ambient_rng_stream_is_caught() {
    let f = parse("crates/diknn-routing/src/bad.rs", "diknn-routing", BAD_RNG);
    let v = rng_custody::scan(&f);
    // seed_from_u64, the `fn rng` accessor, and from_seed.
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.rule == "rng-custody"));
}

#[test]
fn fixture_borrowed_stream_twin_is_silent() {
    let f = parse(
        "crates/diknn-routing/src/good.rs",
        "diknn-routing",
        GOOD_RNG,
    );
    let v = rng_custody::scan(&f);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn sanctioned_files_may_seed() {
    let seeding = "pub fn mk(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n";
    for rel in rng_custody::SANCTIONED_RNG_FILES {
        let f = parse(rel, "diknn-sim", seeding);
        assert!(rng_custody::scan(&f).is_empty(), "{rel} is sanctioned");
    }
}

// ---- hot-path family ---------------------------------------------------

#[test]
fn fixture_hot_region_allocations_are_caught() {
    let f = parse("crates/diknn-sim/src/bad.rs", "diknn-sim", BAD_HOT);
    let v = hot_path::scan(&f);
    // Box::new, .clone(), vec!, .collect(), format!.
    assert_eq!(v.len(), 5, "{v:?}");
    assert!(v.iter().all(|v| v.rule == "hot-path"));
}

#[test]
fn fixture_scratch_buffer_twin_is_silent() {
    let f = parse("crates/diknn-sim/src/good.rs", "diknn-sim", GOOD_HOT);
    let v = hot_path::scan(&f);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn engine_and_grid_actually_carry_hot_fences() {
    // The family is vacuous on a file with no fences; the real hot paths
    // must stay annotated or the rule silently stops guarding them.
    let root = workspace_root();
    for rel in [
        "crates/diknn-sim/src/engine.rs",
        "crates/diknn-sim/src/grid.rs",
        "crates/diknn-sim/src/queue.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        let f = parse(rel, "diknn-sim", &src);
        let (regions, errors) = f.hot_regions();
        assert!(errors.is_empty(), "{rel}: {errors:?}");
        assert!(
            !regions.is_empty(),
            "{rel} lost its `// lint: hot-path` fences"
        );
    }
}

// ---- panic-budget family -----------------------------------------------

#[test]
fn fixture_panic_sites_are_counted_and_ratcheted() {
    let idx = WorkspaceIndex::from_files(vec![parse(
        "crates/diknn-mobility/src/bad.rs",
        "diknn-mobility",
        BAD_PANIC,
    )]);
    let counts = panic_budget::count(&idx);
    // Two unwraps + two expects in parse_all, one unwrap in first.
    assert_eq!(counts.get("diknn-mobility"), Some(&5), "{counts:?}");

    let exact = BTreeMap::from([("diknn-mobility".to_string(), 5u32)]);
    assert!(panic_budget::check(&counts, &exact).is_empty());
    let lower = BTreeMap::from([("diknn-mobility".to_string(), 4u32)]);
    assert_eq!(panic_budget::check(&counts, &lower).len(), 1, "regression");
    let higher = BTreeMap::from([("diknn-mobility".to_string(), 6u32)]);
    assert_eq!(
        panic_budget::check(&counts, &higher).len(),
        1,
        "stale baseline"
    );
}

// ---- trace-conformance family ------------------------------------------

fn conf_cfg() -> conformance::ConformanceConfig<'static> {
    conformance::ConformanceConfig {
        enums: &["ProbeEvent"],
        def_file: "crates/diknn-sim/src/trace.rs",
        emit_crates: &["diknn-sim"],
        replayer: "crates/diknn-workloads/src/invariants.rs",
    }
}

fn conf_idx(emit: &str, replay: &str) -> WorkspaceIndex {
    WorkspaceIndex::from_sources(&[
        (
            "crates/diknn-sim/src/trace.rs",
            "diknn-sim",
            FileKind::Lib,
            CONF_DEF,
        ),
        (
            "crates/diknn-sim/src/engine.rs",
            "diknn-sim",
            FileKind::Lib,
            emit,
        ),
        (
            "crates/diknn-workloads/src/invariants.rs",
            "diknn-workloads",
            FileKind::Lib,
            replay,
        ),
    ])
}

#[test]
fn fixture_coupled_trace_schema_is_clean() {
    let v = conformance::check(&conf_idx(CONF_EMIT_ALL, CONF_REPLAY_ALL), &conf_cfg());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fixture_unemitted_variant_is_caught() {
    let v = conformance::check(&conf_idx(CONF_EMIT_PARTIAL, CONF_REPLAY_ALL), &conf_cfg());
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].message.contains("ProbeEvent::Lost"),
        "{}",
        v[0].message
    );
    assert!(v[0].message.contains("no emit site"));
}

#[test]
fn fixture_catch_all_replayer_is_caught() {
    let v = conformance::check(&conf_idx(CONF_EMIT_ALL, CONF_REPLAY_WILDCARD), &conf_cfg());
    assert!(
        v.iter().any(|v| v.message.contains("catch-all")),
        "the `_` arm itself must be flagged: {v:?}"
    );
    for variant in ["Pong", "Lost"] {
        assert!(
            v.iter()
                .any(|v| v.message.contains(variant) && v.message.contains("no explicit match arm")),
            "{variant} hides behind the wildcard: {v:?}"
        );
    }
}

/// Non-vacuity against the *real* tree: delete one `ProtoEvent` arm from
/// the real replayer and the conformance family must fail loudly. Emit
/// evidence is synthesized from the real enum definition so the test
/// isolates replay coverage.
#[test]
fn deleting_a_real_replayer_arm_fails_loudly() {
    let root = workspace_root();
    let def_src = std::fs::read_to_string(root.join(TRACE_CONFORMANCE.def_file)).unwrap();
    let replay_src = std::fs::read_to_string(root.join(TRACE_CONFORMANCE.replayer)).unwrap();
    assert!(
        replay_src.contains("ProtoEvent::SinkMerge"),
        "the replayer no longer names SinkMerge; update this test's target arm"
    );

    // One synthetic emitter naming every variant keeps emit-site checks out
    // of the way (`has_path` only needs the `Enum::Variant` token pair).
    let def = parse(TRACE_CONFORMANCE.def_file, "diknn-sim", &def_src);
    let idx_for_variants = WorkspaceIndex::from_files(vec![def]);
    let mut emit = String::from("fn emit_evidence() {\n");
    for &enum_name in TRACE_CONFORMANCE.enums {
        for d in &idx_for_variants.enums[enum_name] {
            for (variant, _) in &d.variants {
                emit.push_str(&format!("    let _ = {enum_name}::{variant};\n"));
            }
        }
    }
    emit.push_str("}\n");

    let build = |replay: &str| {
        WorkspaceIndex::from_sources(&[
            (
                TRACE_CONFORMANCE.def_file,
                "diknn-sim",
                FileKind::Lib,
                &def_src,
            ),
            (
                "crates/diknn-sim/src/engine.rs",
                "diknn-sim",
                FileKind::Lib,
                &emit,
            ),
            (
                TRACE_CONFORMANCE.replayer,
                "diknn-workloads",
                FileKind::Lib,
                replay,
            ),
        ])
    };

    let intact = conformance::check(&build(&replay_src), &TRACE_CONFORMANCE);
    assert!(
        intact.is_empty(),
        "real replayer should be fully covered: {intact:?}"
    );

    let mutated = replay_src.replace("ProtoEvent::SinkMerge", "ProtoEvent::SinkMergeGone");
    let broken = conformance::check(&build(&mutated), &TRACE_CONFORMANCE);
    assert!(
        broken
            .iter()
            .any(|v| v.message.contains("ProtoEvent::SinkMerge")
                && v.message.contains("no explicit match arm")),
        "deleting the SinkMerge arm must be caught: {broken:?}"
    );
}

// ---- report round-trip and whole-workspace pass ------------------------

#[test]
fn report_survives_a_json_round_trip() {
    let f = parse(
        "crates/diknn-core/src/bad.rs",
        "diknn-core",
        BAD_FLOAT_ORDER,
    );
    let report = LintReport {
        violations: float_order::scan(&f),
        panic_counts: BTreeMap::from([("diknn-core".to_string(), 2u32)]),
        baseline: BTreeMap::from([("diknn-core".to_string(), 2u32)]),
        files_scanned: 1,
        dead_exports: Vec::new(),
    };
    let parsed = violations_from_json(&report.to_json()).unwrap();
    assert_eq!(parsed.len(), report.violations.len());
    for (got, want) in parsed.iter().zip(&report.violations) {
        assert_eq!(got.0, want.rule);
        assert_eq!(got.1, want.file);
        assert_eq!(got.2, want.line);
        assert_eq!(got.3, want.message);
    }
}

#[test]
fn real_workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("lint pass runs");
    assert!(
        report.violations.is_empty(),
        "the committed tree must lint clean:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 100, "index lost most of the tree?");
}
