//! Fixture tests: every rule fires on its known-bad snippet with the exact
//! expected diagnostic, allow directives silence findings, and the real
//! workspace is clean.

use detlint::{scan_source, scan_workspace, Diagnostic, FileOrigin};

fn origin(crate_name: &str) -> FileOrigin {
    FileOrigin { crate_name: crate_name.to_string(), rel_path: "src/fixture.rs".to_string() }
}

fn scan(crate_name: &str, src: &str) -> Vec<(usize, String, String)> {
    scan_source("fixture.rs", &origin(crate_name), src)
        .into_iter()
        .map(|d| (d.line, d.rule, d.message))
        .collect()
}

#[test]
fn d1_flags_wall_clock_time() {
    let src = include_str!("fixtures/d1_wall_clock.rs");
    assert_eq!(
        scan("netz", src),
        vec![(
            4,
            "D1".to_string(),
            "wall-clock `std::time::Instant` in simulated code; use `simt::now()` / \
             `simt::time` so timings replay under a seed"
                .to_string()
        )]
    );
}

#[test]
fn d1_is_waived_inside_simt() {
    let src = include_str!("fixtures/d1_wall_clock.rs");
    assert_eq!(scan("simt", src), vec![], "simt itself owns the clock");
}

#[test]
fn d1_flags_wall_clock_deadline_timers() {
    // The bounded-latency anti-pattern: a job deadline armed at
    // `Instant::now()` instead of `simt::DeadlineTimer`. D1 fires at both
    // the arm site and the field that smuggles the wall-clock instant.
    let src = include_str!("fixtures/d1_deadline_timer.rs");
    let diags = scan("sparklet", src);
    let hits: Vec<(usize, &str)> = diags.iter().map(|(l, r, _)| (*l, r.as_str())).collect();
    assert_eq!(hits, vec![(7, "D1"), (13, "D1")], "arm site and stored instant must both fire");
}

#[test]
fn d2_flags_os_threads() {
    let src = include_str!("fixtures/d2_os_thread.rs");
    assert_eq!(
        scan("netz", src),
        vec![(
            4,
            "D2".to_string(),
            "OS thread API `std::thread::spawn`; use `simt::spawn` so the scheduler stays \
             deterministic"
                .to_string()
        )]
    );
}

#[test]
fn d2_has_no_exemption_not_even_the_engine() {
    // Green threads are coroutines on the caller's OS thread: nothing in the
    // workspace, `simt::engine` included, has a reason to start an OS thread.
    let src = include_str!("fixtures/d2_os_thread.rs");
    let engine =
        FileOrigin { crate_name: "simt".to_string(), rel_path: "src/engine.rs".to_string() };
    assert_eq!(scan_source("engine.rs", &engine, src).len(), 1);
    assert_eq!(scan("simt", src).len(), 1);
}

#[test]
fn d3_flags_os_entropy() {
    let src = include_str!("fixtures/d3_entropy.rs");
    assert_eq!(
        scan("workloads", src),
        vec![
            (
                4,
                "D3".to_string(),
                "OS-entropy source `thread_rng`; all randomness must derive from the run \
                 seed — use `simt::SeededRng`"
                    .to_string()
            ),
            (
                5,
                "D3".to_string(),
                "`rand` crate in simulated code; prefer `simt::SeededRng`, or annotate the \
                 seeded use with `// detlint: allow(D3, reason = \"...\")`"
                    .to_string()
            ),
        ]
    );
}

#[test]
fn d4_flags_hash_iteration_on_message_path_only() {
    let src = include_str!("fixtures/d4_hash_iter.rs");
    assert_eq!(
        scan("netz", src),
        vec![(
            11,
            "D4".to_string(),
            "`.values()` over hash collection `routes` on the message path: iteration \
             order is nondeterministic and leaks into message/scheduling order; use \
             `BTreeMap`/`BTreeSet` or a sorted collect"
                .to_string()
        )]
    );
    assert_eq!(scan("workloads", src), vec![], "D4 only guards the message-path crates");
}

#[test]
fn d5_flags_locks_the_engine_cannot_count() {
    let src = include_str!("fixtures/d5_uncounted_lock.rs");
    let msg = |what: &str| {
        format!(
            "uncounted lock `{what}` outside simt: a guard alive when a green thread parks hangs \
             every other green thread on the one OS thread, and only `simt::sync::Mutex` guards \
             are checked at park time; use it"
        )
    };
    assert_eq!(
        scan("sparklet", src),
        vec![
            (3, "D5".to_string(), msg("std::sync::Mutex")),
            (5, "D5".to_string(), msg("std::sync::RwLock")),
        ]
    );
    assert_eq!(scan("simt", src), vec![], "simt implements park and keeps the raw lock");
}

#[test]
fn d7_flags_thread_locals_outside_simt() {
    let src = include_str!("fixtures/d7_thread_local.rs");
    assert_eq!(
        scan("obs", src),
        vec![(
            3,
            "D7".to_string(),
            "`thread_local!` outside simt: green threads share one OS thread, so this state \
             is shared by all of them and interleaves across blocking calls; keep per-task \
             state in `simt::with_local`"
                .to_string()
        )]
    );
    assert_eq!(scan("simt", src), vec![], "simt owns the OS thread and installs per-task state");
}

/// One bug per rule, written into the real tree: `(rule, file, text there
/// today, text of the bug)`.
const SEEDED: &[(&str, &str, &str, &str)] = &[
    (
        "D1",
        "crates/fabric/src/net.rs",
        "let now = simt::now();",
        "let now = std::time::Instant::now();",
    ),
    (
        "D2",
        "crates/netz/src/endpoint.rs",
        "simt::spawn_daemon(format!(\"netz-boss:{name}\"), move || {",
        "std::thread::spawn(move || {",
    ),
    (
        "D3",
        "crates/fabric/src/chaos.rs",
        "SeededRng::from_seed(seed)",
        "rand::rngs::SmallRng::from_entropy()",
    ),
    (
        "D4",
        "crates/sparklet/src/rpc.rs",
        "    endpoints: Arc<Mutex<BTreeMap<String, Queue<Inbound>>>>,\n    streams:",
        "    endpoints: Arc<Mutex<HashMap<String, Queue<Inbound>>>>,\n    streams:",
    ),
    ("D5", "crates/sparklet/src/rpc.rs", "use simt::sync::Mutex;", "use std::sync::Mutex;"),
    // `obs::span` kept its span stack and send scope in `thread_local!`s while
    // every green thread had an OS thread of its own; on one shared OS thread
    // that interleaves the stacks of different tasks.
    (
        "D7",
        "crates/obs/src/span.rs",
        "#[derive(Default)]\nstruct SpanContext {",
        "thread_local! {\n    static SPAN_STACK: RefCell<Vec<SpanId>> = const { \
         RefCell::new(Vec::new()) };\n    static SEND_SCOPE: Cell<SpanId> = const { \
         Cell::new(0) };\n}\n\n#[derive(Default)]\nstruct SpanContext {",
    ),
    (
        "P1",
        "crates/core/src/transport.rs",
        "let req = comm.irecv(Some(src), Some(tag));",
        "let _ = comm.irecv(Some(src), Some(tag));",
    ),
    (
        "P2",
        "crates/core/src/transport.rs",
        "// detlint: allow(P2, reason = \"demux daemon;",
        "// was waived: \"demux daemon;",
    ),
    (
        "P3",
        "crates/rmpi/src/coll.rs",
        "Some(coll_tag(OP_BARRIER_OUT, seq)))?;",
        "Some(coll_tag(OP_BARRIER_ACK, seq)))?;\n            \
         let _ = self.recv(Some(tree_parent(v)), Some(coll_tag(OP_BARRIER_OUT, seq)))?;",
    ),
];

#[test]
fn every_rule_catches_its_bug_seeded_into_the_real_tree() {
    // A rule earns its place by catching an instance in the tree it guards,
    // not only in a fixture: put each row's bug into the real workspace (in
    // memory) and require that finding — and nothing else — from the
    // whole-tree analysis.
    let seeded_rules: Vec<&str> = SEEDED.iter().map(|row| row.0).collect();
    assert_eq!(seeded_rules, RULES, "every rule in the catalog needs a row, in catalog order");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let mut files = workspace_sources(root).expect("workspace sources");
    for &(rule, path, today, bug) in SEEDED {
        let i = files.iter().position(|f| f.display_path == path).expect(path);
        assert!(files[i].src.contains(today), "{rule}: {path} no longer has the text to swap");
        let seeded = files[i].src.replacen(today, bug, 1);
        let clean = std::mem::replace(&mut files[i].src, seeded);
        let found: Vec<(String, String)> =
            analyze_files(&files).diagnostics.into_iter().map(|d| (d.path, d.rule)).collect();
        assert_eq!(found, vec![(path.to_string(), rule.to_string())], "seeded {rule} in {path}");
        files[i].src = clean;
    }
}

#[test]
fn every_rule_fires_on_the_scheduler_shaped_event_loop() {
    // A stage-attempt event loop (speculation tick, launch bookkeeping,
    // completion drain) violating D1-D5 all at once — the
    // exact shapes `sparklet::scheduler`'s engine must avoid, pinned here
    // so the sweep keeps guarding them.
    let src = include_str!("fixtures/sched_event_loop.rs");
    let diags = scan("sparklet", src);
    let rules: Vec<&str> = diags.iter().map(|(_, r, _)| r.as_str()).collect();
    assert_eq!(rules, vec!["D5", "D1", "D2", "D3", "D3", "D4"], "{diags:?}");
    assert_eq!(diags.iter().map(|(l, _, _)| *l).collect::<Vec<_>>(), vec![13, 15, 16, 17, 18, 20]);
    assert!(diags[0].2.contains("`std::sync::Mutex`"), "D5 names the lock: {}", diags[0].2);
    assert!(diags[5].2.contains("`launches`"), "D4 names the hash collection: {}", diags[5].2);
}

#[test]
fn allow_directives_with_reason_silence_findings() {
    let src = include_str!("fixtures/allowed.rs");
    assert_eq!(scan("netz", src), vec![]);
}

#[test]
fn allow_directive_without_reason_is_a_finding() {
    let src = include_str!("fixtures/bad_allow.rs");
    let diags = scan("netz", src);
    assert_eq!(diags.len(), 2, "the bad directive and the unwaived D1 both fire: {diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (4, "D1"));
    assert_eq!(diags[1].0, 4);
    assert_eq!(diags[1].1, "allow");
    assert!(diags[1].2.contains("must name a rule and a reason"), "{}", diags[1].2);
}

#[test]
fn code_under_cfg_test_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    pub fn t() {\n        \
               let _ = std::time::Instant::now();\n    }\n}\n";
    assert_eq!(scan("netz", src), vec![]);
}

#[test]
fn strings_and_comments_never_match() {
    let src = "pub fn doc() -> &'static str {\n    // std::thread::spawn is banned\n    \
               \"std::time::Instant::now()\"\n}\n";
    assert_eq!(scan("netz", src), vec![]);
}

#[test]
fn render_formats_are_stable() {
    let d = Diagnostic {
        path: "crates/x/src/a.rs".to_string(),
        line: 7,
        rule: "D1".to_string(),
        message: "msg".to_string(),
    };
    assert_eq!(d.render(), "crates/x/src/a.rs:7: D1: msg");
    assert_eq!(
        d.render_json(),
        "{\"path\":\"crates/x/src/a.rs\",\"line\":7,\"rule\":\"D1\",\"message\":\"msg\"}"
    );
}

#[test]
fn the_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let diags = scan_workspace(root).expect("workspace scan");
    let rendered: Vec<String> = diags.iter().map(Diagnostic::render).collect();
    assert!(rendered.is_empty(), "determinism lints must hold:\n{}", rendered.join("\n"));
}

// ---------------------------------------------------------------------------
// Workspace rules (P1-P3), stale waivers, and output formats
// ---------------------------------------------------------------------------

use detlint::{
    analyze_files, analyze_workspace, render_json_array, workspace_sources, SourceFile, RULES,
};

fn analyze(crate_name: &str, src: &str) -> Vec<(usize, String, String)> {
    analyze_files(&[SourceFile {
        display_path: "fixture.rs".to_string(),
        origin: origin(crate_name),
        src: src.to_string(),
    }])
    .diagnostics
    .into_iter()
    .map(|d| (d.line, d.rule, d.message))
    .collect()
}

#[test]
fn p1_flags_leaked_irecv_requests() {
    let src = include_str!("fixtures/p1_request_leak.rs");
    let diags = analyze("core", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        (diags[0].0, diags[0].1.as_str(), diags[0].2.as_str()),
        (
            4,
            "P1",
            "`irecv` Request discarded on the spot: the posted receive can never be \
             completed or cancelled and leaks its slot; bind the Request and \
             `wait`/`cancel` it (or `attach` it to a `CompletionSet`)"
        )
    );
    assert_eq!(
        (diags[1].0, diags[1].1.as_str(), diags[1].2.as_str()),
        (
            8,
            "P1",
            "`irecv` Request bound to `req` is never consumed: it must reach \
             `wait`/`wait_timeout`/`cancel`/`waitall`/`attach` or escape the function"
        )
    );
}

#[test]
fn p2_flags_untimed_recv_on_retry_covered_paths() {
    let src = include_str!("fixtures/p2_untimed_recv.rs");
    assert_eq!(
        analyze("core", src),
        vec![(
            7,
            "P2".to_string(),
            "untimed blocking `recv` on a retry-covered message path: `RetryPolicy` \
             resends after a timeout, but this receive can block forever and strand \
             the retry loop; use `irecv` + `wait_timeout`"
                .to_string()
        )]
    );
}

#[test]
fn p2_is_silent_inside_rmpi_itself() {
    let src = include_str!("fixtures/p2_untimed_recv.rs");
    assert_eq!(analyze("rmpi", src), vec![]);
}

#[test]
fn p3_flags_one_sided_tag_constants() {
    let src = include_str!("fixtures/p3_tag_mismatch.rs");
    assert_eq!(
        analyze("netz", src),
        vec![
            (
                7,
                "P3".to_string(),
                "tag constant `REQ_TAG` is sent but never received anywhere in the \
                 workspace: the message can never be matched; add the receive or \
                 fix the tag"
                    .to_string()
            ),
            (
                11,
                "P3".to_string(),
                "tag constant `ACK_TAG` is received but never sent anywhere in the \
                 workspace: this receive can never match; add the send or fix \
                 the tag"
                    .to_string()
            ),
        ]
    );
}

#[test]
fn allow_directive_can_name_multiple_rules() {
    let src =
        "pub fn f() {\n    // detlint: allow(D1, D2, reason = \"fixture exercises both\")\n    \
               let _ = std::time::Instant::now(); let _ = std::thread::spawn(|| ());\n}\n";
    assert_eq!(scan("netz", src), vec![]);
}

#[test]
fn empty_reason_is_a_finding_and_does_not_waive() {
    let src = "pub fn f() {\n    let _ = std::time::Instant::now(); \
               // detlint: allow(D1, reason = \"\")\n}\n";
    let diags = scan("netz", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (2, "D1"));
    assert_eq!(diags[1].1, "allow");
    assert!(diags[1].2.contains("must name a rule and a reason"), "{}", diags[1].2);
}

#[test]
fn malformed_rule_name_is_a_finding_and_does_not_waive() {
    let src = "pub fn f() {\n    let _ = std::time::Instant::now(); \
               // detlint: allow(D1, D9?, reason = \"broken rule id\")\n}\n";
    let diags = scan("netz", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (2, "D1"));
    assert_eq!(diags[1].1, "allow");
}

#[test]
fn directive_on_the_last_line_is_reported_stale() {
    let src = "pub fn f() {}\n// detlint: allow(D1, reason = \"nothing left to waive\")";
    let diags = analyze("netz", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (2, "stale"));
    assert!(diags[0].2.contains("`D1` never fires"), "{}", diags[0].2);
}

#[test]
fn scan_source_does_not_report_stale_waivers_but_analyze_files_does() {
    let src = "pub fn f() {\n    // detlint: allow(D1, reason = \"stale on purpose\")\n    \
               let _x = 1;\n}\n";
    assert_eq!(scan("netz", src), vec![]);
    let diags = analyze("netz", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (2, "stale"));
}

#[test]
fn unused_rule_in_a_multi_rule_directive_is_stale() {
    let src = "pub fn f() {\n    // detlint: allow(D1, D2, reason = \"only D1 fires\")\n    \
               let _ = std::time::Instant::now();\n}\n";
    let diags = analyze("netz", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (2, "stale"));
    assert!(diags[0].2.contains("`D2`"), "{}", diags[0].2);
}

#[test]
fn json_array_output_is_one_valid_array() {
    assert_eq!(render_json_array(&[]), "[]");
    let diags = vec![
        Diagnostic {
            path: "a.rs".to_string(),
            line: 1,
            rule: "D1".to_string(),
            message: "m1".to_string(),
        },
        Diagnostic {
            path: "b.rs".to_string(),
            line: 2,
            rule: "P3".to_string(),
            message: "m2".to_string(),
        },
    ];
    let expected = format!("[\n  {},\n  {}\n]", diags[0].render_json(), diags[1].render_json());
    assert_eq!(render_json_array(&diags), expected);
}

#[test]
fn workspace_analysis_is_clean_and_indexes_real_symbols() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let analysis = analyze_workspace(root).expect("workspace analysis");
    let rendered: Vec<String> = analysis.diagnostics.iter().map(Diagnostic::render).collect();
    assert!(rendered.is_empty(), "workspace rules must hold:\n{}", rendered.join("\n"));
    assert!(analysis.stats.files > 30, "{:?}", analysis.stats);
    assert!(analysis.stats.fns > 200, "{:?}", analysis.stats);
    assert!(analysis.stats.rmpi_sites > 10, "{:?}", analysis.stats);
}
