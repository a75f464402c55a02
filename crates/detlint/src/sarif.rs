//! SARIF 2.1.0 rendering, for CI code-scanning annotations.
//!
//! Deliberately minimal: one run, a static rule catalog, one result per
//! diagnostic with a physical location. Paths and messages are ASCII by
//! construction, so `{:?}` escaping (which render_json already relies on)
//! is JSON-compatible here too.

use crate::Diagnostic;

/// `(id, short description)` for every rule the scanner can emit.
pub const RULES: &[(&str, &str)] = &[
    ("D1", "No wall-clock time outside the simulator engine"),
    ("D2", "No OS threads: green threads come from the simulator"),
    ("D3", "No OS-entropy randomness; all randomness derives from the run seed"),
    ("D4", "No hash-order iteration on message-path crates"),
    ("D5", "No lock guard held across a blocking simt primitive"),
    ("D6", "No busy-spin polling of non-blocking requests"),
    ("D7", "No thread_local! outside simt: green threads share one OS thread"),
    ("L1", "No lock-order inversions or cycles in the static lock-order graph"),
    ("P1", "Every irecv Request must complete, cancel, or escape its function"),
    ("P2", "No untimed recv on message paths covered by RetryPolicy"),
    ("P3", "Tag constants must appear on both the send and receive side"),
    ("allow", "Allow directives must name a rule and a reason"),
    ("stale", "Waivers that no longer suppress a finding must be removed"),
];

/// Render diagnostics as a SARIF 2.1.0 log (one run, tool `detlint`).
pub fn render(diags: &[Diagnostic]) -> String {
    let rules: Vec<String> = RULES
        .iter()
        .map(|(id, desc)| format!("{{\"id\":{id:?},\"shortDescription\":{{\"text\":{desc:?}}}}}",))
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"ruleId\":{:?},\"level\":\"error\",\"message\":{{\"text\":{:?}}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":{:?}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                d.rule, d.message, d.path, d.line
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"detlint\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}
