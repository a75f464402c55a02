//! Rules P1–P3: communication-protocol checks over the workspace index.
//!
//! The bug classes here are the ones Spark↔MPI bridge papers report as the
//! hard ones — orphaned non-blocking requests, receives that outlive their
//! retry budget, and tag constants that only one side of a conversation
//! uses. All three are cross-file properties a per-file scanner cannot see.

use std::collections::BTreeMap;

use crate::index::{IrecvUse, RmpiKind, WorkspaceIndex};
use crate::{Diagnostic, FilePrep, MESSAGE_PATH_CRATES};

pub(crate) fn run(idx: &WorkspaceIndex, preps: &[FilePrep]) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let site = |file: usize, pos: usize| -> (String, usize) {
        (preps[file].display.clone(), preps[file].masked.line_of(pos))
    };

    // --- P1: every irecv Request must complete, cancel, or escape ----------
    for s in &idx.irecvs {
        let (path, line) = site(s.file, s.pos);
        match &s.usage {
            IrecvUse::Discarded => out.push(Diagnostic {
                path,
                line,
                rule: "P1".to_string(),
                message: "`irecv` Request discarded on the spot: the posted receive can \
                          never be completed or cancelled and leaks its slot; bind the \
                          Request and `wait`/`cancel` it (or `attach` it to a \
                          `CompletionSet`)"
                    .to_string(),
            }),
            IrecvUse::BoundUnused(name) => out.push(Diagnostic {
                path,
                line,
                rule: "P1".to_string(),
                message: format!(
                    "`irecv` Request bound to `{name}` is never consumed: it must reach \
                     `wait`/`wait_timeout`/`cancel`/`waitall`/`attach` or escape the \
                     function"
                ),
            }),
            IrecvUse::Chained | IrecvUse::Consumed => {}
        }
    }

    // --- P2: no untimed recv on retry-covered message paths -----------------
    // `RetryPolicy` resends after a timeout; a receive with no bound can
    // outlive every retry and strand the recovery path. rmpi itself is the
    // primitive layer the policy is built on and stays exempt.
    if idx.retry_armed {
        for s in &idx.rmpi {
            if s.kind != RmpiKind::Recv {
                continue;
            }
            let crate_name = preps[s.file].origin.crate_name.as_str();
            if !MESSAGE_PATH_CRATES.contains(&crate_name) || crate_name == "rmpi" {
                continue;
            }
            let (path, line) = site(s.file, s.pos);
            out.push(Diagnostic {
                path,
                line,
                rule: "P2".to_string(),
                message: "untimed blocking `recv` on a retry-covered message path: \
                          `RetryPolicy` resends after a timeout, but this receive can \
                          block forever and strand the retry loop; use `irecv` + \
                          `wait_timeout`"
                    .to_string(),
            });
        }
    }

    // --- P3: send/recv tag-constant consistency across crates ---------------
    // Only tag-shaped constants participate (`..TAG..`, `OP_..`): priority or
    // size constants that happen to ride in an argument list stay out, as do
    // the wildcards.
    let tagish = |c: &str| {
        (c.contains("TAG") || c.starts_with("OP_")) && c != "ANY_TAG" && c != "ANY_SOURCE"
    };
    let mut sent: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut received: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for s in &idx.rmpi {
        let book = match s.kind {
            RmpiKind::Send => &mut sent,
            RmpiKind::Recv | RmpiKind::Irecv => &mut received,
        };
        for c in &s.tag_consts {
            if tagish(c) {
                book.entry(c.clone()).or_insert((s.file, s.pos));
            }
        }
    }
    for (c, &(file, pos)) in &sent {
        if !received.contains_key(c) {
            let (path, line) = site(file, pos);
            out.push(Diagnostic {
                path,
                line,
                rule: "P3".to_string(),
                message: format!(
                    "tag constant `{c}` is sent but never received anywhere in the \
                     workspace: the message can never be matched; add the receive or \
                     fix the tag"
                ),
            });
        }
    }
    for (c, &(file, pos)) in &received {
        if !sent.contains_key(c) {
            let (path, line) = site(file, pos);
            out.push(Diagnostic {
                path,
                line,
                rule: "P3".to_string(),
                message: format!(
                    "tag constant `{c}` is received but never sent anywhere in the \
                     workspace: this receive can never match; add the send or fix \
                     the tag"
                ),
            });
        }
    }

    out
}
