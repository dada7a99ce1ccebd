//! Rule D5 — panic-freedom in the serving path.
//!
//! The daemon serves live connections; a panic there tears down a
//! session (or the whole process) instead of returning a protocol
//! error. The files on the serving path therefore get a stricter gate
//! than D4: *no* panicking construct at all in non-test code — no
//! `unwrap`/`expect`, no `panic!`/`unreachable!`/`todo!`/
//! `unimplemented!`, and no bare slice indexing `x[i]` (which panics on
//! out-of-range). This is a hard zero, not a ratchet.

use crate::rules::{Violation, WorkspaceFile};

/// Files on the live serving path, held to the panic-free standard.
/// The store crate journals live daemon sessions, so everything except
/// its const-fn CRC table (whose bare indexing is compile-time-bounded
/// table construction) serves under the same gate; so do the LE
/// primitives both formats decode hostile bytes with, and the protocol
/// file, whose `Request::to_event` validates every keyed request.
pub const D5_SERVING_FILES: [&str; 18] = [
    "crates/interval/src/le.rs",
    "crates/daemon/src/codec.rs",
    "crates/daemon/src/protocol.rs",
    "crates/daemon/src/session.rs",
    "crates/daemon/src/server.rs",
    "crates/daemon/src/client.rs",
    "crates/daemon/src/shutdown.rs",
    "crates/node/src/events.rs",
    "crates/node/src/engine.rs",
    "crates/node/src/run.rs",
    "crates/node/src/state.rs",
    "crates/store/src/lib.rs",
    "crates/store/src/record.rs",
    "crates/store/src/reader.rs",
    "crates/store/src/writer.rs",
    "crates/store/src/index.rs",
    "crates/store/src/replay.rs",
    "crates/store/src/ops.rs",
];

/// Panicking constructs rejected outright. `debug_assert!` is allowed:
/// it vanishes in release builds and documents invariants.
const PANIC_TOKENS: [(&str, &str); 6] = [
    (".unwrap()", "return a protocol/wire error instead of panicking"),
    (".expect(", "return a protocol/wire error instead of panicking"),
    (
        "panic!",
        "the serving path must degrade, not die; return an error variant",
    ),
    (
        "unreachable!",
        "make the match total or return an error for the impossible arm",
    ),
    ("todo!", "finish the path or return an explicit unsupported error"),
    (
        "unimplemented!",
        "finish the path or return an explicit unsupported error",
    ),
];

/// Checks rule D5 over the given files; files outside
/// [`D5_SERVING_FILES`] are ignored.
pub fn check_d5(files: &[WorkspaceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !D5_SERVING_FILES.contains(&file.rel_path.as_str()) {
            continue;
        }
        for (token, hint) in PANIC_TOKENS {
            for at in file.model.find_token(token) {
                out.push(Violation {
                    rule: "D5",
                    file: file.rel_path.clone(),
                    line: file.model.line_of(at),
                    col: file.model.col_of(at),
                    message: format!("{token} on the serving path"),
                    hint: hint.to_string(),
                });
            }
        }
        for at in file.model.bare_index_sites() {
            out.push(Violation {
                rule: "D5",
                file: file.rel_path.clone(),
                line: file.model.line_of(at),
                col: file.model.col_of(at),
                message: "bare slice index on the serving path".to_string(),
                hint: "use .get()/.get_mut() and handle None; indexing panics on out-of-range"
                    .to_string(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceModel;

    fn file(rel: &str, src: &str) -> WorkspaceFile {
        WorkspaceFile {
            rel_path: rel.to_string(),
            model: SourceModel::new(src),
        }
    }

    #[test]
    fn flags_each_panicking_construct_once() {
        let src = "\
fn f(x: Option<u8>, v: &[u8]) -> u8 {
    let a = x.unwrap();
    let b = v[0];
    if a > b { panic!(\"no\") } else { unreachable!() }
}
";
        let v = check_d5(&[file("crates/daemon/src/session.rs", src)]);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|v| v.rule == "D5"));
    }

    #[test]
    fn only_serving_files_are_gated() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        assert!(check_d5(&[file("crates/interval/src/set.rs", src)]).is_empty());
        assert_eq!(check_d5(&[file("crates/node/src/state.rs", src)]).len(), 1);
    }

    #[test]
    fn test_code_and_debug_asserts_pass() {
        let src = "\
fn f(v: &[u8]) {
    debug_assert!(v.len() > 1, \"short\");
}
#[cfg(test)]
mod tests {
    fn t(v: &[u8]) -> u8 { v[0] + x.unwrap() }
}
";
        assert!(check_d5(&[file("crates/daemon/src/codec.rs", src)]).is_empty());
    }
}
