//! L008 batched-conformance: every registered algorithm is certified on
//! the off-path control plane.
//!
//! The batched-report conformance battery in `tests/cc_conformance.rs`
//! drives each entry of its `BATCHED_CONFORMANCE` list end-to-end on
//! 1-RTT aggregated `MeasurementReport`s. This check extracts that list
//! and, from every `fn register_algorithms` body, each *literal* name
//! handed to a direct `register*("name", ...)` call, and diagnoses any
//! registration whose name is absent from the list. A deliberate gap
//! (an algorithm that genuinely cannot run batched) is documented
//! in-place with `// lint: allow(L008) — <reason>` at the registration.
//!
//! Names constructed dynamically (the TCP family's `format!("{name}")`
//! loop) carry no literal and are invisible here by design; the runtime
//! set-equality test `batched_conformance_list_matches_the_registry`
//! closes that hole against the live registry.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// The extracted `BATCHED_CONFORMANCE` list with its source anchor.
#[derive(Debug)]
pub struct ConformanceList {
    /// Every literal entry of the list.
    pub names: BTreeSet<String>,
    /// Line of the `BATCHED_CONFORMANCE` identifier.
    pub line: u32,
    /// Column of the `BATCHED_CONFORMANCE` identifier.
    pub col: u32,
}

/// One literal registration site inside a `register_algorithms` body.
#[derive(Debug)]
pub struct RegSite {
    /// The registered name.
    pub name: String,
    /// Line of the name literal.
    pub line: u32,
    /// Column of the name literal.
    pub col: u32,
}

/// Extract the `BATCHED_CONFORMANCE` const's entries from a lexed file,
/// if it defines one: every string literal between the identifier and the
/// statement's terminating `;`.
pub fn extract_list(toks: &[Tok]) -> Option<ConformanceList> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let ix = code
        .iter()
        .position(|t| t.is_ident("BATCHED_CONFORMANCE"))?;
    let mut names = BTreeSet::new();
    for t in code.iter().skip(ix + 1) {
        if t.is_punct(';') {
            break;
        }
        if t.kind == TokKind::Str {
            names.insert(unquote(&t.text));
        }
    }
    Some(ConformanceList {
        names,
        line: code[ix].line,
        col: code[ix].col,
    })
}

/// Extract every literal registration from a lexed file's
/// `fn register_algorithms` body: `register*("name", ...)` call sites
/// (including `register_alias`), anchored at the name literal.
pub fn extract_registered(toks: &[Tok]) -> Vec<RegSite> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let Some(fn_ix) = code
        .windows(2)
        .position(|w| w[0].is_ident("fn") && w[1].is_ident("register_algorithms"))
    else {
        return Vec::new();
    };
    let Some(open) = (fn_ix..code.len()).find(|&j| code[j].is_punct('{')) else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut close = code.len();
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        }
    }
    let body = &code[open..close];
    let mut sites = Vec::new();
    for (j, t) in body.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text.starts_with("register")
            && t.text != "register_algorithms"
            && body.get(j + 1).is_some_and(|p| p.is_punct('('))
        {
            if let Some(lit) = body.get(j + 2).filter(|l| l.kind == TokKind::Str) {
                sites.push(RegSite {
                    name: unquote(&lit.text),
                    line: lit.line,
                    col: lit.col,
                });
            }
        }
    }
    sites
}

/// Strip the quoting from a string literal's source text.
fn unquote(lit: &str) -> String {
    lit.trim_start_matches(['r', 'b'])
        .trim_matches('#')
        .trim_matches('"')
        .to_string()
}

/// Diagnose every literal registration in `path` whose name the
/// conformance list does not carry.
pub fn check(list: &ConformanceList, path: &str, sites: &[RegSite]) -> Vec<Diagnostic> {
    sites
        .iter()
        .filter(|s| !list.names.contains(&s.name))
        .map(|s| Diagnostic {
            id: "L008",
            path: path.to_string(),
            line: s.line,
            col: s.col,
            message: format!(
                "`{}` is registered but absent from the batched conformance list \
                 (BATCHED_CONFORMANCE in tests/cc_conformance.rs) — it would never be \
                 exercised on the off-path report plane",
                s.name
            ),
            help: Some(
                "add it to BATCHED_CONFORMANCE (and make the batched battery pass), or \
                 suppress with `// lint: allow(L008) — <why it cannot run batched>`"
                    .to_string(),
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const LIST: &str = r#"
        const BATCHED_CONFORMANCE: &[&str] = &["cubic", "sabul"];
    "#;

    const REGS: &str = r#"
        pub fn register_algorithms() {
            registry::register_with_schema("sabul", S, f);
            registry::register_with_schema("pcp", S, f);
            registry::register_alias("reno", "newreno");
        }
    "#;

    #[test]
    fn list_extraction_collects_every_entry() {
        let l = extract_list(&lex(LIST)).expect("found const");
        let names: Vec<&str> = l.names.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["cubic", "sabul"]);
    }

    #[test]
    fn registration_extraction_takes_literal_first_args() {
        let sites = extract_registered(&lex(REGS));
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        // The alias's first literal is itself a resolvable name.
        assert_eq!(names, vec!["sabul", "pcp", "reno"]);
    }

    #[test]
    fn uncovered_registration_fires_covered_stays_silent() {
        let list = extract_list(&lex(LIST)).unwrap();
        let sites = extract_registered(&lex(REGS));
        let diags = check(&list, "rate/lib.rs", &sites);
        let flagged: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(diags.len(), 2, "{flagged:?}"); // pcp + reno, not sabul
        assert!(diags.iter().all(|d| d.id == "L008"));
        assert!(diags.iter().any(|d| d.message.contains("`pcp`")));
        assert!(diags.iter().any(|d| d.message.contains("`reno`")));
    }

    #[test]
    fn dynamic_registrations_are_invisible() {
        // The TCP family's loop carries no literal name: nothing to check
        // statically (the runtime set-equality test covers it).
        let sites = extract_registered(&lex(
            "fn register_algorithms() { for n in ALL { register_with_schema(n, s, f); } }",
        ));
        assert!(sites.is_empty());
    }

    #[test]
    fn no_fn_no_sites() {
        assert!(extract_registered(&lex("fn other() {}")).is_empty());
        assert!(extract_list(&lex("const OTHER: &[&str] = &[];")).is_none());
    }
}
