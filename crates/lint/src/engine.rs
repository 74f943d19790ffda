//! The path-scoped rule engine: loads a workspace's sources, resolves
//! `goggles-lint: allow(...)` escape hatches, skips test code, and runs
//! every rule.

use crate::lexer::{lex, Comment, Lexed, Token};
use crate::rules;
use std::cell::Cell;
use std::fmt;
use std::path::{Path, PathBuf};

/// One reported violation, formatted as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name, as used in `allow(<rule>)`.
    pub rule: &'static str,
    pub message: String,
    /// Call-chain witness for the flow rules (`lock-order`, `panic-reach`);
    /// empty for single-site findings. Rendered structurally in `--format
    /// json`, and already part of `message` in text output.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// A parsed `// goggles-lint: allow(<rule>): <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    /// Line the annotation comment *ends* on.
    pub line: usize,
    /// Whole-file scope (`allow-file`) instead of line scope.
    pub file_scope: bool,
    /// No code shares the comment's line: the allow covers the *next* line.
    /// A trailing comment (code on the same line) covers only its own line.
    pub standalone: bool,
}

/// One lexed source file plus everything the rules need to scope and
/// suppress their findings.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (rule scoping keys off this).
    pub rel: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    allows: Vec<Allow>,
    /// `used[i]`: `allows[i]` has suppressed at least one finding. An allow
    /// that never does is reported once the rules have run.
    used: Vec<Cell<bool>>,
    /// `goggles-lint: allow(...)` annotations that are themselves malformed
    /// (missing reason, unknown rule) — reported as violations.
    bad_allows: Vec<Diagnostic>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items; findings inside are
    /// dropped (test code may panic freely).
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and annotate one source file.
    pub fn new(rel: String, src: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(src);
        let (allows, bad_allows) = parse_allows(&rel, &comments, &tokens);
        let test_ranges = find_test_ranges(&tokens);
        let used = vec![Cell::new(false); allows.len()];
        SourceFile { rel, tokens, comments, allows, used, bad_allows, test_ranges }
    }

    /// Whether `line` is inside test-only code.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether a finding of `rule` at `line` is suppressed by an allow
    /// annotation: file-scoped, same-line, or on the directly preceding
    /// line. Every allow that matches is marked used, so ask only about a
    /// real finding.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        let mut allowed = false;
        for (a, used) in self.allows.iter().zip(&self.used) {
            if a.rule == rule
                && (a.file_scope || a.line == line || (a.standalone && a.line + 1 == line))
            {
                used.set(true);
                allowed = true;
            }
        }
        allowed
    }

    /// `bad-allow` findings: the malformed annotations, and the allows that
    /// suppressed nothing in this run (a stale allow would silently cover
    /// the next real finding on its line).
    fn allow_findings(&self) -> impl Iterator<Item = Diagnostic> + '_ {
        let unused =
            self.allows.iter().zip(&self.used).filter(|(_, used)| !used.get()).map(|(a, _)| {
                bad_allow(
                    &self.rel,
                    a.line,
                    &format!("allow({}) suppresses nothing here; delete it", a.rule),
                )
            });
        self.bad_allows.iter().cloned().chain(unused)
    }

    /// Report a finding unless it is in test code or allow-annotated.
    pub fn report(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: &'static str,
        line: usize,
        message: String,
    ) {
        self.report_chain(out, rule, line, message, Vec::new());
    }

    /// Report a finding carrying a call-chain witness.
    pub fn report_chain(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: &'static str,
        line: usize,
        message: String,
        chain: Vec<String>,
    ) {
        if self.in_test_code(line) || self.is_allowed(rule, line) {
            return;
        }
        out.push(Diagnostic { file: self.rel.clone(), line, rule, message, chain });
    }
}

/// The loaded workspace view every rule runs over.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// Test/bench/example sources: linted only by `nan-cmp`, and lexed
    /// (once, like everything else) as the reference corpus the `dead-pub`
    /// audit counts as external users of an API.
    pub ref_files: Vec<SourceFile>,
}

/// Directory names never descended into: build output, the lint fixtures
/// themselves, and the vendored shims (they mimic third-party APIs; their
/// code is not product code).
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", "shims"];

/// Test/bench/example code: the reference corpus.
const REF_DIRS: &[&str] = &["tests", "benches", "examples"];

impl Workspace {
    /// Load every `.rs` file under `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut ref_files = Vec::new();
        walk(root, root, &mut files, &mut ref_files, false)?;
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        ref_files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { root: root.to_path_buf(), files, ref_files })
    }

    /// The source file at a workspace-relative path, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Run every rule; diagnostics come back sorted by file and line.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        rules::run_all(self, &mut out);
        for file in self.files.iter().chain(&self.ref_files) {
            out.extend(file.allow_findings());
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Collect the `.rs` files under `dir`; `reference` is set once the walk
/// is inside a [`REF_DIRS`] directory.
fn walk(
    root: &Path,
    dir: &Path,
    files: &mut Vec<SourceFile>,
    ref_files: &mut Vec<SourceFile>,
    reference: bool,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            let reference = reference || REF_DIRS.contains(&name.as_str());
            walk(root, &path, files, ref_files, reference)?;
        } else if name.ends_with(".rs") {
            let src = std::fs::read_to_string(&path)?;
            let file = SourceFile::new(rel_of(root, &path), &src);
            if reference {
                ref_files.push(file)
            } else {
                files.push(file)
            }
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extract `goggles-lint: allow(<rule>): <reason>` (and `allow-file`)
/// annotations from a file's comments. Malformed annotations — missing
/// reason, unknown rule — are violations themselves: a silent typo must not
/// silently disable a rule.
fn parse_allows(
    rel: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let code_lines: std::collections::BTreeSet<usize> = tokens.iter().map(|t| t.line).collect();
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for comment in comments {
        // The directive must BE the comment, not be quoted mid-prose: strip
        // the comment leader (`//`, `///`, `//!`, `/*`, `/**`) and require
        // the marker at the front. Docs that merely mention the syntax are
        // not directives.
        let content = comment.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(directive) = content.strip_prefix("goggles-lint:") else { continue };
        let directive = directive.trim();
        let file_scope = directive.starts_with("allow-file(");
        let Some(open) = directive.find('(') else {
            bad.push(bad_allow(rel, comment.line, "expected `allow(<rule>): <reason>`"));
            continue;
        };
        if !directive.starts_with("allow(") && !file_scope {
            bad.push(bad_allow(
                rel,
                comment.line,
                "unknown directive (use `allow` or `allow-file`)",
            ));
            continue;
        }
        let Some(close) = directive.find(')') else {
            bad.push(bad_allow(rel, comment.line, "unclosed `allow(`"));
            continue;
        };
        let rule = directive[open + 1..close].trim().to_string();
        if !rules::RULE_NAMES.contains(&rule.as_str()) {
            bad.push(bad_allow(
                rel,
                comment.line,
                &format!("unknown rule `{rule}` (rules: {})", rules::RULE_NAMES.join(", ")),
            ));
            continue;
        }
        let reason = directive[close + 1..].trim_start_matches(':').trim();
        if reason.is_empty() {
            bad.push(bad_allow(
                rel,
                comment.line,
                &format!("allow({rule}) needs a reason: `allow({rule}): <why this is safe>`"),
            ));
            continue;
        }
        allows.push(Allow {
            rule,
            line: comment.end_line,
            file_scope,
            standalone: !code_lines.contains(&comment.end_line),
        });
    }
    (allows, bad)
}

fn bad_allow(rel: &str, line: usize, message: &str) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line,
        rule: "bad-allow",
        message: message.to_string(),
        chain: Vec::new(),
    }
}

/// Find the inclusive line ranges of `#[cfg(test)]` items (modules or
/// functions) by matching the attribute token shape and then brace-matching
/// the item body that follows.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            let start_line = tokens[i].line;
            // Skip past this attribute (7 tokens: # [ cfg ( test ) ]) and
            // any further attributes, then find the item's opening brace.
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            let mut depth = 0usize;
            let mut end_line = start_line;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct(';') && depth == 0 {
                    end_line = t.line; // e.g. `#[cfg(test)] mod tests;`
                    break;
                }
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                end_line = t.line;
                j += 1;
            }
            ranges.push((start_line, end_line));
            i = j;
        }
        i += 1;
    }
    ranges
}

fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct('#')
        && tokens[i + 1].is_punct('[')
        && tokens[i + 2].ident() == Some("cfg")
        && tokens[i + 3].is_punct('(')
        && tokens[i + 4].ident() == Some("test")
        && tokens[i + 5].is_punct(')')
        && tokens[i + 6].is_punct(']')
}

/// Given `tokens[i] == '#'` starting an attribute, return the index just
/// past its closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_ranged() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn allow_parses_and_scopes() {
        let src = "\
// goggles-lint: allow(alloc-hot): one allocation per batch, not per item
let a = x.to_vec();
let b = y.to_vec(); // goggles-lint: allow(alloc-hot): same line
let c = z.to_vec();
";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(f.is_allowed("alloc-hot", 2), "next-line scope");
        assert!(f.is_allowed("alloc-hot", 3), "same-line scope");
        assert!(!f.is_allowed("alloc-hot", 4));
        assert!(!f.is_allowed("atomics", 2), "other rules unaffected");
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// goggles-lint: allow-file(atomics): shutdown flags\nfn f() {}\nfn g() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(f.is_allowed("atomics", 3));
    }

    #[test]
    fn malformed_allows_are_violations() {
        for bad in [
            "// goggles-lint: allow(atomics)",         // no reason
            "// goggles-lint: allow(atomics):   ",     // blank reason
            "// goggles-lint: allow(no-such-rule): x", // unknown rule
            "// goggles-lint: permit(atomics): x",     // unknown directive
        ] {
            let f = SourceFile::new("a.rs".into(), &format!("{bad}\nx.load(Ordering::SeqCst);\n"));
            assert_eq!(f.bad_allows.len(), 1, "{bad}");
            assert!(!f.is_allowed("atomics", 2), "{bad} must not suppress");
        }
    }
}
