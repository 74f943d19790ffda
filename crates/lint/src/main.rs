//! CLI front end: `goggles-lint --workspace` (discover the workspace root
//! from the current directory) or `goggles-lint --root <path>`. Exits 0
//! when clean, 1 on violations, 2 on usage or I/O errors — so CI can gate
//! on it directly. `--format json` emits a machine-readable report (used by
//! CI to archive findings as an artifact).

use goggles_lint::{Diagnostic, Workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
goggles-lint: machine-check the workspace's determinism, atomic-ordering,
wire-exhaustiveness, lock-order, panic-reachability, hot-loop-allocation,
and dead-pub invariants.

usage:
  goggles-lint --workspace      lint the enclosing cargo workspace (default)
  goggles-lint --root <path>    lint the tree rooted at <path>
  goggles-lint --format <fmt>   output format: text (default) or json
  goggles-lint --help           this text

exit status: 0 clean, 1 violations found, 2 usage or I/O error
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (root, format) = match parse_args(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("goggles-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match root {
        Some(path) => path,
        None => match workspace_root() {
            Ok(path) => path,
            Err(msg) => {
                eprintln!("goggles-lint: {msg}");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        },
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("goggles-lint: failed to load {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let diagnostics = ws.lint();
    let files = ws.files.len();
    match format {
        Format::Text => {
            for d in &diagnostics {
                println!("{d}");
            }
        }
        Format::Json => print!("{}", render_json(files, &diagnostics)),
    }
    if diagnostics.is_empty() {
        eprintln!("goggles-lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("goggles-lint: {} violation(s) across {files} files", diagnostics.len());
        ExitCode::from(1)
    }
}

/// The stable JSON report shape:
///
/// ```json
/// {"files": N, "violations": M, "findings": [
///   {"rule": "...", "path": "...", "line": L, "message": "...", "chain": ["...", ...]},
/// ]}
/// ```
///
/// `findings` preserves the sorted text-output order; `chain` is empty for
/// single-site rules.
fn render_json(files: usize, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"files\": {files},\n  \"violations\": {},\n  \"findings\": [",
        diagnostics.len()
    ));
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"chain\": [",
            json_str(d.rule),
            json_str(&d.file),
            d.line,
            json_str(&d.message)
        ));
        for (j, hop) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(hop));
        }
        out.push_str("]}");
    }
    if diagnostics.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Minimal JSON string encoder — the escapes the spec requires, nothing
/// else (no registry deps, so no serde).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `Ok(Some((root, format)))` to lint (`root` of `None` means "discover the
/// enclosing workspace"), `Ok(None)` for `--help`, `Err` on bad usage.
#[allow(clippy::type_complexity)]
fn parse_args(args: &[String]) -> Result<Option<(Option<PathBuf>, Format)>, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--help" | "-h" => return Ok(None),
            "--root" => {
                let path = it.next().ok_or("--root requires a path")?;
                root = Some(PathBuf::from(path));
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(other) => return Err(format!("unknown format `{other}`")),
                    None => return Err("--format requires `text` or `json`".to_string()),
                };
            }
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    Ok(Some((root, format)))
}

/// Walk ancestors of the current directory for the `Cargo.toml` that
/// declares `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    for dir in cwd.ancestors() {
        if is_workspace_manifest(&dir.join("Cargo.toml")) {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!("no workspace Cargo.toml found above {}", cwd.display()))
}

fn is_workspace_manifest(manifest: &Path) -> bool {
    std::fs::read_to_string(manifest)
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}
