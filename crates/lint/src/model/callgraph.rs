//! The approximate workspace call graph.
//!
//! Resolution is **name-based and over-approximate** — there is no type
//! inference. A call site resolves to:
//!
//! - `Type::method(` → exactly the methods of workspace `impl Type` blocks
//!   (precise, because the type is named at the call);
//! - `module::f(` → free functions named `f`, preferring ones whose module
//!   path ends in `module`; qualifiers the file's `use` map traces to `std`/
//!   `core`/`alloc` (or that name well-known std types) resolve to nothing;
//! - `recv.method(` → every workspace method named `method`, unless the name
//!   is on the std-collision blocklist (`push`, `get`, `len`, … would alias
//!   half the standard library onto workspace types);
//! - `f(` → free functions named `f`, preferring same-file definitions.
//!
//! Over-approximation (extra edges) makes the flow rules err toward
//! reporting; the blocklist makes the common std calls err toward silence.
//! Both trade-offs are documented in the README's caveats.

use super::items::{FileItems, FnItem};
use crate::engine::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// One call site inside a fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee name in the file's token stream.
    pub tok: usize,
    pub line: usize,
    pub name: String,
    /// Resolved workspace callees (indices into the fn table); empty when
    /// the call leaves the workspace (std, closures, blocklisted names).
    pub targets: Vec<usize>,
}

/// Call sites per fn, index-aligned with the fn table.
#[derive(Debug)]
pub struct CallGraph {
    pub sites: Vec<Vec<CallSite>>,
}

/// Method names too std-generic to resolve by name alone: a workspace type
/// defining `push` or `get` must not capture every `Vec::push` in the tree.
/// Type-qualified calls (`TraceRing::push(…)`) still resolve precisely.
const METHOD_BLOCKLIST: &[&str] = &[
    "new",
    "clone",
    "default",
    "fmt",
    "drop",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "set",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "next",
    "peek",
    "send",
    "recv",
    "try_recv",
    "lock",
    "try_lock",
    "read",
    "write",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "join",
    "spawn",
    "flush",
    "write_all",
    "read_exact",
    "read_to_end",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "extend_from_slice",
    "take",
    "replace",
    "swap",
    "load",
    "store",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "min",
    "max",
    "clamp",
    "abs",
    "sqrt",
    "exp",
    "ln",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "to_vec",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "into_iter",
    "collect",
    "map",
    "filter",
    "fold",
    "sum",
    "count",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "skip",
    "position",
    "find",
    "any",
    "all",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "expect",
    "unwrap",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "shutdown",
    "elapsed",
    "duration_since",
    "parse",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "get_or_insert_with",
    "retain",
    "entry",
    "keys",
    "values",
    "drain",
    "last",
    "first",
    "copied",
    "cloned",
    "into",
    "from",
    "write_fmt",
];

/// Well-known std path qualifiers, used when a file's `use` map does not
/// classify the name.
const STD_QUALIFIERS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "Arc",
    "Rc",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "Option",
    "Result",
    "Instant",
    "Duration",
    "Ordering",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Mutex",
    "Condvar",
    "RwLock",
    "PoisonError",
    "TcpStream",
    "TcpListener",
    "SocketAddr",
    "Path",
    "PathBuf",
    "OsStr",
    "Command",
    "ExitCode",
    "Iterator",
    "Default",
    "Clone",
    "Drop",
    "From",
    "Into",
    "TryFrom",
    "TryInto",
    "char",
    "str",
    "f32",
    "f64",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "isize",
    "mem",
    "ptr",
    "fmt",
    "io",
    "fs",
    "env",
    "thread",
    "process",
    "cmp",
    "iter",
    "slice",
    "array",
    "Some",
    "Ok",
    "Err",
];

/// Keywords that read like calls (`if (…)`, `match (…)`) but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "move", "loop", "else", "break",
    "continue", "let", "mut", "ref", "box", "await", "unsafe", "dyn", "fn", "impl", "where", "pub",
    "use", "mod", "struct", "enum", "trait", "type", "const", "static", "crate", "super", "yield",
];

pub fn build(ws: &Workspace, per_file: &[FileItems], fns: &[FnItem]) -> CallGraph {
    // Name → candidate fn indices, test fns excluded (they are not part of
    // the product graph).
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut workspace_types: BTreeSet<&str> = BTreeSet::new();
    for (idx, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        match &f.self_ty {
            None => free_by_name.entry(&f.name).or_default().push(idx),
            Some(ty) => {
                methods_by_name.entry(&f.name).or_default().push(idx);
                by_type_method.entry((ty, &f.name)).or_default().push(idx);
                workspace_types.insert(ty);
            }
        }
    }
    for items in per_file {
        workspace_types.extend(items.types.iter().map(String::as_str));
    }

    let sites = fns
        .iter()
        .map(|f| {
            let file = &ws.files[f.file];
            let uses = &per_file[f.file].uses;
            let toks = &file.tokens;
            let mut sites = Vec::new();
            for j in f.body.0 + 1..f.body.1 {
                let Some(name) = toks[j].ident() else { continue };
                if !toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
                    continue;
                }
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                let prev = &toks[j - 1];
                if prev.ident() == Some("fn") {
                    continue; // a (nested) declaration, not a call
                }
                let targets = if prev.is_punct('.') {
                    resolve_method(name, &methods_by_name)
                } else if prev.is_punct(':') && j >= 3 && toks[j - 2].is_punct(':') {
                    let qualifier = toks[j - 3].ident();
                    resolve_path(
                        qualifier,
                        name,
                        f,
                        fns,
                        uses,
                        &by_type_method,
                        &workspace_types,
                        &free_by_name,
                    )
                } else {
                    resolve_free(name, f, fns, &free_by_name)
                };
                sites.push(CallSite {
                    tok: j,
                    line: toks[j].line,
                    name: name.to_string(),
                    targets,
                });
            }
            sites
        })
        .collect();
    CallGraph { sites }
}

fn resolve_method(name: &str, methods_by_name: &BTreeMap<&str, Vec<usize>>) -> Vec<usize> {
    if METHOD_BLOCKLIST.contains(&name) {
        return Vec::new();
    }
    methods_by_name.get(name).cloned().unwrap_or_default()
}

#[allow(clippy::too_many_arguments)]
fn resolve_path(
    qualifier: Option<&str>,
    name: &str,
    caller: &FnItem,
    fns: &[FnItem],
    uses: &BTreeMap<String, String>,
    by_type_method: &BTreeMap<(&str, &str), Vec<usize>>,
    workspace_types: &BTreeSet<&str>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(mut q) = qualifier else { return Vec::new() };
    if q == "Self" || q == "self" {
        match &caller.self_ty {
            Some(ty) => q = ty,
            None => return resolve_free(name, caller, fns, free_by_name),
        }
    }
    if workspace_types.contains(q) {
        return by_type_method.get(&(q, name)).cloned().unwrap_or_default();
    }
    // The use map beats the static std list: `use std::io::Write;` makes
    // `Write::…` std even though it is not listed.
    if let Some(root) = uses.get(q) {
        if matches!(root.as_str(), "std" | "core" | "alloc") {
            return Vec::new();
        }
    } else if STD_QUALIFIERS.contains(&q) {
        return Vec::new();
    }
    // A module-qualified free call: prefer fns whose module path ends in the
    // qualifier (`wire::write_frame` → serve::wire::write_frame).
    let all = free_by_name.get(name).cloned().unwrap_or_default();
    let scoped: Vec<usize> =
        all.iter().copied().filter(|&i| fns[i].display.rsplit("::").nth(1) == Some(q)).collect();
    if scoped.is_empty() {
        all
    } else {
        scoped
    }
}

fn resolve_free(
    name: &str,
    caller: &FnItem,
    fns: &[FnItem],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let all = free_by_name.get(name).cloned().unwrap_or_default();
    let local: Vec<usize> = all.iter().copied().filter(|&i| fns[i].file == caller.file).collect();
    if local.is_empty() {
        all
    } else {
        local
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{SourceFile, Workspace};
    use crate::model::SemanticModel;

    fn model(files: &[(&str, &str)]) -> SemanticModel {
        let ws = Workspace {
            root: std::path::PathBuf::new(),
            files: files.iter().map(|(rel, src)| SourceFile::new((*rel).into(), src)).collect(),
            ref_files: Vec::new(),
        };
        SemanticModel::build(&ws)
    }

    fn callees_of<'m>(m: &'m SemanticModel, display: &str) -> Vec<&'m str> {
        let idx = m.fn_by_display(display).expect("caller exists");
        let mut out: Vec<&str> = m.graph.sites[idx]
            .iter()
            .flat_map(|s| s.targets.iter().map(|&t| m.fns[t].display.as_str()))
            .collect();
        out.dedup();
        out
    }

    #[test]
    fn free_calls_prefer_same_file_and_cross_module_calls_resolve() {
        let m = model(&[
            (
                "crates/serve/src/service.rs",
                "fn entry() { helper(); wire::encode(7); }\nfn helper() {}\n",
            ),
            ("crates/serve/src/wire.rs", "pub fn encode(x: u8) -> u8 { x }\nfn helper() {}\n"),
        ]);
        assert_eq!(
            callees_of(&m, "serve::service::entry"),
            vec!["serve::service::helper", "serve::wire::encode"]
        );
    }

    #[test]
    fn type_qualified_calls_are_precise_and_std_is_unresolved() {
        let m = model(&[(
            "crates/serve/src/service.rs",
            "use std::sync::Mutex;\n\
             struct Ring;\n\
             impl Ring { fn push_back(&self) {} }\n\
             fn entry() { Ring::push_back(&Ring); let v: Vec<u8> = Vec::new(); \
             let m = Mutex::new(0); drop((v, m)); }\n",
        )]);
        assert_eq!(
            callees_of(&m, "serve::service::entry"),
            vec!["serve::service::Ring::push_back"]
        );
    }

    #[test]
    fn method_calls_resolve_by_name_unless_blocklisted() {
        let m = model(&[
            (
                "crates/obs/src/span.rs",
                "pub struct Ring;\nimpl Ring { pub fn record_event(&self) {} \
                 pub fn push(&self, _x: u8) {} }\n",
            ),
            (
                "crates/serve/src/service.rs",
                "fn entry(r: &crate::Ring, v: &mut Vec<u8>) { r.record_event(); v.push(1); }\n",
            ),
        ]);
        // `.record_event()` resolves; `.push()` is blocklisted (std collision).
        assert_eq!(callees_of(&m, "serve::service::entry"), vec!["obs::span::Ring::record_event"]);
    }

    #[test]
    fn test_fns_are_not_targets() {
        let m = model(&[(
            "crates/serve/src/service.rs",
            "fn entry() { probe(); }\n\
             #[cfg(test)]\nmod tests { pub fn probe() {} }\n",
        )]);
        assert_eq!(callees_of(&m, "serve::service::entry"), Vec::<&str>::new());
    }
}
