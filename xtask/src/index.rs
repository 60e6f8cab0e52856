//! Workspace symbol index: one walk over every crate builds per-file token
//! streams plus the cross-file maps the rule families consume — enum →
//! variant tables, fn definitions and call sites, a `pub` item inventory
//! with cross-crate reference counts, `#[cfg(test)]` regions, hot-path
//! marker regions, and `// lint: …` exemption tags.
//!
//! The index deliberately stops short of type resolution: rules match
//! token shapes scoped by file/crate, which is the same contract the old
//! line scanner had, minus its blindness to strings, comments, and
//! multi-line constructs.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok, TokKind};
use crate::report::DeadExport;

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**`): every rule family runs on it.
    Lib,
    /// Auxiliary source (`tests/`, `benches/`, `examples/`): indexed for
    /// cross-crate reference counting only.
    Aux,
}

/// An unmatched hot-path fence: `(line, message)`.
pub type HotFenceError = (usize, String);

/// One lexed workspace source file.
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    pub crate_name: String,
    pub kind: FileKind,
    pub toks: Vec<Tok>,
    /// Per-token: inside a `#[cfg(test)]`-gated item.
    in_test: Vec<bool>,
    /// `// lint: a, b` exemption tags, by comment line.
    exemptions: BTreeMap<usize, Vec<String>>,
}

impl SourceFile {
    pub fn parse(rel: &str, crate_name: &str, kind: FileKind, src: &str) -> Self {
        let toks = lexer::lex(src);
        let in_test = mark_test_regions(&toks);
        let exemptions = collect_exemptions(&toks);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            toks,
            in_test,
            exemptions,
        }
    }

    /// The tokens rule families scan: code only, outside test regions.
    pub fn rule_toks(&self) -> Vec<&Tok> {
        self.toks
            .iter()
            .zip(&self.in_test)
            .filter(|(t, &test)| t.kind.is_code() && !test)
            .map(|(t, _)| t)
            .collect()
    }

    /// All code tokens, test regions included (reference indexing).
    pub fn code_toks(&self) -> impl Iterator<Item = &Tok> {
        self.toks.iter().filter(|t| t.kind.is_code())
    }

    /// Is `tag` exempted on `line` or the line above it?
    pub fn exempt(&self, line: usize, tag: &str) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.exemptions
                .get(l)
                .is_some_and(|tags| tags.iter().any(|t| t == tag))
        })
    }

    /// `// lint: hot-path` … `// lint: end-hot-path` line ranges, plus
    /// `(line, message)` errors for unmatched fences.
    pub fn hot_regions(&self) -> (Vec<(usize, usize)>, Vec<HotFenceError>) {
        let mut regions = Vec::new();
        let mut errors = Vec::new();
        let mut open: Option<usize> = None;
        for (&line, tags) in &self.exemptions {
            for tag in tags {
                match (tag.as_str(), open) {
                    ("end-hot-path", Some(start)) => {
                        regions.push((start, line));
                        open = None;
                    }
                    ("end-hot-path", None) => errors.push((
                        line,
                        "`// lint: end-hot-path` without a matching `// lint: hot-path`".into(),
                    )),
                    ("hot-path", None) => open = Some(line),
                    ("hot-path", Some(prev)) => errors.push((
                        line,
                        format!(
                            "hot-path region opened while the region from line {prev} is \
                             still open; add `// lint: end-hot-path` first"
                        ),
                    )),
                    _ => {}
                }
            }
        }
        if let Some(start) = open {
            errors.push((
                start,
                "hot-path region is never closed; add `// lint: end-hot-path`".into(),
            ));
        }
        (regions, errors)
    }
}

/// An enum definition found in library code.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub file: String,
    pub line: usize,
    /// `(variant name, line)` in declaration order.
    pub variants: Vec<(String, usize)>,
}

/// A `pub` item in library code (unrestricted visibility only —
/// `pub(crate)`/`pub(super)` items are not workspace exports).
#[derive(Debug, Clone)]
pub struct PubItem {
    pub crate_name: String,
    pub file: String,
    pub line: usize,
    pub kind: &'static str,
    pub name: String,
}

/// The full workspace index, built in one walk.
pub struct WorkspaceIndex {
    pub files: Vec<SourceFile>,
    /// Enum name → definitions (an enum name can repeat across crates).
    pub enums: BTreeMap<String, Vec<EnumDef>>,
    /// fn name → definition sites in library code.
    pub fn_defs: BTreeMap<String, Vec<(String, usize)>>,
    /// Callee name → call sites (`name(` anywhere in the workspace).
    pub calls: BTreeMap<String, Vec<(String, usize)>>,
    pub pub_items: Vec<PubItem>,
    /// Identifier → file index → occurrence count, over all code tokens.
    ident_refs: BTreeMap<String, BTreeMap<usize, u32>>,
}

impl WorkspaceIndex {
    /// Walk `crates/*/{src,tests,benches,examples}` and the root package,
    /// lex every file, and build the symbol tables.
    pub fn build(root: &Path) -> Result<Self, String> {
        let mut files = Vec::new();
        for krate in read_dir_sorted(&root.join("crates"))? {
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            for (sub, kind) in [
                ("src", FileKind::Lib),
                ("tests", FileKind::Aux),
                ("benches", FileKind::Aux),
                ("examples", FileKind::Aux),
            ] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    load_rs_files(&dir, root, &name, kind, &mut files)?;
                }
            }
        }
        for (sub, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Aux),
            ("benches", FileKind::Aux),
            ("examples", FileKind::Aux),
        ] {
            let dir = root.join(sub);
            if dir.is_dir() {
                load_rs_files(&dir, root, "diknn-repro", kind, &mut files)?;
            }
        }
        Ok(Self::from_files(files))
    }

    /// Build an index from in-memory sources (fixture self-tests).
    pub fn from_sources(sources: &[(&str, &str, FileKind, &str)]) -> Self {
        Self::from_files(
            sources
                .iter()
                .map(|(rel, crate_name, kind, src)| SourceFile::parse(rel, crate_name, *kind, src))
                .collect(),
        )
    }

    pub fn from_files(files: Vec<SourceFile>) -> Self {
        let mut idx = WorkspaceIndex {
            files,
            enums: BTreeMap::new(),
            fn_defs: BTreeMap::new(),
            calls: BTreeMap::new(),
            pub_items: Vec::new(),
            ident_refs: BTreeMap::new(),
        };
        for fidx in 0..idx.files.len() {
            let f = &idx.files[fidx];
            let mut enums = Vec::new();
            let mut fn_defs = Vec::new();
            let mut pub_items = Vec::new();
            if f.kind == FileKind::Lib {
                let toks = f.rule_toks();
                enums = collect_enums(&toks, &f.rel);
                fn_defs = collect_fn_defs(&toks, &f.rel);
                pub_items = collect_pub_items(&toks, &f.rel, &f.crate_name);
            }
            let mut refs: Vec<(String, bool, usize)> = Vec::new(); // (ident, is_call, line)
            {
                let code: Vec<&Tok> = f.code_toks().collect();
                for (i, t) in code.iter().enumerate() {
                    if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
                        continue;
                    }
                    let is_call = code.get(i + 1).is_some_and(|n| n.text == "(")
                        && (i == 0 || code[i - 1].text != "fn");
                    refs.push((t.text.clone(), is_call, t.line));
                }
            }
            let rel = idx.files[fidx].rel.clone();
            for (name, is_call, line) in refs {
                *idx.ident_refs
                    .entry(name.clone())
                    .or_default()
                    .entry(fidx)
                    .or_insert(0) += 1;
                if is_call {
                    idx.calls.entry(name).or_default().push((rel.clone(), line));
                }
            }
            for e in enums {
                idx.enums.entry(e.0).or_default().push(e.1);
            }
            for (name, site) in fn_defs {
                idx.fn_defs.entry(name).or_default().push(site);
            }
            idx.pub_items.extend(pub_items);
        }
        idx
    }

    pub fn lib_files(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.iter().filter(|f| f.kind == FileKind::Lib)
    }

    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// `pub` items with zero references outside their defining crate.
    ///
    /// Conservative on the "alive" side: references from *any* test,
    /// bench, or example file count (integration tests consume the public
    /// API), and a comment/doc mention outside the defining crate also
    /// keeps an item alive when it names the item as a whole identifier.
    pub fn dead_exports(&self) -> Vec<DeadExport> {
        let mut out = Vec::new();
        for item in &self.pub_items {
            if item.kind == "reexport" {
                continue; // liveness belongs to the underlying item
            }
            let mut cross = 0u32;
            let mut intra = 0u32;
            if let Some(by_file) = self.ident_refs.get(&item.name) {
                for (&fidx, &count) in by_file {
                    let f = &self.files[fidx];
                    if f.crate_name == item.crate_name && f.kind == FileKind::Lib {
                        intra += count;
                    } else {
                        cross += count;
                    }
                }
            }
            intra = intra.saturating_sub(1); // the definition itself
            if cross > 0 {
                continue;
            }
            let mentioned = self.files.iter().any(|f| {
                !(f.crate_name == item.crate_name && f.kind == FileKind::Lib)
                    && f.toks
                        .iter()
                        .any(|t| !t.kind.is_code() && names_word(&t.text, &item.name))
            });
            if !mentioned {
                out.push(DeadExport {
                    crate_name: item.crate_name.clone(),
                    file: item.file.clone(),
                    line: item.line,
                    kind: item.kind,
                    name: item.name.clone(),
                    intra_crate_refs: intra > 0,
                });
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }
}

/// Whether `text` holds `name` as a whole identifier: neither neighbour of
/// the occurrence is `[A-Za-z0-9_]`, so "settles" does not name `settle`.
fn names_word(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(ident)
            && !text[at + name.len()..].chars().next().is_some_and(ident)
    })
}

/// Keywords never indexed as references or call sites.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "false", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "async", "await", "dyn",
];

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn load_rs_files(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            load_rs_files(&path, root, crate_name, kind, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
            out.push(SourceFile::parse(&rel, crate_name, kind, &src));
        }
    }
    Ok(())
}

/// Mark every token belonging to a `#[cfg(test)]`-gated item (the
/// attribute, the item, and its whole body). `cfg(any(test, …))` and
/// `cfg(all(test, …))` count; `cfg(not(test))` and `cfg_attr` do not.
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind.is_code())
        .map(|(i, _)| i)
        .collect();
    let txt = |ci: usize| toks[code[ci]].text.as_str();
    let mut ci = 0;
    while ci < code.len() {
        if !(txt(ci) == "#" && ci + 1 < code.len() && txt(ci + 1) == "[") {
            ci += 1;
            continue;
        }
        // Scan the attribute to its matching `]`, collecting identifiers.
        let mut depth = 0usize;
        let mut cj = ci + 1;
        let mut idents: Vec<&str> = Vec::new();
        while cj < code.len() {
            match txt(cj) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if toks[code[cj]].kind == TokKind::Ident {
                        idents.push(txt(cj));
                    }
                }
            }
            cj += 1;
        }
        let is_cfg_test =
            idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not");
        if !is_cfg_test || cj >= code.len() {
            ci = cj + 1;
            continue;
        }
        // The gated item runs to its body's closing `}`, or to a `;` at
        // top level before any brace opens (`mod tests;`, `use …;`).
        let mut ck = cj + 1;
        let mut brace = 0i32;
        let mut nest = 0i32; // parens + brackets, so `[u8; 4]` in a
                             // signature does not end the item early
        let mut end = code.len() - 1;
        while ck < code.len() {
            match txt(ck) {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        end = ck;
                        break;
                    }
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                ";" if brace == 0 && nest == 0 => {
                    end = ck;
                    break;
                }
                _ => {}
            }
            ck += 1;
        }
        for flag in in_test[code[ci]..=code[end]].iter_mut() {
            *flag = true;
        }
        ci = end + 1;
    }
    in_test
}

/// Gather `// lint: tag-a, tag-b (optional reason)` tags by line. A tag is
/// the first whitespace-separated word of each comma-separated chunk.
fn collect_exemptions(toks: &[Tok]) -> BTreeMap<usize, Vec<String>> {
    let mut map: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for t in toks {
        if t.kind.is_code() {
            continue;
        }
        let Some(pos) = t.text.find("lint:") else {
            continue;
        };
        for chunk in t.text[pos + "lint:".len()..].split(',') {
            if let Some(word) = chunk.split_whitespace().next() {
                let tag: String = word
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !tag.is_empty() {
                    map.entry(t.line).or_default().push(tag);
                }
            }
        }
    }
    map
}

/// Extract `enum Name { Variant, … }` tables from a rule-token stream.
fn collect_enums(toks: &[&Tok], rel: &str) -> Vec<(String, EnumDef)> {
    let n = toks.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if !(toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && i + 1 < n
            && toks[i + 1].kind == TokKind::Ident)
        {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Find the body brace; generics use `<>` so the first `{` is it.
        let mut j = i + 2;
        while j < n && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= n || toks[j].text == ";" {
            i = j;
            continue;
        }
        // Inside the body a variant name is the first identifier at
        // nesting depth 1 after the opening brace or a depth-1 comma;
        // attribute brackets and variant payloads raise the depth.
        let mut variants = Vec::new();
        let mut depth = 1i32;
        let mut expect = true;
        j += 1;
        while j < n && depth > 0 {
            match toks[j].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 1 => expect = true,
                _ => {
                    if expect && depth == 1 && toks[j].kind == TokKind::Ident {
                        variants.push((toks[j].text.clone(), toks[j].line));
                        expect = false;
                    }
                }
            }
            j += 1;
        }
        out.push((
            name,
            EnumDef {
                file: rel.to_string(),
                line,
                variants,
            },
        ));
        i = j;
    }
    out
}

/// `fn name` definition sites.
fn collect_fn_defs(toks: &[&Tok], rel: &str) -> Vec<(String, (String, usize))> {
    let mut out = Vec::new();
    for w in toks.windows(2) {
        if w[0].kind == TokKind::Ident && w[0].text == "fn" && w[1].kind == TokKind::Ident {
            out.push((w[1].text.clone(), (rel.to_string(), w[1].line)));
        }
    }
    out
}

const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "use",
];

/// Inventory `pub` items with unrestricted visibility.
fn collect_pub_items(toks: &[&Tok], rel: &str, crate_name: &str) -> Vec<PubItem> {
    let n = toks.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "pub") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut j = i + 1;
        if j < n && toks[j].text == "(" {
            // pub(crate) / pub(super) / pub(in …): not a workspace export.
            let mut d = 0i32;
            while j < n {
                match toks[j].text.as_str() {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Skip fn qualifiers (`pub async unsafe extern "C" fn`, `pub const fn`).
        while j < n
            && (matches!(toks[j].text.as_str(), "async" | "unsafe" | "extern")
                || toks[j].kind == TokKind::Str)
        {
            j += 1;
        }
        if j + 1 < n && toks[j].text == "const" && toks[j + 1].text == "fn" {
            j += 1;
        }
        if j >= n {
            break;
        }
        let kw = toks[j].text.as_str();
        if !ITEM_KINDS.contains(&kw) {
            i = j + 1; // `pub field: T` and the like
            continue;
        }
        if kw == "use" {
            // Re-export: leaves are identifiers directly followed by a
            // separator (`,` `}` `;`); `x as y` exports the alias `y`.
            let mut k = j + 1;
            while k < n && toks[k].text != ";" {
                if toks[k].kind == TokKind::Ident
                    && !matches!(toks[k].text.as_str(), "self" | "crate" | "super" | "as")
                    && k + 1 < n
                    && matches!(toks[k + 1].text.as_str(), "," | "}" | ";")
                {
                    out.push(PubItem {
                        crate_name: crate_name.to_string(),
                        file: rel.to_string(),
                        line: toks[k].line,
                        kind: "reexport",
                        name: toks[k].text.clone(),
                    });
                }
                k += 1;
            }
            i = k;
            continue;
        }
        let kind: &'static str = match kw {
            "fn" => "fn",
            "struct" => "struct",
            "enum" => "enum",
            "trait" => "trait",
            "type" => "type",
            "const" => "const",
            "static" => "static",
            "mod" => "mod",
            _ => "union",
        };
        let mut k = j + 1;
        if kw == "static" && k < n && toks[k].text == "mut" {
            k += 1;
        }
        if k < n && toks[k].kind == TokKind::Ident {
            out.push(PubItem {
                crate_name: crate_name.to_string(),
                file: rel.to_string(),
                line,
                kind,
                name: toks[k].text.clone(),
            });
        }
        i = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/diknn-x/src/lib.rs", "diknn-x", FileKind::Lib, src)
    }

    #[test]
    fn test_regions_cover_attribute_and_body() {
        let f = file(
            "fn live() { a(); }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { hidden(); }\n}\n\
             fn also_live() { b(); }\n",
        );
        let names: Vec<_> = f.rule_toks().iter().map(|t| t.text.clone()).collect();
        assert!(names.contains(&"live".to_string()));
        assert!(names.contains(&"also_live".to_string()));
        assert!(!names.contains(&"hidden".to_string()));
        assert!(!names.contains(&"tests".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = file("#[cfg(not(test))]\nfn live() { a(); }\n");
        let names: Vec<_> = f.rule_toks().iter().map(|t| t.text.clone()).collect();
        assert!(names.contains(&"live".to_string()));
    }

    #[test]
    fn cfg_test_on_single_item_ends_at_semicolon() {
        let f = file("#[cfg(test)]\nuse std::fmt::Debug;\nfn live(x: [u8; 4]) { a(x); }\n");
        let names: Vec<_> = f.rule_toks().iter().map(|t| t.text.clone()).collect();
        assert!(!names.contains(&"Debug".to_string()));
        assert!(names.contains(&"live".to_string()));
    }

    #[test]
    fn exemption_tags_ignore_parenthetical_reasons() {
        let f = file("// lint: wall-clock-ok (host-side timing), order-independent\nlet x = 1;\n");
        assert!(f.exempt(1, "wall-clock-ok"));
        assert!(f.exempt(2, "wall-clock-ok")); // line above
        assert!(f.exempt(1, "order-independent"));
        assert!(!f.exempt(1, "float-eq-ok"));
        assert!(!f.exempt(3, "wall-clock-ok"));
    }

    #[test]
    fn hot_regions_pair_up_and_report_unmatched() {
        let f = file(
            "// lint: hot-path (dispatch loop)\nfn a() {}\n// lint: end-hot-path\n\
             // lint: hot-path\nfn b() {}\n",
        );
        let (regions, errors) = f.hot_regions();
        assert_eq!(regions, vec![(1, 3)]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].0, 4);
    }

    #[test]
    fn enum_variants_are_extracted_with_payloads_and_attrs() {
        let f = file(
            "pub enum Kind {\n\
             /// doc\n    Plain,\n\
             #[allow(dead_code)]\n    Tuple(f64, u32),\n\
             Struct { a: u32, b: Vec<u8> },\n\
             Last = 4,\n}\n",
        );
        let idx = WorkspaceIndex::from_files(vec![f]);
        let def = &idx.enums["Kind"][0];
        let names: Vec<_> = def.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Plain", "Tuple", "Struct", "Last"]);
    }

    #[test]
    fn pub_items_and_reexports_are_inventoried() {
        let f = file(
            "pub fn api() {}\n\
             pub(crate) fn internal() {}\n\
             fn private() {}\n\
             pub struct S { pub field: u32 }\n\
             pub use other::{A, B as C};\n\
             pub const LIMIT: usize = 4;\n",
        );
        let idx = WorkspaceIndex::from_files(vec![f]);
        let names: Vec<_> = idx
            .pub_items
            .iter()
            .map(|p| (p.kind, p.name.as_str()))
            .collect();
        assert!(names.contains(&("fn", "api")));
        assert!(names.contains(&("struct", "S")));
        assert!(names.contains(&("const", "LIMIT")));
        assert!(names.contains(&("reexport", "A")));
        assert!(names.contains(&("reexport", "C")));
        assert!(!names
            .iter()
            .any(|(_, n)| *n == "internal" || *n == "private"));
        assert!(!names.iter().any(|(_, n)| *n == "field"));
        assert!(!names.iter().any(|(_, n)| *n == "B"));
    }

    #[test]
    fn dead_exports_respect_cross_crate_refs_and_comments() {
        let idx = WorkspaceIndex::from_sources(&[
            (
                "crates/diknn-a/src/lib.rs",
                "diknn-a",
                FileKind::Lib,
                "pub fn used_by_b() {}\npub fn used_in_a() {}\npub fn truly_dead() {}\n\
                 pub fn doc_mentioned() {}\nfn caller() { used_in_a(); }\npub fn settle() {}\n",
            ),
            (
                "crates/diknn-b/src/lib.rs",
                "diknn-b",
                FileKind::Lib,
                "fn g() { diknn_a::used_by_b(); }\n// see doc_mentioned for details\n\
                 // it settles nothing\n",
            ),
        ]);
        let dead = idx.dead_exports();
        let names: Vec<_> = dead.iter().map(|d| d.name.as_str()).collect();
        // A comment holding the name inside a longer word keeps nothing alive.
        assert_eq!(names, vec!["used_in_a", "truly_dead", "settle"], "{dead:?}");
        assert!(dead[0].intra_crate_refs);
        assert!(!dead[1].intra_crate_refs);
    }

    #[test]
    fn fn_defs_and_call_sites_are_indexed() {
        let idx = WorkspaceIndex::from_sources(&[(
            "crates/diknn-a/src/lib.rs",
            "diknn-a",
            FileKind::Lib,
            "pub fn alpha() {}\nfn beta() { alpha(); alpha(); }\n",
        )]);
        assert_eq!(idx.fn_defs["alpha"].len(), 1);
        assert_eq!(idx.fn_defs["beta"].len(), 1);
        assert_eq!(idx.calls["alpha"].len(), 2);
        assert!(!idx.calls.contains_key("beta"));
    }
}
