//! The `xar-lint` engine: token-scanning enforcement of workspace
//! invariants that previously lived only in README prose.
//!
//! Four rules:
//!
//! | rule             | invariant                                                        |
//! |------------------|------------------------------------------------------------------|
//! | `tags-registry`  | `xar_obs::tags` is append-only vs the committed `tags.lock`      |
//! | `ops-registry`   | v2 wire op ids unique + append-only vs the committed `ops.lock`  |
//! | `unsafe-safety`  | every `unsafe` is preceded by a `// SAFETY:` justification       |
//! | `relaxed-publish`| no `Relaxed` store/RMW on publish/generation atomics off-list    |
//!
//! All scanning happens on a *stripped* copy of each source file —
//! comments and string/char literals blanked, line structure kept — so
//! rule fixtures embedded in string literals (including this crate's
//! own tests) can never trigger a rule.
//!
//! The registries compare against committed baselines (`tags.lock`,
//! `ops.lock` at the repo root); `xar-lint --update` regenerates the
//! baselines so an intentional append shows up as a reviewed diff.
//! `relaxed.allow` lists audited `Relaxed` publish sites as
//! `<path-suffix> <receiver>` pairs.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

// ------------------------------------------------------------- stripping

/// Blank comments and string/char literals to spaces, preserving line
/// structure, so token scans only ever see code. Handles nested block
/// comments, escapes, raw strings (`r"…"`, `r#"…"#`, byte variants)
/// and the `'a` lifetime vs `'a'` char-literal ambiguity.
pub fn strip_code(src: &str) -> String {
    #[derive(PartialEq)]
    enum S {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = S::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            S::Code => match c {
                '/' if next == Some('/') => {
                    st = S::Line;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    st = S::Block(1);
                    out.push(' ');
                }
                '"' => {
                    st = S::Str;
                    out.push(' ');
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // Emit the prefix letters/hashes blanked, position
                    // at the opening quote.
                    let (hashes, quote_at) = raw_string_open(&chars, i);
                    for _ in i..=quote_at {
                        out.push(' ');
                    }
                    i = quote_at + 1;
                    st = S::RawStr(hashes);
                    continue;
                }
                'b' if next == Some('\'') => {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    st = S::Char;
                    continue;
                }
                '\'' => {
                    // Char literal iff it closes within a couple of
                    // chars (`'x'`, `'\n'`); otherwise it's a lifetime.
                    if next == Some('\\') || (chars.get(i + 2) == Some(&'\'') && next != Some('\''))
                    {
                        st = S::Char;
                        out.push(' ');
                    } else {
                        out.push(c);
                    }
                }
                _ => out.push(c),
            },
            S::Line => {
                if c == '\n' {
                    st = S::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            S::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { S::Code } else { S::Block(depth - 1) };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = S::Block(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            S::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(if next == Some('\n') { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    st = S::Code;
                    out.push(' ');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            S::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..=(hashes as usize) {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                    st = S::Code;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            S::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    st = S::Code;
                    out.push(' ');
                }
                _ => out.push(if c == '\n' { '\n' } else { ' ' }),
            },
        }
        i += 1;
    }
    out
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // r"  r#"  br"  br#"  (any number of hashes)
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    // Don't fire on identifiers like `relaxed` — require the previous
    // char to be a non-identifier char.
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j) // j is the opening quote
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

// ------------------------------------------------------ parsing helpers

fn line_of(stripped: &str, byte: usize) -> usize {
    stripped[..byte].matches('\n').count() + 1
}

/// Byte index one past the close delimiter matching the open delimiter
/// at `open_at` (which must hold `open`).
fn balanced_end(stripped: &str, open_at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (off, c) in stripped[open_at..].char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(open_at + off + c.len_utf8());
            }
        }
    }
    None
}

fn ident_before(stripped: &str, dot: usize) -> Option<&str> {
    let bytes = stripped.as_bytes();
    let mut s = dot;
    while s > 0 {
        let c = bytes[s - 1] as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            s -= 1;
        } else {
            break;
        }
    }
    if s == dot {
        None
    } else {
        Some(&stripped[s..dot])
    }
}

// ---------------------------------------------------------- registries

/// A parsed tag-registry row: id, exposition name, metric kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagEntry {
    pub id: u16,
    pub name: String,
    pub kind: &'static str,
}

/// Parse `crates/obs/src/tags.rs`: constants, the `TAGS` table (names
/// come from the original source — the stripped copy blanks string
/// literals) and the gauge arm of `tag_kind`.
pub fn parse_tags(original: &str, stripped: &str) -> Result<Vec<TagEntry>, String> {
    let mut consts = Vec::new(); // (const name, id)
    for (idx, line) in stripped.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub const ") {
            if let Some((name, val)) = rest.split_once(": u16 = ") {
                let val = val.trim_end_matches(';').trim();
                let id: u16 = val
                    .parse()
                    .map_err(|_| format!("tags.rs:{}: unparsable tag id {val:?}", idx + 1))?;
                consts.push((name.trim().to_string(), id));
            }
        }
    }
    let table_at = stripped.find("pub const TAGS:").ok_or("tags.rs: TAGS table not found")?;
    // `= &[` skips the `[` inside the `&[(u16, &str)]` type annotation.
    let open =
        table_at + stripped[table_at..].find("= &[").ok_or("tags.rs: TAGS has no literal")? + 3;
    let end = balanced_end(stripped, open, '[', ']').ok_or("tags.rs: TAGS not terminated")?;
    let table_lines: Vec<usize> = {
        let first = line_of(stripped, open);
        let last = line_of(stripped, end);
        (first..=last).collect()
    };
    let gauge_at =
        stripped.find("Some(match tag {").ok_or("tags.rs: tag_kind gauge arm not found")?;
    let gauge_end = gauge_at
        + stripped[gauge_at..]
            .find("TagKind::Gauge")
            .ok_or("tags.rs: TagKind::Gauge arm not found")?;
    let gauge_region = &stripped[gauge_at..gauge_end];
    let gauges: Vec<&str> = gauge_region
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| {
            !w.is_empty()
                && w.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        })
        .filter(|w| consts.iter().any(|(n, _)| n == w))
        .collect();

    let orig_lines: Vec<&str> = original.lines().collect();
    let mut entries = Vec::new();
    for ln in table_lines {
        let sline = stripped.lines().nth(ln - 1).unwrap_or("");
        let t = sline.trim();
        if !t.starts_with('(') {
            continue;
        }
        let konst = t
            .trim_start_matches('(')
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("")
            .to_string();
        if konst.is_empty() {
            continue;
        }
        let id = consts
            .iter()
            .find(|(n, _)| *n == konst)
            .map(|&(_, id)| id)
            .ok_or(format!("tags.rs:{ln}: TAGS references unknown const {konst}"))?;
        let oline = orig_lines.get(ln - 1).copied().unwrap_or("");
        let name = oline
            .split('"')
            .nth(1)
            .ok_or(format!("tags.rs:{ln}: TAGS row without a name literal"))?
            .to_string();
        let kind = if gauges.contains(&konst.as_str()) { "gauge" } else { "counter" };
        entries.push(TagEntry { id, name, kind });
    }
    if entries.is_empty() {
        return Err("tags.rs: parsed zero TAGS rows".into());
    }
    Ok(entries)
}

/// A parsed wire-op row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEntry {
    pub value: u8,
    pub name: String,
}

/// Parse the `pub mod op { … }` id table in `crates/sched/src/wire.rs`.
pub fn parse_ops(stripped: &str) -> Result<Vec<OpEntry>, String> {
    let at = stripped.find("pub mod op {").ok_or("wire.rs: `pub mod op` not found")?;
    let open = at + "pub mod op ".len();
    let end = balanced_end(stripped, open, '{', '}').ok_or("wire.rs: op module not terminated")?;
    let region = &stripped[at..end];
    let mut ops = Vec::new();
    for (off, line) in region.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub const ") {
            if let Some((name, val)) = rest.split_once(": u8 = ") {
                let val = val.trim_end_matches(';').trim();
                let value = if let Some(hex) = val.strip_prefix("0x") {
                    u8::from_str_radix(hex, 16)
                } else {
                    val.parse()
                }
                .map_err(|_| {
                    format!("wire.rs op table line {}: unparsable op id {val:?}", off + 1)
                })?;
                ops.push(OpEntry { value, name: name.trim().to_string() });
            }
        }
    }
    if ops.is_empty() {
        return Err("wire.rs: parsed zero op constants".into());
    }
    Ok(ops)
}

/// Compare a parsed registry against its committed baseline: every
/// baseline row must survive unchanged (append-only), and every new
/// row must be recorded via `--update` so it shows up as a reviewed
/// diff.
fn check_append_only<T: PartialEq + fmt::Debug>(
    rule: &'static str,
    file: &str,
    what: &str,
    parsed: &[T],
    baseline: &[T],
    key: impl Fn(&T) -> String,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for b in baseline {
        match parsed.iter().find(|p| key(p) == key(b)) {
            None => findings.push(Finding {
                rule,
                file: file.into(),
                line: 1,
                message: format!(
                    "{what} {} was removed or renumbered; shipped registry entries are frozen",
                    key(b)
                ),
            }),
            Some(p) if p != b => findings.push(Finding {
                rule,
                file: file.into(),
                line: 1,
                message: format!(
                    "{what} {} changed ({b:?} -> {p:?}); shipped registry entries are frozen",
                    key(b)
                ),
            }),
            _ => {}
        }
    }
    for p in parsed {
        if !baseline.iter().any(|b| key(b) == key(p)) {
            findings.push(Finding {
                rule,
                file: file.into(),
                line: 1,
                message: format!(
                    "new {what} {} is not recorded in the baseline: run `xar-lint --update` \
                     and commit the lock file",
                    key(p)
                ),
            });
        }
    }
    findings
}

/// Intra-file registry sanity, independent of any baseline.
pub fn check_ops_unique(ops: &[OpEntry], file: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a.value == b.value {
                findings.push(Finding {
                    rule: "ops-registry",
                    file: file.into(),
                    line: 1,
                    message: format!(
                        "op id {:#04x} assigned to both {} and {}",
                        a.value, a.name, b.name
                    ),
                });
            }
        }
    }
    findings
}

// ------------------------------------------------------- unsafe-safety

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit (leaves room for a multi-line justification).
const SAFETY_LOOKBACK: usize = 6;

pub fn check_unsafe_safety(original: &str, stripped: &str, file: &str) -> Vec<Finding> {
    let orig_lines: Vec<&str> = original.lines().collect();
    let mut findings = Vec::new();
    for (idx, line) in stripped.lines().enumerate() {
        let mut search = 0;
        while let Some(pos) = line[search..].find("unsafe") {
            let at = search + pos;
            search = at + "unsafe".len();
            // Token boundary: reject `unsafe_like` identifiers.
            let before_ok = at == 0
                || !line.as_bytes()[at - 1].is_ascii_alphanumeric()
                    && line.as_bytes()[at - 1] != b'_';
            let after = line.as_bytes().get(at + 6).copied();
            let after_ok = after.is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'));
            if !(before_ok && after_ok) {
                continue;
            }
            let lo = idx.saturating_sub(SAFETY_LOOKBACK);
            let justified = orig_lines[lo..=idx].iter().any(|l| l.contains("SAFETY:"));
            if !justified {
                findings.push(Finding {
                    rule: "unsafe-safety",
                    file: file.into(),
                    line: idx + 1,
                    message: "`unsafe` without a `// SAFETY:` justification in the preceding \
                              lines"
                        .into(),
                });
            }
        }
    }
    findings
}

// ----------------------------------------------------- relaxed-publish

/// Receiver names that publish cross-thread state: a `Relaxed` store
/// or RMW through one of these severs the synchronizes-with edge the
/// corresponding Acquire load depends on.
pub const WATCHED_PUBLISH_IDENTS: &[&str] = &["gen", "generation", "head", "tail", "packed"];

const WATCHED_METHODS: &[&str] = &[".store(", ".fetch_add(", ".fetch_sub(", ".swap("];

pub fn check_relaxed_publish(
    stripped: &str,
    file: &str,
    allow: &[(String, String)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for method in WATCHED_METHODS {
        let mut search = 0;
        while let Some(pos) = stripped[search..].find(method) {
            let dot = search + pos;
            search = dot + method.len();
            let Some(recv) = ident_before(stripped, dot) else { continue };
            if !WATCHED_PUBLISH_IDENTS.contains(&recv) {
                continue;
            }
            let open = dot + method.len() - 1;
            let Some(end) = balanced_end(stripped, open, '(', ')') else { continue };
            let args = &stripped[open..end];
            if !args.contains("Relaxed") {
                continue;
            }
            let allowed = allow
                .iter()
                .any(|(suffix, ident)| file.ends_with(suffix.as_str()) && ident == recv);
            if allowed {
                continue;
            }
            findings.push(Finding {
                rule: "relaxed-publish",
                file: file.into(),
                line: line_of(stripped, dot),
                message: format!(
                    "Relaxed ordering on publish atomic `{recv}`; use Release (or record the \
                     audited site in relaxed.allow)"
                ),
            });
        }
    }
    findings
}

// ------------------------------------------------------ lock file I/O

fn parse_lock_lines(content: &str) -> Vec<Vec<String>> {
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

fn tags_lock_parse(content: &str) -> Vec<TagEntry> {
    parse_lock_lines(content)
        .into_iter()
        .filter_map(|f| {
            if f.len() != 3 {
                return None;
            }
            Some(TagEntry {
                id: f[0].parse().ok()?,
                name: f[1].clone(),
                kind: if f[2] == "gauge" { "gauge" } else { "counter" },
            })
        })
        .collect()
}

fn tags_lock_render(tags: &[TagEntry]) -> String {
    let mut s = String::from(
        "# xar-lint baseline: StatsV2 tag registry (append-only).\n\
         # Regenerate with `cargo run -p xar-check --bin xar-lint -- --update`.\n",
    );
    for t in tags {
        s.push_str(&format!("{} {} {}\n", t.id, t.name, t.kind));
    }
    s
}

fn ops_lock_parse(content: &str) -> Vec<OpEntry> {
    parse_lock_lines(content)
        .into_iter()
        .filter_map(|f| {
            if f.len() != 2 {
                return None;
            }
            let v = f[0].strip_prefix("0x")?;
            Some(OpEntry { value: u8::from_str_radix(v, 16).ok()?, name: f[1].clone() })
        })
        .collect()
}

fn ops_lock_render(ops: &[OpEntry]) -> String {
    let mut s = String::from(
        "# xar-lint baseline: v2 wire op-id table (append-only).\n\
         # Regenerate with `cargo run -p xar-check --bin xar-lint -- --update`.\n",
    );
    for o in ops {
        s.push_str(&format!("{:#04x} {}\n", o.value, o.name));
    }
    s
}

fn relaxed_allow_parse(content: &str) -> Vec<(String, String)> {
    parse_lock_lines(content)
        .into_iter()
        .filter_map(|f| if f.len() == 2 { Some((f[0].clone(), f[1].clone())) } else { None })
        .collect()
}

// -------------------------------------------------------- workspace run

const TAGS_SOURCE: &str = "crates/obs/src/tags.rs";
const WIRE_SOURCE: &str = "crates/sched/src/wire.rs";
const TAGS_LOCK: &str = "tags.lock";
const OPS_LOCK: &str = "ops.lock";
const RELAXED_ALLOW: &str = "relaxed.allow";

fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run every rule over the workspace at `root`. With `update`, the
/// registry baselines are rewritten from current source instead of
/// compared (the other rules still run).
pub fn run_workspace(root: &Path, update: bool) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
    let allow = match fs::read_to_string(root.join(RELAXED_ALLOW)) {
        Ok(c) => relaxed_allow_parse(&c),
        Err(_) => Vec::new(),
    };
    let mut tags_seen = false;
    let mut wire_seen = false;
    for path in rust_sources(root)? {
        let file = rel(&path);
        let original = fs::read_to_string(&path)?;
        let stripped = strip_code(&original);
        findings.extend(check_unsafe_safety(&original, &stripped, &file));
        findings.extend(check_relaxed_publish(&stripped, &file, &allow));
        if file == TAGS_SOURCE {
            tags_seen = true;
            match parse_tags(&original, &stripped) {
                Ok(tags) => {
                    if update {
                        fs::write(root.join(TAGS_LOCK), tags_lock_render(&tags))?;
                    } else {
                        let baseline = fs::read_to_string(root.join(TAGS_LOCK))
                            .map(|c| tags_lock_parse(&c))
                            .unwrap_or_default();
                        findings.extend(check_append_only(
                            "tags-registry",
                            &file,
                            "tag",
                            &tags,
                            &baseline,
                            |t| format!("{} ({})", t.id, t.name),
                        ));
                    }
                }
                Err(e) => findings.push(Finding {
                    rule: "tags-registry",
                    file: file.clone(),
                    line: 1,
                    message: e,
                }),
            }
        }
        if file == WIRE_SOURCE {
            wire_seen = true;
            match parse_ops(&stripped) {
                Ok(ops) => {
                    findings.extend(check_ops_unique(&ops, &file));
                    if update {
                        fs::write(root.join(OPS_LOCK), ops_lock_render(&ops))?;
                    } else {
                        let baseline = fs::read_to_string(root.join(OPS_LOCK))
                            .map(|c| ops_lock_parse(&c))
                            .unwrap_or_default();
                        findings.extend(check_append_only(
                            "ops-registry",
                            &file,
                            "op",
                            &ops,
                            &baseline,
                            |o| format!("{:#04x} ({})", o.value, o.name),
                        ));
                    }
                }
                Err(e) => findings.push(Finding {
                    rule: "ops-registry",
                    file: file.clone(),
                    line: 1,
                    message: e,
                }),
            }
        }
    }
    if !tags_seen {
        findings.push(Finding {
            rule: "tags-registry",
            file: TAGS_SOURCE.into(),
            line: 1,
            message: "registry source missing from the workspace".into(),
        });
    }
    if !wire_seen {
        findings.push(Finding {
            rule: "ops-registry",
            file: WIRE_SOURCE.into(),
            line: 1,
            message: "wire source missing from the workspace".into(),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_strings_and_chars_but_keeps_code() {
        let src = "let a = \"unsafe { x }\"; // unsafe trailing\nlet b = 'x'; let l: &'static str = r#\"unsafe\"#;\n/* unsafe\n * still comment */ let c = 1;\n";
        let s = strip_code(src);
        assert!(!s.contains("unsafe"), "stripped: {s}");
        assert!(s.contains("let a ="));
        assert!(s.contains("let b ="));
        assert!(s.contains("let c = 1;"));
        assert!(s.contains("&'static str"), "lifetimes survive: {s}");
        assert_eq!(s.matches('\n').count(), src.matches('\n').count(), "line structure kept");
    }

    #[test]
    fn strip_handles_escapes_and_nested_blocks() {
        let src = "let s = \"a\\\"unsafe\\\"b\"; /* outer /* inner */ unsafe-ish */ let t = 2;";
        let s = strip_code(src);
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let t = 2;"));
    }

    #[test]
    fn unsafe_without_safety_fires_and_with_safety_passes() {
        let bad = "fn f() {\n    let x = unsafe { danger() };\n}\n";
        let f = check_unsafe_safety(bad, &strip_code(bad), "x.rs");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-safety");
        assert_eq!(f[0].line, 2);

        let good = "fn f() {\n    // SAFETY: danger() is fine because reasons.\n    let x = unsafe { danger() };\n}\n";
        assert!(check_unsafe_safety(good, &strip_code(good), "x.rs").is_empty());

        let in_string = "fn f() { let s = \"unsafe { }\"; }\n";
        assert!(
            check_unsafe_safety(in_string, &strip_code(in_string), "x.rs").is_empty(),
            "string contents must not trigger"
        );

        let ident = "fn f() { let unsafe_like = 1; }\n";
        assert!(
            check_unsafe_safety(ident, &strip_code(ident), "x.rs").is_empty(),
            "identifier substrings must not trigger"
        );
    }

    #[test]
    fn relaxed_publish_fires_on_watched_stores_only() {
        let bad = "fn f(&self) {\n    self.generation.store(1, Ordering::Relaxed);\n}\n";
        let f = check_relaxed_publish(&strip_code(bad), "snapshot.rs", &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "relaxed-publish");
        assert_eq!(f[0].line, 2);

        let release = "fn f(&self) { self.generation.store(1, Ordering::Release); }\n";
        assert!(check_relaxed_publish(&strip_code(release), "s.rs", &[]).is_empty());

        let unwatched = "fn f(&self) { self.counter.store(1, Ordering::Relaxed); }\n";
        assert!(check_relaxed_publish(&strip_code(unwatched), "s.rs", &[]).is_empty());

        let rmw = "fn f(&self) { self.head.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(check_relaxed_publish(&strip_code(rmw), "s.rs", &[]).len(), 1);

        let allowed = check_relaxed_publish(
            &strip_code(bad),
            "crates/sched/src/snapshot.rs",
            &[("snapshot.rs".into(), "generation".into())],
        );
        assert!(allowed.is_empty(), "allowlisted site must be suppressed: {allowed:?}");
    }

    const TAGS_FIXTURE: &str = r#"
/// a.
pub const ALPHA: u16 = 1;
/// b.
pub const BETA: u16 = 2;
pub const TAGS: &[(u16, &str)] = &[
    (ALPHA, "alpha"),
    (BETA, "beta"),
];
pub fn tag_kind(tag: u16) -> Option<TagKind> {
    tag_name(tag)?;
    Some(match tag {
        BETA => TagKind::Gauge,
        _ => TagKind::Counter,
    })
}
"#;

    #[test]
    fn tags_parse_and_append_only_baseline() {
        let parsed = parse_tags(TAGS_FIXTURE, &strip_code(TAGS_FIXTURE)).unwrap();
        assert_eq!(
            parsed,
            vec![
                TagEntry { id: 1, name: "alpha".into(), kind: "counter" },
                TagEntry { id: 2, name: "beta".into(), kind: "gauge" },
            ]
        );
        // Unchanged registry: clean.
        assert!(check_append_only("tags-registry", "t.rs", "tag", &parsed, &parsed, |t| t
            .id
            .to_string())
        .is_empty());
        // Deleting a shipped tag: fires.
        let shrunk = &parsed[..1];
        let f = check_append_only("tags-registry", "t.rs", "tag", shrunk, &parsed, |t| {
            t.id.to_string()
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("removed or renumbered"), "{}", f[0].message);
        // Retyping counter -> gauge: fires.
        let mut retyped = parsed.clone();
        retyped[0].kind = "gauge";
        let f = check_append_only("tags-registry", "t.rs", "tag", &retyped, &parsed, |t| {
            t.id.to_string()
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("changed"), "{}", f[0].message);
        // Appending without recording: fires with the --update hint.
        let mut grown = parsed.clone();
        grown.push(TagEntry { id: 3, name: "gamma".into(), kind: "counter" });
        let f = check_append_only("tags-registry", "t.rs", "tag", &grown, &parsed, |t| {
            t.id.to_string()
        });
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("xar-lint --update"), "{}", f[0].message);
    }

    const OPS_FIXTURE: &str = "
pub mod op {
    /// x.
    pub const A: u8 = 0x01;
    pub const B: u8 = 0x02;
    pub const R_A: u8 = 0x81;
}
";

    #[test]
    fn ops_parse_uniqueness_and_baseline() {
        let ops = parse_ops(&strip_code(OPS_FIXTURE)).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2], OpEntry { value: 0x81, name: "R_A".into() });
        assert!(check_ops_unique(&ops, "w.rs").is_empty());

        let dup =
            vec![OpEntry { value: 1, name: "A".into() }, OpEntry { value: 1, name: "B".into() }];
        let f = check_ops_unique(&dup, "w.rs");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("assigned to both"), "{}", f[0].message);

        // Renaming a shipped op: fires.
        let mut renamed = ops.clone();
        renamed[0].name = "A2".into();
        let f = check_append_only("ops-registry", "w.rs", "op", &renamed, &ops, |o| {
            format!("{:#04x}", o.value)
        });
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn lock_files_round_trip() {
        let tags = vec![
            TagEntry { id: 1, name: "alpha".into(), kind: "counter" },
            TagEntry { id: 9, name: "p50".into(), kind: "gauge" },
        ];
        assert_eq!(tags_lock_parse(&tags_lock_render(&tags)), tags);
        let ops = vec![
            OpEntry { value: 0x01, name: "DECIDE".into() },
            OpEntry { value: 0xff, name: "R_ERR".into() },
        ];
        assert_eq!(ops_lock_parse(&ops_lock_render(&ops)), ops);
        let allow = relaxed_allow_parse("# comment\nsnapshot.rs generation\n\n");
        assert_eq!(allow, vec![("snapshot.rs".into(), "generation".into())]);
    }
}
