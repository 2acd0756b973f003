//! A minimal TOML subset reader — just enough for `ordering_policy.toml`,
//! with zero dependencies.
//!
//! Supported: `[table.path]` headers, `[[array.of.tables]]` headers,
//! `key = "string"`, `key = 123`, `key = true/false`,
//! `key = ["a", "b"]` (string arrays, single- or multi-line), `#` comments,
//! blank lines. Unsupported constructs (inline tables, dotted keys,
//! multi-line strings) are a parse error, not a silent skip.

use std::collections::BTreeMap;

/// A TOML value in the supported subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }
}

/// One table: key → value plus any nested child tables.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub values: BTreeMap<String, Value>,
    pub children: BTreeMap<String, Table>,
    /// Array-of-tables entries declared with `[[path]]` under this table.
    pub arrays: BTreeMap<String, Vec<Table>>,
}

impl Table {
    /// Looks up a nested table by dotted path (`"coverage.windows"`).
    pub fn table(&self, path: &str) -> Option<&Table> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.children.get(seg)?;
        }
        Some(cur)
    }
    /// Looks up an array-of-tables by dotted path: last segment names the
    /// array, any prefix walks child tables.
    pub fn array(&self, path: &str) -> &[Table] {
        let (prefix, last) = match path.rfind('.') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => ("", path),
        };
        let parent = if prefix.is_empty() { Some(self) } else { self.table(prefix) };
        parent
            .and_then(|t| t.arrays.get(last))
            .map_or(&[], Vec::as_slice)
    }
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).and_then(Value::as_str)
    }
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.values.get(key).and_then(Value::as_int)
    }
    pub fn get_str_array(&self, key: &str) -> Option<&[String]> {
        self.values.get(key).and_then(Value::as_str_array)
    }
}

/// Parses the supported TOML subset. Errors carry a 1-based line number.
pub fn parse(src: &str) -> Result<Table, String> {
    let mut root = Table::default();
    // Path of the currently-open table; for `[[x]]` the cursor is the last
    // element of the array, addressed as (path, in_array).
    let mut cur_path: Vec<String> = Vec::new();
    let mut cur_is_array = false;

    let lines: Vec<&str> = src.lines().collect();
    let mut idx = 0usize;
    while idx < lines.len() {
        let lineno = idx + 1;
        let mut owned;
        let mut line = strip_comment(lines[idx]).trim();
        // Multi-line array: accumulate until the brackets balance.
        if line.contains('=')
            && line[line.find('=').unwrap() + 1..].trim().starts_with('[')
            && !array_closed(line)
        {
            owned = line.to_string();
            while idx + 1 < lines.len() && !array_closed(&owned) {
                idx += 1;
                owned.push(' ');
                owned.push_str(strip_comment(lines[idx]).trim());
            }
            if !array_closed(&owned) {
                return Err(format!("line {lineno}: unterminated array"));
            }
            line = &owned;
        }
        idx += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path: Vec<String> = inner.split('.').map(|s| s.trim().to_string()).collect();
            if path.iter().any(String::is_empty) {
                return Err(format!("line {lineno}: empty segment in table path"));
            }
            // Ensure the parent chain exists, then push a new array entry.
            let (last, prefix) = path.split_last().unwrap();
            let mut t = &mut root;
            for seg in prefix {
                t = t.children.entry(seg.clone()).or_default();
            }
            t.arrays.entry(last.clone()).or_default().push(Table::default());
            cur_path = path;
            cur_is_array = true;
        } else if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path: Vec<String> = inner.split('.').map(|s| s.trim().to_string()).collect();
            if path.iter().any(String::is_empty) {
                return Err(format!("line {lineno}: empty segment in table path"));
            }
            let mut t = &mut root;
            for seg in &path {
                t = t.children.entry(seg.clone()).or_default();
            }
            cur_path = path;
            cur_is_array = false;
        } else if let Some(eq) = find_eq(line) {
            let key = line[..eq].trim();
            let val = line[eq + 1..].trim();
            if key.is_empty() || key.contains('.') {
                return Err(format!("line {lineno}: unsupported key `{key}`"));
            }
            let value = parse_value(val).map_err(|e| format!("line {lineno}: {e}"))?;
            let t = cursor(&mut root, &cur_path, cur_is_array);
            t.values.insert(key.trim_matches('"').to_string(), value);
        } else {
            return Err(format!("line {lineno}: unsupported syntax `{line}`"));
        }
    }
    Ok(root)
}

/// Parses a TOML file from disk.
pub fn parse_file(path: &std::path::Path) -> Result<Table, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&src).map_err(|e| format!("{}: {e}", path.display()))
}

fn cursor<'a>(root: &'a mut Table, path: &[String], is_array: bool) -> &'a mut Table {
    if path.is_empty() {
        return root;
    }
    if is_array {
        let (last, prefix) = path.split_last().unwrap();
        let mut t = root;
        for seg in prefix {
            t = t.children.entry(seg.clone()).or_default();
        }
        t.arrays.entry(last.clone()).or_default().last_mut().unwrap()
    } else {
        let mut t = root;
        for seg in path {
            t = t.children.entry(seg.clone()).or_default();
        }
        t
    }
}

/// Finds the `=` separating key and value (not inside quotes — keys in this
/// subset are never quoted strings containing `=`).
fn find_eq(line: &str) -> Option<usize> {
    line.find('=')
}

/// Whether the brackets of an (array) value line are balanced outside
/// strings — i.e. the array literal is complete.
fn array_closed(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut esc = false;
    let mut seen = false;
    for c in s.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '[' if !in_str => {
                depth += 1;
                seen = true;
            }
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    seen && depth <= 0
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or("unterminated string")?;
        return Ok(Value::Str(unescape(inner)));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?.trim();
        if inner.is_empty() {
            return Ok(Value::StrArray(Vec::new()));
        }
        let mut out = Vec::new();
        for part in split_array(inner)? {
            let part = part.trim();
            let inner = part
                .strip_prefix('"')
                .and_then(|p| p.strip_suffix('"'))
                .ok_or_else(|| format!("array element `{part}` is not a string"))?;
            out.push(unescape(inner));
        }
        return Ok(Value::StrArray(out));
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(format!("unsupported value `{s}`"))
}

/// Splits an array body on commas outside quotes.
fn split_array(s: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    let tail = s[start..].trim();
    if !tail.is_empty() {
        out.push(&s[start..]);
    }
    Ok(out)
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_arrays_values() {
        let t = parse(
            r#"
top = "level"          # comment
[atomics.fields.mark]
store = ["Release"]
load_lockfree = ["Acquire"]
[[seqcst.allow]]
file = "crates/reclaim/src/lib.rs"
reason = "SC-fenced EBR"
[[seqcst.allow]]
file = "crates/check/src/lin.rs"
count = 1
ok = true
"#,
        )
        .unwrap();
        assert_eq!(t.get_str("top"), Some("level"));
        let mark = t.table("atomics.fields.mark").unwrap();
        assert_eq!(mark.get_str_array("store").unwrap(), ["Release".to_string()]);
        let allows = t.array("seqcst.allow");
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].get_str("file"), Some("crates/reclaim/src/lib.rs"));
        assert_eq!(allows[1].get_int("count"), Some(1));
        assert_eq!(allows[1].values.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let t = parse("k = \"a # b\"\n").unwrap();
        assert_eq!(t.get_str("k"), Some("a # b"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("good = 1\nbad line\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn multiline_arrays() {
        let t = parse("files = [\n  \"a.rs\",   # one\n  \"b.rs\",\n]\nnext = 1\n").unwrap();
        assert_eq!(t.get_str_array("files").unwrap(), ["a.rs".to_string(), "b.rs".to_string()]);
        assert_eq!(t.get_int("next"), Some(1));
    }

    #[test]
    fn empty_array_and_escapes() {
        let t = parse("a = []\nb = [\"x\\\"y\", \"z\"]\n").unwrap();
        assert_eq!(t.get_str_array("a").unwrap().len(), 0);
        assert_eq!(t.get_str_array("b").unwrap(), ["x\"y".to_string(), "z".to_string()]);
    }
}
