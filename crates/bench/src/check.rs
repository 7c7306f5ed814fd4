//! Bench regression gate: parse the committed `BENCH_vmplants.json`
//! baseline with a dependency-free JSON reader and compare a fresh run
//! against it under per-section tolerances.
//!
//! The gate only fails on *regressions* — a faster run always passes —
//! and only judges rate/ratio metrics, which are comparable between
//! quick and full mode (walls are not: the workloads differ by design).
//! Deterministic outputs (match counts, dedup factor) get the tightest
//! tolerances; timing-derived percentages the loosest.

use std::fmt::Write as _;

/// A parsed JSON value. Only what the baseline schema needs: no escapes
/// beyond `\"`/`\\`/`\/`/`\n`/`\t`, no unicode surrogates — the bench
/// writer never emits them.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// Numeric value (`None` for non-numbers).
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Walk a dotted path with optional `[i]` array steps, e.g.
    /// `kernel.slab_events_per_sec` or `matchmaking[2].speedup`.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut node = self;
        for part in path.split('.') {
            let (key, index) = match part.find('[') {
                Some(open) => {
                    let close = part.find(']')?;
                    (&part[..open], part[open + 1..close].parse::<usize>().ok())
                }
                None => (part, None),
            };
            if !key.is_empty() {
                node = node.get(key)?;
            }
            if let Some(i) = index {
                node = node.idx(i)?;
            }
        }
        Some(node)
    }
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// How one gated metric is judged.
enum Gate {
    /// Higher is better: fail when `current < baseline * (1 - tol*slack)`.
    RateFloor(f64),
    /// Lower is better, percentage-point scale: fail when
    /// `current > baseline + tol*slack`.
    AbsCeiling(f64),
}

/// The gated metrics and their full-mode tolerances. Rates and ratios
/// only: wall times depend on workload size and are not comparable
/// between quick and full runs.
const GATES: &[(&str, Gate)] = &[
    ("kernel.slab_events_per_sec", Gate::RateFloor(0.20)),
    ("matchmaking[0].indexed_matches_per_sec", Gate::RateFloor(0.20)),
    ("matchmaking[1].indexed_matches_per_sec", Gate::RateFloor(0.20)),
    ("matchmaking[2].indexed_matches_per_sec", Gate::RateFloor(0.20)),
    (
        "matchmaking_at_scale[0].compiled_batch_rows_per_sec",
        Gate::RateFloor(0.25),
    ),
    (
        "matchmaking_at_scale[1].compiled_batch_rows_per_sec",
        Gate::RateFloor(0.25),
    ),
    (
        "matchmaking_at_scale[2].compiled_batch_rows_per_sec",
        Gate::RateFloor(0.25),
    ),
    ("scenario.compiles_per_sec", Gate::RateFloor(0.25)),
    // Deterministic byte accounting: the tightest gate on the board.
    ("warehouse.dedup_factor", Gate::RateFloor(0.10)),
    ("warehouse.clone_speedup", Gate::RateFloor(0.25)),
    // Percentage-point ceilings for the two overhead differentials.
    ("obs_overhead.overhead_percent", Gate::AbsCeiling(2.0)),
    ("journal_overhead.overhead_percent", Gate::AbsCeiling(10.0)),
];

/// Identity fields that must match exactly for the comparison to mean
/// anything (the population sizes are pinned across quick/full mode).
const IDENTITY: &[&str] = &[
    "schema",
    "matchmaking[0].goldens",
    "matchmaking[1].goldens",
    "matchmaking[2].goldens",
    "matchmaking_at_scale[0].ads",
    "matchmaking_at_scale[1].ads",
    "matchmaking_at_scale[2].ads",
    "warehouse.goldens",
];

/// Compare a fresh run against the committed baseline. Returns the
/// rendered comparison table and the list of violations (empty = pass).
/// `slack` scales every tolerance; CI uses >1 to absorb shared-runner
/// noise without giving up the gate entirely.
pub fn check(baseline: &Json, current: &Json, slack: f64) -> (String, Vec<String>) {
    let mut table = String::from(
        "bench regression gate (current vs committed baseline)\n\
         metric                                                baseline       current  limit\n",
    );
    let mut violations = Vec::new();
    // Quick-mode walls sit at timer resolution, so the overhead
    // percentages derived from them are noise: only a full run can
    // judge the absolute-ceiling gates.
    let quick_run = current.path("quick") == Some(&Json::Bool(true));

    for path in IDENTITY {
        let (b, c) = (baseline.path(path), current.path(path));
        if b != c {
            violations.push(format!("identity mismatch at {path}: {b:?} vs {c:?}"));
        }
    }

    for (path, gate) in GATES {
        let Some(b) = baseline.path(path).and_then(Json::num) else {
            violations.push(format!("baseline is missing {path}"));
            continue;
        };
        let Some(c) = current.path(path).and_then(Json::num) else {
            violations.push(format!("current run is missing {path}"));
            continue;
        };
        let (limit, ok, kind) = match gate {
            Gate::RateFloor(tol) => {
                let limit = b * (1.0 - tol * slack);
                (limit, c >= limit, ">=")
            }
            Gate::AbsCeiling(tol) => {
                if quick_run {
                    let _ = writeln!(
                        table,
                        "  {path:<50} {b:>12.1}  {c:>12.1}  skipped (quick-run timing noise)"
                    );
                    continue;
                }
                let limit = b + tol * slack;
                (limit, c <= limit, "<=")
            }
        };
        let _ = writeln!(
            table,
            "  {:<50} {:>12.1}  {:>12.1}  {kind} {limit:.1} {}",
            path,
            b,
            c,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            violations.push(format!(
                "{path}: current {c:.1} violates {kind} {limit:.1} (baseline {b:.1})"
            ));
        }
    }
    (table, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../BENCH_vmplants.json");

    #[test]
    fn committed_baseline_parses_and_passes_against_itself() {
        let baseline = parse(BASELINE).expect("committed baseline parses");
        assert_eq!(
            baseline.path("schema").and_then(Json::str),
            Some("vmplants-bench-baseline/7")
        );
        let (_, violations) = check(&baseline, &baseline, 1.0);
        assert!(violations.is_empty(), "self-check failed: {violations:?}");
    }

    #[test]
    fn parser_handles_the_grammar_the_writer_emits() {
        let j = parse(r#"{"a": [1, -2.5, true], "b": {"c": "x\ny"}, "d": null}"#).expect("parse");
        assert_eq!(j.path("a[1]").and_then(Json::num), Some(-2.5));
        assert_eq!(j.path("a[2]"), Some(&Json::Bool(true)));
        assert_eq!(j.path("b.c").and_then(Json::str), Some("x\ny"));
        assert_eq!(j.path("d"), Some(&Json::Null));
        assert_eq!(j.path("b.missing"), None);
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma rejected");
        assert!(parse("[1 2]").is_err(), "missing comma rejected");
    }

    #[test]
    fn gates_catch_regressions_and_ignore_improvements() {
        let baseline = parse(BASELINE).expect("baseline");
        // A 30% throughput drop on a 20%-tolerance rate must fail …
        let mut slow = baseline.clone();
        if let Json::Obj(fields) = &mut slow {
            let kernel = fields.iter_mut().find(|(k, _)| k == "kernel").unwrap();
            if let Json::Obj(kf) = &mut kernel.1 {
                let rate = kf
                    .iter_mut()
                    .find(|(k, _)| k == "slab_events_per_sec")
                    .unwrap();
                let b = rate.1.num().unwrap();
                rate.1 = Json::Num(b * 0.7);
            }
        }
        let (_, violations) = check(&baseline, &slow, 1.0);
        assert!(violations
            .iter()
            .any(|v| v.contains("kernel.slab_events_per_sec")));
        // … and pass once the slack multiplier covers it.
        let (_, violations) = check(&baseline, &slow, 2.0);
        assert!(violations.is_empty(), "slack 2.0 still failed: {violations:?}");
        // A faster run never fails.
        let (_, violations) = check(&slow, &baseline, 1.0);
        assert!(violations.is_empty(), "improvement flagged: {violations:?}");
    }
}
