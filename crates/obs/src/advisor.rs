//! Bentō-style optimization advisor: ranks a cross-trace
//! [`ProfileSnapshot`](crate::profile::ProfileSnapshot) into concrete,
//! source-located suggestions, emitted as a deterministic, schema-validated
//! `ADVISOR_*.json` document.
//!
//! Four suggestion kinds cover the profile's wasteful patterns:
//!
//! * **flush coalescing** — N writebacks of already-flushed data at one
//!   site: the flushes can be merged or dropped;
//! * **log elision** — N `TX_ADD`s of an already-logged object: the undo
//!   entry is dead;
//! * **redundant fence** — N fences that ordered no new persistent work;
//! * **wasted persist bytes** — the per-site byte total of all of the
//!   above, so heavyweight sites rank even when each occurrence is small.
//!
//! Ranking is a deterministic integer score,
//! `score = 64·count + wasted_bytes` (64 ≈ one cache-line writeback per
//! occurrence), with full tie-breaking — score descending, then site, then
//! kind code — and per-`(kind, site)` dedupe, so the report is byte-stable
//! under any worker count and batch size. `from_json`/`to_json` round-trip
//! the document; [`validate`] is the `obs-check` schema gate; [`diff`]
//! supports run-over-run persistency-efficiency tracking the way
//! `BENCH_engine.json` tracks throughput.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};
use crate::profile::{ProfileSnapshot, SiteDelta, SiteProfile};
use crate::TelemetrySnapshot;

/// The `schema` field every advisor document carries.
pub const SCHEMA: &str = "pmtest-advisor/v1";

/// Per-occurrence score weight: one cache-line writeback (64 bytes) is the
/// floor cost of any wasteful persist operation.
pub const OCCURRENCE_WEIGHT: u64 = 64;

/// The category of one advisor suggestion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuggestionKind {
    /// Duplicate writebacks of the same data — coalesce or drop flushes.
    FlushCoalescing,
    /// Duplicate undo-log appends — elide the dead log entry.
    LogElision,
    /// Fences ordering no new persistent work — remove or hoist.
    RedundantFence,
    /// Per-site wasted-persist-bytes total (all waste classes combined).
    WastedPersist,
}

impl SuggestionKind {
    /// Every kind, in stable code order.
    pub const ALL: [SuggestionKind; 4] = [
        SuggestionKind::FlushCoalescing,
        SuggestionKind::LogElision,
        SuggestionKind::RedundantFence,
        SuggestionKind::WastedPersist,
    ];

    /// The stable `snake_case` interchange code. Append-only: these strings
    /// are part of the `ADVISOR_*.json` format.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SuggestionKind::FlushCoalescing => "flush_coalescing",
            SuggestionKind::LogElision => "log_elision",
            SuggestionKind::RedundantFence => "redundant_fence",
            SuggestionKind::WastedPersist => "wasted_persist",
        }
    }

    /// Parses a stable code back into a kind.
    #[must_use]
    pub fn from_code(code: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.code() == code)
    }
}

/// One ranked, source-located suggestion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suggestion {
    /// 1-based rank after the deterministic sort.
    pub rank: u32,
    /// What to do at the site.
    pub kind: SuggestionKind,
    /// The site, rendered `file:line`.
    pub site: String,
    /// Occurrences across all profiled traces.
    pub count: u64,
    /// Wasted persist bytes attributed to this suggestion.
    pub wasted_bytes: u64,
    /// Deterministic ranking score ([`score`]).
    pub score: u64,
    /// Human-readable one-line advice.
    pub detail: String,
}

/// The ranking formula: `64·count + wasted_bytes`, saturating.
#[must_use]
pub fn score(count: u64, wasted_bytes: u64) -> u64 {
    count.saturating_mul(OCCURRENCE_WEIGHT).saturating_add(wasted_bytes)
}

/// A full advisor report: the ranked suggestions plus the per-site profile
/// they were derived from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdvisorReport {
    /// Traces aggregated into the underlying profile.
    pub traces: u64,
    /// Ranked suggestions, rank 1 first.
    pub suggestions: Vec<Suggestion>,
    /// The site profiles backing the suggestions, sorted by (file, line).
    pub sites: Vec<SiteProfile>,
}

fn detail_for(kind: SuggestionKind, count: u64, wasted: u64) -> String {
    match kind {
        SuggestionKind::FlushCoalescing => format!(
            "{count} writeback(s) of already-flushed data ({wasted} bytes re-flushed) — \
             coalesce or drop the duplicate flush at this site"
        ),
        SuggestionKind::LogElision => format!(
            "{count} undo-log append(s) of an already-logged object ({wasted} bytes re-logged) — \
             the TX_ADD at this site is dead and can be elided"
        ),
        SuggestionKind::RedundantFence => format!(
            "{count} fence(s) ordered no new persistent work — remove or hoist the barrier at \
             this site"
        ),
        SuggestionKind::WastedPersist => format!(
            "{count} wasteful persist operation(s) totalling {wasted} wasted bytes at this site"
        ),
    }
}

impl AdvisorReport {
    /// Derives the ranked report from a profile snapshot. Deterministic:
    /// equal profiles produce byte-equal reports.
    #[must_use]
    pub fn from_profile(profile: &ProfileSnapshot) -> Self {
        let mut suggestions = Vec::new();
        let mut push = |kind: SuggestionKind, site: &str, count: u64, wasted: u64| {
            suggestions.push(Suggestion {
                rank: 0,
                kind,
                site: site.to_owned(),
                count,
                wasted_bytes: wasted,
                score: score(count, wasted),
                detail: detail_for(kind, count, wasted),
            });
        };
        for s in &profile.sites {
            let d = &s.ops;
            let site = s.site();
            if d.dup_flushes > 0 {
                push(SuggestionKind::FlushCoalescing, &site, d.dup_flushes, d.dup_flush_bytes);
            }
            if d.dup_logs > 0 {
                push(SuggestionKind::LogElision, &site, d.dup_logs, d.dup_log_bytes);
            }
            if d.redundant_fences > 0 {
                push(SuggestionKind::RedundantFence, &site, d.redundant_fences, 0);
            }
            if d.wasted_bytes() > 0 {
                push(SuggestionKind::WastedPersist, &site, d.wasteful_ops(), d.wasted_bytes());
            }
        }
        // Full tie-breaking: score desc, then site asc, then kind code asc.
        // `from_profile` can never emit two entries with the same (kind,
        // site) — the profile is already site-deduped — so the order is
        // total and the ranks are stable.
        suggestions.sort_by(|a, b| {
            b.score
                .cmp(&a.score)
                .then_with(|| a.site.cmp(&b.site))
                .then_with(|| a.kind.code().cmp(b.kind.code()))
        });
        for (i, s) in suggestions.iter_mut().enumerate() {
            s.rank = (i + 1) as u32;
        }
        Self { traces: profile.traces, suggestions, sites: profile.sites.clone() }
    }

    /// The top `k` suggestions (fewer when the report is shorter).
    #[must_use]
    pub fn top(&self, k: usize) -> &[Suggestion] {
        &self.suggestions[..self.suggestions.len().min(k)]
    }

    /// The suggestions located at `site` (`file:line`), in rank order.
    #[must_use]
    pub fn at_site(&self, site: &str) -> Vec<&Suggestion> {
        self.suggestions.iter().filter(|s| s.site == site).collect()
    }

    /// Appends the advisor's aggregate counters to a telemetry snapshot
    /// (`advisor_suggestions{kind=…}`, all four kinds always present).
    pub fn fold_into(&self, snap: &mut TelemetrySnapshot) {
        for kind in SuggestionKind::ALL {
            let n = self.suggestions.iter().filter(|s| s.kind == kind).count() as u64;
            snap.push_counter("advisor_suggestions", &[("kind", kind.code())], n);
        }
    }

    /// Serializes the report as one deterministic JSON document (schema
    /// [`SCHEMA`]): byte-equal reports for byte-equal inputs, one
    /// suggestion/site per line, trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"traces\": {},", self.traces);
        out.push_str("  \"suggestions\": [\n");
        for (i, s) in self.suggestions.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rank\": {}, \"kind\": \"{}\", \"site\": ",
                s.rank,
                s.kind.code()
            );
            json::escape_into(&mut out, &s.site);
            let _ = write!(
                out,
                ", \"count\": {}, \"wasted_bytes\": {}, \"score\": {}, \"detail\": ",
                s.count, s.wasted_bytes, s.score
            );
            json::escape_into(&mut out, &s.detail);
            out.push('}');
            out.push_str(if i + 1 == self.suggestions.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n  \"sites\": [\n");
        for (i, s) in self.sites.iter().enumerate() {
            out.push_str("    {\"site\": ");
            json::escape_into(&mut out, &s.site());
            let d = &s.ops;
            let _ = write!(
                out,
                ", \"writes\": {}, \"flushes\": {}, \"fences\": {}, \"logs\": {}, \
                 \"dup_flushes\": {}, \"dup_flush_bytes\": {}, \"unnecessary_flushes\": {}, \
                 \"unnecessary_flush_bytes\": {}, \"dup_logs\": {}, \"dup_log_bytes\": {}, \
                 \"redundant_fences\": {}, \"wasted_bytes\": {}, \"warns\": {{",
                d.writes,
                d.flushes,
                d.fences,
                d.logs,
                d.dup_flushes,
                d.dup_flush_bytes,
                d.unnecessary_flushes,
                d.unnecessary_flush_bytes,
                d.dup_logs,
                d.dup_log_bytes,
                d.redundant_fences,
                d.wasted_bytes(),
            );
            for (j, (code, n)) in s.warns.iter().enumerate() {
                json::escape_into(&mut out, code);
                let _ = write!(out, ": {n}");
                if j + 1 != s.warns.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("}}");
            out.push_str(if i + 1 == self.sites.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an advisor document back into a report.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, is not an
    /// advisor document, or carries malformed fields. Structural
    /// consistency (ranking, score formula, site resolution) is
    /// [`validate`]'s job, not this parser's.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("not an advisor document (schema != {SCHEMA:?})"));
        }
        let traces = want_u64(&doc, "traces")?;
        let mut suggestions = Vec::new();
        for (i, item) in want_array(&doc, "suggestions")?.iter().enumerate() {
            let at = |e: String| format!("suggestions[{i}]: {e}");
            let kind_code = want_str(item, "kind").map_err(at)?;
            let kind = SuggestionKind::from_code(&kind_code)
                .ok_or_else(|| format!("suggestions[{i}]: unknown kind {kind_code:?}"))?;
            suggestions.push(Suggestion {
                rank: want_u64(item, "rank").map_err(|e| format!("suggestions[{i}]: {e}"))? as u32,
                kind,
                site: want_str(item, "site").map_err(|e| format!("suggestions[{i}]: {e}"))?,
                count: want_u64(item, "count").map_err(|e| format!("suggestions[{i}]: {e}"))?,
                wasted_bytes: want_u64(item, "wasted_bytes")
                    .map_err(|e| format!("suggestions[{i}]: {e}"))?,
                score: want_u64(item, "score").map_err(|e| format!("suggestions[{i}]: {e}"))?,
                detail: want_str(item, "detail").map_err(|e| format!("suggestions[{i}]: {e}"))?,
            });
        }
        let mut sites = Vec::new();
        for (i, item) in want_array(&doc, "sites")?.iter().enumerate() {
            let at = |e: String| format!("sites[{i}]: {e}");
            let site = want_str(item, "site").map_err(&at)?;
            let (file, line) = split_site(&site).map_err(&at)?;
            let num = |key| want_u64(item, key).map_err(&at);
            let ops = SiteDelta {
                writes: num("writes")?,
                flushes: num("flushes")?,
                fences: num("fences")?,
                logs: num("logs")?,
                dup_flushes: num("dup_flushes")?,
                dup_flush_bytes: num("dup_flush_bytes")?,
                unnecessary_flushes: num("unnecessary_flushes")?,
                unnecessary_flush_bytes: num("unnecessary_flush_bytes")?,
                dup_logs: num("dup_logs")?,
                dup_log_bytes: num("dup_log_bytes")?,
                redundant_fences: num("redundant_fences")?,
            };
            let mut warns = Vec::new();
            match item.get("warns") {
                Some(JsonValue::Object(map)) => {
                    for (code, n) in map {
                        let n = n
                            .as_f64()
                            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                            .ok_or_else(|| at(format!("warn {code:?} not a count")))?;
                        warns.push((code.clone(), n as u64));
                    }
                }
                _ => return Err(at("field \"warns\" missing or not an object".to_owned())),
            }
            sites.push(SiteProfile { file, line, ops, warns });
        }
        Ok(Self { traces, suggestions, sites })
    }
}

/// Whether `text` parses as JSON and carries the advisor schema marker —
/// the cheap content-detection probe `obs-check` and `pmtest-explain` run
/// before committing to full validation.
#[must_use]
pub fn is_advisor_doc(text: &str) -> bool {
    json::parse(text)
        .map(|doc| doc.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA))
        .unwrap_or(false)
}

/// Summary of a validated advisor document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvisorStats {
    /// Traces the profile aggregated.
    pub traces: u64,
    /// Profiled sites.
    pub sites: usize,
    /// Ranked suggestions.
    pub suggestions: usize,
}

/// Validates an advisor document end to end: schema marker, well-formed
/// `file:line` site keys, every suggestion site resolving to a profiled
/// site, counts consistent with that site's profile, the score formula,
/// contiguous ranks, monotone non-increasing scores with full tie-break
/// ordering, and no duplicate `(kind, site)` pairs.
///
/// # Errors
///
/// Returns the first violated constraint, prefixed with the offending
/// suggestion or site index.
pub fn validate(text: &str) -> Result<AdvisorStats, String> {
    let report = AdvisorReport::from_json(text)?;
    let mut by_site: BTreeMap<String, &SiteProfile> = BTreeMap::new();
    let mut last: Option<(String, u32)> = None;
    for (i, s) in report.sites.iter().enumerate() {
        let site = s.site();
        // Sites sort by (file, line-number) — "f.rs:170" comes after
        // "f.rs:68" even though the strings compare the other way.
        let key = split_site(&site).map_err(|e| format!("sites[{i}]: {e}"))?;
        if let Some(prev) = &last {
            if key <= *prev {
                return Err(format!(
                    "sites[{i}]: {site:?} out of order (after {}:{})",
                    prev.0, prev.1
                ));
            }
        }
        let declared = s.ops.wasted_bytes();
        if declared != s.ops.dup_flush_bytes + s.ops.unnecessary_flush_bytes + s.ops.dup_log_bytes {
            return Err(format!("sites[{i}]: wasted_bytes inconsistent"));
        }
        by_site.insert(site, s);
        last = Some(key);
    }
    let mut seen: BTreeMap<(String, &'static str), ()> = BTreeMap::new();
    let mut prev: Option<&Suggestion> = None;
    for (i, s) in report.suggestions.iter().enumerate() {
        if s.rank as usize != i + 1 {
            return Err(format!("suggestions[{i}]: rank {} not contiguous", s.rank));
        }
        let site = by_site
            .get(&s.site)
            .ok_or_else(|| format!("suggestions[{i}]: site {:?} not in profile", s.site))?;
        let (expect_count, expect_wasted) = match s.kind {
            SuggestionKind::FlushCoalescing => (site.ops.dup_flushes, site.ops.dup_flush_bytes),
            SuggestionKind::LogElision => (site.ops.dup_logs, site.ops.dup_log_bytes),
            SuggestionKind::RedundantFence => (site.ops.redundant_fences, 0),
            SuggestionKind::WastedPersist => (site.ops.wasteful_ops(), site.ops.wasted_bytes()),
        };
        if s.count != expect_count || s.wasted_bytes != expect_wasted {
            return Err(format!(
                "suggestions[{i}]: counts inconsistent with site profile \
                 (count {} vs {}, wasted {} vs {})",
                s.count, expect_count, s.wasted_bytes, expect_wasted
            ));
        }
        if s.count == 0 && s.wasted_bytes == 0 {
            return Err(format!("suggestions[{i}]: empty suggestion"));
        }
        if s.score != score(s.count, s.wasted_bytes) {
            return Err(format!("suggestions[{i}]: score {} violates formula", s.score));
        }
        if seen.insert((s.site.clone(), s.kind.code()), ()).is_some() {
            return Err(format!(
                "suggestions[{i}]: duplicate ({}, {}) suggestion",
                s.kind.code(),
                s.site
            ));
        }
        if let Some(p) = prev {
            let ordered = match p.score.cmp(&s.score) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => match p.site.cmp(&s.site) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => p.kind.code() < s.kind.code(),
                },
            };
            if !ordered {
                return Err(format!(
                    "suggestions[{i}]: ranking not monotone under (score desc, site, kind)"
                ));
            }
        }
        prev = Some(s);
    }
    Ok(AdvisorStats {
        traces: report.traces,
        sites: report.sites.len(),
        suggestions: report.suggestions.len(),
    })
}

/// One `(kind, site)` entry of a run-over-run [`diff`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// Suggestion kind.
    pub kind: SuggestionKind,
    /// The site, rendered `file:line`.
    pub site: String,
    /// `(count, wasted_bytes, score)` in the old report, when present.
    pub old: Option<(u64, u64, u64)>,
    /// `(count, wasted_bytes, score)` in the new report, when present.
    pub new: Option<(u64, u64, u64)>,
}

impl DiffEntry {
    /// Signed score change (`new - old`, absent sides as 0): positive means
    /// the site got *more* wasteful.
    #[must_use]
    pub fn score_delta(&self) -> i64 {
        let side = |v: &Option<(u64, u64, u64)>| v.map_or(0, |(_, _, s)| s) as i64;
        side(&self.new) - side(&self.old)
    }
}

/// Compares two advisor reports per `(kind, site)`: regressions (score up,
/// or new suggestions) first, improvements last, unchanged pairs omitted.
/// Deterministic: delta descending, then site, then kind code.
#[must_use]
pub fn diff(old: &AdvisorReport, new: &AdvisorReport) -> Vec<DiffEntry> {
    let index = |r: &AdvisorReport| -> BTreeMap<(String, &'static str), (u64, u64, u64)> {
        r.suggestions
            .iter()
            .map(|s| ((s.site.clone(), s.kind.code()), (s.count, s.wasted_bytes, s.score)))
            .collect()
    };
    let old_by = index(old);
    let new_by = index(new);
    let mut entries = Vec::new();
    let keys: std::collections::BTreeSet<_> = old_by.keys().chain(new_by.keys()).collect();
    for (site, code) in keys {
        let o = old_by.get(&(site.clone(), code)).copied();
        let n = new_by.get(&(site.clone(), code)).copied();
        if o == n {
            continue;
        }
        entries.push(DiffEntry {
            kind: SuggestionKind::from_code(code).expect("codes come from SuggestionKind"),
            site: site.clone(),
            old: o,
            new: n,
        });
    }
    entries.sort_by(|a, b| {
        b.score_delta()
            .cmp(&a.score_delta())
            .then_with(|| a.site.cmp(&b.site))
            .then_with(|| a.kind.code().cmp(b.kind.code()))
    });
    entries
}

fn split_site(site: &str) -> Result<(String, u32), String> {
    let (file, line) =
        site.rsplit_once(':').ok_or_else(|| format!("site {site:?} is not file:line"))?;
    if file.is_empty() {
        return Err(format!("site {site:?} has an empty file"));
    }
    let line: u32 = line.parse().map_err(|_| format!("site {site:?} has a non-numeric line"))?;
    Ok((file.to_owned(), line))
}

fn want_str(doc: &JsonValue, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("field {key:?} missing or not a string"))
}

fn want_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("field {key:?} missing or not a non-negative integer"))
}

fn want_array<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match doc.get(key) {
        Some(JsonValue::Array(items)) => Ok(items),
        _ => Err(format!("field {key:?} missing or not an array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileBatch, ProfileStore, Site};

    /// Folds one trace into `store` as a batch of one.
    fn record(store: &ProfileStore, ops: &[(Site, SiteDelta)], warns: &[(Site, &'static str)]) {
        let mut batch = ProfileBatch::default();
        batch.add_trace(ops, warns);
        store.absorb(&mut batch);
    }

    fn sample_profile() -> ProfileSnapshot {
        let store = ProfileStore::new();
        record(
            &store,
            &[
                (
                    ("src/queue.rs", 155),
                    SiteDelta {
                        flushes: 4,
                        dup_flushes: 2,
                        dup_flush_bytes: 128,
                        ..Default::default()
                    },
                ),
                (
                    ("src/ctree.rs", 177),
                    SiteDelta { logs: 3, dup_logs: 1, dup_log_bytes: 8, ..Default::default() },
                ),
                (
                    ("src/queue.rs", 160),
                    SiteDelta { fences: 2, redundant_fences: 1, ..Default::default() },
                ),
            ],
            &[(("src/queue.rs", 155), "duplicate_flush")],
        );
        store.snapshot()
    }

    #[test]
    fn ranking_is_deterministic_and_monotone() {
        let report = AdvisorReport::from_profile(&sample_profile());
        assert_eq!(report.traces, 1);
        // queue.rs:155 flush_coalescing: score 2*64+128 = 256 → rank 1
        // queue.rs:155 wasted_persist:   score 2*64+128 = 256 → rank 2 (kind tie-break)
        // ctree.rs:177 log_elision:      score 64+8 = 72
        // ctree.rs:177 wasted_persist:   score 72 (site < queue.rs:160? no — c < q)
        // queue.rs:160 redundant_fence:  score 64
        let got: Vec<(u32, &str, &str, u64)> = report
            .suggestions
            .iter()
            .map(|s| (s.rank, s.kind.code(), s.site.as_str(), s.score))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, "flush_coalescing", "src/queue.rs:155", 256),
                (2, "wasted_persist", "src/queue.rs:155", 256),
                (3, "log_elision", "src/ctree.rs:177", 72),
                (4, "wasted_persist", "src/ctree.rs:177", 72),
                (5, "redundant_fence", "src/queue.rs:160", 64),
            ]
        );
    }

    #[test]
    fn json_round_trips_and_validates() {
        let report = AdvisorReport::from_profile(&sample_profile());
        let text = report.to_json();
        assert!(is_advisor_doc(&text));
        let back = AdvisorReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        let stats = validate(&text).expect("validates");
        assert_eq!(stats, AdvisorStats { traces: 1, sites: 3, suggestions: 5 });
        // Byte-determinism: re-serializing the parsed report is identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validate_rejects_tampering() {
        let report = AdvisorReport::from_profile(&sample_profile());
        let good = report.to_json();
        // Swap ranks 1 and 2 (breaks contiguity at index 0).
        let bad = good.replacen("\"rank\": 1", "\"rank\": 9", 1);
        assert!(validate(&bad).unwrap_err().contains("not contiguous"));
        // Break the score formula.
        let bad = good.replacen("\"score\": 256", "\"score\": 257", 1);
        assert!(validate(&bad).unwrap_err().contains("formula"));
        // Point a suggestion at an unknown site.
        let bad = good.replacen("src/queue.rs:155\", \"count\"", "src/none.rs:1\", \"count\"", 1);
        assert!(validate(&bad).unwrap_err().contains("not in profile"));
        // Not an advisor doc at all.
        assert!(!is_advisor_doc("{\"metric\": 1}"));
        assert!(AdvisorReport::from_json("{\"metric\": 1}").is_err());
    }

    #[test]
    fn empty_profile_yields_empty_valid_report() {
        let report = AdvisorReport::from_profile(&ProfileSnapshot::default());
        assert!(report.suggestions.is_empty());
        let stats = validate(&report.to_json()).expect("empty report validates");
        assert_eq!(stats.suggestions, 0);
    }

    #[test]
    fn diff_orders_regressions_first() {
        let old = AdvisorReport::from_profile(&sample_profile());
        let store = ProfileStore::new();
        // queue.rs:155 got worse; ctree.rs:177 was fixed; queue.rs:160 unchanged.
        record(
            &store,
            &[
                (
                    ("src/queue.rs", 155),
                    SiteDelta {
                        flushes: 8,
                        dup_flushes: 4,
                        dup_flush_bytes: 256,
                        ..Default::default()
                    },
                ),
                (
                    ("src/queue.rs", 160),
                    SiteDelta { fences: 2, redundant_fences: 1, ..Default::default() },
                ),
            ],
            &[],
        );
        let new = AdvisorReport::from_profile(&store.snapshot());
        let entries = diff(&old, &new);
        assert!(entries[0].score_delta() > 0, "worst regression first: {entries:?}");
        assert_eq!(entries[0].site, "src/queue.rs:155");
        assert!(entries.iter().all(|e| e.site != "src/queue.rs:160"), "unchanged pair omitted");
        assert!(entries.last().unwrap().score_delta() < 0, "improvements last");
    }

    #[test]
    fn fold_into_exports_per_kind_counts() {
        let report = AdvisorReport::from_profile(&sample_profile());
        let mut snap = TelemetrySnapshot::default();
        report.fold_into(&mut snap);
        assert_eq!(snap.counter_sum("advisor_suggestions"), 5);
        assert_eq!(
            snap.counters.iter().filter(|c| c.name == "advisor_suggestions").count(),
            SuggestionKind::ALL.len(),
            "all kinds present even at zero"
        );
    }
}
