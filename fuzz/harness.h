#ifndef VIEWREWRITE_FUZZ_HARNESS_H_
#define VIEWREWRITE_FUZZ_HARNESS_H_

// Shared one-input fuzz entry points over the three untrusted-input
// boundaries: SQL text -> parser, SQL text -> full rewrite, raw bytes ->
// .vrsy bundle loader. Each function must be total: for ANY input it
// either succeeds or returns through a typed Status — no crash, no abort,
// no sanitizer finding, no unbounded memory. The libFuzzer wrappers
// (fuzz_*.cc), the GCC standalone driver, and the tier-1 corpus replay
// test (tests/fuzz/corpus_replay_test.cc) all funnel through these, so a
// crash found by any driver reproduces under all of them.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "datagen/tpch.h"
#include "dp/budget_wal.h"
#include "rewrite/canonical.h"
#include "rewrite/plan_cache.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "view/synopsis_store.h"

namespace viewrewrite {
namespace fuzz {

/// Tighter-than-default limits so the fuzzer spends its budget on parser
/// states rather than on megabyte inputs, and so every governance path is
/// reachable within small mutations.
inline const ResourceLimits& FuzzLimits() {
  static const ResourceLimits* limits = [] {
    auto* l = new ResourceLimits;
    l->max_sql_bytes = 64 * 1024;
    l->max_tokens = 16 * 1024;
    l->max_ast_depth = 96;
    l->max_ast_nodes = 32 * 1024;
    l->max_dnf_disjuncts = 16;
    l->max_ie_terms = 512;
    l->max_view_cells = 1u << 16;
    l->max_arena_bytes = 16u * 1024 * 1024;
    return l;
  }();
  return *limits;
}

/// Parser boundary: arbitrary bytes as SQL. On success the statement must
/// survive a canonical print -> reparse round trip (the printer and
/// parser agreeing is part of the bundle format's safety story: views are
/// persisted as canonical SQL).
inline void OneSqlParserInput(const uint8_t* data, size_t size) {
  std::string sql(reinterpret_cast<const char*>(data), size);
  Result<SelectStmtPtr> stmt = ParseSelect(sql, FuzzLimits());
  if (!stmt.ok()) return;
  std::string canonical = ToSql(**stmt);
  Result<SelectStmtPtr> again = ParseSelect(canonical, FuzzLimits());
  // Canonical rendering may legitimately re-trip a resource limit (it can
  // add explicit parentheses near the depth/token caps); any other
  // failure is a printer/parser disagreement and a real bug.
  if (!again.ok() &&
      again.status().code() != StatusCode::kResourceExhausted) {
    std::fprintf(stderr,
                 "canonical SQL failed to reparse:\n  %s\n  %s\n",
                 canonical.c_str(), again.status().ToString().c_str());
    std::abort();
  }
}

/// `sql` with the literal spans `spans` (from its LiteralSkeleton)
/// replaced by `texts`, index for index; an empty text keeps the span.
inline std::string ReplaceLiterals(const std::string& sql,
                                   const std::vector<LiteralSpan>& spans,
                                   const std::vector<std::string>& texts) {
  std::string out;
  size_t at = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    out.append(sql, at, spans[i].begin - at);
    if (texts[i].empty()) {
      out.append(sql, spans[i].begin, spans[i].size);
    } else {
      out += texts[i];
    }
    at = spans[i].begin + spans[i].size;
  }
  out.append(sql, at, std::string::npos);
  return out;
}

/// Plan-cache differential for one accepted input: its shape is stored in
/// a fresh cache, then siblings built from its literal spans — two
/// constants swapped, two made equal, one negated — go through the cache.
/// A sibling the cache serves must equal its own direct rewrite, printed
/// and keyed; a sibling it refuses or misses is fine.
inline void CheckPlanCacheSiblings(const std::string& sql,
                                   const Rewriter& rewriter) {
  Result<SqlSkeleton> skeleton = LiteralSkeleton(sql, FuzzLimits());
  if (!skeleton.ok()) return;
  const std::vector<LiteralSpan>& spans = skeleton->literals;
  PlanCache cache;
  auto serve = [&](const std::string& text) -> Result<RewrittenQuery> {
    PlanCache::Probe probe = cache.Lookup(text, FuzzLimits());
    if (probe.outcome == PlanCache::Outcome::kHit) {
      return std::move(probe.plan);
    }
    std::vector<SlotConversion> slots;
    VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt,
                        ParseSelect(text, FuzzLimits(), &slots));
    bool ranks_slots = false;
    VR_ASSIGN_OR_RETURN(RewrittenQuery rq,
                        rewriter.Rewrite(*stmt, &ranks_slots));
    cache.Insert(text, probe, slots, rq, ranks_slots);
    return rq;
  };
  if (!serve(sql).ok()) return;

  // The first two unequal literals of a type are swapped and made equal;
  // the first two equal ones made unequal.
  std::vector<std::string> siblings;
  auto text_of = [&](size_t i) {
    return sql.substr(spans[i].begin, spans[i].size);
  };
  auto with = [&](size_t i, std::string a, size_t j, std::string b) {
    std::vector<std::string> texts(spans.size());
    texts[i] = std::move(a);
    texts[j] = std::move(b);
    return ReplaceLiterals(sql, spans, texts);
  };
  std::map<TokenType, size_t> first_of_type;
  std::map<std::pair<TokenType, std::string>, size_t> first_of_text;
  bool swapped = false;
  bool split = false;
  for (size_t j = 0; j < spans.size() && !(swapped && split); ++j) {
    const std::string b = text_of(j);
    auto [typed, fresh_type] = first_of_type.emplace(spans[j].type, j);
    const std::string a = text_of(typed->second);
    if (!fresh_type && !swapped && a != b && !a.empty() && !b.empty()) {
      siblings.push_back(with(typed->second, b, j, a));
      siblings.push_back(with(typed->second, a, j, a));
      swapped = true;
    }
    auto [same, fresh_text] = first_of_text.emplace(
        std::make_pair(spans[j].type, b), j);
    if (!fresh_text && !split) {
      siblings.push_back(with(same->second, b, j, b + "1"));
      split = true;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].type == TokenType::kString) continue;
    // Negate by toggling a directly preceding '-'.
    if (spans[i].begin > 0 && sql[spans[i].begin - 1] == '-') {
      std::string t = sql;
      t.erase(spans[i].begin - 1, 1);
      siblings.push_back(std::move(t));
    } else {
      std::string t = sql;
      t.insert(spans[i].begin, "-");
      siblings.push_back(std::move(t));
    }
    break;
  }

  for (const std::string& sibling : siblings) {
    PlanCache::Probe probe = cache.Lookup(sibling, FuzzLimits());
    if (probe.outcome != PlanCache::Outcome::kHit) continue;
    Result<SelectStmtPtr> stmt = ParseSelect(sibling, FuzzLimits());
    Result<RewrittenQuery> direct =
        stmt.ok() ? rewriter.Rewrite(**stmt) : stmt.status();
    if (!direct.ok() || ToSql(*direct) != ToSql(probe.plan) ||
        CanonicalCacheKey(*direct, {}) != CanonicalCacheKey(probe.plan, {})) {
      std::fprintf(stderr,
                   "plan cache re-instantiation differs from the direct "
                   "rewrite:\n  sibling %s\n  direct  %s\n  cached  %s\n",
                   sibling.c_str(),
                   direct.ok() ? ToSql(*direct).c_str()
                               : direct.status().ToString().c_str(),
                   ToSql(probe.plan).c_str());
      std::abort();
    }
  }
}

/// Rewrite boundary: parse then run the full Rule-1..20 rewriter against
/// the TPC-H schema (the schema the seed-corpus workloads target). Each
/// accepted input also runs the plan-cache differential.
inline void OneRewriterInput(const uint8_t* data, size_t size) {
  static const Schema* schema = new Schema(MakeTpchSchema());
  std::string sql(reinterpret_cast<const char*>(data), size);
  Result<SelectStmtPtr> stmt = ParseSelect(sql, FuzzLimits());
  if (!stmt.ok()) return;
  RewriteOptions options;
  options.limits = FuzzLimits();
  Rewriter rewriter(*schema, options);
  Result<RewrittenQuery> rq = rewriter.Rewrite(**stmt);
  // OK or typed Status — either is fine; crashing is not.
  if (rq.ok()) CheckPlanCacheSiblings(sql, rewriter);
}

/// Loader boundary: arbitrary bytes as a .vrsy bundle. Load() takes a
/// path, so the input is staged through one per-process scratch file.
inline void OneVrsyLoaderInput(const uint8_t* data, size_t size) {
  static const Schema* schema = new Schema(MakeTpchSchema());
  static const std::string* path = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    return new std::string(dir + "/vr_fuzz_bundle_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".vrsy");
  }();
  std::FILE* f = std::fopen(path->c_str(), "wb");
  if (f == nullptr) return;
  if (size > 0) std::fwrite(data, 1, size, f);
  std::fclose(f);
  Result<SynopsisStore> store = SynopsisStore::Load(*path, *schema,
                                                    FuzzLimits());
  (void)store;
}

/// Budget-WAL boundary: arbitrary bytes as a write-ahead budget ledger.
/// Replay() takes a path, so the input is staged through one per-process
/// scratch file. The contract under fuzzing is the torn-tail semantics:
/// Replay either reconstructs a valid prefix or returns a typed
/// Status (kCorruption / kUnsupported) — never a crash, never an
/// unbounded allocation (a hostile length field must not be trusted),
/// and on success never a non-finite or negative spent total escaping
/// into an accountant unpoisoned.
inline void OneBudgetWalInput(const uint8_t* data, size_t size) {
  static const std::string* path = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    return new std::string(dir + "/vr_fuzz_budget_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".wal");
  }();
  std::FILE* f = std::fopen(path->c_str(), "wb");
  if (f == nullptr) return;
  if (size > 0) std::fwrite(data, 1, size, f);
  std::fclose(f);
  Result<BudgetWal::ReplayedLedger> replayed = BudgetWal::Replay(*path);
  if (!replayed.ok()) return;
  // Whatever replays must be safe to seed an accountant with: garbage
  // numerics poison rather than admit spending.
  BudgetAccountant acct(replayed->has_total ? replayed->total : 0.0,
                        replayed->spent, replayed->entries);
  (void)acct.remaining();
}

}  // namespace fuzz
}  // namespace viewrewrite

#endif  // VIEWREWRITE_FUZZ_HARNESS_H_
