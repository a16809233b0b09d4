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
#include <string>

#include "common/limits.h"
#include "datagen/tpch.h"
#include "dp/budget_wal.h"
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

/// Rewrite boundary: parse then run the full Rule-1..20 rewriter against
/// the TPC-H schema (the schema the seed-corpus workloads target).
inline void OneRewriterInput(const uint8_t* data, size_t size) {
  static const Schema* schema = new Schema(MakeTpchSchema());
  std::string sql(reinterpret_cast<const char*>(data), size);
  Result<SelectStmtPtr> stmt = ParseSelect(sql, FuzzLimits());
  if (!stmt.ok()) return;
  RewriteOptions options;
  options.limits = FuzzLimits();
  Rewriter rewriter(*schema, options);
  Result<RewrittenQuery> rq = rewriter.Rewrite(**stmt);
  (void)rq;  // OK or typed Status — either is fine; crashing is not.
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
