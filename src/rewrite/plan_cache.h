#ifndef VIEWREWRITE_REWRITE_PLAN_CACHE_H_
#define VIEWREWRITE_REWRITE_PLAN_CACHE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/limits.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "sql/token.h"

namespace viewrewrite {

/// A bounded, thread-safe cache of rewritten query shapes: parse and
/// rewrite once per shape, not once per text (the prepared-statement
/// idea).
///
/// The key is a text's lexical skeleton (LiteralSkeleton) plus the
/// equality pattern of its literals' printed values, among themselves and
/// against the fixed constants the parser and rewriter make. The value is
/// the RewrittenQuery of the first text with that key; its literals carry
/// their slots. A hit clones it with the new text's literal values, and
/// the result is the query ParseSelect + Rewrite would have produced for
/// that text: same printed form, canonical key, bind and answer.
///
/// A shape is stored as uncacheable when a literal token does not become
/// exactly one slot (LIMIT n), when the rewrite ranked two renderings at a
/// slot (Rewriter::Rewrite's `ranks_slots`), or when the rewrite contains
/// a fixed constant outside the known set. docs/SERVING.md ("Plan cache")
/// classifies every literal-dependent decision and gives the argument.
/// Errors are never cached.
class PlanCache {
 public:
  enum class Outcome {
    kHit,          // `plan` holds the instantiated rewrite
    kMiss,         // run the full path, then Insert
    kUncacheable,  // run the full path; nothing will be stored
  };

  /// What Lookup found, and on kMiss what Insert needs.
  struct Probe {
    Outcome outcome = Outcome::kUncacheable;
    RewrittenQuery plan;
    SqlSkeleton skeleton;
  };

  /// Bound on the entries (shapes plus their variants) across all shards;
  /// a full shard evicts an arbitrary other shape.
  static constexpr size_t kCapacity = 1024;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks `sql` up under the parse limits it would be parsed with. One
  /// cache serves one set of limits: a shape stored under looser limits
  /// would skip the depth and node checks of stricter ones.
  Probe Lookup(const std::string& sql, const ResourceLimits& limits) const;

  /// Records the successful full path of a kMiss probe for `sql`: the
  /// slot conversions ParseSelect reported, the rewrite, and Rewrite's
  /// `ranks_slots`.
  void Insert(const std::string& sql, const Probe& probe,
              const std::vector<SlotConversion>& slots,
              const RewrittenQuery& rq, bool ranks_slots);

  /// Resident entries: shapes plus stored variants.
  size_t size() const;

 private:
  static constexpr size_t kShards = 16;
  // Equality patterns stored per shape; later patterns run the full path.
  static constexpr size_t kMaxVariants = 16;

  struct Shape {
    bool uncacheable = false;
    std::vector<SlotConversion> conversions;
    // Equality pattern -> template. A shape has few patterns.
    std::vector<std::pair<std::string, std::shared_ptr<const RewrittenQuery>>>
        variants;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Shape> shapes;  // guarded by mu
    size_t entries = 0;                             // guarded by mu
  };

  Shard& ShardFor(const std::string& key) const;
  /// Drops arbitrary shapes other than `keep` until the shard fits.
  void EvictLocked(Shard& shard, const std::string& keep);

  mutable std::array<Shard, kShards> shards_;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_REWRITE_PLAN_CACHE_H_
