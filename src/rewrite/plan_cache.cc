#include "rewrite/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "rewrite/canonical.h"
#include "sql/printer.h"

namespace viewrewrite {

namespace {

/// Printed forms of every fixed constant a literal can be compared with:
/// the parser's TRUE (1), FALSE (0), NULL and their negations, and the
/// rewriter's 0, 1 and ±infinity sentinels. Insert refuses a rewrite that
/// holds any other fixed constant, so this list cannot silently go stale.
constexpr std::string_view kFixedConstants[] = {"0",     "1",      "-1",
                                                "NULL",  "1e+18",  "-1e+18"};

/// Index + 1 of `printed` in kFixedConstants, or 0.
size_t FixedConstantIndex(const std::string& printed) {
  for (size_t i = 0; i < std::size(kFixedConstants); ++i) {
    if (printed == kFixedConstants[i]) return i + 1;
  }
  return 0;
}

/// Converts each literal span of `sql` as the parser would. False when a
/// conversion fails (the full path reports the error) or yields a
/// non-finite double, whose printed form ("inf", "nan") could equal a
/// column name and so escape the equality pattern.
bool SlotValuesOf(const std::string& sql, const SqlSkeleton& skeleton,
                  const std::vector<SlotConversion>& conversions,
                  SlotValues* values) {
  if (conversions.size() != skeleton.literals.size()) return false;
  values->clear();
  values->reserve(conversions.size());
  for (size_t i = 0; i < conversions.size(); ++i) {
    const LiteralSpan& span = skeleton.literals[i];
    Result<Value> v = ConvertSlot(
        conversions[i], std::string_view(sql).substr(span.begin, span.size));
    if (!v.ok()) return false;
    if (v->is_double() && !std::isfinite(v->AsDoubleExact())) return false;
    values->push_back(std::move(v).value());
  }
  return true;
}

/// The equality pattern of the slots' printed values: for each slot, the
/// first slot that prints the same, and the fixed constant it prints as
/// (if any). Every equality decision of the rewrite compares renderings,
/// and two renderings of one shape are equal exactly when their literals
/// print equal position by position, so equal patterns make equal
/// decisions.
std::string EqualityPattern(const SlotValues& values) {
  std::vector<std::string> printed;
  printed.reserve(values.size());
  for (const Value& v : values) printed.push_back(v.ToString());
  std::unordered_map<std::string_view, size_t> first_of;
  first_of.reserve(printed.size());
  std::string out;
  for (size_t i = 0; i < printed.size(); ++i) {
    const size_t first = first_of.emplace(printed[i], i).first->second;
    out += std::to_string(first);
    if (size_t fixed = FixedConstantIndex(printed[i])) {
      out += '=';
      out += std::to_string(fixed);
    }
    out += ',';
  }
  return out;
}

/// True if every untagged literal of `rq` prints as a known fixed
/// constant.
bool FixedConstantsKnown(const RewrittenQuery& rq) {
  bool known = true;
  ToSql(rq, [&known](const LiteralExpr& lit, size_t) {
    if (lit.slot < 0 && FixedConstantIndex(lit.value.ToString()) == 0) {
      known = false;
    }
  });
  return known;
}

}  // namespace

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) const {
  return shards_[Fnv1a64(key) % kShards];
}

PlanCache::Probe PlanCache::Lookup(const std::string& sql,
                                   const ResourceLimits& limits) const {
  Probe probe;
  Result<SqlSkeleton> skeleton = LiteralSkeleton(sql, limits);
  if (!skeleton.ok()) return probe;  // the full path reports the error
  probe.skeleton = std::move(skeleton).value();
  Shard& shard = ShardFor(probe.skeleton.key);
  SlotValues values;
  std::shared_ptr<const RewrittenQuery> plan;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.shapes.find(probe.skeleton.key);
    if (it == shard.shapes.end()) {
      probe.outcome = Outcome::kMiss;
      return probe;
    }
    const Shape& shape = it->second;
    if (shape.uncacheable ||
        !SlotValuesOf(sql, probe.skeleton, shape.conversions, &values)) {
      return probe;
    }
    const std::string pattern = EqualityPattern(values);
    for (const auto& [p, t] : shape.variants) {
      if (p == pattern) {
        plan = t;
        break;
      }
    }
  }
  if (plan == nullptr) {
    probe.outcome = Outcome::kMiss;
    return probe;
  }
  probe.plan = plan->Clone(&values);
  probe.outcome = Outcome::kHit;
  return probe;
}

void PlanCache::Insert(const std::string& sql, const Probe& probe,
                       const std::vector<SlotConversion>& slots,
                       const RewrittenQuery& rq, bool ranks_slots) {
  if (probe.outcome != Outcome::kMiss) return;
  const bool cacheable =
      !ranks_slots && slots.size() == probe.skeleton.literals.size() &&
      std::find(slots.begin(), slots.end(), SlotConversion::kUnused) ==
          slots.end() &&
      FixedConstantsKnown(rq);
  std::string pattern;
  std::shared_ptr<const RewrittenQuery> plan;
  if (cacheable) {
    SlotValues values;
    // A text whose own literals cannot key the cache (a non-finite
    // double) says nothing about its shape.
    if (!SlotValuesOf(sql, probe.skeleton, slots, &values)) return;
    pattern = EqualityPattern(values);
    plan = std::make_shared<const RewrittenQuery>(rq.Clone());
  }
  const std::string& key = probe.skeleton.key;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.shapes.try_emplace(key);
  Shape& shape = it->second;
  if (inserted) {
    ++shard.entries;
    shape.conversions = slots;
  }
  if (shape.uncacheable) return;
  if (!cacheable || shape.conversions != slots) {
    shape.uncacheable = true;
    shard.entries -= shape.variants.size();
    shape.variants.clear();
  } else if (shape.variants.size() < kMaxVariants &&
             std::none_of(shape.variants.begin(), shape.variants.end(),
                          [&pattern](const auto& variant) {
                            // A concurrent miss may have stored it.
                            return variant.first == pattern;
                          })) {
    shape.variants.emplace_back(std::move(pattern), std::move(plan));
    ++shard.entries;
  }
  EvictLocked(shard, key);
}

void PlanCache::EvictLocked(Shard& shard, const std::string& keep) {
  auto it = shard.shapes.begin();
  while (shard.entries > kCapacity / kShards && it != shard.shapes.end()) {
    if (it->first == keep) {
      ++it;
      continue;
    }
    shard.entries -= 1 + it->second.variants.size();
    it = shard.shapes.erase(it);
  }
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries;
  }
  return total;
}

}  // namespace viewrewrite
