// Seeded inputs and the two workloads of the end-to-end benchmark.
//
//   serve_miss  QueryServer::Submit over a pool of distinct texts larger
//               than the answer cache, cycled in a fixed seeded order.
//   serve_hot   the same server and pool, 64 hot texts, all cache hits.
//
// Both also publish the pool (ViewRewriteEngine::Prepare with the durable
// budget WAL on) repeatedly, which measures the write side.
//
// See README.md in this directory for why each workload exists.
#ifndef VR_PERFBENCH_WORKLOADS_H_
#define VR_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/rewriter.h"

namespace perfbench {

/// A prepared query set and the TPC-H scale it is prepared at.
struct QuerySet {
  int scale = 1;
  std::vector<std::string> sql;
  std::vector<bool> grouped;  // GROUP BY template (answered row-wise)
  size_t num_grouped = 0;
};

/// Distinct texts from generator workloads W5 (count) and W10 (sum) over
/// several generator seeds -- including the Rule-7 OR and Rule-15 chained
/// forms -- plus a fixed share of grouped/derived templates (AVG, VARIANCE,
/// HAVING) defined in inputs.cc. Large enough that raw and canonical keys
/// overflow the answer cache's default 4096 entries.
QuerySet MakeServePool(const Config& cfg);

/// Request order for the serve workloads, as indices into the pool:
/// serve_miss cycles a seeded permutation of the whole pool; serve_hot a
/// seeded permutation of 64 texts with the pool's grouped share.
std::vector<size_t> MakeStream(const Config& cfg, const QuerySet& pool);

/// An engine that has prepared a query set over a caller-owned database.
struct Published {
  std::unique_ptr<viewrewrite::ViewRewriteEngine> engine;
  std::string wal_path;
  double prepare_s = 0;
  ~Published();
};

/// Fresh TPC-H database at `scale` (the same instance on every run).
std::unique_ptr<Database> MakeDatabase(int scale);

/// Noise seeds per run. median_rel_error pools the errors of one
/// publication per seed: a single noise draw moves the median error by up
/// to 50% (the truncation threshold is itself chosen with noise).
constexpr int kNoiseSeeds = 4;

/// A fresh engine (new WAL file) over `db` that prepares `set` with noise
/// seed `noise` (0..kNoiseSeeds-1); the Prepare call alone is timed into
/// prepare_s. Ledger and quarantine checks go into `report`.
std::unique_ptr<Published> Publish(const Config& cfg, const Database& db,
                                   const QuerySet& set, Report& report,
                                   int noise = 0);

/// Engine options every workload prepares with: fixed noise seed number
/// `noise`, WAL at `wal_path`.
viewrewrite::EngineOptions MakeEngineOptions(const std::string& wal_path,
                                             int noise = 0);

/// Appends the paper's relative error |y - y^|/max(50, y) of every scalar
/// query of `set` prepared by `pub` to `errors`.
void AppendRelativeErrors(const Published& pub, const QuerySet& set,
                          std::vector<double>* errors);

/// Fast-decile summary of durations: their 10th percentile. publish_s
/// reports it over the run's Prepares (see README.md, "Noise").
inline double FastLow(const std::vector<double>& v) { return Quantile(v, 0.1); }

/// Timings of recurring work, keyed by what recurs: a text of the pool
/// (its closed-loop latencies) or a throughput segment of the request
/// cycle (its durations; the key is the stream position it starts at,
/// modulo the stream length, so one key always runs the same requests in
/// the same order).
using Recurring = std::map<size_t, std::vector<double>>;

/// Saturation throughput from segment durations: the requests of all keys
/// over the sum of each key's fast-decile duration across the run.
double FastCycleRate(const Recurring& segments, size_t segment);

/// Folds one round's timings into `best`: per key, the lower of the
/// current best and the round's median. A 4-vCPU VM shared with other
/// tenants slows down by 1.2-1.6x for spells of seconds to minutes; a
/// spell stretches many timings but rarely every round of one text, so
/// each text's best round is the one least disturbed (see README.md,
/// "Noise").
void KeepBestRound(const Recurring& round, std::map<size_t, double>* best);

/// Quantile `q` of the best-round values (latency over the pool's texts).
double BestQuantile(const std::map<size_t, double>& best, double q);

/// Gate on a prepared engine: no quarantined query or failed view,
/// spent <= total, and the WAL replays to exactly the in-memory ledger.
void CheckLedger(const Published& pub, Report& report);

/// The direct answer for `sql` from a store, without the server:
/// parse, rewrite, bind, then the scalar or grouped answer, exactly as
/// the server's answer path composes them.
viewrewrite::Result<ServedAnswer> DirectAnswer(
    const SynopsisStore& store, const viewrewrite::Rewriter& rewriter,
    const std::string& sql);

/// Fresh path under the run's output directory.
std::string ScratchPath(const Config& cfg, const std::string& stem);

/// Checks served answers: every answer for one text must be bit-identical
/// to the first, and (CheckAgainstStore) the first must equal the direct
/// store answer. Non-OK results count as failed operations.
class Verifier {
 public:
  Verifier(const QuerySet& pool, Report& report)
      : pool_(pool), report_(report), first_(pool.sql.size()) {}
  void Record(size_t idx, const viewrewrite::Result<ServedAnswer>& r);
  /// Compares each first-served answer with DirectAnswer; with `perturb`
  /// one reference is altered first, so the gate must trip.
  void CheckAgainstStore(const SynopsisStore& store,
                         const viewrewrite::Rewriter& rewriter, bool perturb);
  const ServedAnswer* First(size_t idx) const {
    return first_[idx] ? &*first_[idx] : nullptr;
  }

 private:
  const QuerySet& pool_;
  Report& report_;
  std::vector<std::optional<ServedAnswer>> first_;
};

/// A published pool served by a QueryServer over a save/load round-tripped
/// bundle. Members are destroyed bottom-up: the server goes first.
struct ServeSetup {
  QuerySet pool;
  std::vector<size_t> stream;
  size_t pos = 0;  // next stream position
  std::unique_ptr<Database> db;
  std::unique_ptr<Published> pub;
  std::shared_ptr<const SynopsisStore> store;
  double snapshot_s = 0, save_s = 0, load_s = 0;
  size_t window = 32;  // requests kept in flight by the generator
  // Completions per throughput segment: a divisor of the stream length (so
  // segments start at a few fixed positions of the cycle) or a whole
  // number of cycles.
  size_t segment = 1024;
  // Requests per closed-loop round, at least: whole cycles of the stream,
  // so every text is measured once more each round.
  size_t latency_round = 4096;
  std::unique_ptr<Verifier> verifier;
  std::unique_ptr<viewrewrite::QueryServer> server;

  size_t Next() { return stream[pos++ % stream.size()]; }
};

/// Generates inputs, prepares the pool, snapshots/saves/loads the store,
/// starts the server and warms it. `workload` picks the stream.
std::unique_ptr<ServeSetup> SetUpServe(const Config& cfg,
                                       const ThreadBudget& budget,
                                       Report& report);

/// Saturation phase: one generator thread keeps `setup.window` requests in
/// flight and adds the duration of each whole segment of `setup.segment`
/// stream positions completed before the phase stops to `segments` (when
/// not null). Stops after `seconds`, or `max_requests` when non-zero.
void RunWindowed(ServeSetup& setup, double seconds, size_t max_requests,
                 Recurring* segments);

/// Closed loop with one client: Submit, wait, repeat, for `seconds` but at
/// least `min_requests` and at most `max_requests` (0: no cap) requests.
/// Returns each request's Submit-to-ready latency in microseconds;
/// `positions` receives the pool index of each request.
std::vector<double> RunClosedLoop(ServeSetup& setup, double seconds,
                                  size_t min_requests, size_t max_requests,
                                  std::vector<size_t>* positions);

/// flights + coalesced_waiters + cache_short_circuits + expired_in_queue
/// (+ queue sheds) == submitted.
void CheckConservation(const viewrewrite::ServeStats& s, Report& report);

void RunServe(const Config& cfg, const ThreadBudget& budget, Report& report);
void RunTrace(const Config& cfg, const ThreadBudget& budget, Report& report);

}  // namespace perfbench

#endif  // VR_PERFBENCH_WORKLOADS_H_
