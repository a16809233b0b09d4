#ifndef VIEWREWRITE_TESTS_CHAOS_KILL9_HARNESS_H_
#define VIEWREWRITE_TESTS_CHAOS_KILL9_HARNESS_H_

// Kill-nine chaos harness for the crash-durable budget ledger: one seed
// forks a child that drives a full publish -> save -> republish ->
// checkpoint schedule with a SIGKILL armed at a seed-drawn fault point
// (WAL append, WAL fsync, checkpoint compaction, bundle save, or the
// per-view delta rebuild). The child dies with no unwinding, destructors
// or flushes — exactly like a power cut. The parent then plays the
// recovery story and checks the invariants the WAL promises:
//
//   1. The child either finished cleanly or died of exactly SIGKILL.
//   2. The WAL on disk always replays: a kill can tear at most the final
//      record (dropped), never produce mid-log corruption, and never a
//      garbage epsilon. Replayed spent <= lifetime total.
//   3. Write-ahead ordering: every bundle generation visible on disk was
//      paid for first, so replayed spent >= the spent epsilon recorded in
//      the bundle's own ledger header. Over-counting is allowed
//      (a spend durable in the WAL whose noisy values never published);
//      under-counting never is.
//   4. The bundle itself is loadable or absent — rename atomicity means a
//      torn bundle is impossible, kill or no kill.
//   5. A restarted process pointed at the same WAL recovers: it opens the
//      log (truncating any torn tail), seeds its accountant with the
//      replayed spent, publishes and republishes on top, and hard-fails
//      with PrivacyError before the composed lifetime spend can exceed
//      the total. No crash, no corruption, no double-spent epsilon.
//   6. Orphaned temp files from the killed child (bundle saves and WAL
//      compactions both stage through `<path>.tmp.<pid>.<seq>`) are swept
//      by the recovery path once their owning pid is dead.
//
// Determinism: the kill site, its hit ordinal, the compaction threshold
// and the republish plan are all drawn from the seed before the fork, so
// a failing seed replays exactly.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <random>

#include "common/fault_injection.h"
#include "dp/budget_wal.h"
#include "engine/viewrewrite_engine.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace chaos {

struct KillNineConfig {
  /// Republish generations the child attempts after the initial publish.
  size_t num_generations = 4;
  /// Initial-publication and lifetime budgets (the recovery invariant is
  /// judged against the lifetime total).
  double epsilon = 6.0;
  double lifetime_epsilon = 12.0;
  double generation_epsilon = 0.8;
  /// Latest hit ordinal the SIGKILL may be armed at; the seed draws
  /// nth in [1, max_nth]. Large ordinals that are never reached make the
  /// child finish cleanly — clean-shutdown recovery is a case too.
  uint64_t max_nth = 12;
  /// Directory for the WAL + bundle; empty picks /tmp.
  std::string dir;
};

struct KillNineRunResult {
  bool child_killed = false;      // died of SIGKILL (the armed fault fired)
  bool child_clean_exit = false;  // ran the whole schedule
  std::string fault_point;
  uint64_t fault_nth = 0;
  uint64_t compact_threshold = 0;
  bool wal_found = false;
  bool torn_tail = false;
  bool bundle_found = false;
  double replayed_spent = 0;
  double replayed_total = 0;
  double bundle_spent = 0;
  /// Generations the recovery process successfully republished.
  uint64_t recovered_generations = 0;
  bool recovery_prepare_ok = false;
  /// Invariant violations; empty means the seed passed.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

namespace internal {

/// Everything the seed decides, drawn identically in parent and child.
struct KillNinePlan {
  const char* point = faults::kBudgetWalFsync;
  uint64_t nth = 1;
  uint64_t compact_threshold = 256 * 1024;
  uint64_t db_seed = 13;
  std::vector<std::vector<std::string>> changed;
};

inline KillNinePlan DrawKillNinePlan(uint64_t seed,
                                     const KillNineConfig& config) {
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  static constexpr const char* kKillSites[] = {
      faults::kBudgetWalAppend, faults::kBudgetWalFsync,
      faults::kBudgetWalCheckpoint, faults::kServeSave,
      faults::kRepublishBuild,
  };
  KillNinePlan plan;
  plan.point = kKillSites[rng() % (sizeof(kKillSites) / sizeof(*kKillSites))];
  plan.nth = 1 + rng() % config.max_nth;
  // A third of the seeds compact aggressively so kills land inside the
  // checkpoint rewrite (temp write, rename, reopen), not just appends.
  plan.compact_threshold = (rng() % 3 == 0) ? 192 : 256 * 1024;
  plan.db_seed = 3 + rng() % 7;
  for (size_t i = 0; i < config.num_generations; ++i) {
    plan.changed.push_back(
        (rng() % 2 == 0) ? std::vector<std::string>{"orders"}
                         : std::vector<std::string>{"customer", "orders"});
  }
  return plan;
}

inline std::vector<std::string> KillNineWorkload() {
  return {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
      "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1",
  };
}

inline EngineOptions KillNineEngineOptions(uint64_t seed,
                                           const KillNineConfig& config,
                                           const KillNinePlan& plan,
                                           const std::string& wal_path) {
  EngineOptions options;
  options.seed = seed;
  options.epsilon = config.epsilon;
  options.lifetime_epsilon = config.lifetime_epsilon;
  options.budget_wal_path = wal_path;
  options.budget_wal_compact_bytes = plan.compact_threshold;
  return options;
}

/// One publish + republish pass: Prepare, save generation `first_gen`,
/// then `changed.size()` delta generations, each saved durably and
/// checkpointed into the WAL on success, refunded on save failure. Used
/// verbatim by the doomed child and by the recovering parent — recovery
/// IS a normal run on top of a replayed ledger.
inline void DriveSchedule(ViewRewriteEngine* engine, const Database& db,
                          const KillNineConfig& config,
                          const std::vector<std::vector<std::string>>& changed,
                          const std::string& bundle_path, uint64_t first_gen,
                          uint64_t* generations_published) {
  {
    Result<SynopsisStore> snapshot =
        SynopsisStore::FromManager(engine->views(), db.schema());
    if (snapshot.ok() && snapshot->Save(bundle_path).ok()) {
      (void)engine->CheckpointBudgetWal(first_gen);
      if (generations_published != nullptr) ++*generations_published;
    }
  }
  for (size_t i = 0; i < changed.size(); ++i) {
    const uint64_t gen = first_gen + 1 + i;
    Result<ViewManager::RepublishOutcome> outcome =
        engine->RepublishChanged(changed[i], config.generation_epsilon, gen);
    if (!outcome.ok()) {
      // PrivacyError (lifetime budget exhausted) and injected build
      // failures both end the generation before anything observable; the
      // schedule simply moves on.
      continue;
    }
    SynopsisStore::GenerationInfo info;
    info.generation = gen;
    info.generation_epsilon = outcome->epsilon_spent;
    info.changed_relations = changed[i];
    Result<SynopsisStore> snapshot = SynopsisStore::FromManager(
        engine->views(), db.schema(), std::move(info));
    if (!snapshot.ok() || !snapshot->Save(bundle_path).ok()) {
      // Nothing from this generation ever became observable: refund at
      // the documented discard boundary.
      (void)engine->RefundGeneration(*outcome);
      continue;
    }
    (void)engine->CheckpointBudgetWal(gen);
    if (generations_published != nullptr) ++*generations_published;
  }
}

#if defined(__unix__) || defined(__APPLE__)

/// Counts `<basename(path)>.tmp.` siblings still in path's directory.
inline size_t CountTempSiblings(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* ent = ::readdir(d)) {
    if (std::string(ent->d_name).compare(0, prefix.size(), prefix) == 0) {
      ++count;
    }
  }
  ::closedir(d);
  return count;
}

inline void RemoveTempSiblings(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> names;
  while (struct dirent* ent = ::readdir(d)) {
    if (std::string(ent->d_name).compare(0, prefix.size(), prefix) == 0) {
      names.push_back(dir + "/" + ent->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& name : names) std::remove(name.c_str());
}

/// The doomed process: single-threaded, fault armed, full schedule, then
/// _exit(0) — never returns to the caller's stack.
[[noreturn]] inline void RunKillNineChild(uint64_t seed,
                                          const KillNineConfig& config,
                                          const internal::KillNinePlan& plan,
                                          const std::string& wal_path,
                                          const std::string& bundle_path) {
  std::unique_ptr<Database> db =
      testing_support::MakeTestDatabase(plan.db_seed, 40);
  ViewRewriteEngine engine(
      *db, PrivacyPolicy{"customer"},
      KillNineEngineOptions(seed, config, plan, wal_path));
  FaultInjection::Instance().KillOnNth(plan.point, plan.nth);
  const Status prepared = engine.Prepare(KillNineWorkload());
  if (prepared.ok()) {
    DriveSchedule(&engine, *db, config, plan.changed, bundle_path,
                  /*first_gen=*/0, nullptr);
  }
  // No destructors, no gtest teardown: the child's only legitimate ends
  // are this _exit and the armed SIGKILL.
  ::_exit(0);
}

#endif  // POSIX

}  // namespace internal

/// Runs one kill-nine seed end to end (fork, kill, recover). Never
/// throws; all failures land in KillNineRunResult::violations. On
/// non-POSIX platforms, returns an empty passing result. A nonzero
/// `nth_override` replaces the seed-drawn hit ordinal (directed tests:
/// earliest possible kill, or an ordinal never reached).
inline KillNineRunResult RunKillNineSeed(uint64_t seed,
                                         KillNineConfig config = {},
                                         uint64_t nth_override = 0) {
  KillNineRunResult result;
#if !defined(__unix__) && !defined(__APPLE__)
  (void)seed;
  (void)config;
  (void)nth_override;
  return result;
#else
  internal::KillNinePlan plan = internal::DrawKillNinePlan(seed, config);
  if (nth_override != 0) plan.nth = nth_override;
  result.fault_point = plan.point;
  result.fault_nth = plan.nth;
  result.compact_threshold = plan.compact_threshold;

  const std::string base =
      (config.dir.empty() ? std::string("/tmp") : config.dir) + "/vr_kill9_" +
      std::to_string(seed) + "_" + std::to_string(::getpid());
  const std::string wal_path = base + ".wal";
  const std::string bundle_path = base + ".vrsy";
  std::remove(wal_path.c_str());
  std::remove(bundle_path.c_str());

  auto violate = [&result](const std::string& what) {
    result.violations.push_back(what);
  };

  // ---- Fork the doomed child. ----------------------------------------------
  const pid_t pid = ::fork();
  if (pid < 0) {
    violate("fork failed");
    return result;
  }
  if (pid == 0) {
    internal::RunKillNineChild(seed, config, plan, wal_path, bundle_path);
  }
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    violate("waitpid failed");
    return result;
  }
  if (WIFSIGNALED(wait_status)) {
    if (WTERMSIG(wait_status) == SIGKILL) {
      result.child_killed = true;
    } else {
      violate("child died of unexpected signal " +
              std::to_string(WTERMSIG(wait_status)));
    }
  } else if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
    result.child_clean_exit = true;
  } else {
    violate("child exited with unexpected status " +
            std::to_string(WEXITSTATUS(wait_status)));
  }

  // ---- Invariant 2: the WAL always replays, spent <= total. ----------------
  Result<BudgetWal::ReplayedLedger> replayed = BudgetWal::Replay(wal_path);
  if (!replayed.ok()) {
    if (replayed.status().code() != StatusCode::kNotFound) {
      violate("WAL replay after kill returned " + replayed.status().ToString() +
              " — a SIGKILL must never produce mid-log corruption");
    }
  } else {
    result.wal_found = true;
    result.torn_tail = replayed->torn_tail;
    result.replayed_spent = replayed->spent;
    result.replayed_total = replayed->total;
    if (replayed->has_total &&
        replayed->spent > replayed->total + 1e-6) {
      violate("replayed ledger over-spent: " +
              std::to_string(replayed->spent) + " of " +
              std::to_string(replayed->total));
    }
  }

  // ---- Invariants 3 + 4: bundle loadable or absent, and paid for. ----------
  std::unique_ptr<Database> db =
      testing_support::MakeTestDatabase(plan.db_seed, 40);
  Result<SynopsisStore> loaded = SynopsisStore::Load(bundle_path,
                                                     db->schema());
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      violate("bundle after kill is torn: " + loaded.status().ToString());
    }
  } else {
    result.bundle_found = true;
    result.bundle_spent = loaded->ledger().spent_epsilon;
    if (!replayed.ok() || !replayed->has_total) {
      violate("a bundle is on disk but the WAL replays no ledger — its "
              "epsilon was never durably recorded");
    } else if (replayed->spent < loaded->ledger().spent_epsilon - 1e-6) {
      violate("write-ahead ordering broken: bundle records spent " +
              std::to_string(loaded->ledger().spent_epsilon) +
              " but the WAL replays only " + std::to_string(replayed->spent));
    }
  }

  // ---- Invariant 5: full recovery on the same WAL. -------------------------
  {
    ViewRewriteEngine engine(
        *db, PrivacyPolicy{"customer"},
        internal::KillNineEngineOptions(seed, config, plan, wal_path));
    const Status prepared = engine.Prepare(internal::KillNineWorkload());
    result.recovery_prepare_ok = prepared.ok();
    switch (prepared.code()) {
      case StatusCode::kOk:
      case StatusCode::kExecutionError:  // whole workload quarantined
      case StatusCode::kPrivacyError:    // budget already exhausted
        break;
      default:
        violate("recovery Prepare returned unexpected " + prepared.ToString());
    }
    if (prepared.ok()) {
      internal::DriveSchedule(&engine, *db, config, plan.changed, bundle_path,
                              /*first_gen=*/100,
                              &result.recovered_generations);
    }
    const EngineStats& stats = engine.stats();
    if (stats.budget_spent_epsilon >
        stats.budget_total_epsilon + 1e-6) {
      violate("recovery accountant over-spent: " +
              std::to_string(stats.budget_spent_epsilon) + " of " +
              std::to_string(stats.budget_total_epsilon));
    }
    // The kill -> recover -> republish cycle composes on one ledger: the
    // durable spend after everything must still respect the lifetime
    // total. (Checked from the WAL itself, not process memory.)
    if (engine.budget_wal() != nullptr &&
        engine.budget_wal()->SpentEpsilon() >
            config.lifetime_epsilon + 1e-6) {
      violate("lifetime epsilon double-spent across the kill: WAL records " +
              std::to_string(engine.budget_wal()->SpentEpsilon()) + " of " +
              std::to_string(config.lifetime_epsilon));
    }
    // Invariant 6: the recovery path swept the dead child's stranded
    // temps — the WAL's on open, the bundle's on load/save.
    if (engine.budget_wal() != nullptr &&
        internal::CountTempSiblings(wal_path) != 0) {
      violate("orphaned WAL temp files survived recovery");
    }
  }
  Result<SynopsisStore> final_load =
      SynopsisStore::Load(bundle_path, db->schema());
  if (final_load.ok() && internal::CountTempSiblings(bundle_path) != 0) {
    violate("orphaned bundle temp files survived recovery");
  }
  if (result.bundle_found && !final_load.ok()) {
    violate("bundle became unloadable after recovery: " +
            final_load.status().ToString());
  }

  std::remove(wal_path.c_str());
  std::remove(bundle_path.c_str());
  internal::RemoveTempSiblings(wal_path);
  internal::RemoveTempSiblings(bundle_path);
  return result;
#endif
}

}  // namespace chaos
}  // namespace viewrewrite

#endif  // VIEWREWRITE_TESTS_CHAOS_KILL9_HARNESS_H_
