// vr_shell: a scriptable shell over the whole library. Loads a synthetic
// TPC-H instance, executes SQL exactly, shows classifications and
// rewrites, and manages a differentially private workload end to end.
//
//   $ ./build/examples/vr_shell            # interactive
//   $ echo '\demo' | ./build/examples/vr_shell
//
// Commands (anything else is executed as SQL against the instance):
//   \help                 this text
//   \tables               list relations and row counts
//   \classify <sql>       Fig.-1 query class
//   \rewrite <sql>        show the rewritten form (Rules 1-20)
//   \policy <relation>    set the primary privacy relation (default orders)
//   \epsilon <value>      set the total privacy budget (default 8)
//   \add <sql>            queue a workload query
//   \prepare              rewrite + generate views + publish synopses
//   \answer               answer all queued queries privately
//   \views                list published views
//   \demo                 run a short scripted tour
//   \quit

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "exec/executor.h"
#include "rewrite/classifier.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace viewrewrite {
namespace {

class Shell {
 public:
  Shell() : db_(GenerateTpch(TpchConfig{})), executor_(*db_) {
    std::printf("vr_shell — %zu rows loaded; \\help for commands\n",
                db_->TotalRows());
  }

  bool Handle(const std::string& line) {
    std::string trimmed = Trim(line);
    if (trimmed.empty()) return true;
    if (trimmed[0] != '\\') {
      RunSql(trimmed);
      return true;
    }
    std::istringstream in(trimmed.substr(1));
    std::string cmd;
    in >> cmd;
    std::string rest;
    std::getline(in, rest);
    rest = Trim(rest);
    if (cmd == "quit" || cmd == "q") return false;
    if (cmd == "help") {
      Help();
    } else if (cmd == "tables") {
      Tables();
    } else if (cmd == "classify") {
      ClassifyCmd(rest);
    } else if (cmd == "rewrite") {
      RewriteCmd(rest);
    } else if (cmd == "policy") {
      policy_ = rest.empty() ? "orders" : rest;
      prepared_.reset();
      std::printf("policy = %s\n", policy_.c_str());
    } else if (cmd == "epsilon") {
      epsilon_ = rest.empty() ? 8.0 : std::stod(rest);
      prepared_.reset();
      std::printf("epsilon = %g\n", epsilon_);
    } else if (cmd == "add") {
      workload_.push_back(rest);
      prepared_.reset();
      std::printf("queued query #%zu\n", workload_.size());
    } else if (cmd == "prepare") {
      Prepare();
    } else if (cmd == "answer") {
      Answer();
    } else if (cmd == "views") {
      Views();
    } else if (cmd == "demo") {
      Demo();
    } else {
      std::printf("unknown command \\%s (try \\help)\n", cmd.c_str());
    }
    return true;
  }

 private:
  void Help() {
    std::printf(
        "  <sql>              execute exactly and print (up to 10 rows)\n"
        "  \\tables            relations and row counts\n"
        "  \\classify <sql>    Fig.-1 query class\n"
        "  \\rewrite <sql>     rewritten form (Rules 1-20)\n"
        "  \\policy <rel>      set privacy relation (now: %s)\n"
        "  \\epsilon <v>       set privacy budget (now: %g)\n"
        "  \\add <sql>         queue a workload query\n"
        "  \\prepare           publish private synopses for the queue\n"
        "  \\answer            answer the queue privately\n"
        "  \\views             published views\n"
        "  \\demo              scripted tour\n"
        "  \\quit\n",
        policy_.c_str(), epsilon_);
  }

  void Tables() {
    for (const std::string& name : db_->schema().TableNames()) {
      std::printf("  %-10s %zu rows\n", name.c_str(),
                  db_->FindTable(name)->NumRows());
    }
  }

  void RunSql(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) {
      std::printf("error: %s\n", stmt.status().ToString().c_str());
      return;
    }
    auto rs = executor_.Execute(**stmt);
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
      return;
    }
    for (const std::string& c : rs->columns) std::printf("%-14s", c.c_str());
    std::printf("\n");
    size_t shown = 0;
    for (const Row& row : rs->rows) {
      if (++shown > 10) {
        std::printf("... (%zu rows total)\n", rs->NumRows());
        break;
      }
      for (const Value& v : row) std::printf("%-14s", v.ToString().c_str());
      std::printf("\n");
    }
    if (rs->rows.empty()) std::printf("(empty)\n");
  }

  void ClassifyCmd(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) {
      std::printf("error: %s\n", stmt.status().ToString().c_str());
      return;
    }
    auto cls = Classify(**stmt, db_->schema());
    std::printf("%s\n", cls.ok() ? QueryClassName(*cls)
                                 : cls.status().ToString().c_str());
  }

  void RewriteCmd(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) {
      std::printf("error: %s\n", stmt.status().ToString().c_str());
      return;
    }
    Rewriter rewriter(db_->schema());
    auto rq = rewriter.Rewrite(**stmt);
    if (!rq.ok()) {
      std::printf("error: %s\n", rq.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", ToSql(*rq).c_str());
  }

  void Prepare() {
    if (workload_.empty()) {
      std::printf("queue is empty; \\add some queries first\n");
      return;
    }
    EngineOptions opts;
    opts.epsilon = epsilon_;
    prepared_ =
        std::make_unique<ViewRewriteEngine>(*db_, PrivacyPolicy{policy_},
                                            opts);
    Status st = prepared_->Prepare(workload_);
    if (!st.ok()) {
      std::printf("prepare failed: %s\n", st.ToString().c_str());
      prepared_.reset();
      return;
    }
    std::printf("%zu queries -> %zu views, synopses published in %.3fs\n",
                prepared_->NumQueries(), prepared_->NumViews(),
                prepared_->stats().SynopsisSeconds());
  }

  void Answer() {
    if (!prepared_) {
      std::printf("run \\prepare first\n");
      return;
    }
    for (size_t i = 0; i < prepared_->NumQueries(); ++i) {
      if (prepared_->bound(i).IsGrouped()) {
        auto rows = prepared_->GroupedAnswer(i);
        if (!rows.ok()) {
          std::printf("Q%zu failed: %s\n", i + 1,
                      rows.status().ToString().c_str());
          continue;
        }
        std::printf("Q%zu  grouped, %zu rows\n", i + 1, rows->rows.size());
        for (const aggregate::GroupedRow& row : rows->rows) {
          std::printf("   ");
          for (size_t c = 0; c < row.values.size(); ++c) {
            const Value& v = row.values[c];
            std::string text = v.is_null()
                                   ? std::string("NULL")
                                   : (v.is_numeric()
                                          ? [&] {
                                              char buf[32];
                                              std::snprintf(buf, sizeof(buf),
                                                            "%.1f",
                                                            v.ToDouble());
                                              return std::string(buf);
                                            }()
                                          : v.AsString());
            std::printf(" %s=%s", rows->columns[c].c_str(), text.c_str());
          }
          std::printf("%s\n", row.suppressed ? "  [suppressed]" : "");
        }
        continue;
      }
      auto noisy = prepared_->NoisyAnswer(i);
      auto truth = prepared_->TrueAnswer(i);
      if (!noisy.ok() || !truth.ok()) {
        std::printf("Q%zu failed: %s\n", i + 1,
                    (!noisy.ok() ? noisy : truth)
                        .status()
                        .ToString()
                        .c_str());
        continue;
      }
      std::printf("Q%zu  private=%.1f  true=%.1f  rel.err=%.4f\n", i + 1,
                  *noisy, *truth, RelativeErrorMetric(*truth, *noisy));
    }
  }

  void Views() {
    if (!prepared_) {
      std::printf("run \\prepare first\n");
      return;
    }
    auto stats = prepared_->NumViews();
    std::printf("%zu views published\n", stats);
  }

  void Demo() {
    const char* script[] = {
        "SELECT COUNT(*) FROM orders",
        "\\classify SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * "
        "FROM orders o WHERE o.o_custkey = c.c_custkey)",
        "\\rewrite SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * "
        "FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= "
        "128)",
        "\\add SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 32768",
        "\\add SELECT COUNT(*) FROM customer c WHERE EXISTS (SELECT * FROM "
        "orders o WHERE o.o_custkey = c.c_custkey AND o.o_custkey >= 128)",
        "\\prepare",
        "\\answer",
    };
    for (const char* line : script) {
      std::printf("vr> %s\n", line);
      Handle(line);
    }
  }

  static std::string Trim(const std::string& s) {
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }

  std::unique_ptr<Database> db_;
  Executor executor_;
  std::string policy_ = "orders";
  double epsilon_ = 8.0;
  std::vector<std::string> workload_;
  std::unique_ptr<ViewRewriteEngine> prepared_;
};

}  // namespace
}  // namespace viewrewrite

int main() {
  viewrewrite::Shell shell;
  std::string line;
  while (true) {
    std::printf("vr> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.Handle(line)) break;
  }
  return 0;
}
