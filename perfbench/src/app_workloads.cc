// fig7_app and fig8_sweep: the paper's §IX-A application, run plain, under
// audit, and replayed from its package, on the in-process engine.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "app_script.h"
#include "bench.h"
#include "common/logging.h"
#include "net/db_client.h"
#include "oracle.h"
#include "tpch/queries.h"
#include "util/fsutil.h"

namespace perfbench {

namespace {

/// One workload's shape: which queries the application runs (one
/// application per query), its refresh load, and the audited modes.
struct AppWorkload {
  std::vector<std::string> query_ids;
  int inserts = 0;
  int selects = 10;
  int updates = 0;
  std::vector<ldv::PackageMode> modes;
  /// AuditOptions::record_tuple_nodes: per-result-tuple trace nodes.
  bool tuple_nodes = true;
  /// Plain executions per query and round; plain_s takes their median.
  int plain_reps = 1;
  /// Replays of each package; the replay times are their medians.
  int replays = 1;
  /// Rounds every run makes, however long they take.
  int min_rounds = 1;
  /// Tail percentile of the statement latencies, fixed per workload so that
  /// at least ten samples of every kind lie beyond it (see the README).
  double tail = 0.75;
};

/// A freshly generated database; the generation time is a setup_s sample.
std::unique_ptr<ldv::storage::Database> GenerateDb(
    const Config& config, std::vector<double>* setup_s) {
  double seconds = 0;
  auto db = GenerateTpch(config, &seconds);
  setup_s->push_back(seconds);
  return db;
}

std::vector<double> ToMillis(const std::vector<double>& seconds) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(s * 1e3);
  return out;
}

/// Checks one run of the application against the naive evaluator.
void CheckSelects(const AppLog& log, const Oracle::QueryAnswer& expect,
                  const std::string& label, Report* report) {
  for (size_t i = 0; i < log.select_rows.size(); ++i) {
    report->Expect(log.select_rows[i] == expect.rows,
                   label + ": select returned " +
                       std::to_string(log.select_rows[i]) + " rows, oracle " +
                       std::to_string(expect.rows));
    if (expect.count_value >= 0) {
      report->Expect(log.select_count[i] == expect.count_value,
                     label + ": count(*) " + std::to_string(log.select_count[i]) +
                         ", oracle " + std::to_string(expect.count_value));
    }
  }
}

void RunAppWorkload(const Config& config, const AppWorkload& w,
                    Report* report) {
  EndToEndSamples e2e;
  PipelineSamples pipeline;
  std::vector<double> round_s[2];  // untraced, traced rounds' wall time
  std::unique_ptr<ldv::storage::Database> first =
      GenerateDb(config, &e2e.setup_s);
  const Oracle oracle(*first);
  first.reset();

  std::map<std::string, AppScript> scripts;
  std::map<std::string, Oracle::QueryAnswer> answers;
  for (size_t q = 0; q < w.query_ids.size(); ++q) {
    auto spec = ldv::tpch::FindQuery(w.query_ids[q]);
    LDV_CHECK(spec.ok());
    scripts[w.query_ids[q]] =
        MakeAppScript(config.seed * 131 + q, oracle, spec->sql, w.inserts,
                      w.selects, w.updates);
    answers[w.query_ids[q]] = oracle.Answer(w.query_ids[q]);
  }

  const double start = NowSeconds();
  int round = 0;
  // The traced run needs one traced and one untraced round at least.
  const int min_rounds = std::max(w.min_rounds, config.trace ? 2 : 1);
  while (round < min_rounds || NowSeconds() - start < config.seconds) {
    // The traced run alternates traced and untraced rounds; the difference
    // of their wall times is the tracing overhead.
    const bool traced = config.trace && round % 2 == 1;
    Tracer::Global().set_enabled(traced);
    const double round_start = NowSeconds();
    double plain_s = 0, audit_s = 0, package_bytes = 0, replay_init_s = 0,
           replay_s = 0;
    int64_t plain_statements = 0;
    std::map<std::string, double> package_by_mode;

    for (const std::string& qid : w.query_ids) {
      const AppScript& script = scripts[qid];
      const Oracle::QueryAnswer& expect = answers[qid];
      const std::string cell = config.workdir + "/r" + std::to_string(round) +
                               "_" + qid;

      // --- Plain: the unaudited application on the in-process engine,
      // `plain_reps` times, each on a fresh database; the query's plain
      // time is the median. ---
      AppLog plain_log;
      std::vector<double> plain_reps_s;
      for (int rep = 0; rep < w.plain_reps; ++rep) {
        AppLog log;
        auto db = GenerateDb(config, &e2e.setup_s);
        ldv::net::EngineHandle engine(db.get());
        ldv::net::LocalDbClient client(&engine);
        LDV_CHECK_OK(ldv::MakeDirs(cell + "_plain"));
        PlainEnv env(cell + "_plain", &client);
        ldv::AppFn app = MakeApp(script, Phase::kPlain, &log, report);
        RotateCpu();
        const double t0 = NowSeconds();
        ldv::Status status = app(env);
        plain_reps_s.push_back(NowSeconds() - t0);
        report->Expect(status.ok(), qid + " plain: " + status.ToString());
        CheckSelects(log, expect, qid + " plain", report);
        CheckFinalComments(*db, script, qid + " plain", report);
        report->Expect(rep == 0 || log.fingerprint == plain_log.fingerprint,
                       qid + ": plain runs disagree");
        e2e.read_ms[qid].push_back(ToMillis(log.latency_s[kSelect]));
        e2e.write_ms.push_back(ToMillis(log.latency_s[kUpdate]));
        plain_log = std::move(log);
        LDV_CHECK_OK(ldv::RemoveAll(cell + "_plain"));
      }
      std::printf("cell round=%d query=%s mode=plain plain_s=%.4f\n", round,
                  qid.c_str(), Median(plain_reps_s));
      plain_s += Median(plain_reps_s);
      plain_statements += static_cast<int64_t>(script.stmts.size());

      for (ldv::PackageMode mode : w.modes) {
        const std::string mode_name(ldv::PackageModeName(mode));
        const std::string label = qid + " " + mode_name;
        auto db = GenerateDb(config, &e2e.setup_s);
        ldv::AuditOptions options;
        options.mode = mode;
        options.package_dir = cell + "_pkg_" + mode_name;
        options.sandbox_root = cell + "_sandbox_" + mode_name;
        options.record_tuple_nodes = w.tuple_nodes;
        PipelineResult r =
            AuditAndReplay(script, db.get(), options, w.replays,
                           plain_log.fingerprint, config.trace, label, report);
        std::printf("cell round=%d query=%s mode=%s audit_s=%.4f package_mb=%.3f "
                    "replay_init_s=%.4f replay_s=%.4f\n",
                    round, qid.c_str(), mode_name.c_str(), r.audit_s,
                    static_cast<double>(r.package_bytes) / 1e6,
                    r.replay_init_s, r.replay_s);
        audit_s += r.audit_s;
        replay_init_s += r.replay_init_s;
        replay_s += r.replay_s;
        package_bytes += static_cast<double>(r.package_bytes);
        package_by_mode[qid + "/" + mode_name] =
            static_cast<double>(r.package_bytes);
        if (!r.ok) continue;
        CheckSelects(r.audit_log, expect, label + " audit", report);
        CheckSelects(r.replay_log, expect, label + " replay", report);
        CheckFinalComments(*db, script, label + " audit", report);
        if (mode == ldv::PackageMode::kServerIncluded) {
          const int64_t expected =
              oracle.ExpectedPackagedTuples({qid}, script.update_keys);
          report->Expect(r.audit.tuples_persisted == expected,
                         label + ": tuples_persisted " +
                             std::to_string(r.audit.tuples_persisted) +
                             ", oracle " + std::to_string(expected));
          report->Expect(r.replay.restored_tuples == expected,
                         label + ": restored_tuples " +
                             std::to_string(r.replay.restored_tuples) +
                             ", oracle " + std::to_string(expected));
          e2e.prov_ms.push_back(ToMillis(r.audit_log.latency_s[kUpdate]));
        }
        if (config.trace) pipeline.Add(r);
      }
    }

    // Fig. 9's crossover: answers outweigh inputs for the wide join, the
    // one-row aggregate's package is smaller than its input subset.
    auto crossover = [&](const std::string& qid, bool excluded_larger) {
      auto inc = package_by_mode.find(qid + "/server-included");
      auto exc = package_by_mode.find(qid + "/server-excluded");
      if (inc == package_by_mode.end() || exc == package_by_mode.end()) return;
      report->Expect((exc->second > inc->second) == excluded_larger,
                     qid + ": Fig. 9 crossover does not hold (included " +
                         std::to_string(inc->second) + " B, excluded " +
                         std::to_string(exc->second) + " B)");
    };
    crossover("Q2-4", true);
    crossover("Q3-4", false);

    e2e.plain_s.push_back(plain_s);
    e2e.audit_s.push_back(audit_s);
    e2e.package_mb.push_back(package_bytes / 1e6);
    e2e.replay_init_s.push_back(replay_init_s);
    e2e.replay_s.push_back(replay_s);
    e2e.qps.push_back(static_cast<double>(plain_statements) / plain_s);
    round_s[traced ? 1 : 0].push_back(NowSeconds() - round_start);
    ++round;
  }
  Tracer::Global().set_enabled(false);
  std::printf("workload rounds=%d reads=%zu prov=%zu writes=%zu tail=p%g\n",
              round, e2e.read_samples(), SampleCount(e2e.prov_ms),
              SampleCount(e2e.write_ms), w.tail * 100);

  if (!config.trace) {
    e2e.AddTo(report, w.tail);
    return;
  }
  report->Add("tpch.generate_s", Median(e2e.setup_s), "s");
  pipeline.AddTo(report);
  const double untraced = Median(round_s[0]);
  const double traced = Median(round_s[1]);
  report->Add("trace.overhead_pct",
              untraced > 0 && traced > 0 ? (traced - untraced) / untraced * 100
                                         : 0,
              "%");
}

}  // namespace

void RunFig7App(const Config& config, Report* report) {
  AppWorkload w;
  w.query_ids = {"Q1-1"};
  w.inserts = 1000;
  w.updates = 100;
  w.modes = {ldv::PackageMode::kServerIncluded};
  // The replay takes about 0.1 s, too short to read steadily once: the
  // replay times are medians of ten.
  w.replays = 10;
  // A round takes about 6.5 s, long next to a run's seconds: five rounds at
  // least give the medians over rounds and over blocks five samples.
  w.min_rounds = 5;
  RunAppWorkload(config, w, report);
}

void RunFig8Sweep(const Config& config, Report* report) {
  AppWorkload w;
  w.query_ids = {"Q1-5", "Q2-4", "Q3-4", "Q4-5"};
  w.inserts = 100;
  w.updates = 20;
  w.modes = {ldv::PackageMode::kServerIncluded,
             ldv::PackageMode::kServerExcluded};
  // A round takes longer than a run's seconds, so a run is one round, with
  // three plain runs per query.
  w.plain_reps = 3;
  // Like the repository's Fig. 8/9 benches: the streaming packager alone
  // decides package contents. Per-tuple trace nodes for Q2-4's ~40k-row
  // answers would make the trace, not the data, the package.
  w.tuple_nodes = false;
  RunAppWorkload(config, w, report);
}

}  // namespace perfbench
