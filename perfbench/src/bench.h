#ifndef LDV_PERFBENCH_BENCH_H_
#define LDV_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: run configuration, the
// benchmark's own input generator, sample statistics, the span recorder of
// the traced run, and the result report printed as the last output line.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "ldv/app.h"
#include "net/db_client.h"
#include "obs/metrics.h"
#include "os/sim_process.h"
#include "os/vfs.h"
#include "storage/database.h"

namespace perfbench {

/// One benchmark invocation.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout; everything the run writes
  /// (packages, sandboxes, WAL, socket) lives below it.
  std::string workdir;
  /// Executor degree of parallelism, fixed instead of the hardware default.
  int dop = 1;
  double scale_factor = 0.01;
};

/// splitmix64: the benchmark's input generator. Kept apart from the
/// program's own RNG so the program only ever sees generated inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

inline void Append(std::vector<double>* dst, const std::vector<double>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 for no samples.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Spans recorded by the benchmark around its calls into each layer, kept in
/// memory and written out as a Chrome trace_event file when the run ends.
/// While disabled (the untraced run) a Span costs one branch.
class Tracer {
 public:
  static Tracer& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  size_t span_count() const;
  ldv::Status WriteChromeTrace(const std::string& path) const;

  /// Records one span from construction to destruction, nested under the
  /// innermost open span of the same thread.
  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const char* name_;
    int64_t start_ = 0;
    int64_t id_ = 0;
    int64_t parent_ = 0;
  };

 private:
  struct Record {
    const char* name;
    int64_t start;
    int64_t end;
    int64_t id;
    int64_t parent;
    uint64_t thread;
  };
  void Add(const Record& record);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  int64_t next_id_ = 1;
};

/// What one run prints: operation accounting per statement kind, the
/// correctness verdict, and the metrics in the order they were added.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void CountOp(const std::string& kind, bool ok);
  /// Marks the run incorrect; `why` goes to stderr.
  void Fail(const std::string& why);
  /// Check helper: fails the run with `what` when `ok` is false.
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Add(const std::string& name, double value, const std::string& unit);

  /// Prints the per-kind accounting lines, then the JSON result line.
  void Print() const;

 private:
  struct Ops {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  bool correct_ = true;
  mutable std::mutex mu_;
  std::map<std::string, Ops> ops_;
  std::vector<Metric> metrics_;
};

/// An un-instrumented application environment over an in-process or socket
/// client: the reference run LDV's overhead is measured against.
class PlainEnv final : public ldv::AppEnv {
 public:
  PlainEnv(const std::string& sandbox, ldv::net::DbClient* client)
      : vfs_(sandbox), sim_os_(&vfs_, &clock_, nullptr), client_(client) {}
  ldv::os::ProcessContext& root_process() override { return *sim_os_.root(); }
  ldv::Result<ldv::net::DbClient*> OpenDbConnection(
      ldv::os::ProcessContext&) override {
    return client_;
  }

 private:
  ldv::LogicalClock clock_;
  ldv::os::Vfs vfs_;
  ldv::os::SimOs sim_os_;
  ldv::net::DbClient* client_;
};

/// A freshly generated TPC-H database at the run's scale factor and seed;
/// `seconds`, when given, receives the time tpch::Generate took.
std::unique_ptr<ldv::storage::Database> GenerateTpch(const Config& config,
                                                     double* seconds = nullptr);

/// Delta of one exported counter between two registry snapshots.
int64_t CounterDelta(const ldv::obs::MetricsSnapshot& before,
                     const ldv::obs::MetricsSnapshot& after,
                     const std::string& name);

/// Moves the calling thread to the next CPU of the process's allowed set,
/// round robin. Called before every timed application run, audit and
/// replay: a thread stays on the virtual CPU the scheduler first gave it,
/// and on a shared host the virtual CPUs differ in speed (up to 1.5x in a
/// fixed loop), which made whole runs read fast or slow together.
void RotateCpu();
/// Gives the calling thread every allowed CPU again; threads it starts
/// inherit that.
void UnpinCpu();

/// SELECTs the benchmark sent to an engine: the base of
/// engine.concurrent_read_ratio.
void CountSelectIssued();
int64_t SelectsIssued();

/// Per-layer metrics read as deltas of the counters the program exports
/// through obs::MetricsRegistry::Global().
void AddCounterMetrics(const ldv::obs::MetricsSnapshot& before,
                       const ldv::obs::MetricsSnapshot& after, Report* report);

/// Workload entry points; each adds every end-to-end metric (untraced) or
/// every per-layer metric (traced) to `report`.
void RunFig7App(const Config& config, Report* report);
void RunFig8Sweep(const Config& config, Report* report);
void RunServerPath(const Config& config, Report* report);

/// The layer probes of the traced run, identical on every workload: each
/// layer's public functions timed on a private copy of the generated
/// database, and a short socket-server session.
void RunLayerProbes(const Config& config, Report* report);

}  // namespace perfbench

#endif  // LDV_PERFBENCH_BENCH_H_
