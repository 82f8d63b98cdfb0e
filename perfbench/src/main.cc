// ldv_perfbench: one run of one workload of the end-to-end benchmark.
//
//   ldv_perfbench --workload fig7_app|fig8_sweep|server_path --seed N
//                 --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Prints one "ops ..." line per statement kind, then the result as one JSON
// line: end-to-end metrics untraced, per-layer metrics traced. perfbench/run.py
// builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ldv_perfbench: %s\nusage: ldv_perfbench --workload "
               "fig7_app|fig8_sweep|server_path --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  std::string trace_out;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workdir) return Usage("--workdir is required");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  void (*run)(const perfbench::Config&, perfbench::Report*) = nullptr;
  if (config.workload == "fig7_app") run = perfbench::RunFig7App;
  if (config.workload == "fig8_sweep") run = perfbench::RunFig8Sweep;
  if (config.workload == "server_path") run = perfbench::RunServerPath;
  if (run == nullptr) return Usage("unknown workload");

  // The executor runs serially. The hardware default let one run's figures
  // depend on what else the box was doing, and so did dop 2: on a shared
  // 4-core box, parallel SELECT latencies spread by up to 0.55 between runs
  // while the serial UPDATE latencies of the same runs spread by 0.02-0.04.
  config.dop = 1;
  ldv::ThreadPool::SetDefaultDop(config.dop);
  LDV_CHECK_OK(ldv::RemoveAll(config.workdir));
  LDV_CHECK_OK(ldv::MakeDirs(config.workdir));
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d dop=%d sf=%g\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.dop, config.scale_factor);

  perfbench::Report report(config.workload);
  const auto before = ldv::obs::MetricsRegistry::Global().Snapshot();
  run(config, &report);
  if (config.trace) {
    perfbench::UnpinCpu();
    perfbench::RunLayerProbes(config, &report);
    perfbench::AddCounterMetrics(
        before, ldv::obs::MetricsRegistry::Global().Snapshot(), &report);
    perfbench::Tracer& tracer = perfbench::Tracer::Global();
    std::printf("trace spans=%zu\n", tracer.span_count());
    if (!trace_out.empty()) {
      LDV_CHECK_OK(tracer.WriteChromeTrace(trace_out));
      std::printf("trace written to %s\n", trace_out.c_str());
    }
  }
  report.Print();
  return 0;
}
