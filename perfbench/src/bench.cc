#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include <sched.h>

#include "common/logging.h"
#include "tpch/generator.h"
#include "util/fsutil.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

namespace {

thread_local int64_t open_span = 0;
std::atomic<int64_t> selects_issued{0};

uint64_t ThreadTag() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

namespace {

/// The CPUs the process may run on, read once before any pinning.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return allowed;
}

}  // namespace

std::unique_ptr<ldv::storage::Database> GenerateTpch(const Config& config,
                                                     double* seconds) {
  auto db = std::make_unique<ldv::storage::Database>();
  ldv::tpch::GenOptions gen;
  gen.scale_factor = config.scale_factor;
  gen.seed = config.seed;
  const double start = NowSeconds();
  {
    Tracer::Span span("tpch.generate");
    LDV_CHECK_OK(ldv::tpch::Generate(db.get(), gen));
  }
  if (seconds != nullptr) *seconds = NowSeconds() - start;
  return db;
}

int64_t CounterDelta(const ldv::obs::MetricsSnapshot& before,
                     const ldv::obs::MetricsSnapshot& after,
                     const std::string& name) {
  auto a = after.counters.find(name);
  auto b = before.counters.find(name);
  return (a == after.counters.end() ? 0 : a->second) -
         (b == before.counters.end() ? 0 : b->second);
}

void RotateCpu() {
  static std::atomic<int> next{0};
  const cpu_set_t& allowed = AllowedCpus();
  const int count = CPU_COUNT(&allowed);
  int target = next.fetch_add(1) % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void UnpinCpu() {
  sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus());
}

void CountSelectIssued() {
  selects_issued.fetch_add(1, std::memory_order_relaxed);
}
int64_t SelectsIssued() { return selects_issued.load(); }

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Global();
  if (!tracer.enabled()) return;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    id_ = tracer.next_id_++;
  }
  parent_ = open_span;
  open_span = id_;
  start_ = NowNanos();
}

Tracer::Span::~Span() {
  if (id_ == 0) return;
  int64_t end = NowNanos();
  open_span = parent_;
  Global().Add({name_, start_, end, id_, parent_, ThreadTag()});
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

ldv::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [\n";
  int64_t origin = records_.empty() ? 0 : records_.front().start;
  for (const Record& r : records_) origin = std::min(origin, r.start);
  char line[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
                  ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRId64
                  ", \"parent\": %" PRId64 "}}%s\n",
                  r.name, r.thread, static_cast<double>(r.start - origin) / 1e3,
                  static_cast<double>(r.end - r.start) / 1e3, r.id, r.parent,
                  i + 1 < records_.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return ldv::WriteStringToFile(path, out);
}

void Report::CountOp(const std::string& kind, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  Ops& ops = ops_[kind];
  ++ops.attempted;
  if (!ok) ++ops.failed;
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n", workload_.c_str(),
               why.c_str());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit});
}

void Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [kind, ops] : ops_) {
    std::printf("ops workload=%s kind=%s attempted=%" PRId64 " failed=%" PRId64
                "\n",
                workload_.c_str(), kind.c_str(), ops.attempted, ops.failed);
    attempted += ops.attempted;
    failed += ops.failed;
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
