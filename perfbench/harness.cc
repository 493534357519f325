#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "obs/trace.h"

namespace perfbench {

using namespace relm;  // NOLINT — benchmark brevity

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"job_p50_ms", "ms"},
      {"job_tail_ms", "ms"},
      {"jobs_per_s", "1/s"},
      {"max_rate_jobs_per_s", "1/s"},
      {"ok_frac", "ratio"},
      {"opt_regret", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"lang.parse_ms", "ms"},
      {"hops.frontend_ms", "ms"},
      {"hops.hops_per_program", "count"},
      {"analysis.analyze_ms", "ms"},
      {"lops.plan_gen_ms", "ms"},
      {"lops.block_compiles", "count"},
      {"cost.estimate_ms", "ms"},
      {"cost.invocations", "count"},
      {"core.optimize_ms", "ms"},
      {"core.grid_points", "count"},
      {"core.blocks_remaining_frac", "ratio"},
      {"core.program_hit_ratio", "ratio"},
      {"core.whatif_hit_ratio", "ratio"},
      {"mrsim.simulate_ms", "ms"},
      {"mrsim.mr_jobs", "count"},
      {"mrsim.dynamic_recompiles", "count"},
      {"sched.wait_ms_p50", "ms"},
      {"sched.wait_ms_tail", "ms"},
      {"sched.held_over_quota", "count"},
      {"sched.deadline_miss_frac", "ratio"},
      {"serve.run_ms_p50", "ms"},
      {"serve.attempts_per_job", "count"},
      {"serve.shed_frac", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"yarn.preemptions", "count"},
      {"exec.run_ms", "ms"},
      {"exec.tasks_scheduled", "count"},
      {"exec.parallel_blocks", "count"},
      {"exec.serial_blocks", "count"},
      {"exec.us_per_task", "us"},
      {"exec.parallel_efficiency", "ratio"},
      {"exec.spill_bytes", "bytes"},
      {"exec.reload_bytes", "bytes"},
      {"exec.evictions", "count"},
      {"exec.high_water_mb", "MB"},
      {"matrix.matmult_gflops", "GFLOP/s"},
      {"matrix.elementwise_gbps", "GB/s"},
      {"matrix.rowagg_gbps", "GB/s"},
      {"matrix.matmult_peak_frac", "ratio"},
      {"matrix.elementwise_peak_frac", "ratio"},
      {"matrix.rowagg_peak_frac", "ratio"},
      {"load.gen_lag_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.attribution_error_frac", "ratio"},
      {"self.api_ms", "ms"},
      {"self.hops_ms", "ms"},
      {"self.analysis_ms", "ms"},
      {"self.core_ms", "ms"},
      {"self.mrsim_ms", "ms"},
      {"self.runtime_ms", "ms"},
      {"self.exec_ms", "ms"},
      {"self.serve_ms", "ms"},
      {"self.untraced_ms", "ms"},
      {"host.copy_gbps", "GB/s"},
      {"host.fma_gflops", "GFLOP/s"},
      {"host.nproc", "count"},
      {"host.cpu_quota", "cores"},
  };
  return kDefs;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail Summarize(std::vector<double> values) {
  Tail t;
  t.n = static_cast<int64_t>(values.size());
  if (values.empty()) return t;
  t.p50 = Median(values);
  std::sort(values.begin(), values.end());
  // The eleventh-largest sample has exactly ten samples beyond it; with
  // fewer than eleven samples the maximum is the best available.
  size_t idx = values.size() > 10 ? values.size() - 11 : values.size() - 1;
  t.tail = values[idx];
  t.tail_percentile = 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(values.size());
  return t;
}

std::string Describe(const Tail& t, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%lld p50=%.3f%s p%.1f=%.3f%s",
                static_cast<long long>(t.n), t.p50, unit, t.tail_percentile,
                t.tail, unit);
  return buf;
}

ClosedLoop::ClosedLoop(const Args& args, int cycle_jobs)
    : args_(args), cycle_jobs_(cycle_jobs) {
  start_ = window_start_ = Clock::now();
  windows_.emplace_back();
}

bool ClosedLoop::Next() {
  if (jobs_++ % cycle_jobs_ != 0 || jobs_ == 1) return true;
  const double elapsed = SecondsSince(start_);
  if (tracing_) return elapsed < args_.seconds;
  const int windows = args_.trace ? 1 : kWindows;
  const double share = args_.trace ? 0.4 : 1.0;
  const double window_end = share * args_.seconds *
                             static_cast<double>(windows_.size()) / windows;
  if (elapsed < window_end) return true;
  windows_.back().seconds = SecondsSince(window_start_);
  if (static_cast<int>(windows_.size()) < windows) {
    windows_.emplace_back();
    window_start_ = Clock::now();
    return true;
  }
  if (!args_.trace) return false;
  tracing_ = true;
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  return true;
}

void ClosedLoop::Record(double latency_ms) {
  if (tracing_) {
    traced_ms_.push_back(latency_ms);
  } else {
    windows_.back().latency_ms.push_back(latency_ms);
  }
}

double ClosedLoop::UntracedP50() const {
  std::vector<double> all;
  for (const Window& w : windows_) {
    all.insert(all.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  return Median(all);
}

void ClosedLoop::ReportEndToEnd(Report* report) const {
  std::vector<double> p50, tail, rate;
  std::string detail;
  for (const Window& w : windows_) {
    if (w.seconds <= 0.0) continue;
    Tail t = Summarize(w.latency_ms);
    p50.push_back(t.p50);
    tail.push_back(t.tail);
    rate.push_back(static_cast<double>(w.latency_ms.size()) / w.seconds);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.2fjobs/s", rate.back());
    detail += " [" + Describe(t, "ms") + buf + "]";
  }
  report->Set("job_p50_ms", Median(p50));
  report->Set("job_tail_ms", Median(tail));
  report->Set("jobs_per_s", Median(rate));
  report->Set("max_rate_jobs_per_s", Median(rate));
  report->Note("closed loop, one client, median over " +
               std::to_string(p50.size()) +
               " windows of whole cycles (tail = highest percentile with >= "
               "10 samples beyond it):" + detail);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double CgroupCpuQuota() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0.0;
  if (!(in >> quota >> period) || quota == "max" || period <= 0.0) {
    return 0.0;
  }
  return std::atof(quota.c_str()) / period;
}

// Best-of-5 multi-threaded memcpy bandwidth, counting read + write bytes.
double CopyBandwidthGbps(int threads) {
  const size_t kBytes = 8u << 20;  // per thread, beyond the caches
  std::vector<std::vector<char>> src(threads, std::vector<char>(kBytes, 1));
  std::vector<std::vector<char>> dst(threads, std::vector<char>(kBytes, 0));
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int k = 0; k < 4; ++k) {
          std::memcpy(dst[t].data(), src[t].data(), kBytes);
        }
      });
    }
    for (auto& th : pool) th.join();
    double s = SecondsSince(start);
    best = std::max(best, 2.0 * 4.0 * kBytes * threads / s / 1e9);
  }
  return best;
}

// Best-of-3 throughput of independent multiply-add chains per thread.
double FmaPeakGflops(int threads) {
  const int64_t kIters = 4'000'000;
  constexpr int kChains = 16;
  std::vector<double> sink(threads, 0.0);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        double acc[kChains];
        for (int c = 0; c < kChains; ++c) acc[c] = 1.0 + 1e-3 * c + t;
        const double a = 0.999999, b = 1e-7;
        for (int64_t i = 0; i < kIters; ++i) {
          for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * a + b;
        }
        double s = 0.0;
        for (int c = 0; c < kChains; ++c) s += acc[c];
        sink[t] = s;
      });
    }
    for (auto& th : pool) th.join();
    double s = SecondsSince(start);
    best = std::max(best, 2.0 * kChains * kIters * threads / s / 1e9);
  }
  volatile double keep = 0.0;
  for (double s : sink) keep = keep + s;
  return best;
}

}  // namespace

IdleSpinners::IdleSpinners(int threads) {
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Without the idle class a spinner would compete with the run.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

HostProbe ProbeHost() {
  HostProbe host;
  host.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  host.cpu_quota = CgroupCpuQuota();
  host.copy_gbps = CopyBandwidthGbps(host.nproc);
  host.fma_gflops = FmaPeakGflops(host.nproc);
  return host;
}

void ReportHost(const HostProbe& host, Report* report) {
  report->Set("host.copy_gbps", host.copy_gbps);
  report->Set("host.fma_gflops", host.fma_gflops);
  report->Set("host.nproc", host.nproc);
  report->Set("host.cpu_quota", host.cpu_quota);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%d cgroup_cpu_quota=%s copy=%.2fGB/s "
                "fma_peak=%.2fGFLOP/s",
                host.nproc,
                host.cpu_quota > 0 ? std::to_string(host.cpu_quota).c_str()
                                   : "unlimited",
                host.copy_gbps, host.fma_gflops);
  report->Note(buf);
}

std::string ReadScript(const Args& args, const std::string& name) {
  std::ifstream in(args.scripts_dir + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::vector<std::string>& ScriptNames() {
  static const std::vector<std::string> kNames = {
      "linreg_ds.dml", "linreg_cg.dml", "l2svm.dml", "mlogreg.dml",
      "glm.dml"};
  return kNames;
}

ScriptArgs ScriptArgsFor(const std::string& prefix) {
  return ScriptArgs{{"X", prefix + "/X"},
                    {"Y", prefix + "/y"},
                    {"B", prefix + "/B"},
                    {"model", prefix + "/B"}};
}

void RegisterMeta(Session* session, const std::string& prefix,
                  const MetaInput& in) {
  session->hdfs().PutMetadata(
      prefix + "/X",
      MatrixCharacteristics::WithSparsity(in.rows, in.cols, in.sparsity));
  session->hdfs().PutMetadata(prefix + "/y",
                              MatrixCharacteristics::Dense(in.rows, 1));
}

SymbolMap OracleFor(const std::string& script, int64_t rows) {
  SymbolMap oracle;
  if (script == "mlogreg.dml") {
    SymbolInfo info;
    info.dtype = DataType::kMatrix;
    info.mc = MatrixCharacteristics(rows, 5, rows);
    oracle["Y"] = info;
  }
  return oracle;
}

double RegretRatio(Session* session, const MlProgram& program,
                   const ResourceConfig& chosen, const SymbolMap& oracle,
                   SimulateTimer* timer) {
  SimOptions sim;
  sim.noise = 0.0;
  auto simulate = [&](const ResourceConfig& config) -> double {
    auto clone = program.Clone();
    if (!clone.ok()) return -1.0;
    const auto t0 = Clock::now();
    auto run = session->Simulate(clone->get(), config, sim, oracle);
    timer->ms += MsSince(t0);
    ++timer->calls;
    return run.ok() ? run->elapsed_seconds : -1.0;
  };
  double opt = simulate(chosen);
  double best = 0.0;
  for (const StaticBaseline& baseline : session->StaticBaselines()) {
    double t = simulate(baseline.config);
    if (t <= 0.0) return -1.0;
    best = best == 0.0 ? t : std::min(best, t);
  }
  if (opt <= 0.0 || best <= 0.0) return -1.0;
  return opt / best;
}

void ReportRegret(const std::vector<std::string>& labels,
                  const std::vector<double>& ratios,
                  const SimulateTimer& timer, Report* report) {
  if (timer.calls > 0) {
    report->Set("mrsim.simulate_ms", timer.ms / static_cast<double>(timer.calls));
  }
  double log_sum = 0.0;
  std::string detail;
  for (size_t i = 0; i < ratios.size(); ++i) {
    log_sum += std::log(ratios[i]);
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.4f", labels[i].c_str(), ratios[i]);
    detail += buf;
  }
  double geo = ratios.empty() ? 0.0
                              : std::exp(log_sum /
                                         static_cast<double>(ratios.size()));
  report->Set("opt_regret", geo);
  char head[96];
  std::snprintf(head, sizeof(head),
                "opt_regret audit (n=%zu, geomean=%.4f, opt/best static "
                "baseline, noise 0):",
                ratios.size(), geo);
  report->Note(head + detail);
}

PlanCache::Stats StatsDelta(const PlanCache::Stats& a,
                            const PlanCache::Stats& b) {
  PlanCache::Stats d;
  d.program_hits = b.program_hits - a.program_hits;
  d.program_misses = b.program_misses - a.program_misses;
  d.whatif_hits = b.whatif_hits - a.whatif_hits;
  d.whatif_misses = b.whatif_misses - a.whatif_misses;
  d.evictions = b.evictions - a.evictions;
  d.store_program_hits = b.store_program_hits - a.store_program_hits;
  d.store_whatif_hits = b.store_whatif_hits - a.store_whatif_hits;
  return d;
}

}  // namespace perfbench
