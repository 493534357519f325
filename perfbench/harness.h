#ifndef RELM_PERFBENCH_HARNESS_H_
#define RELM_PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark: command-line arguments,
// the result record every workload fills, latency summaries, the host
// probe, and the per-layer span report of a traced run. See README.md
// in this directory for the workloads and what each metric means.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/plan_cache.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scripts_dir = "scripts";
};

/// What one run reports: metrics by name (unit attached), notes printed
/// before the result line, and the output-check verdict.
class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// A human-readable line printed before the JSON result.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Records a failed output check (the run is then not correct).
  void Fail(const std::string& what);
  /// Counts one attempted job and whether it failed (errored, was
  /// refused or shed, missed its deadline, or failed an output check).
  void CountJob(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Name and unit of every metric the benchmark can print, in output
/// order. End-to-end metrics are printed by untraced runs, per-layer
/// metrics by traced runs; a metric a workload never touches prints 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// ---- time and statistics ----

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return 1e3 * SecondsSince(start);
}

double Median(std::vector<double> values);

/// Latency summary: the median and the highest percentile that still
/// has at least ten samples beyond it (the eleventh-largest sample).
struct Tail {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
Tail Summarize(std::vector<double> values);
std::string Describe(const Tail& t, const char* unit);

/// Paces a closed loop in whole cycles of `cycle_jobs` jobs, so every
/// window runs the same job mix. An untraced run measures kWindows
/// consecutive windows of equal length and reports the median over
/// windows of each window's p50, tail and throughput, so a transient
/// host slowdown in one window does not move the result. A traced run
/// measures one untraced window over 40% of the time (for the tracing
/// overhead), then traces until the time is up.
class ClosedLoop {
 public:
  static constexpr int kWindows = 3;

  ClosedLoop(const Args& args, int cycle_jobs);

  /// Call before each job: false when the run is over. At a cycle
  /// boundary it may close a window or switch tracing on.
  bool Next();
  bool tracing() const { return tracing_; }
  /// Latency of the job just run.
  void Record(double latency_ms);

  const std::vector<double>& traced_ms() const { return traced_ms_; }
  /// Median latency of the untraced jobs.
  double UntracedP50() const;
  /// Reports job_p50_ms, job_tail_ms, jobs_per_s and max_rate_jobs_per_s
  /// (one client in a closed loop is served at the highest rate the
  /// system sustains for it).
  void ReportEndToEnd(Report* report) const;

 private:
  struct Window {
    std::vector<double> latency_ms;
    double seconds = 0.0;
  };
  const Args args_;
  const int cycle_jobs_;
  int64_t jobs_ = 0;
  bool tracing_ = false;
  Clock::time_point start_;
  Clock::time_point window_start_;
  std::vector<Window> windows_;
  std::vector<double> traced_ms_;
};

/// Runs a workload's set-up five times, keeping the last state, and
/// reports setup_s as the median. Earlier states are torn down outside
/// the timed region.
template <typename F>
auto RepeatedSetup(F&& setup, Report* report) -> decltype(setup()) {
  decltype(setup()) state;
  std::vector<double> seconds;
  for (int rep = 0; rep < 5; ++rep) {
    state = nullptr;
    const auto t0 = Clock::now();
    state = setup();
    seconds.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(seconds));
  return state;
}

/// Peak resident set of the process so far (getrusage), in MB.
double PeakRssMb();

// ---- host ----

/// One spinning thread per core at the idle scheduling class for the
/// life of the run. A hypervisor packs a mostly idle VM's vCPUs onto
/// fewer host cores, and a bursty workload then runs up to 4x slower
/// until sustained load spreads them again; on a 4-vCPU VM identical
/// runs differed 2-3x in latency with the run-to-run luck of that
/// placement. Idle-class threads keep the vCPUs busy as seen
/// from the host but never take a guest CPU from a runnable thread.
class IdleSpinners {
 public:
  explicit IdleSpinners(int threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};


/// Host fingerprint recorded with every run and used as the ceiling of
/// the matrix.* fractions. It rescales no end-to-end metric.
struct HostProbe {
  double copy_gbps = 0.0;   // memcpy bandwidth (read + write bytes)
  double fma_gflops = 0.0;  // FMA throughput over nproc threads
  int nproc = 0;
  double cpu_quota = 0.0;   // cgroup CPU quota in cores; 0 = unlimited
};
HostProbe ProbeHost();
void ReportHost(const HostProbe& host, Report* report);

// ---- inputs ----

/// Source text of scripts/<name>.
std::string ReadScript(const Args& args, const std::string& name);

/// The five shipped scripts, in a fixed order.
const std::vector<std::string>& ScriptNames();

/// Arguments binding a script's inputs and outputs to `prefix` paths.
relm::ScriptArgs ScriptArgsFor(const std::string& prefix);

/// Metadata-only input of one job (paper scale).
struct MetaInput {
  int64_t rows = 0;
  int64_t cols = 0;
  double sparsity = 1.0;
};
/// Registers <prefix>/X and <prefix>/y metadata.
void RegisterMeta(relm::Session* session, const std::string& prefix,
                  const MetaInput& in);

/// Simulator oracle for data-dependent sizes (mlogreg's k classes).
relm::SymbolMap OracleFor(const std::string& script, int64_t rows);

// ---- optimizer audit ----

/// Wall time of the audit's Session::Simulate calls: the mrsim layer
/// timed from outside on every workload's own programs.
struct SimulateTimer {
  double ms = 0.0;
  int64_t calls = 0;
};

/// One audited program: simulated elapsed time under the optimizer's
/// configuration over the best of the four static baselines, with
/// simulator noise 0. Returns a negative value when simulation failed.
double RegretRatio(relm::Session* session, const relm::MlProgram& program,
                   const relm::ResourceConfig& chosen,
                   const relm::SymbolMap& oracle, SimulateTimer* timer);

/// Reports opt_regret (geometric mean) with a note listing every ratio,
/// and mrsim.simulate_ms (mean per Simulate call).
void ReportRegret(const std::vector<std::string>& labels,
                  const std::vector<double>& ratios,
                  const SimulateTimer& timer, Report* report);

/// PlanCache::Stats difference b - a.
relm::PlanCache::Stats StatsDelta(const relm::PlanCache::Stats& a,
                                  const relm::PlanCache::Stats& b);

// ---- per-layer report of a traced run ----

/// Per-layer self time of the recorded spans (wall clock only).
struct LayerSelf {
  /// Layer name -> summed self milliseconds.
  std::map<std::string, double> self_ms;
  /// Per root span: its duration and the summed self time of the tree.
  std::vector<double> root_ms;
  std::vector<double> tree_self_ms;
  /// Summed durations of the spans in the trees, by span name.
  std::map<std::string, double> span_ms;
};

/// Drains the tracer and adds the self time of every span tree whose
/// root is named `root` to `out`. Spans outside such a tree are ignored.
void CollectLayerSelf(const std::string& root, LayerSelf* out);

/// Reports self.<layer>_ms per traced job with a note listing the
/// breakdown, and checks attribution within 5%: the layer self times
/// must sum to the total of `wall_ms` (the traced jobs' wall times as
/// measured outside the tracer), and each tree's to its root span.
void ReportLayers(const LayerSelf& layers, const std::vector<double>& wall_ms,
                  Report* report);

/// Compile-path probe: times the public entry points of the front-end
/// layers on one program, outside any job's window.
struct CompileProbe {
  double parse_ms = 0.0;
  double frontend_ms = 0.0;  // MlProgram::Compile minus parse
  double analyze_ms = 0.0;
  double plan_gen_ms = 0.0;
  double estimate_ms = 0.0;
  int64_t hops = 0;
};
bool ProbeCompileLayers(const std::string& source,
                        const relm::ScriptArgs& args,
                        const relm::SimulatedHdfs& hdfs,
                        const relm::ClusterConfig& cc,
                        const relm::ResourceConfig& config,
                        CompileProbe* out);
/// Reports the mean of each probe field.
void ReportCompileProbes(const std::vector<CompileProbe>& probes,
                         Report* report);

/// Optimizer counters of one job (OptimizerStats without its trace).
struct OptSummary {
  double block_compiles = 0.0;
  double cost_invocations = 0.0;
  double grid_points = 0.0;
  double remaining_frac = 0.0;
};
OptSummary SummarizeOptimizer(const relm::OptimizerStats& stats);
/// Reports lops/cost/core counters from the jobs' optimizer runs (means
/// per job).
void ReportOptimizerStats(const std::vector<OptSummary>& stats,
                          Report* report);

/// Reports the plan-cache hit ratios from a stats delta.
void ReportPlanCache(const relm::PlanCache::Stats& delta, Report* report);

// ---- workloads ----

void RunPlanFresh(const Args& args, Report* report);
void RunTrainReal(const Args& args, Report* report);
void RunServeOpen(const Args& args, Report* report);

}  // namespace perfbench

#endif  // RELM_PERFBENCH_HARNESS_H_
