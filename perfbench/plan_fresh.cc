// plan_fresh: the paper's optimization-overhead path. One client in a
// closed loop; each job is Session::CompileSource + Session::Optimize of
// one shipped script on paper-scale metadata whose signature is new, so
// every plan-cache lookup misses and the compiler and optimizer do all
// the work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/random.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

using namespace relm;  // NOLINT — benchmark brevity

namespace {

struct Scenario {
  const char* name;
  int64_t cells;
};
// The paper's XS..L data scenarios (Section 5.1) and its four shapes.
constexpr Scenario kScenarios[] = {
    {"XS", 10'000'000LL}, {"S", 100'000'000LL},
    {"M", 1'000'000'000LL}, {"L", 10'000'000'000LL}};
struct Shape {
  const char* name;
  int64_t cols;
  double sparsity;
};
constexpr Shape kShapes[] = {{"dense1000", 1000, 1.0},
                             {"sparse1000", 1000, 0.01},
                             {"dense100", 100, 1.0},
                             {"sparse100", 100, 0.01}};
constexpr int kNumScripts = 5;
constexpr int kCombos = kNumScripts * 4 * 4;  // one cycle of the mix
constexpr int kProbedJobs = 40;

struct Job {
  int script = 0;
  int scenario = 0;
  int shape = 0;
  std::string prefix;
  MetaInput input;
};

// Job `index` of the seeded schedule: each cycle of kCombos jobs is a
// seeded permutation of every script x scenario x shape combination, so
// every seed runs the same mix. Rows are jittered per job and every job
// reads its own paths, so no two jobs share a plan signature.
Job MakeJob(uint64_t seed, int64_t index) {
  const int64_t cycle = index / kCombos;
  std::vector<int> perm(kCombos);
  for (int i = 0; i < kCombos; ++i) perm[i] = i;
  Random order(seed * 1000003ULL + static_cast<uint64_t>(cycle));
  for (int i = kCombos - 1; i > 0; --i) {
    std::swap(perm[i], perm[order.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  const int combo = perm[index % kCombos];
  Job job;
  job.script = combo / 16;
  job.scenario = (combo / 4) % 4;
  job.shape = combo % 4;
  Random jitter(seed * 7919ULL + static_cast<uint64_t>(index));
  const Shape& shape = kShapes[job.shape];
  job.input.cols = shape.cols;
  job.input.sparsity = shape.sparsity;
  job.input.rows = kScenarios[job.scenario].cells / shape.cols -
                   static_cast<int64_t>(jitter.NextBelow(5000));
  job.prefix = "/pf/" + std::to_string(index);
  return job;
}

std::string Label(const Job& job) {
  return ScriptNames()[job.script].substr(
             0, ScriptNames()[job.script].find('.')) +
         "/" + kScenarios[job.scenario].name + "/" + kShapes[job.shape].name;
}

struct State {
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<Session> session;
  std::vector<std::string> sources;
};

std::unique_ptr<State> Setup(const Args& args) {
  auto state = std::make_unique<State>();
  state->cache = std::make_unique<PlanCache>();
  state->session = std::make_unique<Session>(
      ClusterConfig::PaperCluster(),
      SessionOptions().WithPlanCache(state->cache.get()));
  for (const std::string& name : ScriptNames()) {
    state->sources.push_back(ReadScript(args, name));
  }
  // Warm-up: one compile + optimize per script on shapes the timed
  // phase never uses.
  for (int s = 0; s < kNumScripts; ++s) {
    const std::string prefix = "/warm/" + std::to_string(s);
    RegisterMeta(state->session.get(), prefix, {123457, 100, 1.0});
    auto prog = state->session->CompileSource(state->sources[s],
                                              ScriptArgsFor(prefix));
    if (prog.ok()) (void)state->session->Optimize(prog->get());
  }
  return state;
}

struct Done {
  Job job;
  double latency_ms = 0.0;
  bool ok = false;
  ResourceConfig config;
  OptSummary stats;
  bool traced = false;
};

}  // namespace

void RunPlanFresh(const Args& args, Report* report) {
  std::unique_ptr<State> state =
      RepeatedSetup([&] { return Setup(args); }, report);
  for (const std::string& src : state->sources) {
    if (src.empty()) {
      report->Fail("cannot read the shipped scripts");
      return;
    }
  }
  Session& session = *state->session;
  const ClusterConfig& cc = session.cluster();

  // Timed phase in whole cycles of the mix.
  ClosedLoop loop(args, kCombos);
  std::vector<Done> done;
  std::vector<CompileProbe> probes;
  LayerSelf layers;
  PlanCache::Stats cache_before = state->cache->stats();
  for (int64_t index = 0;; ++index) {
    const bool was_tracing = loop.tracing();
    if (!loop.Next()) break;
    if (loop.tracing() && !was_tracing) cache_before = state->cache->stats();
    Done d;
    d.job = MakeJob(args.seed, index);
    RegisterMeta(&session, d.job.prefix, d.job.input);
    const ScriptArgs script_args = ScriptArgsFor(d.job.prefix);
    const auto t0 = Clock::now();
    {
      obs::ScopedSpan job_span("bench.job");
      Result<std::unique_ptr<MlProgram>> prog = Status::Internal("unset");
      {
        obs::ScopedSpan span("bench.compile");
        prog = session.CompileSource(state->sources[d.job.script],
                                     script_args);
      }
      if (prog.ok()) {
        obs::ScopedSpan span("bench.optimize");
        auto outcome = session.Optimize(prog->get());
        if (outcome.ok()) {
          d.ok = true;
          d.config = outcome->config;
          d.stats = SummarizeOptimizer(outcome->stats);
          d.traced = loop.tracing();
        }
      }
    }
    d.latency_ms = MsSince(t0);
    loop.Record(d.latency_ms);
    if (loop.tracing()) {
      CollectLayerSelf("bench.job", &layers);
      if (d.ok && static_cast<int>(probes.size()) < kProbedJobs) {
        CompileProbe probe;
        if (ProbeCompileLayers(state->sources[d.job.script], script_args,
                               session.hdfs(), cc, d.config, &probe)) {
          probes.push_back(probe);
        }
        obs::Tracer::Global().Clear();
      }
    }
    done.push_back(std::move(d));
  }
  obs::Tracer::Global().SetEnabled(false);
  report->Set("peak_rss_mb", PeakRssMb());
  const PlanCache::Stats cache_delta =
      StatsDelta(cache_before, state->cache->stats());

  // Output checks: every job produced a configuration inside the
  // cluster's limits, and no job was served from the plan cache.
  int64_t verified = 0;
  for (const Done& d : done) {
    bool ok = d.ok && d.config.cp_heap >= cc.MinHeapSize() &&
              d.config.cp_heap <= cc.MaxHeapSize() &&
              d.config.MaxMrHeap() >= cc.MinHeapSize() &&
              d.config.MaxMrHeap() <= cc.MaxHeapSize();
    report->CountJob(!ok);
    if (ok) {
      ++verified;
    } else if (report->failures().size() < 5) {
      report->Fail("job " + d.job.prefix + " (" + Label(d.job) +
                   "): no valid configuration");
    }
  }
  if (cache_delta.program_hits != 0) {
    report->Fail("plan_fresh jobs hit the plan cache; the mix must be new");
  }

  // opt_regret audit over the first cycle: one job of every script x
  // scenario x shape combination (the seed sets their rows). A fresh
  // uncached session recompiles and re-optimizes each job, which must
  // grant the same configuration, then simulates it against the four
  // static baselines.
  const auto audit_start = Clock::now();
  std::vector<std::string> labels;
  std::vector<double> ratios;
  SimulateTimer sim_timer;
  for (int64_t i = 0; i < kCombos && i < static_cast<int64_t>(done.size());
       ++i) {
    const Done& audited = done[i];
    if (!audited.ok) continue;
    const Job& job = audited.job;
    Session fresh(ClusterConfig::PaperCluster(),
                  SessionOptions().WithPlanCacheEnabled(false));
    RegisterMeta(&fresh, job.prefix, job.input);
    auto prog = fresh.CompileSource(state->sources[job.script],
                                    ScriptArgsFor(job.prefix));
    if (!prog.ok()) {
      report->Fail("audit recompile failed: " + Label(job));
      continue;
    }
    auto again = fresh.Optimize(prog->get());
    if (!again.ok() || again->config.cp_heap != audited.config.cp_heap ||
        again->config.MaxMrHeap() != audited.config.MaxMrHeap()) {
      report->Fail("audit: re-optimizing " + Label(job) +
                   " granted a different configuration");
      continue;
    }
    double ratio =
        RegretRatio(&fresh, **prog, audited.config,
                    OracleFor(ScriptNames()[job.script], job.input.rows),
                    &sim_timer);
    if (ratio <= 0.0) {
      report->Fail("audit: simulation failed for " + Label(job));
      continue;
    }
    labels.push_back(Label(job));
    ratios.push_back(ratio);
  }
  char took[64];
  std::snprintf(took, sizeof(took), "opt_regret audit took %.2fs",
                SecondsSince(audit_start));
  report->Note(took);
  ReportRegret(labels, ratios, sim_timer, report);

  report->Set("ok_frac", done.empty() ? 0.0
                                      : static_cast<double>(verified) /
                                            static_cast<double>(done.size()));
  loop.ReportEndToEnd(report);

  if (args.trace) {
    report->Set("obs.trace_overhead_frac",
                Median(loop.traced_ms()) / loop.UntracedP50() - 1.0);
    const double jobs = std::max<double>(1.0, loop.traced_ms().size());
    report->Set("core.optimize_ms", layers.span_ms["bench.optimize"] / jobs);
    std::vector<OptSummary> stats;
    for (const Done& d : done) {
      if (d.ok && d.traced) stats.push_back(d.stats);
    }
    ReportOptimizerStats(stats, report);
    ReportPlanCache(cache_delta, report);
    ReportCompileProbes(probes, report);
    ReportLayers(layers, loop.traced_ms(), report);
  }
}

}  // namespace perfbench
