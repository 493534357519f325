// Per-layer report of a traced run: self time per layer from the span
// trees (the benchmark's own bench.* spans around each call into a
// layer plus the spans the program already emits), direct timings of
// the compile-path layers, and the public stats structs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "analysis/analysis.h"
#include "cost/cost_model.h"
#include "harness.h"
#include "lang/parser.h"
#include "lops/compiler_backend.h"
#include "obs/trace.h"

namespace perfbench {

using namespace relm;  // NOLINT — benchmark brevity

namespace {

// Which layer a span's self time belongs to.
std::string LayerOf(const std::string& name) {
  static const std::map<std::string, std::string> kExact = {
      {"bench.job", "untraced"},
      {"bench.compile", "api"},
      {"plan_cache.compile_miss", "hops"},
      {"bench.optimize", "core"},
      {"bench.execute", "runtime"},
  };
  auto it = kExact.find(name);
  if (it != kExact.end()) return it->second;
  static const std::map<std::string, std::string> kPrefix = {
      {"optimize", "core"}, {"sim", "mrsim"},        {"exec", "exec"},
      {"interp", "runtime"}, {"analysis", "analysis"}, {"serve", "serve"},
  };
  auto it2 = kPrefix.find(name.substr(0, name.find('.')));
  return it2 != kPrefix.end() ? it2->second : "other";
}

}  // namespace

void CollectLayerSelf(const std::string& root, LayerSelf* out) {
  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Events();
  obs::Tracer::Global().Clear();
  // Wall-clock complete spans only, grouped by thread, outer spans
  // before the spans they contain.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const obs::TraceEvent& e) {
                                return e.pid != 1 || e.phase != 'X';
                              }),
               events.end());
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  struct Open {
    size_t index;
    double end_us;
    double self_us;
    bool in_tree;
  };
  std::vector<Open> stack;
  int tid = -1;
  double tree_self_us = 0.0;
  auto close = [&](const Open& o) {
    if (!o.in_tree) return;
    const obs::TraceEvent& e = events[o.index];
    out->self_ms[LayerOf(e.name)] += o.self_us / 1e3;
    tree_self_us += o.self_us;
    if (e.name == root) {
      out->root_ms.push_back(e.dur_us / 1e3);
      out->tree_self_ms.push_back(tree_self_us / 1e3);
      tree_self_us = 0.0;
    }
  };
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = e.tid;
    }
    const double end = e.ts_us + e.dur_us;
    while (!stack.empty() && stack.back().end_us < end) {
      close(stack.back());
      stack.pop_back();
    }
    bool in_tree = e.name == root || (!stack.empty() && stack.back().in_tree);
    if (in_tree && !stack.empty()) stack.back().self_us -= e.dur_us;
    if (in_tree) {
      out->span_ms[e.name] += e.dur_us / 1e3;
    }
    stack.push_back({i, end, e.dur_us, in_tree});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

void ReportLayers(const LayerSelf& layers, const std::vector<double>& wall_ms,
                  Report* report) {
  const double jobs = std::max<double>(1.0, layers.root_ms.size());
  std::string breakdown = "self time per job by layer:";
  double attributed = 0.0;
  for (const auto& [layer, ms] : layers.self_ms) {
    report->Set("self." + layer + "_ms", ms / jobs);
    attributed += ms;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", layer.c_str(), ms / jobs);
    breakdown += buf;
  }
  report->Note(breakdown);
  // Attribution check: the layer self times plus the untraced gaps of
  // the traced jobs must add up to the jobs' wall time measured by the
  // benchmark, and within each job's span tree the self times must add
  // up to the root span.
  constexpr double kTolerance = 0.05;
  double wall = 0.0;
  for (double ms : wall_ms) wall += ms;
  double worst = 0.0;
  for (size_t i = 0; i < layers.root_ms.size(); ++i) {
    if (layers.root_ms[i] > 1.0) {
      worst = std::max(worst, std::fabs(layers.tree_self_ms[i] -
                                        layers.root_ms[i]) /
                                  layers.root_ms[i]);
    }
  }
  const double error =
      wall > 0.0 ? std::fabs(attributed - wall) / wall : 1.0;
  report->Set("obs.attribution_error_frac", error);
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "attribution check: %zu traced jobs (%zu span trees), layer "
                "self times sum to %.1fms vs %.1fms wall (error %.4f, worst "
                "tree %.4f, tolerance %.2f)",
                wall_ms.size(), layers.root_ms.size(), attributed, wall, error,
                worst, kTolerance);
  report->Note(buf);
  if (wall_ms.empty() || wall_ms.size() != layers.root_ms.size() ||
      error > kTolerance || worst > kTolerance) {
    report->Fail(std::string("per-layer attribution: ") + buf);
  }
}

bool ProbeCompileLayers(const std::string& source, const ScriptArgs& args,
                        const SimulatedHdfs& hdfs, const ClusterConfig& cc,
                        const ResourceConfig& config, CompileProbe* out) {
  obs::ScopedSpan probe("bench.probe");
  auto t0 = Clock::now();
  Result<DmlProgram> ast = ParseDml(source, args);
  out->parse_ms = MsSince(t0);
  if (!ast.ok()) return false;
  t0 = Clock::now();
  auto program = MlProgram::Compile(source, args, &hdfs);
  out->frontend_ms = std::max(0.0, MsSince(t0) - out->parse_ms);
  if (!program.ok()) return false;
  MlProgram* prog = program->get();
  out->hops = 0;
  for (StatementBlock* block : prog->AllBlocksPreOrder()) {
    if (prog->has_ir(block->id())) {
      out->hops += static_cast<int64_t>(
          prog->ir(block->id()).dag.TopoOrder().size());
    }
  }
  t0 = Clock::now();
  analysis::AnalysisInput input;
  input.program = prog;
  analysis::AnalysisReport verdict = analysis::Analyzer::Default().Run(input);
  out->analyze_ms = MsSince(t0);
  if (verdict.has_errors()) return false;
  t0 = Clock::now();
  CompileCounters counters;
  auto runtime = GenerateRuntimeProgram(prog, cc, config, &counters);
  out->plan_gen_ms = MsSince(t0);
  if (!runtime.ok()) return false;
  t0 = Clock::now();
  CostModel model(cc);
  double cost = model.EstimateProgramCost(*runtime);
  out->estimate_ms = MsSince(t0);
  return std::isfinite(cost) && cost > 0.0;
}

void ReportCompileProbes(const std::vector<CompileProbe>& probes,
                         Report* report) {
  if (probes.empty()) return;
  CompileProbe sum;
  for (const CompileProbe& p : probes) {
    sum.parse_ms += p.parse_ms;
    sum.frontend_ms += p.frontend_ms;
    sum.analyze_ms += p.analyze_ms;
    sum.plan_gen_ms += p.plan_gen_ms;
    sum.estimate_ms += p.estimate_ms;
    sum.hops += p.hops;
  }
  const double n = static_cast<double>(probes.size());
  report->Set("lang.parse_ms", sum.parse_ms / n);
  report->Set("hops.frontend_ms", sum.frontend_ms / n);
  report->Set("hops.hops_per_program", static_cast<double>(sum.hops) / n);
  report->Set("analysis.analyze_ms", sum.analyze_ms / n);
  report->Set("lops.plan_gen_ms", sum.plan_gen_ms / n);
  report->Set("cost.estimate_ms", sum.estimate_ms / n);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "compile-path probes over %zu programs (mean ms): parse=%.3f "
                "frontend=%.3f analyze=%.3f plan_gen=%.3f estimate=%.3f",
                probes.size(), sum.parse_ms / n, sum.frontend_ms / n,
                sum.analyze_ms / n, sum.plan_gen_ms / n, sum.estimate_ms / n);
  report->Note(buf);
}

OptSummary SummarizeOptimizer(const OptimizerStats& s) {
  OptSummary o;
  o.block_compiles = static_cast<double>(s.block_recompiles);
  o.cost_invocations = static_cast<double>(s.cost_invocations);
  o.grid_points = static_cast<double>(s.trace.grid_points.size());
  o.remaining_frac = s.total_generic_blocks > 0
                         ? static_cast<double>(s.remaining_blocks_after_pruning) /
                               s.total_generic_blocks
                         : 0.0;
  return o;
}

void ReportOptimizerStats(const std::vector<OptSummary>& stats,
                          Report* report) {
  if (stats.empty()) return;
  OptSummary sum;
  for (const OptSummary& s : stats) {
    sum.block_compiles += s.block_compiles;
    sum.cost_invocations += s.cost_invocations;
    sum.grid_points += s.grid_points;
    sum.remaining_frac += s.remaining_frac;
  }
  const double n = static_cast<double>(stats.size());
  report->Set("lops.block_compiles", sum.block_compiles / n);
  report->Set("cost.invocations", sum.cost_invocations / n);
  report->Set("core.grid_points", sum.grid_points / n);
  report->Set("core.blocks_remaining_frac", sum.remaining_frac / n);
}

void ReportPlanCache(const PlanCache::Stats& d, Report* report) {
  auto ratio = [](int64_t hits, int64_t misses) {
    int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  };
  report->Set("core.program_hit_ratio",
              ratio(d.program_hits, d.program_misses));
  report->Set("core.whatif_hit_ratio", ratio(d.whatif_hits, d.whatif_misses));
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "plan cache: program %lld hits / %lld lookups, what-if %lld "
                "hits / %lld lookups, %lld evictions",
                static_cast<long long>(d.program_hits),
                static_cast<long long>(d.program_hits + d.program_misses),
                static_cast<long long>(d.whatif_hits),
                static_cast<long long>(d.whatif_hits + d.whatif_misses),
                static_cast<long long>(d.evictions));
  report->Note(buf);
}

}  // namespace perfbench
