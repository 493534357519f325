// train_real: real training on seeded in-memory data. One client in a
// closed loop; each job is compile -> optimize -> ExecuteReal at 4
// engine workers under the granted CP budget. One job class runs under
// a budget below its resident working set, so the MemoryManager spills
// and reloads. Kernels and the engine do almost all the work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/random.h"
#include "exec/worker_pool.h"
#include "harness.h"
#include "matrix/kernels.h"
#include "obs/trace.h"

namespace perfbench {

using namespace relm;  // NOLINT — benchmark brevity

namespace {

constexpr int kWorkers = 4;

enum class Kind { kRegression, kSvm, kMultinomial, kPoisson };

struct ClassSpec {
  const char* name;
  const char* script;
  Kind kind;
  int64_t rows;
  int64_t cols;
  double sparsity;
  ScriptArgs extra;
  /// Runs under a fixed budget below the resident working set instead
  /// of the granted CP budget (bytes; 0 = granted budget).
  int64_t spill_budget;
};

// The fixed job classes of one cycle. Rows get a seeded jitter.
const std::vector<ClassSpec>& Classes() {
  static const std::vector<ClassSpec> kClasses = {
      {"linreg_ds_dense", "linreg_ds.dml", Kind::kRegression, 40000, 50, 1.0,
       {}, 0},
      {"linreg_ds_sparse", "linreg_ds.dml", Kind::kRegression, 100000, 50,
       0.2, {}, 0},
      {"linreg_cg_sparse", "linreg_cg.dml", Kind::kRegression, 30000, 50,
       0.2, {{"maxi", "100"}}, 0},
      {"l2svm_dense", "l2svm.dml", Kind::kSvm, 10000, 50, 1.0,
       {{"maxiter", "8"}}, 0},
      {"mlogreg_dense", "mlogreg.dml", Kind::kMultinomial, 20000, 20, 1.0,
       {{"moi", "6"}, {"mii", "5"}}, 0},
      {"glm_poisson_dense", "glm.dml", Kind::kPoisson, 20000, 10, 1.0,
       {{"icpt", "1"}, {"moi", "5"}, {"mii", "10"}}, 0},
      {"linreg_cg_spill", "linreg_cg.dml", Kind::kRegression, 20000, 50, 1.0,
       {{"maxi", "100"}}, 6 << 20},
  };
  return kClasses;
}

// Output-check thresholds on the planted data, computed by the
// benchmark's own loops (never by the code under test).
constexpr double kMaxNormalEqResidual = 1e-6;
constexpr double kMinSvmAccuracy = 0.95;
constexpr double kMinMultinomialAccuracy = 0.85;
constexpr double kMinPoissonPseudoR2 = 0.5;

// One class's data, kept as plain arrays for the checks.
struct Data {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<double> x;  // row-major, zeros included
  std::vector<double> y;
};

Data Generate(const ClassSpec& spec, uint64_t seed, int index) {
  Random rng(seed * 104729ULL + static_cast<uint64_t>(index));
  Data d;
  d.rows = spec.rows + static_cast<int64_t>(rng.NextBelow(500));
  d.cols = spec.cols;
  d.x.assign(static_cast<size_t>(d.rows * d.cols), 0.0);
  for (double& v : d.x) {
    if (spec.sparsity >= 1.0 || rng.NextDouble() < spec.sparsity) {
      v = rng.Uniform(-1.0, 1.0);
    }
  }
  const int k = spec.kind == Kind::kMultinomial ? 3 : 1;
  const double scale = spec.kind == Kind::kPoisson ? 0.3 : 2.0;
  std::vector<double> w(static_cast<size_t>(d.cols * k));
  for (double& v : w) v = rng.Uniform(-scale, scale);
  d.y.resize(static_cast<size_t>(d.rows));
  for (int64_t i = 0; i < d.rows; ++i) {
    const double* row = &d.x[static_cast<size_t>(i * d.cols)];
    double score[3] = {0.0, 0.0, 0.0};
    for (int c = 0; c < k; ++c) {
      for (int64_t j = 0; j < d.cols; ++j) score[c] += row[j] * w[j * k + c];
    }
    switch (spec.kind) {
      case Kind::kRegression:
        d.y[i] = score[0] + rng.Uniform(-0.01, 0.01);
        break;
      case Kind::kSvm:
        d.y[i] = score[0] > 0.0 ? 1.0 : -1.0;
        break;
      case Kind::kMultinomial:
        d.y[i] = 1.0 + static_cast<double>(
                           std::max_element(score, score + 3) - score);
        break;
      case Kind::kPoisson:
        d.y[i] = std::max(0.0, std::round(std::exp(score[0] + 1.0) +
                                          rng.Uniform(-0.5, 0.5)));
        break;
    }
  }
  return d;
}

MatrixBlock ToBlock(const Data& d, bool sparse) {
  if (!sparse) {
    MatrixBlock block(d.rows, d.cols);
    block.dense() = d.x;
    return block;
  }
  std::vector<int64_t> row_ptr{0};
  std::vector<int32_t> col_idx;
  std::vector<double> values;
  for (int64_t i = 0; i < d.rows; ++i) {
    for (int64_t j = 0; j < d.cols; ++j) {
      double v = d.x[static_cast<size_t>(i * d.cols + j)];
      if (v != 0.0) {
        col_idx.push_back(static_cast<int32_t>(j));
        values.push_back(v);
      }
    }
    row_ptr.push_back(static_cast<int64_t>(values.size()));
  }
  return MatrixBlock::FromCsr(d.rows, d.cols, std::move(row_ptr),
                              std::move(col_idx), std::move(values));
}

std::vector<double> Flatten(const MatrixBlock& m) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(m.rows() * m.cols()));
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) out.push_back(m.Get(i, j));
  }
  return out;
}

// Checks a trained model on its planted data; returns "" when it
// passes, else what failed. `model` is row-major (cols x k).
std::string CheckModel(const ClassSpec& spec, const Data& d,
                       const MatrixBlock& block) {
  const std::vector<double> b = Flatten(block);
  const int64_t n = d.rows, m = d.cols;
  char buf[160];
  auto row = [&](int64_t i) { return &d.x[static_cast<size_t>(i * m)]; };
  switch (spec.kind) {
    case Kind::kRegression: {
      // Normal equations: || X'(X b - y) + lambda b || / || X'y ||.
      if (block.rows() != m || block.cols() != 1) return "model shape";
      const double lambda = 0.01;
      std::vector<double> g(static_cast<size_t>(m), 0.0);
      std::vector<double> xty(static_cast<size_t>(m), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        double xb = 0.0;
        for (int64_t j = 0; j < m; ++j) xb += row(i)[j] * b[j];
        for (int64_t j = 0; j < m; ++j) {
          g[j] += row(i)[j] * (xb - d.y[i]);
          xty[j] += row(i)[j] * d.y[i];
        }
      }
      double num = 0.0, den = 0.0;
      for (int64_t j = 0; j < m; ++j) {
        num += (g[j] + lambda * b[j]) * (g[j] + lambda * b[j]);
        den += xty[j] * xty[j];
      }
      const double rel = std::sqrt(num / den);
      if (rel <= kMaxNormalEqResidual) return "";
      std::snprintf(buf, sizeof(buf), "normal-equation residual %.3g > %.1g",
                    rel, kMaxNormalEqResidual);
      return buf;
    }
    case Kind::kSvm: {
      if (block.rows() != m || block.cols() != 1) return "model shape";
      int64_t right = 0;
      for (int64_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (int64_t j = 0; j < m; ++j) s += row(i)[j] * b[j];
        right += (s > 0.0 ? 1.0 : -1.0) == d.y[i];
      }
      const double acc = static_cast<double>(right) / n;
      if (acc >= kMinSvmAccuracy) return "";
      std::snprintf(buf, sizeof(buf), "training accuracy %.4f < %.2f", acc,
                    kMinSvmAccuracy);
      return buf;
    }
    case Kind::kMultinomial: {
      if (block.rows() != m || block.cols() != 3) return "model shape";
      int64_t right = 0;
      for (int64_t i = 0; i < n; ++i) {
        double s[3] = {0.0, 0.0, 0.0};
        for (int c = 0; c < 3; ++c) {
          for (int64_t j = 0; j < m; ++j) s[c] += row(i)[j] * b[j * 3 + c];
        }
        right += 1.0 + (std::max_element(s, s + 3) - s) == d.y[i];
      }
      const double acc = static_cast<double>(right) / n;
      if (acc >= kMinMultinomialAccuracy) return "";
      std::snprintf(buf, sizeof(buf), "training accuracy %.4f < %.2f", acc,
                    kMinMultinomialAccuracy);
      return buf;
    }
    case Kind::kPoisson: {
      // Intercept is the last coefficient; deviance against the
      // intercept-only model.
      if (block.rows() != m + 1 || block.cols() != 1) return "model shape";
      double mean = 0.0;
      for (double v : d.y) mean += v;
      mean /= static_cast<double>(n);
      auto unit_dev = [](double y, double mu) {
        return 2.0 * ((y > 0.0 ? y * std::log(y / mu) : 0.0) - (y - mu));
      };
      double dev = 0.0, dev_null = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        double eta = b[m];
        for (int64_t j = 0; j < m; ++j) eta += row(i)[j] * b[j];
        dev += unit_dev(d.y[i], std::exp(eta));
        dev_null += unit_dev(d.y[i], mean);
      }
      const double r2 = 1.0 - dev / dev_null;
      if (r2 >= kMinPoissonPseudoR2) return "";
      std::snprintf(buf, sizeof(buf), "deviance pseudo-R2 %.4f < %.2f", r2,
                    kMinPoissonPseudoR2);
      return buf;
    }
  }
  return "unknown class";
}

bool BitwiseEqual(const MatrixBlock& a, const MatrixBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      double x = a.Get(i, j), y = b.Get(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

struct ClassState {
  std::string source;
  std::string prefix;
  ScriptArgs args;
  Data data;
  std::shared_ptr<const MatrixBlock> reference;  // 1 worker, unbudgeted
  double reference_ms = 0.0;
  std::string error;  // reference run failure
};

struct State {
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<Session> session;
  std::vector<ClassState> classes;
};

std::shared_ptr<const MatrixBlock> Model(Session& session,
                                         const std::string& prefix) {
  auto file = session.hdfs().Get(prefix + "/B");
  return file.ok() ? file->data : nullptr;
}

// Data generation, the 1-worker unbudgeted reference run of every
// class, and a warm-up at the timed worker count.
std::unique_ptr<State> Setup(const Args& args) {
  auto state = std::make_unique<State>();
  state->cache = std::make_unique<PlanCache>();
  state->session = std::make_unique<Session>(
      ClusterConfig::PaperCluster(),
      SessionOptions().WithPlanCache(state->cache.get()));
  Session& session = *state->session;
  exec::SetWorkers(1);
  for (size_t c = 0; c < Classes().size(); ++c) {
    const ClassSpec& spec = Classes()[c];
    ClassState cs;
    cs.source = ReadScript(args, spec.script);
    cs.prefix = "/tr/" + std::to_string(c);
    cs.args = ScriptArgsFor(cs.prefix);
    for (const auto& [k, v] : spec.extra) cs.args[k] = v;
    cs.data = Generate(spec, args.seed, static_cast<int>(c));
    (void)session.RegisterMatrix(cs.prefix + "/X",
                                 ToBlock(cs.data, spec.sparsity < 1.0));
    MatrixBlock y(cs.data.rows, 1);
    y.dense() = cs.data.y;
    (void)session.RegisterMatrix(cs.prefix + "/y", std::move(y));
    auto prog = session.CompileSource(cs.source, cs.args);
    if (!prog.ok()) {
      cs.error = prog.status().ToString();
    } else {
      auto t0 = Clock::now();
      auto run = session.ExecuteReal(prog->get(),
                                     RealRunOptions().WithWorkers(1));
      cs.reference_ms = MsSince(t0);
      if (!run.ok()) cs.error = run.status().ToString();
      cs.reference = Model(session, cs.prefix);
    }
    state->classes.push_back(std::move(cs));
  }
  exec::SetWorkers(kWorkers);
  // Warm-up: spin up the pool on the smallest class.
  const ClassState& warm = state->classes[0];
  auto prog = session.CompileSource(warm.source, warm.args);
  if (prog.ok()) {
    (void)session.ExecuteReal(prog->get(),
                              RealRunOptions().WithWorkers(kWorkers));
  }
  return state;
}

struct Done {
  int cls = 0;
  double latency_ms = 0.0;
  double exec_ms = 0.0;
  std::string error;
  std::shared_ptr<const MatrixBlock> model;
  exec::ExecStats exec;
};

void AddStats(const exec::ExecStats& s, exec::ExecStats* sum) {
  sum->parallel_blocks += s.parallel_blocks;
  sum->serial_blocks += s.serial_blocks;
  sum->tasks_scheduled += s.tasks_scheduled;
  sum->evictions += s.evictions;
  sum->spill_bytes += s.spill_bytes;
  sum->reload_bytes += s.reload_bytes;
  sum->high_water_bytes = std::max(sum->high_water_bytes, s.high_water_bytes);
}

// Median seconds of `reps` calls of fn.
template <typename F>
double TimeKernel(int reps, F&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

// Direct kernel calls on a dense class's shape at kWorkers workers,
// also as fractions of the host probe's ceilings.
void ReportKernels(const Data& d, Report* report) {
  MatrixBlock x = ToBlock(d, false);
  MatrixBlock xt = Transpose(x);
  const double n = static_cast<double>(d.rows), m = static_cast<double>(d.cols);
  const double bytes = 8.0 * n * m;
  double mm = TimeKernel(5, [&] { (void)MatMult(xt, x); });
  double ew = TimeKernel(5, [&] { (void)ElementwiseBinary(BinOp::kMul, x, x); });
  double ra = TimeKernel(5, [&] { (void)AggregateAxis(AggOp::kSum, AggDir::kRow, x); });
  const double gflops = 2.0 * n * m * m / mm / 1e9;
  const double ew_gbps = 3.0 * bytes / ew / 1e9;  // two reads, one write
  const double ra_gbps = bytes / ra / 1e9;
  report->Set("matrix.matmult_gflops", gflops);
  report->Set("matrix.elementwise_gbps", ew_gbps);
  report->Set("matrix.rowagg_gbps", ra_gbps);
  report->Set("matrix.matmult_peak_frac",
              gflops / report->Get("host.fma_gflops"));
  report->Set("matrix.elementwise_peak_frac",
              ew_gbps / report->Get("host.copy_gbps"));
  report->Set("matrix.rowagg_peak_frac",
              ra_gbps / report->Get("host.copy_gbps"));
}

}  // namespace

void RunTrainReal(const Args& args, Report* report) {
  std::unique_ptr<State> state =
      RepeatedSetup([&] { return Setup(args); }, report);
  for (size_t c = 0; c < state->classes.size(); ++c) {
    const ClassState& cs = state->classes[c];
    if (!cs.error.empty() || cs.reference == nullptr) {
      report->Fail(std::string("reference run of ") + Classes()[c].name +
                   " failed: " + cs.error);
      return;
    }
  }
  Session& session = *state->session;
  const int num_classes = static_cast<int>(Classes().size());

  // Closed loop in whole cycles, each a seeded order of the classes.
  ClosedLoop loop(args, num_classes);
  std::vector<Done> done;
  LayerSelf layers;
  std::vector<OptSummary> opt_stats;
  PlanCache::Stats cache_before = state->cache->stats();
  Random order(args.seed ^ 0x7A11ULL);
  std::vector<int> cycle(num_classes);
  size_t first_traced = 0;
  for (int64_t index = 0;; ++index) {
    const bool was_tracing = loop.tracing();
    if (!loop.Next()) break;
    if (loop.tracing() && !was_tracing) {
      cache_before = state->cache->stats();
      first_traced = done.size();
    }
    if (index % num_classes == 0) {
      for (int i = 0; i < num_classes; ++i) cycle[i] = i;
      for (int i = num_classes - 1; i > 0; --i) {
        std::swap(cycle[i],
                  cycle[order.NextBelow(static_cast<uint64_t>(i) + 1)]);
      }
    }
    Done d;
    d.cls = cycle[index % num_classes];
    const ClassSpec& spec = Classes()[d.cls];
    const ClassState& cs = state->classes[d.cls];
    const auto t0 = Clock::now();
    {
      obs::ScopedSpan job_span("bench.job");
      Result<std::unique_ptr<MlProgram>> prog = Status::Internal("unset");
      {
        obs::ScopedSpan span("bench.compile");
        prog = session.CompileSource(cs.source, cs.args);
      }
      Result<OptimizeOutcome> outcome = Status::Internal("unset");
      if (prog.ok()) {
        obs::ScopedSpan span("bench.optimize");
        outcome = session.Optimize(prog->get());
      }
      if (!prog.ok() || !outcome.ok()) {
        d.error = !prog.ok() ? prog.status().ToString()
                             : outcome.status().ToString();
      } else {
        const int64_t budget = spec.spill_budget > 0
                                   ? spec.spill_budget
                                   : outcome->config.CpBudget();
        obs::ScopedSpan span("bench.execute");
        const auto e0 = Clock::now();
        auto run = session.ExecuteReal(prog->get(), RealRunOptions()
                                                        .WithWorkers(kWorkers)
                                                        .WithMemoryBudget(budget));
        d.exec_ms = MsSince(e0);
        if (run.ok()) {
          d.exec = run->exec;
          d.model = Model(session, cs.prefix);
        } else {
          d.error = run.status().ToString();
        }
        if (loop.tracing()) opt_stats.push_back(SummarizeOptimizer(outcome->stats));
      }
    }
    d.latency_ms = MsSince(t0);
    loop.Record(d.latency_ms);
    if (loop.tracing()) CollectLayerSelf("bench.job", &layers);
    done.push_back(std::move(d));
  }
  obs::Tracer::Global().SetEnabled(false);
  report->Set("peak_rss_mb", PeakRssMb());
  const PlanCache::Stats cache_delta =
      StatsDelta(cache_before, state->cache->stats());

  // Output checks: the reference model of every class passes the
  // benchmark's own quality check on its planted data, and every timed
  // model is bitwise equal to its class's reference.
  std::vector<std::string> class_error(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    class_error[c] = CheckModel(Classes()[c], state->classes[c].data,
                                *state->classes[c].reference);
    if (!class_error[c].empty()) {
      report->Fail(std::string(Classes()[c].name) + ": " + class_error[c]);
    }
  }
  int64_t verified = 0;
  for (const Done& d : done) {
    std::string why = d.error;
    if (why.empty() && (d.model == nullptr ||
                        !BitwiseEqual(*d.model, *state->classes[d.cls].reference))) {
      why = "model differs from the 1-worker unbudgeted reference";
    }
    if (why.empty()) why = class_error[d.cls];
    report->CountJob(!why.empty());
    if (why.empty()) {
      ++verified;
    } else if (report->failures().size() < 8) {
      report->Fail(std::string(Classes()[d.cls].name) + ": " + why);
    }
  }

  // opt_regret audit: every class's program at its real shape, simulated
  // under the optimizer's configuration and the static baselines.
  std::vector<std::string> labels;
  std::vector<double> ratios;
  SimulateTimer sim_timer;
  for (int c = 0; c < num_classes; ++c) {
    const ClassState& cs = state->classes[c];
    auto prog = session.CompileSource(cs.source, cs.args);
    if (!prog.ok()) continue;
    auto outcome = session.Optimize(prog->get());
    if (!outcome.ok()) continue;
    double ratio = RegretRatio(&session, **prog, outcome->config,
                               OracleFor(Classes()[c].script, cs.data.rows),
                               &sim_timer);
    if (ratio <= 0.0) {
      report->Fail(std::string("audit: simulation failed for ") +
                   Classes()[c].name);
      continue;
    }
    labels.push_back(Classes()[c].name);
    ratios.push_back(ratio);
  }
  ReportRegret(labels, ratios, sim_timer, report);

  report->Set("ok_frac", done.empty() ? 0.0
                                      : static_cast<double>(verified) /
                                            static_cast<double>(done.size()));
  loop.ReportEndToEnd(report);

  // Per-class latency and engine counters.
  std::vector<std::vector<double>> class_exec_ms(num_classes);
  for (const Done& d : done) class_exec_ms[d.cls].push_back(d.exec_ms);
  for (int c = 0; c < num_classes; ++c) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "class %-18s rows=%lld exec p50=%.2fms (n=%zu) reference "
                  "1-worker=%.2fms",
                  Classes()[c].name,
                  static_cast<long long>(state->classes[c].data.rows),
                  Median(class_exec_ms[c]), class_exec_ms[c].size(),
                  state->classes[c].reference_ms);
    report->Note(buf);
  }

  if (args.trace) {
    const double jobs = std::max<double>(1.0, loop.traced_ms().size());
    report->Set("obs.trace_overhead_frac",
                Median(loop.traced_ms()) / loop.UntracedP50() - 1.0);
    report->Set("core.optimize_ms", layers.span_ms["bench.optimize"] / jobs);
    report->Set("exec.run_ms", layers.span_ms["bench.execute"] / jobs);
    exec::ExecStats sum;
    int64_t traced = 0;
    for (size_t i = first_traced; i < done.size(); ++i) {
      AddStats(done[i].exec, &sum);
      ++traced;
    }
    const double t = std::max<int64_t>(1, traced);
    report->Set("exec.tasks_scheduled", sum.tasks_scheduled / t);
    report->Set("exec.parallel_blocks", sum.parallel_blocks / t);
    report->Set("exec.serial_blocks", sum.serial_blocks / t);
    report->Set("exec.us_per_task",
                sum.tasks_scheduled > 0
                    ? 1e3 * layers.span_ms["bench.execute"] / sum.tasks_scheduled
                    : 0.0);
    report->Set("exec.spill_bytes", sum.spill_bytes / t);
    report->Set("exec.reload_bytes", sum.reload_bytes / t);
    report->Set("exec.evictions", sum.evictions / t);
    report->Set("exec.high_water_mb", sum.high_water_bytes / 1048576.0);
    // Parallel efficiency over the unbudgeted classes: 1-worker
    // reference time / (workers x 4-worker time).
    double t1 = 0.0, t4 = 0.0;
    for (int c = 0; c < num_classes; ++c) {
      if (Classes()[c].spill_budget > 0) continue;
      t1 += state->classes[c].reference_ms;
      t4 += Median(class_exec_ms[c]);
    }
    report->Set("exec.parallel_efficiency",
                t4 > 0.0 ? t1 / (kWorkers * t4) : 0.0);
    ReportOptimizerStats(opt_stats, report);
    ReportPlanCache(cache_delta, report);
    // Compile-path probes on every class (metadata of the real inputs).
    std::vector<CompileProbe> probes;
    for (int c = 0; c < num_classes; ++c) {
      const ClassState& cs = state->classes[c];
      CompileProbe probe;
      if (ProbeCompileLayers(cs.source, cs.args, session.hdfs(),
                             session.cluster(), ResourceConfig(), &probe)) {
        probes.push_back(probe);
      }
    }
    ReportCompileProbes(probes, report);
    ReportKernels(state->classes[0].data, report);
    ReportLayers(layers, loop.traced_ms(), report);
  }
}

}  // namespace perfbench
