// serve_open: an open loop of seeded Poisson arrivals on a fixed rate
// ladder into one JobService (3 workers, cost-aware scheduler, a quota
// on the batch tenant). Three tenants share the service:
//   svc   deadline jobs repeating a few programs (plan-cache hits),
//   batch over-quota jobs on novel shapes (plan-cache misses),
//   real  tiny execute_real jobs, where dispatch dominates the kernel.
// Latency is timed from each job's scheduled send time. The ladder
// stops at the first rung whose tail latency exceeds the limit or whose
// backlog does not drain within the limit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "common/random.h"
#include "exec/worker_pool.h"
#include "harness.h"
#include "obs/trace.h"
#include "serve/job_service.h"

namespace perfbench {

using namespace relm;  // NOLINT — benchmark brevity

namespace {

constexpr int kServiceWorkers = 3;
constexpr int kExecWorkers = 4;
// Offered load per rung (jobs per second) and the latency limit on the
// tail percentile. The first rung, well below capacity, is the
// reference load that gives job_p50_ms / job_tail_ms / jobs_per_s.
constexpr double kRates[] = {40, 80, 160, 320};
constexpr int kNumRungs = sizeof(kRates) / sizeof(kRates[0]);
constexpr int kRefWindows = 3;
constexpr double kLatencyLimitMs = 250.0;
constexpr double kSvcDeadlineS = 10.0;
// Batch jobs whose configuration a fresh optimizer re-derives after the
// run (the first 12 also enter the opt_regret audit).
constexpr size_t kAuditedBatch = 48;
// Tenant pattern of every 10 arrivals (shuffled by seed).
constexpr int kSvcPer10 = 5, kRealPer10 = 3;

enum class Tenant { kSvc, kBatch, kReal };
const char* TenantName(Tenant t) {
  return t == Tenant::kSvc ? "svc" : t == Tenant::kBatch ? "batch" : "real";
}

struct Program {
  std::string script;
  std::string prefix;
  MetaInput input;
};

// The svc tenant's repeated programs (paper-scale metadata).
std::vector<Program> SvcPrograms() {
  return {{"linreg_ds.dml", "/svc/0", {10000, 1000, 1.0}},
          {"linreg_cg.dml", "/svc/1", {1000000, 100, 1.0}},
          {"l2svm.dml", "/svc/2", {100000, 100, 0.01}},
          {"mlogreg.dml", "/svc/3", {1000000, 100, 1.0}}};
}

// The real tenant's programs on tiny in-memory data.
std::vector<Program> RealPrograms() {
  return {{"linreg_ds.dml", "/real/0", {200, 8, 1.0}},
          {"l2svm.dml", "/real/1", {200, 8, 1.0}}};
}

// Batch programs cycle through kBatchKinds kinds (script x shape x the M
// or L scenario); every rung starts the cycle afresh, so equally long
// rungs get the same batch mix.
constexpr int kBatchKinds = 40;

// Batch job number `n` (unique over the run) of kind `kind`: a novel
// shape with jittered rows, reading its own paths.
Program BatchProgram(uint64_t seed, int64_t n, int kind) {
  static const int64_t kCells[] = {1'000'000'000LL, 10'000'000'000LL};
  static const MetaInput kShapes[] = {
      {0, 1000, 1.0}, {0, 1000, 0.01}, {0, 100, 1.0}, {0, 100, 0.01}};
  Random jitter(seed * 31337ULL + static_cast<uint64_t>(n));
  Program p;
  p.script = ScriptNames()[kind % 5];
  p.input = kShapes[(kind / 5) % 4];
  p.input.rows = kCells[(kind / 20) % 2] / p.input.cols -
                 static_cast<int64_t>(jitter.NextBelow(5000));
  p.prefix = "/batch/" + std::to_string(n);
  return p;
}

struct Reference {
  ResourceConfig config;
  std::vector<std::string> printed;  // real programs only
};

struct State {
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<serve::JobService> service;
  std::map<std::string, std::string> sources;
  std::vector<Reference> svc_ref, real_ref;
  std::string error;
};

MatrixBlock TinyData(int64_t rows, int64_t cols, uint64_t seed, bool labels,
                     MatrixBlock* y) {
  Random rng(seed);
  MatrixBlock x(rows, cols);
  *y = MatrixBlock(rows, 1);
  for (int64_t i = 0; i < rows; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      double v = rng.Uniform(-1.0, 1.0);
      x.Set(i, j, v);
      s += (j % 2 == 0 ? 1.0 : -0.5) * v;
    }
    y->Set(i, 0, labels ? (s > 0.0 ? 1.0 : -1.0) : s);
  }
  return x;
}

serve::JobRequest Request(const State& state, Tenant tenant,
                          const Program& p) {
  serve::JobRequest req;
  req.source = state.sources.at(p.script);
  req.args = ScriptArgsFor(p.prefix);
  if (tenant != Tenant::kReal) {
    req.inputs = {{p.prefix + "/X", p.input.rows, p.input.cols,
                   p.input.sparsity},
                  {p.prefix + "/y", p.input.rows, 1, 1.0}};
    req.oracle = OracleFor(p.script, p.input.rows);
  }
  req.execute_real = tenant == Tenant::kReal;
  if (tenant == Tenant::kSvc) {
    req.deadline_seconds = kSvcDeadlineS;
    req.priority = 2;
  }
  return req;
}

// Service start, real-input registration, reference configurations and
// printed output from a private uncached session, and a warm-up that
// puts every svc and real program into the service's plan cache and
// runs one batch job per script.
std::unique_ptr<State> Setup(const Args& args) {
  auto state = std::make_unique<State>();
  for (const std::string& name : ScriptNames()) {
    state->sources[name] = ReadScript(args, name);
  }
  // Sized so the batch tenant's novel programs cannot evict the svc
  // tenant's repeated ones during a run.
  PlanCache::Options cache_options;
  cache_options.max_programs = 2048;
  cache_options.max_whatif_entries = 1 << 16;
  state->cache = std::make_unique<PlanCache>(cache_options);
  state->service = std::make_unique<serve::JobService>(
      ClusterConfig::PaperCluster(),
      serve::ServeOptions()
          .WithWorkers(kServiceWorkers)
          .WithScheduler(sched::SchedulerPolicy::kCostAware)
          .WithTenantQuota("batch", sched::TenantQuota{2LL << 30, 2})
          .WithExecWorkers(kExecWorkers)
          .WithMaxPendingJobs(4096)
          .WithMaxQueuedPerTenant(4096)
          .WithPlanCache(state->cache.get()));
  serve::JobService& service = *state->service;
  Session reference(ClusterConfig::PaperCluster(),
                    SessionOptions().WithPlanCacheEnabled(false));
  const std::vector<Program> real = RealPrograms();
  for (size_t i = 0; i < real.size(); ++i) {
    MatrixBlock y;
    MatrixBlock x = TinyData(real[i].input.rows, real[i].input.cols,
                             args.seed + i, real[i].script == "l2svm.dml", &y);
    (void)reference.RegisterMatrix(real[i].prefix + "/X", x);
    (void)reference.RegisterMatrix(real[i].prefix + "/y", y);
    (void)service.session().RegisterMatrix(real[i].prefix + "/X",
                                           std::move(x));
    (void)service.session().RegisterMatrix(real[i].prefix + "/y",
                                           std::move(y));
  }
  auto make_reference = [&](const Program& p, bool execute) {
    Reference ref;
    if (!execute) RegisterMeta(&reference, p.prefix, p.input);
    auto prog = reference.CompileSource(state->sources[p.script],
                                        ScriptArgsFor(p.prefix));
    if (!prog.ok()) {
      state->error = prog.status().ToString();
      return ref;
    }
    auto outcome = reference.Optimize(prog->get());
    if (!outcome.ok()) {
      state->error = outcome.status().ToString();
      return ref;
    }
    ref.config = outcome->config;
    if (execute) {
      auto run = reference.ExecuteReal(prog->get(),
                                       RealRunOptions().WithWorkers(1));
      if (!run.ok()) state->error = run.status().ToString();
      if (run.ok()) ref.printed = run->printed;
    }
    return ref;
  };
  for (const Program& p : SvcPrograms()) {
    state->svc_ref.push_back(make_reference(p, false));
  }
  for (const Program& p : real) {
    state->real_ref.push_back(make_reference(p, true));
  }
  std::vector<serve::JobHandle> warm;
  for (const Program& p : SvcPrograms()) {
    auto h = service.Submit("svc", Request(*state, Tenant::kSvc, p));
    if (h.ok()) warm.push_back(*h);
  }
  for (const Program& p : real) {
    auto h = service.Submit("real", Request(*state, Tenant::kReal, p));
    if (h.ok()) warm.push_back(*h);
  }
  for (int kind = 0; kind < 5; ++kind) {  // one batch job per script
    Program p = BatchProgram(args.seed, 0, kind);
    p.prefix = "/warm/" + std::to_string(kind);
    auto h = service.Submit("batch", Request(*state, Tenant::kBatch, p));
    if (h.ok()) warm.push_back(*h);
  }
  for (serve::JobHandle& h : warm) {
    auto outcome = h.Await();
    if (!outcome.ok()) state->error = outcome.status().ToString();
  }
  return state;
}

struct Sent {
  Tenant tenant = Tenant::kSvc;
  int program = 0;          // index into the tenant's programs
  int64_t batch_index = -1;  // batch jobs only: unique number and kind
  int batch_kind = 0;
  double scheduled_s = 0.0;  // relative to the rung start
  double lag_ms = 0.0;
  double latency_ms = 0.0;
  serve::JobHandle handle;
  Result<serve::JobOutcome> outcome = Status::Internal("pending");
  OptSummary opt;
  bool done = false;
};

struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Sent> jobs;
  double span_s = 0.0;   // first scheduled send to last completion
  double drain_ms = 0.0; // last scheduled send to last completion
  bool refused = false;  // a submission was rejected
  int queue_max = 0;     // most jobs queued at any send
  bool overloaded = false;  // sending stopped on a growing backlog
  Tail latency;
  bool passed = false;
};

// Runs one rung: seeded arrivals conditioned on the rung's job count
// (exponential gaps scaled to the rung length), sent from this thread,
// which also polls for completions between sends.
void RunRung(State& state, uint64_t seed, int attempt_id, double rate,
             double seconds, int64_t* next_batch, Rung* rung) {
  serve::JobService& service = *state.service;
  Random rng(seed * 9973ULL + static_cast<uint64_t>(attempt_id));
  const int n = std::max(1, static_cast<int>(std::lround(rate * seconds)));
  std::vector<double> gaps(n + 1);
  double total = 0.0;
  for (double& g : gaps) {
    g = -std::log(1.0 - rng.NextDouble());
    total += g;
  }
  std::vector<Tenant> pattern;
  for (int i = 0; i < 10; ++i) {
    pattern.push_back(i < kSvcPer10 ? Tenant::kSvc
                      : i < kSvcPer10 + kRealPer10 ? Tenant::kReal
                                                   : Tenant::kBatch);
  }
  rung->rate = rate;
  rung->seconds = seconds;
  rung->jobs.resize(n);
  // svc and real jobs cycle through their programs from a seeded start.
  int64_t svc_count = static_cast<int64_t>(rng.NextBelow(4));
  int64_t real_count = static_cast<int64_t>(rng.NextBelow(2));
  int batch_count = 0;
  double at = 0.0;
  for (int i = 0; i < n; ++i) {
    if (i % 10 == 0) {
      for (int k = 9; k > 0; --k) {
        std::swap(pattern[k], pattern[rng.NextBelow(k + 1)]);
      }
    }
    at += gaps[i];
    Sent& s = rung->jobs[i];
    s.scheduled_s = seconds * at / total;
    s.tenant = pattern[i % 10];
    if (s.tenant == Tenant::kSvc) {
      s.program = static_cast<int>(svc_count++ % SvcPrograms().size());
    } else if (s.tenant == Tenant::kReal) {
      s.program = static_cast<int>(real_count++ % RealPrograms().size());
    } else {
      s.batch_index = (*next_batch)++;
      s.batch_kind = batch_count++ % kBatchKinds;
    }
  }
  const std::vector<Program> svc = SvcPrograms(), real = RealPrograms();
  // Requests are built before the clock starts.
  std::vector<serve::JobRequest> requests(n);
  for (int i = 0; i < n; ++i) {
    const Sent& s = rung->jobs[i];
    const Program p = s.tenant == Tenant::kSvc    ? svc[s.program]
                      : s.tenant == Tenant::kReal ? real[s.program]
                                                  : BatchProgram(seed, s.batch_index,
                                                                 s.batch_kind);
    requests[i] = Request(state, s.tenant, p);
  }
  size_t next = 0;
  size_t first_pending = 0;  // every job before it is done
  int outstanding = 0;
  double last_done_s = 0.0;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto poll = [&] {
    while (first_pending < next && rung->jobs[first_pending].done) {
      ++first_pending;
    }
    for (size_t i = first_pending; i < next; ++i) {
      Sent& s = rung->jobs[i];
      if (s.done) continue;
      const serve::JobState st = s.handle.state();
      if (st == serve::JobState::kQueued || st == serve::JobState::kRunning) {
        continue;
      }
      const double t = now_s();
      s.latency_ms = 1e3 * (t - s.scheduled_s);
      s.outcome = s.handle.Await();
      if (s.outcome.ok()) {
        // Keep the counters, drop the bulky trace and event logs.
        s.opt = SummarizeOptimizer(s.outcome->opt_stats);
        s.outcome->opt_stats = OptimizerStats();
        s.outcome->sim.events.clear();
        s.outcome->telemetry = obs::MetricScope::Snapshot();
      }
      s.done = true;
      --outstanding;
      last_done_s = std::max(last_done_s, t);
    }
  };
  // A backlog of more than one limit's worth of arrivals means new jobs
  // wait longer than the limit: stop sending, drain, and fail the rung
  // (a long overload would also slow the host for what runs next).
  const int overload =
      static_cast<int>(std::ceil(rate * kLatencyLimitMs / 1e3)) + 8;
  size_t end = rung->jobs.size();
  while (next < end || outstanding > 0) {
    if (next < end && now_s() >= rung->jobs[next].scheduled_s) {
      Sent& s = rung->jobs[next];
      s.lag_ms = 1e3 * (now_s() - s.scheduled_s);
      auto h = service.Submit(TenantName(s.tenant), std::move(requests[next]));
      ++next;
      rung->queue_max = std::max(rung->queue_max, service.stats().queued);
      if (h.ok()) {
        s.handle = *h;
        ++outstanding;
      } else {
        s.outcome = h.status();
        s.done = true;
        rung->refused = true;
      }
      continue;
    }
    poll();
    if (next < end && outstanding > overload) {
      end = next;
      rung->overloaded = true;
    }
    if (now_s() > seconds + 60.0) break;  // hung service: checks fail
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  rung->jobs.resize(end);
  const double last_send = rung->jobs.back().scheduled_s;
  rung->span_s = last_done_s - rung->jobs.front().scheduled_s;
  rung->drain_ms = 1e3 * std::max(0.0, last_done_s - last_send);
  std::vector<double> lat;
  for (const Sent& s : rung->jobs) {
    if (s.done && s.outcome.ok()) lat.push_back(s.latency_ms);
  }
  rung->latency = Summarize(lat);
  rung->passed = !rung->refused && !rung->overloaded &&
                 lat.size() == rung->jobs.size() &&
                 rung->latency.tail <= kLatencyLimitMs &&
                 rung->drain_ms <= kLatencyLimitMs;
}

bool SameConfig(const ResourceConfig& a, const ResourceConfig& b) {
  return a.cp_heap == b.cp_heap && a.MaxMrHeap() == b.MaxMrHeap() &&
         a.cp_cores == b.cp_cores;
}

}  // namespace

void RunServeOpen(const Args& args, Report* report) {
  exec::SetWorkers(kExecWorkers);
  std::unique_ptr<State> state =
      RepeatedSetup([&] { return Setup(args); }, report);
  if (!state->error.empty()) {
    report->Fail("serve_open setup failed: " + state->error);
    return;
  }
  serve::JobService& service = *state->service;
  // The reference rung runs as kRefWindows windows over half the time;
  // the rungs above it share the other half.
  const double ref_s = 0.5 * args.seconds / kRefWindows;
  const double rung_s = 0.5 * args.seconds / (kNumRungs - 1);
  int64_t next_batch = 0;
  int attempt_id = 0;

  // Every attempt, for the output checks. A traced run first runs one
  // reference window untraced, to measure the tracing overhead on the
  // same load; the per-layer figures start after it.
  std::deque<Rung> rungs;
  double untraced_ref_p50 = 0.0;
  if (args.trace) {
    rungs.emplace_back();
    RunRung(*state, args.seed, attempt_id++, kRates[0], ref_s, &next_batch,
            &rungs.back());
    untraced_ref_p50 = rungs.back().latency.p50;
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().SetEnabled(true);
  }
  const size_t first_traced = rungs.size();

  const serve::JobService::Stats stats_before = service.stats();
  const PlanCache::Stats cache_before = state->cache->stats();
  LayerSelf layers;
  auto run = [&](int r, double seconds) -> const Rung& {
    rungs.emplace_back();
    RunRung(*state, args.seed, attempt_id++, kRates[r], seconds, &next_batch,
            &rungs.back());
    if (args.trace) CollectLayerSelf("serve.job", &layers);
    return rungs.back();
  };
  auto achieved = [](const Rung& rung) {
    return rung.span_s > 0.0 ? rung.jobs.size() / rung.span_s : 0.0;
  };
  // Reference rung: the median over windows of p50, tail and achieved
  // rate; it passes when most windows pass.
  std::vector<double> ref_p50, ref_tail, ref_rate;
  int ref_passed = 0;
  for (int w = 0; w < kRefWindows; ++w) {
    const Rung& g = run(0, ref_s);
    ref_p50.push_back(g.latency.p50);
    ref_tail.push_back(g.latency.tail);
    ref_rate.push_back(achieved(g));
    ref_passed += g.passed;
  }
  // Ladder: a rung fails only when two attempts both miss the limit, so
  // a transient host stall does not end the ladder.
  double max_rate = 0.0;
  if (2 * ref_passed > kRefWindows) {
    max_rate = Median(ref_rate);
    for (int r = 1; r < kNumRungs; ++r) {
      const Rung* attempt = &run(r, rung_s);
      if (!attempt->passed) attempt = &run(r, rung_s);
      if (!attempt->passed) break;
      max_rate = achieved(*attempt);
    }
  }
  obs::Tracer::Global().SetEnabled(false);
  report->Set("peak_rss_mb", PeakRssMb());
  const serve::JobService::Stats stats_after = service.stats();
  const PlanCache::Stats cache_delta =
      StatsDelta(cache_before, state->cache->stats());
  report->Set("job_p50_ms", Median(ref_p50));
  report->Set("job_tail_ms", Median(ref_tail));
  report->Set("jobs_per_s", Median(ref_rate));
  report->Set("max_rate_jobs_per_s", max_rate);
  if (max_rate <= 0.0) report->Fail("the reference rung missed the limit");

  // Output checks: every job completed; svc and real jobs were granted
  // their program's reference configuration; real jobs printed exactly
  // the reference output. The first kAuditedBatch batch configurations
  // are re-derived in a fresh uncached session below.
  int64_t verified = 0;
  std::vector<std::pair<Program, ResourceConfig>> batch_done;
  for (const Rung& rung : rungs) {
    for (const Sent& s : rung.jobs) {
      std::string why;
      if (!s.done) {
        why = "never finished";
      } else if (!s.outcome.ok()) {
        why = s.outcome.status().ToString();
      } else if (s.tenant == Tenant::kSvc &&
                 !SameConfig(s.outcome->config,
                             state->svc_ref[s.program].config)) {
        why = "svc config differs from the reference";
      } else if (s.tenant == Tenant::kReal &&
                 (!SameConfig(s.outcome->config,
                              state->real_ref[s.program].config) ||
                  s.outcome->real.printed !=
                      state->real_ref[s.program].printed)) {
        why = "real job output or config differs from the reference";
      } else if (s.tenant == Tenant::kBatch) {
        batch_done.emplace_back(
            BatchProgram(args.seed, s.batch_index, s.batch_kind),
                                s.outcome->config);
      }
      report->CountJob(!why.empty());
      if (why.empty()) {
        ++verified;
      } else if (report->failures().size() < 8) {
        report->Fail(std::string(TenantName(s.tenant)) + " job: " + why);
      }
    }
  }
  // Batch configurations and the opt_regret audit: every svc program
  // plus the first 12 batch jobs are simulated against the baselines.
  Session fresh(ClusterConfig::PaperCluster(),
                SessionOptions().WithPlanCacheEnabled(false));
  std::vector<std::string> labels;
  std::vector<double> ratios;
  SimulateTimer sim_timer;
  auto audit = [&](const Program& p, const ResourceConfig& granted,
                   bool regret) {
    RegisterMeta(&fresh, p.prefix, p.input);
    auto prog = fresh.CompileSource(state->sources[p.script],
                                    ScriptArgsFor(p.prefix));
    if (!prog.ok()) return false;
    auto again = fresh.Optimize(prog->get());
    if (!again.ok() || !SameConfig(again->config, granted)) return false;
    if (!regret) return true;
    double ratio = RegretRatio(&fresh, **prog, granted,
                               OracleFor(p.script, p.input.rows), &sim_timer);
    if (ratio <= 0.0) return false;
    labels.push_back(p.prefix);
    ratios.push_back(ratio);
    return true;
  };
  for (size_t i = 0; i < SvcPrograms().size(); ++i) {
    if (!audit(SvcPrograms()[i], state->svc_ref[i].config, true)) {
      report->Fail("audit failed for " + SvcPrograms()[i].prefix);
    }
  }
  for (size_t i = 0; i < batch_done.size() && i < kAuditedBatch; ++i) {
    if (!audit(batch_done[i].first, batch_done[i].second, i < 12)) {
      report->Fail("batch job " + batch_done[i].first.prefix +
                   " was granted a configuration a fresh optimizer does not "
                   "choose");
      --verified;
      break;
    }
  }
  ReportRegret(labels, ratios, sim_timer, report);
  report->Set("ok_frac", report->attempted() > 0
                             ? static_cast<double>(verified) /
                                   static_cast<double>(report->attempted())
                             : 0.0);

  for (const Rung& rung : rungs) {
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "rung %.0f jobs/s for %.2fs: %s, drain %.1fms, queue max %d, "
                  "limit %.0fms -> %s",
                  rung.rate, rung.seconds, Describe(rung.latency, "ms").c_str(),
                  rung.drain_ms, rung.queue_max, kLatencyLimitMs,
                  rung.passed ? "pass" : rung.overloaded ? "FAIL (overloaded)" : "FAIL");
    report->Note(buf);
  }
  // Per-tenant view of the reference rung.
  for (Tenant t : {Tenant::kSvc, Tenant::kBatch, Tenant::kReal}) {
    std::vector<double> lat, run_ms;
    for (const Rung& rung : rungs) {
      if (rung.rate != kRates[0]) continue;
      for (const Sent& s : rung.jobs) {
        if (s.tenant != t || !s.done || !s.outcome.ok()) continue;
        lat.push_back(s.latency_ms);
        run_ms.push_back(1e3 * s.outcome->run_seconds);
      }
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "reference rung, tenant %-5s latency %s, in-service p50 "
                  "%.3fms",
                  TenantName(t), Describe(Summarize(lat), "ms").c_str(),
                  Median(run_ms));
    report->Note(buf);
  }

  if (args.trace) {
    std::vector<double> wait_ms, run_ms, lag_ms, service_ms;
    std::vector<OptSummary> opt_stats;
    double attempts = 0, mr_jobs = 0, recompiles = 0, jobs = 0;
    exec::ExecStats real_exec;
    int64_t real_jobs = 0, svc_jobs = 0;
    for (size_t r = first_traced; r < rungs.size(); ++r) {
      for (const Sent& s : rungs[r].jobs) {
        lag_ms.push_back(s.lag_ms);
        if (!s.done || !s.outcome.ok()) continue;
        const serve::JobOutcome& o = *s.outcome;
        jobs += 1;
        wait_ms.push_back(1e3 * o.wait_seconds);
        run_ms.push_back(1e3 * o.run_seconds);
        service_ms.push_back(1e3 * o.run_seconds);
        attempts += o.attempts;
        mr_jobs += o.sim.mr_jobs_executed;
        recompiles += o.sim.dynamic_recompiles;
        opt_stats.push_back(s.opt);
        if (s.tenant == Tenant::kSvc) ++svc_jobs;
        if (s.tenant == Tenant::kReal) {
          ++real_jobs;
          real_exec.tasks_scheduled += o.real.exec.tasks_scheduled;
          real_exec.parallel_blocks += o.real.exec.parallel_blocks;
          real_exec.serial_blocks += o.real.exec.serial_blocks;
        }
      }
    }
    jobs = std::max(jobs, 1.0);
    const Tail wait = Summarize(wait_ms);
    report->Set("sched.wait_ms_p50", wait.p50);
    report->Set("sched.wait_ms_tail", wait.tail);
    report->Set("sched.held_over_quota",
                (stats_after.sched.held_over_quota -
                 stats_before.sched.held_over_quota) / jobs);
    report->Set("sched.deadline_miss_frac",
                svc_jobs > 0 ? (stats_after.deadline_misses -
                                stats_before.deadline_misses) /
                                   static_cast<double>(svc_jobs)
                             : 0.0);
    report->Set("serve.run_ms_p50", Median(run_ms));
    report->Set("serve.attempts_per_job", attempts / jobs);
    const double submitted = stats_after.submitted - stats_before.submitted;
    report->Set("serve.shed_frac",
                submitted > 0 ? (stats_after.overload_shed -
                                 stats_before.overload_shed) / submitted
                              : 0.0);
    report->Set("yarn.preemptions",
                (stats_after.preempted - stats_before.preempted) / jobs);
    report->Set("mrsim.mr_jobs", mr_jobs / jobs);
    report->Set("mrsim.dynamic_recompiles", recompiles / jobs);
    report->Set("core.optimize_ms", layers.span_ms["optimize.run"] / jobs);
    const double rj = std::max<int64_t>(1, real_jobs);
    report->Set("exec.run_ms", layers.span_ms["exec.block"] / rj);
    report->Set("exec.tasks_scheduled", real_exec.tasks_scheduled / rj);
    report->Set("exec.parallel_blocks", real_exec.parallel_blocks / rj);
    report->Set("exec.serial_blocks", real_exec.serial_blocks / rj);
    report->Set("exec.us_per_task",
                real_exec.tasks_scheduled > 0
                    ? 1e3 * layers.span_ms["exec.block"] /
                          real_exec.tasks_scheduled
                    : 0.0);
    report->Set("load.gen_lag_ms", Summarize(lag_ms).tail);
    report->Set("obs.trace_overhead_frac",
                untraced_ref_p50 > 0.0
                    ? Median(ref_p50) / untraced_ref_p50 - 1.0
                    : 0.0);
    int queue_max = 0;
    for (size_t r = first_traced; r < rungs.size(); ++r) {
      queue_max = std::max(queue_max, rungs[r].queue_max);
    }
    report->Set("serve.queue_depth_max", queue_max);
    ReportOptimizerStats(opt_stats, report);
    ReportPlanCache(cache_delta, report);
    std::vector<CompileProbe> probes;
    std::vector<Program> probed = SvcPrograms();
    for (size_t i = 0; i < batch_done.size() && i < 12; ++i) {
      probed.push_back(batch_done[i].first);
    }
    for (const Program& p : probed) {
      CompileProbe probe;
      if (ProbeCompileLayers(state->sources[p.script], ScriptArgsFor(p.prefix),
                             fresh.hdfs(), fresh.cluster(), ResourceConfig(),
                             &probe)) {
        probes.push_back(probe);
      }
    }
    ReportCompileProbes(probes, report);
    ReportLayers(layers, service_ms, report);
  }
}

}  // namespace perfbench
