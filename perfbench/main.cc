// Repository benchmark. Runs one workload and prints every
// metric by name with its unit; the last line of stdout is the JSON
// result. Usage:
//
//   perfbench --workload plan_fresh|train_real|serve_open --seed N
//             --seconds S --trace 0|1 [--scripts-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run. Exits 1 when an output
// check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan_fresh|train_real|serve_open "
               "--seed N --seconds S --trace 0|1 [--scripts-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0) || args->seconds > 120.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--scripts-dir") {
      args->scripts_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "plan_fresh" ||
                           args->workload == "train_real" ||
                           args->workload == "serve_open");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  perfbench::Report report;
  perfbench::IdleSpinners spinners(
      static_cast<int>(std::thread::hardware_concurrency()));
  perfbench::ReportHost(perfbench::ProbeHost(), &report);
  if (args.workload == "plan_fresh") {
    perfbench::RunPlanFresh(args, &report);
  } else if (args.workload == "train_real") {
    perfbench::RunTrainReal(args, &report);
  } else {
    perfbench::RunServeOpen(args, &report);
  }

  if (report.attempted() == 0) report.Fail("no job was attempted");
  const auto& defs = args.trace ? perfbench::PerLayerMetrics()
                                : perfbench::EndToEndMetrics();
  std::string metrics;
  for (const perfbench::MetricDef& def : defs) {
    double value = report.Get(def.name);
    if (!std::isfinite(value)) {
      report.Fail(std::string("metric ") + def.name + " is not finite");
      value = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
    std::printf("metric %-30s %16.6f %s\n", def.name, value, def.unit);
  }
  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failures().empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(report.attempted()),
      static_cast<long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
