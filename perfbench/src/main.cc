//===- perfbench/src/main.cc - The repository benchmark -------------------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and prints every metric by name with
// its unit, then, as the last line, one JSON object:
//
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// the per-layer ones, and write the spans as Chrome trace-event JSON.
// Usage (perfbench/run.py builds the binary and passes these):
//
//   perfbench --workload corpus-cold|corpus-portfolio|edit-serve
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--reflex PATH-TO-reflex-CLI]
//
// Exit codes: 0 every verdict correct, 1 a correctness failure, 2 usage
// error, 3 a build whose timings would mean nothing (unoptimised or
// sanitized) — refused without printing a result.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "support/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

/// The per-layer metrics every traced run reports, in BENCHMARK.json's
/// order. A layer the workload leaves idle reads 0.
const std::vector<std::pair<const char *, const char *>> LayerMetrics = {
    {"traced.latency_ms_p50", "ms"},
    {"traced.latency_ms_p90", "ms"},
    {"traced.verdicts_per_s", "1/s"},
    {"traced.cpu_ms_per_verdict", "ms"},
    {"parser.ms", "ms"},
    {"validate.ms", "ms"},
    {"behabs.ms", "ms"},
    {"behabs.builds", "count"},
    {"prover.ms", "ms"},
    {"prover.calls", "count"},
    {"checker.ms", "ms"},
    {"checker.accept_ratio", "fraction"},
    {"pdr.ms", "ms"},
    {"pdr.proved_ratio", "fraction"},
    {"portfolio.ms", "ms"},
    {"portfolio.overhang_ms", "ms"},
    {"portfolio.pdr_served", "count"},
    {"solver.queries", "count"},
    {"solver.memo_hit_ratio", "fraction"},
    {"solver.assumption_checks", "count"},
    {"scheduler.wall_ms", "ms"},
    {"scheduler.busy_ms", "ms"},
    {"scheduler.parallel_eff", "fraction"},
    {"scheduler.deduped_jobs", "count"},
    {"proofcache.open_ms", "ms"},
    {"proofcache.hit_ratio", "fraction"},
    {"proofcache.decode_ms", "ms"},
    {"proofcache.recheck_ms", "ms"},
    {"proofcache.stores", "count"},
    {"proofcache.path_fallbacks", "count"},
    {"incremental.reuse_ratio", "fraction"},
    {"incremental.reverified", "count"},
    {"daemon.rtt_ms.verify", "ms"},
    {"daemon.rtt_ms.edit", "ms"},
    {"daemon.server_ms", "ms"},
    {"daemon.wire_ms", "ms"},
    {"daemon.journal_bytes", "bytes"},
    {"daemon.shed", "count"},
    {"unattributed_ms", "ms"},
    {"unattributed_share", "fraction"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus-cold|corpus-portfolio|"
               "edit-serve --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--reflex PATH]\n",
               Why);
  return 2;
}

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(memory_sanitizer)
  return "on";
#endif
#endif
  return "none";
}

constexpr bool Optimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

/// Full precision, so runs compare digit for digit.
std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsObject(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload") {
        C.Workload = Value;
        HaveWorkload = true;
      } else if (Flag == "--seed") {
        C.Seed = std::stoull(Value);
      } else if (Flag == "--seconds") {
        C.Seconds = std::stod(Value);
      } else if (Flag == "--trace") {
        C.Trace = std::stoi(Value) != 0;
      } else if (Flag == "--out-dir") {
        C.OutDir = Value;
      } else if (Flag == "--reflex") {
        C.ReflexBin = Value;
      } else {
        return usage(("unknown flag " + Flag).c_str());
      }
    } catch (const std::exception &) {
      return usage(("bad value for " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (!(C.Seconds > 0 && C.Seconds <= 600))
    return usage("--seconds must be in (0, 600]");
  using Runner = RunResult (*)(const RunConfig &, Tracer &);
  const std::map<std::string, Runner> Workloads = {
      {"corpus-cold", runCorpusCold},
      {"corpus-portfolio", runCorpusPortfolio},
      {"edit-serve", runEditServe},
  };
  auto W = Workloads.find(C.Workload);
  if (W == Workloads.end())
    return usage(("unknown workload " + C.Workload).c_str());

  const std::string San = sanitizer();
  const unsigned Cores = std::thread::hardware_concurrency();
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
              C.Workload.c_str(), (unsigned long long)C.Seed, C.Seconds,
              int(C.Trace));
  std::printf("env: compiler %s, CMAKE_BUILD_TYPE %s, %s, sanitizer %s, "
              "nproc %u\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              Optimized ? "optimised" : "unoptimised", San.c_str(), Cores);
  std::fflush(stdout);
  if (!Optimized || San != "none") {
    std::fprintf(stderr, "perfbench: refusing to time an %s build\n",
                 Optimized ? "instrumented (sanitizer)" : "unoptimised");
    return 3;
  }
  std::error_code EC;
  std::filesystem::create_directories(C.OutDir, EC);
  if (EC)
    return usage(("cannot create " + C.OutDir).c_str());

  Tracer T(C.Trace);
  RunResult R = W->second(C, T);

  double OkFrac =
      R.Attempted ? 1.0 - double(R.Failed) / double(R.Attempted) : 0.0;
  R.EndToEnd.push_back({"ok_frac", OkFrac, "fraction"});
  std::vector<Metric> Reported;
  if (C.Trace) {
    for (const auto &[Name, Unit] : LayerMetrics) {
      Metric M{Name, 0, Unit};
      for (const Metric &L : R.Layers)
        if (L.Name == Name)
          M.Value = L.Value;
      Reported.push_back(M);
    }
  } else {
    Reported = R.EndToEnd;
  }

  for (const auto &[Key, Value] : R.Notes)
    std::printf("note: %s = %s\n", Key.c_str(), Value.c_str());
  for (const Metric &M : R.EndToEnd)
    std::printf("%s%-28s %14.4f %s\n", C.Trace ? "traced run, e2e: " : "",
                M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const Metric &M : Reported)
    if (C.Trace)
      std::printf("%-28s %14.4f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  for (size_t I = 0; I < R.Mismatches.size() && I < 10; ++I)
    std::printf("FAIL: %s\n", R.Mismatches[I].c_str());
  if (R.Mismatches.size() > 10)
    std::printf("FAIL: ... %zu more\n", R.Mismatches.size() - 10);

  // The full record, environment included, next to the trace.
  std::string Stem = C.OutDir + "/" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + "-trace" +
                     std::to_string(int(C.Trace));
  {
    reflex::JsonWriter J;
    J.beginObject();
    J.field("workload", C.Workload);
    J.field("seed", int64_t(C.Seed));
    J.key("seconds");
    J.value(C.Seconds);
    J.field("trace", C.Trace);
    J.key("env");
    J.beginObject();
    J.field("compiler", PERFBENCH_COMPILER);
    J.field("cmake_build_type", PERFBENCH_BUILD_TYPE);
    J.field("optimised", Optimized);
    J.field("sanitizer", San);
    J.field("nproc", int64_t(Cores));
    J.endObject();
    J.key("notes");
    J.beginObject();
    for (const auto &[Key, Value] : R.Notes)
      J.field(Key, Value);
    J.endObject();
    J.key("end_to_end");
    J.rawValue(metricsObject(R.EndToEnd));
    J.key("per_layer");
    J.rawValue(metricsObject(C.Trace ? Reported : std::vector<Metric>{}));
    J.field("attempted", int64_t(R.Attempted));
    J.field("failed", int64_t(R.Failed));
    J.key("mismatches");
    J.beginArray();
    for (const std::string &M : R.Mismatches)
      J.value(M);
    J.endArray();
    J.endObject();
    std::ofstream(Stem + ".json") << J.str() << "\n";
  }
  if (C.Trace && !T.writeChrome(Stem + ".trace.json"))
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 Stem.c_str());

  bool Correct = R.correct() && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, metricsObject(Reported).c_str());
  return Correct ? 0 : 1;
}
