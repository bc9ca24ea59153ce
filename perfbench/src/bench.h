//===- perfbench/src/bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run configuration, the result
/// record main() prints, the ground-truth verdict check, the seeded corpus
/// pool, and process-level measurements (CPU time, peak RSS, percentiles).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "trace.h"

#include "gen/generator.h"

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 42;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory (socket, proof cache, trace, result record).
  std::string OutDir = ".bench_out";
  /// The `reflex` CLI, started as the edit-serve daemon.
  std::string ReflexBin;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0; ///< requests sent in the timed window
  uint64_t Failed = 0;    ///< of those, requests with any failure
  /// Every correctness failure, timed or not (the first few are printed).
  std::vector<std::string> Mismatches;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers; ///< traced runs only
  /// Facts about the inputs (scale, pool size, sample count), recorded
  /// with the result.
  std::vector<std::pair<std::string, std::string>> Notes;

  bool correct() const { return Mismatches.empty() && Failed == 0; }
  void mismatch(std::string Why) { Mismatches.push_back(std::move(Why)); }
  void note(std::string Key, std::string Value) {
    Notes.emplace_back(std::move(Key), std::move(Value));
  }
};

/// One generated kernel as the benchmark hands it to the program: source
/// text plus the generator's construction-time verdicts.
struct Kernel {
  std::string Name;
  std::string Source;
  std::vector<reflex::gen::ExpectedVerdict> Expected;

  const reflex::gen::ExpectedVerdict *expected(const std::string &Prop) const;
};

using Corpus = std::vector<Kernel>;

/// The corpora a run draws its requests from: corpus 0 is
/// generateCorpus(Seed, Scale) itself, corpus i > 0 the corpus of the i-th
/// seed of a SplitMix64 stream started at Seed. Drawing many corpora per
/// run makes the figures statistics of the generator rather than of one
/// draw (whether a draw holds a slow counterexample search changes a
/// whole-corpus request's latency by 2x).
std::vector<Corpus> makePool(uint64_t Seed, unsigned Scale, unsigned Count);

/// Parses and validates \p Ks from source text, as the program sees them,
/// with a span around each call. Returns an error message, or the empty
/// string.
std::string loadKernels(const std::vector<const Kernel *> &Ks, Tracer &T,
                        uint64_t Req, std::vector<reflex::ProgramPtr> &Out);

/// Checks one verdict against the generator's ground truth: Proved only
/// with a checked certificate, Refuted only with a counterexample (when
/// \p CexKnown; the daemon wire does not carry counterexamples), and no
/// budget status. Returns the empty string when the verdict holds.
std::string judgeVerdict(const Kernel &K, const std::string &Prop,
                         const std::string &Status, bool CertChecked,
                         bool CexKnown, bool HasCex);

/// Process CPU time (user + system, all threads) in milliseconds.
double processCpuMillis();
/// Peak resident set of this process, in MiB.
double processPeakRssMb();
/// The same two figures for another process, read from /proc.
double childCpuMillis(pid_t Pid);
double childPeakRssMb(pid_t Pid);

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// The end-to-end figures every workload reports, from its timed window.
struct WindowStats {
  std::vector<double> LatencyMs; ///< one per request
  uint64_t Verdicts = 0;         ///< verdicts delivered
  uint64_t ProvedChecked = 0;    ///< of those, Proved with CertChecked
  double WallSeconds = 0;
  double CpuMillis = 0;
};

/// latency_ms_p50/p90, verdicts_per_s and cpu_ms_per_verdict, each
/// prefixed with \p Prefix.
std::vector<Metric> windowMetrics(const WindowStats &W,
                                  const std::string &Prefix);

/// How long a traced run replays requests after its timed window.
inline double replaySeconds(const RunConfig &C) {
  return C.Seconds / 4 < 10 ? C.Seconds / 4 : 10;
}

RunResult runCorpusCold(const RunConfig &C, Tracer &T);
RunResult runCorpusPortfolio(const RunConfig &C, Tracer &T);
RunResult runEditServe(const RunConfig &C, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
