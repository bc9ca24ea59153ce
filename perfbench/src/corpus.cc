//===- perfbench/src/corpus.cc - corpus-cold and corpus-portfolio ---------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The two in-process workloads, one client each, closed loop:
//
//  * corpus-cold: a request is a whole scale-6 generated corpus as source
//    text, parsed, validated and verified by verifyPrograms at Jobs=4 with
//    the induction engine and no proof cache — the pushbutton first
//    verify. PDR, the proof cache, incremental reuse and the daemon stay
//    idle, so this is the control for optimisations of those layers.
//  * corpus-portfolio: a request is one kernel of a scale-1 corpus,
//    verified with EngineKind::Portfolio at Jobs=2 (the race adds a thread
//    per job, so compute threads stay at four). The only workload where
//    PDR and the race/cancel path serve user traffic; its verdicts must
//    match the induction engine's, so any time above corpus-cold's
//    per-kernel cost is engine overhead. Not in BENCHMARK.json: whether the
//    raced PDR thread sees its cancel at the first budget poll or 64 polls
//    later depends on thread start-up timing, so its figures change 2-100x
//    between runs of the same seed (see README.md).
//
// The traced run also replays requests through the layer functions in
// sequence (replay.h), since the scheduler hides per-property calls inside
// its workers.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "replay.h"

#include "service/scheduler.h"
#include "support/timer.h"

#include <algorithm>
#include <map>

using namespace reflex;

namespace perfbench {

namespace {

constexpr unsigned SetupRepeats = 3;

struct Shape {
  unsigned Scale;
  unsigned PoolSize; ///< corpora drawn per run
  unsigned Jobs;
  EngineKind Engine;
  bool KernelPerRequest;
};

// Pool sizes: enough distinct inputs that a run's latency quantiles
// describe the generator, not one draw.
constexpr Shape Cold{6, 256, 4, EngineKind::Induction, false};
constexpr Shape Portfolio{1, 48, 2, EngineKind::Portfolio, true};

/// The verdicts of one kernel: (status, reason) per property.
using VerdictList = std::vector<std::pair<std::string, std::string>>;

VerdictList verdictList(const VerificationReport &Rep) {
  VerdictList L;
  for (const PropertyResult &R : Rep.Results)
    L.emplace_back(verifyStatusName(R.Status), R.Reason);
  return L;
}

/// Engine parity as the repository's differential oracle defines it for
/// the portfolio (gen/oracle.cc, ParityMode::StatusKey, plus reasons):
/// statuses byte-identical, reasons byte-identical except on Refuted,
/// where the race may serve a different member's counterexample.
bool sameVerdicts(const VerdictList &A, const VerdictList &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].first != B[I].first ||
        (A[I].first != "Refuted" && A[I].second != B[I].second))
      return false;
  return true;
}

RunResult runCorpus(const Shape &Sh, const RunConfig &C, Tracer &T) {
  RunResult R;
  R.note("scale", std::to_string(Sh.Scale));
  R.note("pool_corpora", std::to_string(Sh.PoolSize));
  R.note("jobs", std::to_string(Sh.Jobs));
  R.note("engine", engineKindName(Sh.Engine));

  SchedulerOptions S;
  S.Jobs = Sh.Jobs;
  S.Verify = gen::corpusVerifyOptions();
  S.Verify.Engine = Sh.Engine;

  // Set-up is corpus generation; repeated so its median is steady.
  std::vector<Corpus> Pool;
  std::vector<double> SetupS;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    WallTimer W;
    Pool = makePool(C.Seed, Sh.Scale, Sh.PoolSize);
    SetupS.push_back(W.elapsedSeconds());
  }
  // The request sequence: whole corpora, or their kernels one by one.
  std::vector<std::vector<const Kernel *>> Requests;
  for (const Corpus &Cp : Pool) {
    std::vector<const Kernel *> All;
    for (const Kernel &K : Cp)
      All.push_back(&K);
    if (Sh.KernelPerRequest)
      for (const Kernel *K : All)
        Requests.push_back({K});
    else
      Requests.push_back(All);
  }
  size_t Expected0 = 0, Proved0 = 0;
  for (const Kernel &K : Pool[0])
    for (const gen::ExpectedVerdict &E : K.Expected) {
      ++Expected0;
      Proved0 += E.Expect == gen::ExpectKind::Proved;
    }
  R.note("corpus0_expected_proved",
         std::to_string(Proved0) + "/" + std::to_string(Expected0));

  WindowStats W;
  std::vector<double> SchedWall, SchedBusy, Deduped;
  // Per kernel, the first verdict list served: repeats must match it.
  std::map<const Kernel *, VerdictList> Served;
  double Cpu0 = processCpuMillis();
  WallTimer Window;
  uint64_t Req = 0;
  while (Window.elapsedSeconds() < C.Seconds) {
    const std::vector<const Kernel *> &Ks = Requests[Req % Requests.size()];
    ++Req;
    ++R.Attempted;
    BatchOutcome B;
    WallTimer Latency;
    std::string Err;
    {
      Tracer::Span Root(T, "request", Req);
      std::vector<ProgramPtr> Progs;
      Err = loadKernels(Ks, T, Req, Progs);
      if (Err.empty()) {
        std::vector<const Program *> Ptrs;
        for (const ProgramPtr &P : Progs)
          Ptrs.push_back(P.get());
        Tracer::Span Sched(T, "scheduler", Req);
        B = verifyPrograms(Ptrs, S);
      }
    }
    W.LatencyMs.push_back(Latency.elapsedMillis());
    if (Err.empty() && B.Reports.size() != Ks.size())
      Err = "batch returned " + std::to_string(B.Reports.size()) +
            " reports for " + std::to_string(Ks.size()) + " programs";
    if (!Err.empty()) {
      ++R.Failed;
      R.mismatch(Err);
      continue;
    }
    SchedWall.push_back(B.TotalMillis);
    double Busy = 0;
    size_t Bad = R.Mismatches.size();
    for (size_t I = 0; I < Ks.size(); ++I) {
      const VerificationReport &Rep = B.Reports[I];
      Busy += Rep.TotalMillis;
      if (Rep.Results.size() != Ks[I]->Expected.size())
        R.mismatch(Ks[I]->Name + ": " + std::to_string(Rep.Results.size()) +
                   " verdicts for " +
                   std::to_string(Ks[I]->Expected.size()) + " properties");
      for (const PropertyResult &PR : Rep.Results) {
        ++W.Verdicts;
        W.ProvedChecked += PR.Status == VerifyStatus::Proved && PR.CertChecked;
        std::string Why = judgeVerdict(*Ks[I], PR.Name,
                                       verifyStatusName(PR.Status),
                                       PR.CertChecked, true,
                                       !PR.Counterexample.Actions.empty());
        if (!Why.empty())
          R.mismatch(Why);
      }
      auto [It, Fresh] = Served.emplace(Ks[I], verdictList(Rep));
      if (!Fresh && It->second != verdictList(Rep))
        R.mismatch(Ks[I]->Name + ": verdicts differ between requests");
    }
    SchedBusy.push_back(Busy);
    Deduped.push_back(double(B.DedupedJobs));
    if (R.Mismatches.size() != Bad)
      ++R.Failed;
  }
  W.WallSeconds = Window.elapsedSeconds();
  W.CpuMillis = processCpuMillis() - Cpu0;
  R.note("requests", std::to_string(Req));

  // The portfolio must answer what induction answers, per kernel served
  // (untimed).
  if (Sh.Engine != EngineKind::Induction) {
    std::vector<const Kernel *> Ks;
    for (const auto &[K, L] : Served)
      Ks.push_back(K);
    std::vector<ProgramPtr> Progs;
    std::string Err = loadKernels(Ks, T, 0, Progs);
    if (!Err.empty()) {
      R.mismatch(Err);
    } else {
      std::vector<const Program *> Ptrs;
      for (const ProgramPtr &P : Progs)
        Ptrs.push_back(P.get());
      SchedulerOptions Ref = S;
      Ref.Jobs = Cold.Jobs;
      Ref.Verify.Engine = EngineKind::Induction;
      BatchOutcome B = verifyPrograms(Ptrs, Ref);
      for (size_t I = 0; I < Ks.size(); ++I)
        if (!sameVerdicts(verdictList(B.Reports[I]), Served[Ks[I]]))
          R.mismatch(Ks[I]->Name + ": portfolio verdicts differ from "
                                   "induction's");
    }
  }

  std::vector<Metric> E2E = windowMetrics(W, "");
  E2E.push_back({"proved_frac",
                 double(W.ProvedChecked) / double(std::max<uint64_t>(W.Verdicts, 1)),
                 "fraction"});
  E2E.push_back({"setup_s", median(SetupS), "s"});
  E2E.push_back({"peak_rss_mb", processPeakRssMb(), "MB"});
  R.EndToEnd = std::move(E2E);
  if (!T.on())
    return R;

  // Traced run: tracing overhead, scheduler counters, then the replay.
  for (Metric &M : windowMetrics(W, "traced."))
    R.Layers.push_back(M);
  R.Layers.push_back({"scheduler.wall_ms", mean(SchedWall), "ms"});
  R.Layers.push_back({"scheduler.busy_ms", mean(SchedBusy), "ms"});
  double WallSum = mean(SchedWall) * Sh.Jobs;
  R.Layers.push_back({"scheduler.parallel_eff",
                      WallSum > 0 ? mean(SchedBusy) / WallSum : 0, "fraction"});
  R.Layers.push_back({"scheduler.deduped_jobs", mean(Deduped), "count"});

  Replay Rp(T, Sh.Engine);
  WallTimer ReplayTime;
  for (size_t I = 0; I < Requests.size(); ++I) {
    Rp.request(Requests[I], R);
    if (ReplayTime.elapsedSeconds() >= replaySeconds(C))
      break;
  }
  Rp.metrics(R.Layers);
  R.note("replayed_requests", std::to_string(Rp.requests()));
  return R;
}

} // namespace

RunResult runCorpusCold(const RunConfig &C, Tracer &T) {
  return runCorpus(Cold, C, T);
}

RunResult runCorpusPortfolio(const RunConfig &C, Tracer &T) {
  return runCorpus(Portfolio, C, T);
}

} // namespace perfbench
