//===- perfbench/src/replay.cc - Layer-by-layer request replay ------------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "replay.h"

#include "verify/checker.h"

#include <algorithm>

using namespace reflex;

namespace perfbench {

void Replay::request(const std::vector<const Kernel *> &Ks, RunResult &R) {
  uint64_t Req = FirstId + Requests++;
  Tracer::Span Root(T, "replay", Req);
  for (const Kernel *K : Ks) {
    std::vector<ProgramPtr> Progs;
    std::string Err = loadKernels({K}, T, Req, Progs);
    if (!Err.empty()) {
      R.mismatch("replay: " + Err);
      continue;
    }
    engine(*Progs[0], *K, Engine, true, R, Req);
    if (Engine == EngineKind::Portfolio) {
      engine(*Progs[0], *K, EngineKind::Induction, false, R, Req);
      engine(*Progs[0], *K, EngineKind::Pdr, false, R, Req);
    }
  }
}

void Replay::engine(const Program &P, const Kernel &K, EngineKind Eng,
                    bool Check, RunResult &R, uint64_t Req) {
  VerifyOptions Opts = gen::corpusVerifyOptions();
  Opts.Engine = Eng;
  Opts.CheckCertificates = false;
  std::shared_ptr<const FrozenAbstraction> Abs;
  {
    Tracer::Span S(T, "behabs", Req);
    Abs = FrozenAbstraction::build(P, Opts);
  }
  ++Builds;
  SharedVerifyCaches Shared;
  VerifySession Sess(Abs, &Shared);
  const char *Layer = Eng == EngineKind::Pdr         ? "pdr"
                      : Eng == EngineKind::Portfolio ? "portfolio"
                                                     : "prover";
  for (const Property &Prop : P.Properties) {
    PropertyResult PR;
    double WallMs = 0;
    {
      Tracer::Span S(T, Layer, Req);
      PR = Sess.verify(Prop);
      WallMs = S.elapsedMillis();
    }
    bool Proved = PR.Status == VerifyStatus::Proved;
    switch (Eng) {
    case EngineKind::Induction:
      ++ProverCalls;
      break;
    case EngineKind::Pdr:
      ++PdrCalls;
      PdrProved += Proved;
      break;
    case EngineKind::Portfolio:
      ++PortfolioCalls;
      OverhangMs += WallMs - PR.Millis;
      PdrServed += PR.ServedBy == "pdr";
      break;
    }
    if (!Check)
      continue;
    bool Ok = false;
    if (Proved) {
      Tracer::Span S(T, "checker", Req);
      Ok = checkCertificate(Sess.termContext(), P, Sess.behAbs(), Prop,
                            PR.Cert, proverOptions(Opts))
               .Ok;
      ++Checked;
      Accepted += Ok;
    }
    std::string Why =
        judgeVerdict(K, PR.Name, verifyStatusName(PR.Status), Ok, true,
                     !PR.Counterexample.Actions.empty());
    if (!Why.empty())
      R.mismatch("replay: " + Why);
  }
  const SolverStats &SS = Sess.solverStats();
  Queries += SS.QueriesSolved;
  MemoHits += SS.MemoHits + SS.SharedMemoHits;
  AssumptionChecks += SS.AssumptionChecks;
}

void Replay::metrics(std::vector<Metric> &Out) const {
  std::map<std::string, double> Self = T.selfMillis([&](uint64_t Id) {
    return Id >= FirstId && Id < FirstId + Requests;
  });
  double N = double(std::max<uint64_t>(Requests, 1));
  auto Ms = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0 : It->second / N;
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  double Total = 0;
  for (const auto &[Name, Millis] : Self)
    Total += Millis / N;
  Out.push_back({"parser.ms", Ms("parser"), "ms"});
  Out.push_back({"validate.ms", Ms("validate"), "ms"});
  Out.push_back({"behabs.ms", Ms("behabs"), "ms"});
  Out.push_back({"behabs.builds", Builds / N, "count"});
  Out.push_back({"prover.ms", Ms("prover"), "ms"});
  Out.push_back({"prover.calls", ProverCalls / N, "count"});
  Out.push_back({"checker.ms", Ms("checker"), "ms"});
  Out.push_back(
      {"checker.accept_ratio", Ratio(Accepted, Checked), "fraction"});
  Out.push_back({"pdr.ms", Ms("pdr"), "ms"});
  Out.push_back({"pdr.proved_ratio", Ratio(PdrProved, PdrCalls), "fraction"});
  Out.push_back({"portfolio.ms", Ms("portfolio"), "ms"});
  Out.push_back({"portfolio.overhang_ms", OverhangMs / N, "ms"});
  Out.push_back({"portfolio.pdr_served", PdrServed / N, "count"});
  Out.push_back({"solver.queries", Queries / N, "count"});
  Out.push_back({"solver.memo_hit_ratio", Ratio(MemoHits, MemoHits + Queries),
                 "fraction"});
  Out.push_back({"solver.assumption_checks", AssumptionChecks / N, "count"});
  Out.push_back({"unattributed_ms", Ms("replay"), "ms"});
  Out.push_back({"unattributed_share", Ratio(Ms("replay"), Total), "fraction"});
}

} // namespace perfbench
