//===- perfbench/src/replay.h - Layer-by-layer request replay ---*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's attribution step. The scheduler (and, for edit-serve,
/// the daemon) runs per-property calls where the benchmark cannot put
/// spans around them, so a traced run replays requests through the layer
/// functions one after another, with a span around each call:
/// parseProgram → validateProgram → FrozenAbstraction::build →
/// VerifySession::verify (certificate checking off) → checkCertificate on
/// every Proved certificate. Portfolio requests also replay each property
/// under induction alone and PDR alone, the two engines the race hides.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "bench.h"

#include "verify/verifier.h"

namespace perfbench {

class Replay {
public:
  Replay(Tracer &T, reflex::EngineKind Engine) : T(T), Engine(Engine) {}

  /// Replays one request made of \p Ks. Verdicts are judged against the
  /// ground truth like the timed ones; failures land in \p R.
  void request(const std::vector<const Kernel *> &Ks, RunResult &R);

  uint64_t requests() const { return Requests; }

  /// Appends the per-layer metrics, each per replayed request unless it is
  /// a ratio.
  void metrics(std::vector<Metric> &Out) const;

private:
  /// Builds an abstraction for \p Eng and verifies every property of
  /// \p P with it; \p Check runs the certificate checker and the verdict
  /// check (the main path of the request).
  void engine(const reflex::Program &P, const Kernel &K,
              reflex::EngineKind Eng, bool Check, RunResult &R, uint64_t Req);

  /// Replay request ids start here, clear of the timed window's.
  static constexpr uint64_t FirstId = uint64_t(1) << 40;

  Tracer &T;
  reflex::EngineKind Engine;
  uint64_t Requests = 0;
  uint64_t Builds = 0;
  uint64_t ProverCalls = 0, PdrCalls = 0, PdrProved = 0;
  uint64_t PortfolioCalls = 0, PdrServed = 0;
  double OverhangMs = 0;
  uint64_t Checked = 0, Accepted = 0;
  uint64_t Queries = 0, MemoHits = 0, AssumptionChecks = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
