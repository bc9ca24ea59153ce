//===- perfbench/src/bench.cc - Shared benchmark plumbing -----------------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "parser/parser.h"
#include "support/rng.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace reflex;

namespace perfbench {

const gen::ExpectedVerdict *Kernel::expected(const std::string &Prop) const {
  for (const gen::ExpectedVerdict &E : Expected)
    if (E.Property == Prop)
      return &E;
  return nullptr;
}

std::vector<Corpus> makePool(uint64_t Seed, unsigned Scale, unsigned Count) {
  std::vector<Corpus> Pool;
  Rng Stream(Seed);
  for (unsigned I = 0; I < Count; ++I) {
    gen::GenConfig G;
    G.Seed = I == 0 ? Seed : Stream.next();
    G.Scale = Scale;
    gen::GeneratedCorpus GC = gen::generateCorpus(G);
    Corpus C;
    for (gen::GeneratedInstance &Inst : GC.Instances)
      C.push_back({Inst.Name, std::move(Inst.Source), std::move(Inst.Expected)});
    Pool.push_back(std::move(C));
  }
  return Pool;
}

std::string loadKernels(const std::vector<const Kernel *> &Ks, Tracer &T,
                        uint64_t Req, std::vector<ProgramPtr> &Out) {
  for (const Kernel *K : Ks) {
    DiagnosticEngine Diags;
    ProgramPtr P;
    {
      Tracer::Span S(T, "parser", Req);
      P = parseProgram(K->Source, Diags);
    }
    bool Ok = P != nullptr;
    if (Ok) {
      Tracer::Span S(T, "validate", Req);
      Ok = validateProgram(*P, Diags);
    }
    if (!Ok)
      return K->Name + ": " + Diags.render(K->Name);
    Out.push_back(std::move(P));
  }
  return {};
}

std::string judgeVerdict(const Kernel &K, const std::string &Prop,
                         const std::string &Status, bool CertChecked,
                         bool CexKnown, bool HasCex) {
  const gen::ExpectedVerdict *E = K.expected(Prop);
  std::string Where = K.Name + "/" + Prop + ": ";
  if (!E)
    return Where + "no expected verdict";
  const char *Want = gen::expectKindName(E->Expect);
  if (Status != Want)
    return Where + Status + ", expected " + Want + " (" + E->Why + ")";
  if (E->Expect == gen::ExpectKind::Proved && !CertChecked)
    return Where + "Proved without a checked certificate";
  if (E->Expect == gen::ExpectKind::Refuted && CexKnown && !HasCex)
    return Where + "Refuted without a counterexample";
  return {};
}

double processCpuMillis() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) { return T.tv_sec * 1e3 + T.tv_usec / 1e3; };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double processPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double childCpuMillis(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Rest(Line.substr(Close + 2));
  std::string Field;
  double UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && Rest >> Field; ++I) {
    if (I == 14)
      UTime = std::stod(Field);
    else if (I == 15)
      STime = std::stod(Field);
  }
  return (UTime + STime) * 1e3 / double(sysconf(_SC_CLK_TCK));
}

double childPeakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // reported in kB
  return 0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - double(Lo)) * (V[Lo + 1] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

std::vector<Metric> windowMetrics(const WindowStats &W,
                                  const std::string &Prefix) {
  double Verdicts = std::max<double>(1, double(W.Verdicts));
  return {
      {Prefix + "latency_ms_p50", quantile(W.LatencyMs, 0.5), "ms"},
      {Prefix + "latency_ms_p90", quantile(W.LatencyMs, 0.9), "ms"},
      {Prefix + "verdicts_per_s", double(W.Verdicts) / W.WallSeconds, "1/s"},
      {Prefix + "cpu_ms_per_verdict", W.CpuMillis / Verdicts, "ms"},
  };
}

} // namespace perfbench
