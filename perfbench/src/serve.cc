//===- perfbench/src/serve.cc - edit-serve --------------------------------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// edit-serve: the edit → re-verify loop over the reflexd wire. A `reflex
// daemon` process with a proof cache and its journal (--cache-dir) and
// --jobs 1 serves three connections. Each connection holds eight open
// sessions, on the 24 construct-correct kernels of the seed's first four
// scale-6 corpora. (With one or two kernels per connection, which kernels
// a seed drew moved the latencies by up to a third.)
// Each connection runs a closed loop of a seeded mix over its sessions:
//
//  * reads (31 in 32): `verify` of a session's current source, served by
//    proof-cache hits with the full re-check memo;
//  * writes (1 in 32): `edit` with a semantics-preserving mutation — a
//    `v = v;` no-op at the start of a seeded handler that already assigns
//    v — so the ground truth still holds. An edit triggers footprint
//    reuse, dependent re-verification, cache stores and journal appends.
//
// Wire, protocol, journal, proof cache and incremental reuse do the work;
// proving does little. Sessions use construct-correct kernels (every
// property Proved): the cache never stores Refuted verdicts, so a bug
// kernel would turn every read into a counterexample search, which is
// corpus-cold's business.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "replay.h"

#include "ast/cmd.h"
#include "daemon/client.h"
#include "parser/parser.h"
#include "service/proofcache.h"
#include "support/rng.h"
#include "support/timer.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

extern char **environ;

using namespace reflex;

namespace perfbench {

namespace {

constexpr unsigned Connections = 3;
constexpr unsigned SessionsPerConnection = 8;
constexpr unsigned SessionCorpora = 4; ///< six usable kernels per corpus
constexpr unsigned SetupRepeats = 3;
constexpr unsigned SessionScale = 6;
// Each edit fsyncs the whole session to the journal (about 2.4 MB at
// scale 6), and the next read of the edited source re-checks its
// certificates. With more writes, those two slow classes held about a
// tenth of the requests, so p90 jumped between them and the fast reads
// from run to run.
constexpr uint64_t WriteOneIn = 32;

/// A `reflex daemon` child process; the destructor stops it and reaps it.
class DaemonProcess {
public:
  DaemonProcess() = default;
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Starts the daemon and waits until its socket accepts connections.
  std::string start(const std::string &Bin, const std::string &Socket,
                    const std::string &CacheDir, const std::string &Log,
                    unsigned MaxSessions) {
    this->Socket = Socket;
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    std::vector<std::string> Args = {Bin,
                                     "daemon",
                                     "--socket",
                                     Socket,
                                     "--cache-dir",
                                     CacheDir,
                                     "--jobs",
                                     "1",
                                     "--max-sessions",
                                     std::to_string(MaxSessions)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    int Err = posix_spawn(&Pid, Bin.c_str(), &FA, nullptr, Argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Err != 0) {
      Pid = -1;
      return "cannot start " + Bin + ": " + std::strerror(Err);
    }
    WallTimer Wait;
    while (Wait.elapsedSeconds() < 10) {
      if (DaemonClient::connect(Socket).ok())
        return {};
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return "daemon exited during start-up (see " + Log + ")";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return "daemon did not accept connections within 10 s";
  }

  pid_t pid() const { return Pid; }

  /// Asks the daemon to shut down and reaps it; kills it if it lingers.
  void stop() {
    if (Pid < 0)
      return;
    if (Result<DaemonClient> C = DaemonClient::connect(Socket); C.ok())
      (void)C->callRaw("{\"verb\":\"shutdown\"}");
    WallTimer Wait;
    int Status = 0;
    while (waitpid(Pid, &Status, WNOHANG) == 0) {
      if (Wait.elapsedSeconds() > 10) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
  }

private:
  pid_t Pid = -1;
  std::string Socket;
};

/// One open session: its kernel, the handlers a no-op edit can target,
/// and the source the daemon currently holds.
struct Session {
  std::string Name;
  Kernel Pristine;
  /// (handler index in source order, `v = v;` for a v it assigns).
  std::vector<std::pair<size_t, std::string>> Nops;
  int Current = -1; ///< index into Nops of the live edit; -1 = pristine
  std::string Source;
  std::set<int> Served; ///< variants served in the timed window
};

/// \p Src with \p Stmt inserted at the start of its \p I-th handler body.
std::string withStatement(const std::string &Src, size_t I,
                          const std::string &Stmt) {
  size_t Pos = 0;
  for (size_t N = 0;; ++N) {
    Pos = Src.find("\nhandler ", Pos);
    if (Pos == std::string::npos)
      return Src;
    size_t Brace = Src.find('{', Pos);
    if (Brace == std::string::npos)
      return Src;
    if (N == I)
      return Src.substr(0, Brace + 1) + "\n  " + Stmt + Src.substr(Brace + 1);
    Pos = Brace;
  }
}

std::string sourceOf(const Session &S, int Variant) {
  if (Variant < 0)
    return S.Pristine.Source;
  const auto &[Handler, Stmt] = S.Nops[size_t(Variant)];
  return withStatement(S.Pristine.Source, Handler, Stmt);
}

void writeOptions(JsonWriter &W) {
  VerifyOptions VO = gen::corpusVerifyOptions();
  W.key("options");
  W.beginObject();
  W.field("jobs", int64_t(1));
  W.field("bmc_depth", int64_t(VO.BmcDepthOnUnknown));
  W.field("bmc_states", int64_t(VO.Bmc.MaxStates));
  W.field("bmc_payloads", int64_t(VO.Bmc.MaxPayloadsPerMessage));
  W.endObject();
}

std::string frame(const char *Verb, const std::string &Session,
                  const std::string &Source) {
  JsonWriter W;
  W.beginObject();
  W.field("verb", Verb);
  if (!Session.empty())
    W.field("session", Session);
  W.field("program", Source);
  if (std::string_view(Verb) != "edit")
    writeOptions(W);
  W.endObject();
  return W.take();
}

/// Judges a report response for \p K; returns the failures.
std::vector<std::string> judgeResponse(const JsonValue &Resp,
                                       const Kernel &K, uint64_t &Verdicts,
                                       uint64_t &ProvedChecked) {
  std::vector<std::string> Bad;
  if (!Resp.getBool("ok")) {
    Bad.push_back(K.Name + ": error frame: " + Resp.getString("error"));
    return Bad;
  }
  const JsonValue *Results = Resp.get("results");
  size_t N = Results ? Results->items().size() : 0;
  if (N != K.Expected.size())
    Bad.push_back(K.Name + ": " + std::to_string(N) + " verdicts for " +
                  std::to_string(K.Expected.size()) + " properties");
  for (size_t I = 0; I < N; ++I) {
    const JsonValue &PR = Results->items()[I];
    std::string Status = PR.getString("status");
    bool Checked = PR.getBool("cert_checked");
    ++Verdicts;
    ProvedChecked += Status == "Proved" && Checked;
    std::string Why =
        judgeVerdict(K, PR.getString("name"), Status, Checked, false, false);
    if (!Why.empty())
      Bad.push_back(Why);
  }
  return Bad;
}

/// What one connection saw in the timed window.
struct ConnLog {
  std::vector<double> LatencyMs, RttVerify, RttEdit, ServerMs, WireMs;
  uint64_t Attempted = 0, Failed = 0, Verdicts = 0, ProvedChecked = 0;
  uint64_t Edits = 0, Reused = 0, Reverified = 0;
  std::vector<std::string> Mismatches;
};

/// The daemon counters the benchmark reads through the `stats` verb.
struct DaemonCounters {
  double Hits = 0, Misses = 0, Stores = 0, PathFallbacks = 0;
  double DecodeMs = 0, RecheckMs = 0, JournalBytes = 0, Shed = 0;
};

std::string readCounters(DaemonClient &C, DaemonCounters &Out) {
  Result<JsonValue> R = C.call("{\"verb\":\"stats\"}");
  if (!R.ok())
    return "stats: " + R.error();
  const JsonValue *PC = R->get("proof_cache");
  const JsonValue *J = R->get("journal");
  const JsonValue *Shed = R->get("shed");
  if (!R->getBool("ok") || !PC || !J || !Shed)
    return "stats: incomplete response";
  Out.Hits = PC->getNumber("hits");
  Out.Misses = PC->getNumber("misses");
  Out.Stores = PC->getNumber("stores");
  Out.PathFallbacks = PC->getNumber("path_fallbacks");
  Out.DecodeMs = PC->getNumber("decode_millis");
  Out.RecheckMs = PC->getNumber("recheck_millis");
  Out.JournalBytes = J->getNumber("size_bytes");
  Out.Shed = Shed->getNumber("connections") + Shed->getNumber("requests");
  return {};
}

/// One closed-loop client in the timed window.
void clientLoop(DaemonClient &Client, const std::vector<Session *> &Mine,
                uint64_t Seed, double Seconds, const WallTimer &Window,
                std::atomic<uint64_t> &NextReq, Tracer &T, ConnLog &L) {
  Rng Mix(Seed);
  for (Session *S : Mine)
    S->Served.insert(S->Current);
  while (Window.elapsedSeconds() < Seconds) {
    Session &S = *Mine[Mix.below(Mine.size())];
    bool Write = Mix.below(WriteOneIn) == 0;
    int Next = S.Current;
    while (Write && Next == S.Current)
      Next = int(Mix.below(S.Nops.size() + 1)) - 1;
    uint64_t Req = NextReq.fetch_add(1, std::memory_order_relaxed);
    ++L.Attempted;
    WallTimer Latency;
    Result<std::string> Raw = Error("not sent");
    Result<JsonValue> Resp = Error("not sent");
    double RttMs = 0;
    {
      Tracer::Span Root(T, "request", Req);
      std::string Frame;
      {
        Tracer::Span E(T, "encode", Req);
        Frame = Write ? frame("edit", S.Name, sourceOf(S, Next))
                      : frame("verify", "", S.Source);
      }
      {
        Tracer::Span Rpc(T, Write ? "rpc.edit" : "rpc.verify", Req);
        WallTimer Rtt;
        Raw = Client.callRaw(Frame);
        RttMs = Rtt.elapsedMillis();
      }
      if (Raw.ok()) {
        Tracer::Span D(T, "decode", Req);
        Resp = parseJson(*Raw);
      }
    }
    L.LatencyMs.push_back(Latency.elapsedMillis());
    if (!Raw.ok() || !Resp.ok()) {
      ++L.Failed;
      L.Mismatches.push_back("wire: " +
                             (Raw.ok() ? Resp.error() : Raw.error()));
      // A broken connection cannot recover; stop this client.
      return;
    }
    std::vector<std::string> Bad =
        judgeResponse(*Resp, S.Pristine, L.Verdicts, L.ProvedChecked);
    if (!Bad.empty()) {
      ++L.Failed;
      L.Mismatches.insert(L.Mismatches.end(), Bad.begin(), Bad.end());
      continue;
    }
    (Write ? L.RttEdit : L.RttVerify).push_back(RttMs);
    double Server = Resp->getNumber("total_millis");
    L.ServerMs.push_back(Server);
    L.WireMs.push_back(RttMs - Server);
    if (Write) {
      ++L.Edits;
      L.Reused += uint64_t(Resp->getNumber("reused"));
      L.Reverified += uint64_t(Resp->getNumber("reverified"));
      S.Current = Next;
      S.Source = sourceOf(S, Next);
      S.Served.insert(Next);
    }
  }
}

/// A running daemon with its sessions open and warm.
struct LiveDaemon {
  DaemonProcess Daemon;
  std::vector<DaemonClient> Clients;
};

std::string setUp(const RunConfig &C, const std::string &CacheDir,
                  std::vector<Session> &Sessions, LiveDaemon &Out) {
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
  std::string Err =
      Out.Daemon.start(C.ReflexBin, C.OutDir + "/reflexd.sock", CacheDir,
                       C.OutDir + "/reflexd.log", unsigned(Sessions.size()));
  if (!Err.empty())
    return Err;
  for (unsigned I = 0; I < Connections; ++I) {
    Result<DaemonClient> Client =
        DaemonClient::connect(C.OutDir + "/reflexd.sock");
    if (!Client.ok())
      return "connect: " + Client.error();
    Out.Clients.push_back(std::move(*Client));
  }
  // Each connection opens its sessions (a cold verify that fills the cache
  // and the journal) and reads each once (filling the re-check memo), the
  // connections side by side.
  std::vector<std::string> Errs(Connections);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Connections; ++I)
    Threads.emplace_back([&, I] {
      for (unsigned J = 0; J < SessionsPerConnection && Errs[I].empty();
           ++J) {
        Session &S = Sessions[I * SessionsPerConnection + J];
        S.Current = -1;
        S.Source = S.Pristine.Source;
        for (std::string Frame : {frame("open-session", S.Name, S.Source),
                                  frame("verify", "", S.Source)}) {
          Result<JsonValue> Resp = Out.Clients[I].call(Frame);
          uint64_t V = 0, P = 0;
          std::vector<std::string> Bad =
              Resp.ok() ? judgeResponse(*Resp, S.Pristine, V, P)
                        : std::vector<std::string>{Resp.error()};
          if (!Bad.empty()) {
            Errs[I] = "set-up: " + Bad.front();
            break;
          }
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errs)
    if (!E.empty())
      return E;
  return {};
}

} // namespace

RunResult runEditServe(const RunConfig &C, Tracer &T) {
  RunResult R;
  R.note("scale", std::to_string(SessionScale));
  R.note("connections", std::to_string(Connections));
  R.note("sessions_per_connection", std::to_string(SessionsPerConnection));
  R.note("write_share", "1/" + std::to_string(WriteOneIn));
  if (C.ReflexBin.empty()) {
    R.mismatch("edit-serve needs --reflex (the reflex CLI)");
    return R;
  }

  // The construct-correct kernels of the seed's first corpora.
  std::vector<Session> Sessions;
  std::vector<Corpus> Pool = makePool(C.Seed, SessionScale, SessionCorpora);
  for (size_t Cp = 0; Cp < Pool.size(); ++Cp)
    for (Kernel &K : Pool[Cp]) {
      if (Sessions.size() == Connections * SessionsPerConnection)
        break;
      bool AllProved = true;
      for (const gen::ExpectedVerdict &E : K.Expected)
        AllProved = AllProved && E.Expect == gen::ExpectKind::Proved;
      DiagnosticEngine Diags;
      ProgramPtr P = parseProgram(K.Source, Diags);
      if (!AllProved || !P)
        continue;
      Session S;
      S.Name = "s";
      S.Name += std::to_string(Sessions.size());
      for (size_t H = 0; H < P->Handlers.size(); ++H) {
        std::set<std::string> Assigned;
        collectAssignedVars(*P->Handlers[H].Body, Assigned);
        if (!Assigned.empty())
          S.Nops.emplace_back(H, *Assigned.begin() + " = " +
                                     *Assigned.begin() + ";");
      }
      if (S.Nops.empty())
        continue;
      S.Pristine = std::move(K);
      S.Pristine.Name = "corpus" + std::to_string(Cp) + "/" + S.Pristine.Name;
      Sessions.push_back(std::move(S));
    }
  if (Sessions.size() != Connections * SessionsPerConnection) {
    R.mismatch("corpora have too few editable construct-correct kernels");
    return R;
  }

  const std::string CacheDir = C.OutDir + "/edit-serve-cache";
  LiveDaemon Srv;
  std::vector<double> SetupS;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    if (I > 0) {
      Srv.Clients.clear();
      Srv.Daemon.stop();
    }
    WallTimer W;
    std::string Err = setUp(C, CacheDir, Sessions, Srv);
    if (!Err.empty()) {
      R.mismatch(Err);
      return R;
    }
    SetupS.push_back(W.elapsedSeconds());
  }

  Result<DaemonClient> Control =
      DaemonClient::connect(C.OutDir + "/reflexd.sock");
  DaemonCounters Before, After;
  std::string Err = Control.ok() ? readCounters(*Control, Before)
                                 : "connect: " + Control.error();
  if (!Err.empty()) {
    R.mismatch(Err);
    return R;
  }

  std::vector<ConnLog> Logs(Connections);
  std::atomic<uint64_t> NextReq{1};
  pid_t Pid = Srv.Daemon.pid();
  double Cpu0 = processCpuMillis() + childCpuMillis(Pid);
  WallTimer Window;
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < Connections; ++I)
      Threads.emplace_back([&, I] {
        std::vector<Session *> Mine;
        for (unsigned J = 0; J < SessionsPerConnection; ++J)
          Mine.push_back(&Sessions[I * SessionsPerConnection + J]);
        clientLoop(Srv.Clients[I], Mine, C.Seed * 31 + I, C.Seconds, Window,
                   NextReq, T, Logs[I]);
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  WindowStats W;
  W.WallSeconds = Window.elapsedSeconds();
  W.CpuMillis = processCpuMillis() + childCpuMillis(Pid) - Cpu0;
  Err = readCounters(*Control, After);
  if (!Err.empty())
    R.mismatch(Err);
  double PeakRss = processPeakRssMb() + childPeakRssMb(Pid);
  Srv.Clients.clear();
  Srv.Daemon.stop();
  // Each edit journals the whole session, certificates included (about
  // 2.4 MB at scale 6), so the cache directory grows by hundreds of MB.
  std::error_code EC;
  auto Cleanup = [&] { std::filesystem::remove_all(CacheDir, EC); };

  ConnLog All;
  for (ConnLog &L : Logs) {
    auto Append = [](std::vector<double> &To, const std::vector<double> &F) {
      To.insert(To.end(), F.begin(), F.end());
    };
    Append(All.LatencyMs, L.LatencyMs);
    Append(All.RttVerify, L.RttVerify);
    Append(All.RttEdit, L.RttEdit);
    Append(All.ServerMs, L.ServerMs);
    Append(All.WireMs, L.WireMs);
    All.Verdicts += L.Verdicts;
    All.ProvedChecked += L.ProvedChecked;
    All.Edits += L.Edits;
    All.Reused += L.Reused;
    All.Reverified += L.Reverified;
    R.Attempted += L.Attempted;
    R.Failed += L.Failed;
    for (std::string &M : L.Mismatches)
      R.mismatch(std::move(M));
  }
  W.LatencyMs = All.LatencyMs;
  W.Verdicts = All.Verdicts;
  W.ProvedChecked = All.ProvedChecked;
  R.note("requests", std::to_string(R.Attempted));
  R.note("edits", std::to_string(All.Edits));

  R.EndToEnd = windowMetrics(W, "");
  R.EndToEnd.push_back(
      {"proved_frac",
       double(W.ProvedChecked) / double(std::max<uint64_t>(W.Verdicts, 1)),
       "fraction"});
  R.EndToEnd.push_back({"setup_s", median(SetupS), "s"});
  R.EndToEnd.push_back({"peak_rss_mb", PeakRss, "MB"});
  if (!T.on()) {
    Cleanup();
    return R;
  }

  for (Metric &M : windowMetrics(W, "traced."))
    R.Layers.push_back(M);
  double Requests = double(std::max<uint64_t>(R.Attempted, 1));
  double Edits = double(std::max<uint64_t>(All.Edits, 1));
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  R.Layers.push_back({"daemon.rtt_ms.verify", mean(All.RttVerify), "ms"});
  R.Layers.push_back({"daemon.rtt_ms.edit", mean(All.RttEdit), "ms"});
  R.Layers.push_back({"daemon.server_ms", mean(All.ServerMs), "ms"});
  R.Layers.push_back({"daemon.wire_ms", mean(All.WireMs), "ms"});
  R.Layers.push_back({"daemon.journal_bytes",
                      (After.JournalBytes - Before.JournalBytes) / Edits,
                      "bytes"});
  R.Layers.push_back({"daemon.shed", After.Shed - Before.Shed, "count"});
  double Hits = After.Hits - Before.Hits, Misses = After.Misses - Before.Misses;
  R.Layers.push_back(
      {"proofcache.hit_ratio", Ratio(Hits, Hits + Misses), "fraction"});
  R.Layers.push_back({"proofcache.decode_ms",
                      (After.DecodeMs - Before.DecodeMs) / Requests, "ms"});
  R.Layers.push_back({"proofcache.recheck_ms",
                      (After.RecheckMs - Before.RecheckMs) / Requests, "ms"});
  R.Layers.push_back(
      {"proofcache.stores", (After.Stores - Before.Stores) / Requests,
       "count"});
  R.Layers.push_back({"proofcache.path_fallbacks",
                      (After.PathFallbacks - Before.PathFallbacks) / Requests,
                      "count"});
  // The cost of opening the populated cache (index preload), measured
  // in-process once the daemon has stopped.
  std::vector<double> OpenMs;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    WallTimer Open;
    Result<std::unique_ptr<ProofCache>> PC = ProofCache::open(CacheDir);
    OpenMs.push_back(Open.elapsedMillis());
    if (!PC.ok())
      R.mismatch("proof cache: " + PC.error());
  }
  R.Layers.push_back({"proofcache.open_ms", median(OpenMs), "ms"});
  Cleanup();
  R.Layers.push_back(
      {"incremental.reuse_ratio",
       Ratio(double(All.Reused), double(All.Reused + All.Reverified)),
       "fraction"});
  R.Layers.push_back(
      {"incremental.reverified", double(All.Reverified) / Edits, "count"});

  // Replay every source revision served, in-process, layer by layer.
  std::vector<Kernel> Revisions;
  for (const Session &S : Sessions)
    for (int V : S.Served) {
      Kernel K = S.Pristine;
      K.Source = sourceOf(S, V);
      Revisions.push_back(std::move(K));
    }
  Replay Rp(T, EngineKind::Induction);
  WallTimer ReplayTime;
  for (const Kernel &K : Revisions) {
    Rp.request({&K}, R);
    if (ReplayTime.elapsedSeconds() >= replaySeconds(C))
      break;
  }
  Rp.metrics(R.Layers);
  R.note("replayed_requests", std::to_string(Rp.requests()));
  return R;
}

} // namespace perfbench
