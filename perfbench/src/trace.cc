//===- perfbench/src/trace.cc - In-memory span recorder -------------------===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "support/json.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> NextSpanId{1};

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint64_t> OpenSpans;

} // namespace

Tracer::Span::Span(Tracer &Tr, const char *N, uint64_t Req) {
  if (!Tr.on())
    return;
  T = &Tr;
  Name = N;
  Request = Req;
  Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  OpenSpans.push_back(Id);
  Start = Clock::now();
}

Tracer::Span::~Span() {
  if (!T)
    return;
  Clock::time_point End = Clock::now();
  OpenSpans.pop_back();
  auto Us = [&](Clock::time_point P) {
    return std::chrono::duration<double, std::micro>(P - T->Origin).count();
  };
  std::lock_guard<std::mutex> Lock(T->Mu);
  auto [It, Fresh] =
      T->Threads.emplace(std::this_thread::get_id(), T->Threads.size() + 1);
  (void)Fresh;
  T->Records.push_back({Name, Id, Parent, Request, Us(Start), Us(End),
                        It->second});
}

double Tracer::Span::elapsedMillis() const {
  if (!T)
    return 0;
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

std::map<std::string, double>
Tracer::selfMillis(const std::function<bool(uint64_t)> &Keep) const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Children of one span run on its thread and one after another, so the
  // time they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> ChildUs;
  for (const Record &R : Records)
    if (R.Parent)
      ChildUs[R.Parent] += R.EndUs - R.StartUs;
  std::map<std::string, double> Out;
  for (const Record &R : Records) {
    if (!Keep(R.Request))
      continue;
    auto It = ChildUs.find(R.Id);
    double Self = R.EndUs - R.StartUs - (It == ChildUs.end() ? 0 : It->second);
    Out[R.Name] += Self / 1e3;
  }
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  reflex::JsonWriter W;
  W.beginObject();
  W.field("displayTimeUnit", "ms");
  W.key("traceEvents");
  W.beginArray();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Record &R : Records) {
      W.beginObject();
      W.field("name", R.Name);
      W.field("cat", "perfbench");
      W.field("ph", "X");
      // Microsecond timestamps; %.6g would round them, so splice them in
      // with full precision.
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.3f", R.StartUs);
      W.key("ts");
      W.rawValue(Buf);
      std::snprintf(Buf, sizeof(Buf), "%.3f", R.EndUs - R.StartUs);
      W.key("dur");
      W.rawValue(Buf);
      W.field("pid", int64_t(1));
      W.field("tid", int64_t(R.Thread));
      W.key("args");
      W.beginObject();
      W.field("request", int64_t(R.Request));
      W.field("id", int64_t(R.Id));
      W.field("parent", int64_t(R.Parent));
      W.endObject();
      W.endObject();
    }
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path);
  Out << W.str() << "\n";
  return bool(Out);
}

} // namespace perfbench
