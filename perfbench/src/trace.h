//===- perfbench/src/trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into the library
/// (name, start, end, parent span, request id), kept in memory and written
/// once at exit as Chrome trace-event JSON. A disabled tracer reads no
/// clock and records nothing, so untraced runs pay only a branch per span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool on() const { return On; }

  /// A span open for its lifetime. The parent is the innermost span still
  /// open on the same thread.
  class Span {
  public:
    Span(Tracer &T, const char *Name, uint64_t Request);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Milliseconds since the span opened (0 when tracing is off).
    double elapsedMillis() const;

  private:
    Tracer *T = nullptr; ///< null when tracing is off
    const char *Name = nullptr;
    uint64_t Id = 0, Parent = 0, Request = 0;
    Clock::time_point Start;
  };

  struct Record {
    std::string Name;
    uint64_t Id = 0, Parent = 0, Request = 0;
    double StartUs = 0, EndUs = 0;
    unsigned Thread = 0;
  };

  /// Self time per span name, in milliseconds: a span's duration minus the
  /// time its child spans cover. Only spans whose request id satisfies
  /// \p Keep are counted.
  std::map<std::string, double>
  selfMillis(const std::function<bool(uint64_t)> &Keep) const;

  /// Writes every span as a complete ("ph":"X") trace event.
  bool writeChrome(const std::string &Path) const;

private:
  bool On;
  Clock::time_point Origin;
  mutable std::mutex Mu; ///< guards Records and Threads
  std::vector<Record> Records;
  std::map<std::thread::id, unsigned> Threads;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
