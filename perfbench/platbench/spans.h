// Host-time spans around the benchmark's calls into each layer.
//
// The traced run wraps every call it makes into a layer's public functions —
// machine and kernel construction, observer attach, the app entry call, the
// standalone request-script generation, the stats readout and each probe
// loop — in a span with a name, host start and end, and its parent span.
// Spans live in memory and are written once, at exit, as Chrome trace-event
// JSON (the format obs::ExportChromeTrace emits, so Perfetto opens both).
// Every span of one run carries the same trace id.
#ifndef PERFBENCH_PLATBENCH_SPANS_H_
#define PERFBENCH_PLATBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace platbench {

class SpanLog {
 public:
  explicit SpanLog(std::string trace_id);

  // Opens a span under the innermost open one; returns its id.
  int Begin(std::string name);
  // Closes the innermost open span, which must be `id`.
  void End(int id);

  // Host seconds a span's own code ran: its duration minus the part of it
  // its child spans cover, summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;

  std::string ToChromeJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double begin_us = 0;
    double end_us = 0;
  };
  double NowUs() const;

  const std::string trace_id_;
  const std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing, so untraced runs share the code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace platbench

#endif  // PERFBENCH_PLATBENCH_SPANS_H_
