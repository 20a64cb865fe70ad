#include "platbench/spans.h"

#include <cstdio>
#include <utility>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace platbench {

SpanLog::SpanLog(std::string trace_id)
    : trace_id_(std::move(trace_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.begin_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  PLAT_CHECK(!open_.empty() && open_.back() == id) << "spans must close innermost first";
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  open_.pop_back();
}

std::map<std::string, double> SpanLog::SelfSecondsByName() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.end_us - span.begin_us;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] += (span.end_us - span.begin_us - child_us[i]) / 1e6;
  }
  return self;
}

std::string SpanLog::ToChromeJson() const {
  platinum::obs::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ns");
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.3f", span.begin_us);
    char dur[64];
    std::snprintf(dur, sizeof(dur), "%.3f", span.end_us - span.begin_us);
    w.BeginObject();
    w.Key("name").Value(span.name);
    w.Key("cat").Value("platbench");
    w.Key("ph").Value("X");
    w.Key("ts").Raw(ts);
    w.Key("dur").Raw(dur);
    w.Key("pid").Value(1);
    w.Key("tid").Value(1);
    w.Key("args").BeginObject();
    w.Key("trace_id").Value(trace_id_);
    w.Key("span_id").Value(static_cast<int>(i));
    w.Key("parent_id").Value(span.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace platbench
