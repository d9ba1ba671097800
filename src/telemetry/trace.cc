// Copyright 2026 The streambid Authors

#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>

namespace streambid::telemetry {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kGateDrain:
      return "gate_drain";
    case Phase::kPrepare:
      return "prepare";
    case Phase::kAutoscale:
      return "autoscale";
    case Phase::kAdmit:
      return "admit";
    case Phase::kComplete:
      return "complete";
    case Phase::kRebalance:
      return "rebalance";
  }
  return "unknown";
}

void PeriodTracer::Record(Phase phase, int period, int shard,
                          uint64_t epoch, double start_ms,
                          double duration_ms) {
  TraceSpan span;
  span.phase = phase;
  span.period = period;
  span.shard = shard;
  span.epoch = epoch;
  span.start_ms = start_ms;
  span.duration_ms = duration_ms;
  MutexLock lock(mutex_);
  span.seq = next_seq_++;
  spans_.push_back(span);
}

int64_t PeriodTracer::span_count() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(spans_.size());
}

void PeriodTracer::Clear() {
  MutexLock lock(mutex_);
  spans_.clear();
  next_seq_ = 0;
}

std::vector<TraceSpan> PeriodTracer::SortedSpans() const {
  std::vector<TraceSpan> spans;
  {
    MutexLock lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.period != b.period) return a.period < b.period;
              if (a.shard != b.shard) return a.shard < b.shard;
              if (a.phase != b.phase) {
                return static_cast<int>(a.phase) < static_cast<int>(b.phase);
              }
              // Identity keys are unique per instrumentation site; seq
              // breaks hypothetical ties stably for the annotated views
              // (it never appears in IdentitySequence).
              return a.seq < b.seq;
            });
  return spans;
}

std::string PeriodTracer::IdentitySequence() const {
  std::string out;
  for (const TraceSpan& span : SortedSpans()) {
    out += "period=" + std::to_string(span.period) +
           " shard=" + std::to_string(span.shard) +
           " epoch=" + std::to_string(span.epoch) +
           " phase=" + PhaseName(span.phase) + "\n";
  }
  return out;
}

std::string PeriodTracer::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[256];
  for (const TraceSpan& span : SortedSpans()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"name\":\"%s\",\"cat\":\"period\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
        "\"args\":{\"period\":%d,\"shard\":%d,\"epoch\":%llu}}",
        PhaseName(span.phase), span.start_ms * 1000.0,
        span.duration_ms * 1000.0, span.shard + 1, span.period, span.shard,
        static_cast<unsigned long long>(span.epoch));
    out += buffer;
  }
  out += "]}";
  return out;
}

Status PeriodTracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path);
  }
  const std::string json = ChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int closed = std::fclose(f);
  if (written != json.size() || closed != 0) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace streambid::telemetry
