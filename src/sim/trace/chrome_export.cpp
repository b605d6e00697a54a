/// \file chrome_export.cpp
/// Chrome trace_event JSON exporter. Emits the subset of the format that
/// Perfetto and chrome://tracing load: "M" metadata naming one thread per
/// track, "X" complete events for intervals, "i" instants, and "C" counter
/// series for circular-buffer occupancy. Timestamps are microseconds
/// (the format's unit); the simulator's picosecond resolution survives as
/// fractional values.

#include <fstream>
#include <ostream>

#include "ttsim/common/check.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::sim {

namespace {

double to_us(SimTime t) { return static_cast<double>(t) * 1e-6; }

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// Kind-specific arguments so the Perfetto detail pane shows the payload.
void write_args(std::ostream& os, const TraceEvent& e) {
  os << "{";
  const char* sep = "";
  if (e.core >= 0) {
    os << "\"core\":" << e.core;
    sep = ",";
  }
  if (e.a >= 0) {
    os << sep << "\"id\":" << e.a;
    sep = ",";
  }
  if (e.b != 0) {
    os << sep << "\"n\":" << e.b;
    sep = ",";
  }
  if (e.addr != 0) {
    os << sep << "\"addr\":" << e.addr;
    sep = ",";
  }
  if (e.bytes != 0) {
    os << sep << "\"bytes\":" << e.bytes;
  }
  os << "}";
}

}  // namespace

void TraceSink::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"ttsim\"}}";
  for (std::size_t t = 0; t < track_names_.size(); ++t) {
    os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape(os, track_names_[t]);
    os << "\"}},\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << t
       << "}}";
  }
  for (const TraceEvent* ep : canonical_order()) {
    const TraceEvent& e = *ep;
    os << ",\n{\"ph\":\"" << (e.dur > 0 ? 'X' : 'i') << "\",\"pid\":0,\"tid\":"
       << e.track << ",\"ts\":" << to_us(e.ts);
    if (e.dur > 0) os << ",\"dur\":" << to_us(e.dur);
    os << ",\"name\":\"" << to_string(e.kind) << "\"";
    if (e.dur == 0) os << ",\"s\":\"t\"";
    os << ",\"args\":";
    write_args(os, e);
    os << "}";
    // CB push/pop carry the post-op occupancy: emit a parallel counter
    // series so Perfetto renders each CB's fill level over time.
    if (e.kind == TraceEventKind::kCbPush || e.kind == TraceEventKind::kCbPop) {
      os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":" << e.track
         << ",\"ts\":" << to_us(e.ts + e.dur) << ",\"name\":\"cb" << e.a
         << " core" << e.core
         << " occupancy\",\"args\":{\"pages\":" << e.b << "}}";
    }
  }
  os << "\n]}\n";
}

void TraceSink::write_chrome_trace_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f.good()) TTSIM_THROW_API("cannot open trace output file: " << path);
  write_chrome_trace(f);
  if (!f.good()) TTSIM_THROW_API("error writing trace output file: " << path);
}

}  // namespace ttsim::sim
