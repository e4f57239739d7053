// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer's public function: its name (a
// string literal naming the layer, e.g. "engine.repair.post_event"), its
// start and end on the steady clock, the span that was open around it,
// and the index of the event it belongs to (-1 outside the replay). The
// recorder only appends to a vector; spans are written out as JSON lines
// when the run ends. SpanScope is a no-op on a null recorder, so the
// untraced run goes through the same code with tracing off.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace wallbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::int64_t event = -1;   // replay event index, -1 outside the replay
};

class Tracer {
 public:
  std::int32_t open(const char* name, std::int64_t event) {
    Span span;
    span.name = name;
    span.event = event;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  // One {"name","start_ns","end_ns","parent","event"} object per line.
  void write_jsonl(std::ostream& os) const {
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
         << ",\"event\":" << s.event << "}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// Opens a span for the scope's lifetime; does nothing when tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::int64_t event = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, event) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace wallbench
