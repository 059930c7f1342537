// In-memory span recorder for the benchmark's traced runner.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions; nothing inside src/ is instrumented. A
// span is (name, start, end, parent, id): `parent` is the index of the span
// that was open when it began (-1 at top level) and `id` is the sentence or
// step it belongs to. The recorder is single-threaded and keeps everything
// in a vector reserved up front, so a span costs two clock reads and one
// push; it writes nothing until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string: a layer name such as "core.ffn"
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a top-level span
    long id;     ///< sentence or step id, -1 when neither applies
  };

  /// Capacity is reserved once; recording past it still works (it grows).
  explicit Tracer(std::size_t capacity = 1 << 17);

  /// Disabled tracers record nothing — the untraced baseline of the same
  /// runner code, used to measure the recorder's own overhead.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span under the currently open one; returns its index (or -1
  /// when disabled). Spans must close in LIFO order.
  int open(const char* name, long id = -1);
  void close(int index);

  /// Drop every recorded span (capacity is kept).
  void clear();

  const std::vector<Span>& spans() const { return spans_; }

  /// Σ duration of spans named `name`, in ns.
  std::int64_t total_ns(const std::string& name) const;
  /// Σ self time (duration minus the time covered by direct children) of
  /// spans named `name`, in ns.
  std::int64_t self_ns(const std::string& name) const;
  /// Σ duration of top-level spans, in ns (the runner time the trace names).
  std::int64_t top_level_ns() const;
  /// Per-name aggregates: {calls, total ns, self ns}.
  struct Totals {
    long calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events, one
  /// thread track), loadable in Perfetto or chrome://tracing. Returns false
  /// if the file could not be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  std::vector<std::int64_t> child_ns() const;

  bool enabled_ = true;
  int open_ = -1;  ///< index of the innermost open span
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, long id = -1)
      : t_(t), index_(t.open(name, id)) {}
  ~Scope() { t_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

}  // namespace perfbench
