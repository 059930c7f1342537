#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer(std::size_t capacity) { spans_.reserve(capacity); }

int Tracer::open(const char* name, long id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ns(), 0, open_, id});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::close(int index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

void Tracer::clear() {
  spans_.clear();
  open_ = -1;
}

std::vector<std::int64_t> Tracer::child_ns() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  return child;
}

std::int64_t Tracer::total_ns(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.end_ns - s.start_ns;
  return sum;
}

std::int64_t Tracer::self_ns(const std::string& name) const {
  const std::vector<std::int64_t> child = child_ns();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name)
      sum += spans_[i].end_ns - spans_[i].start_ns - child[i];
  return sum;
}

std::int64_t Tracer::top_level_ns() const {
  std::int64_t sum = 0;
  for (const Span& s : spans_)
    if (s.parent < 0) sum += s.end_ns - s.start_ns;
  return sum;
}

std::map<std::string, Tracer::Totals> Tracer::by_name() const {
  const std::vector<std::int64_t> child = child_ns();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = out[spans_[i].name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process_name) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
       "\"args\":{\"name\":\""
    << process_name << "\"}}";
  char buf[96];
  for (const Span& s : spans_) {
    // Chrome trace timestamps are microseconds; keep ns resolution.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    f << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
