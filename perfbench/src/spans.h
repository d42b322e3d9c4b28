#pragma once

// The benchmark's own spans, recorded around every layer call and every
// run_simulation of the traced run. They stay in memory and are written
// out once, when the run ends; nothing here runs inside the program.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  ///< static storage (a literal)
    int parent = -1;             ///< index of the enclosing span, -1 = root
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    double work = 0.0;  ///< units of work done inside (pairs, atoms, calls)

    double seconds() const { return 1e-9 * static_cast<double>(t1_ns - t0_ns); }
  };

  /// RAII span: opens on construction and closes on `close()` or on
  /// destruction, whichever comes first. `set_work` records the units
  /// of work done inside.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void close() {
      if (open_) log_.close(id_);
      open_ = false;
    }
    void set_work(double w) { log_.spans_[static_cast<std::size_t>(id_)].work = w; }
    const Span& span() const { return log_.spans_[static_cast<std::size_t>(id_)]; }

   private:
    SpanLog& log_;
    int id_;
    bool open_ = true;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part its direct children cover.
  double self_seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    double child = 0.0;
    for (const Span& c : spans_) {
      if (c.parent == id) child += c.seconds();
    }
    return s.seconds() - child;
  }

  /// Chrome trace-event JSON ("X" events, microseconds), one track.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.t0_ns / 1000.0
          << ",\"dur\":" << (s.t1_ns - s.t0_ns) / 1000.0 << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"work\":" << s.work
          << ",\"self_us\":" << self_seconds(static_cast<int>(i)) * 1e6 << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0_ns = steady_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1_ns = steady_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
