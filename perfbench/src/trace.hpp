// Span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into the simulator's public functions
// in spans (name, start, end, parent, op id). Spans stay in memory and are
// written out once, at the end, as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing). A span's self time is its duration minus
// the part of it covered by its child spans; the part of the traced wall
// time no span covers is the residual (benchmark glue between calls).
//
// All recording happens on one thread. Nested spans must close in LIFO
// order (the Span guard enforces it). Envelope spans (`accounted == false`)
// are visualisation-only: they may overlap other spans — the gateway's
// interleaved sessions — and are excluded from the self-time accounting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Record {
    std::uint32_t name;    ///< index into names_
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  ///< record index or kNoParent
    std::uint64_t op;      ///< the op (frame, job, session) it belongs to
    std::uint32_t lane;    ///< Chrome trace tid
    bool accounted;
  };

  /// Open a span as a child of the innermost open span; returns its index.
  std::uint32_t begin(const char* name, std::uint64_t op);
  void end(std::uint32_t index);

  /// Record a closed envelope span (not part of the self-time accounting).
  void envelope(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t op, std::uint32_t lane);

  /// Start / stop the traced wall-clock window the accounting covers. A
  /// run may open several windows (traced passes interleaved with untraced
  /// ones); their lengths add up.
  void start_window() { window_start_ = now_ns(); }
  void stop_window() { window_ns_ += now_ns() - window_start_; }

  struct LayerRow {
    std::string name;
    std::uint64_t count{0};
    double total_s{0.0};
    double self_s{0.0};
  };
  struct Accounting {
    std::vector<LayerRow> rows;  ///< by descending self time
    double wall_s{0.0};          ///< traced window
    double self_sum_s{0.0};
    double residual_s{0.0};      ///< wall - self_sum
  };
  [[nodiscard]] Accounting account() const;

  /// Sum of durations of accounted spans named `name`.
  [[nodiscard]] double total_s(const char* name) const;

  void write_chrome_json(const std::string& path,
                         const std::string& process_name) const;

 private:
  std::uint32_t intern(const char* name);

  std::vector<Record> spans_;
  std::vector<std::string> names_;
  std::vector<const char*> name_keys_;
  std::vector<std::uint32_t> stack_;
  std::int64_t window_start_{0};
  std::int64_t window_ns_{0};
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t op = 0)
      : tracer_{tracer}, index_{tracer ? tracer->begin(name, op) : 0u} {}
  ~Span() {
    if (tracer_) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// The per-layer self-time table, residual and tracing overhead.
void print_accounting(std::ostream& os, const Tracer::Accounting& acc,
                      double overhead_frac);

}  // namespace perfbench
