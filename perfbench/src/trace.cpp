#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(const char* name) {
  // Span names are string literals: a pointer match is the fast path, the
  // string compare catches identical literals the linker did not merge.
  for (std::size_t i = 0; i < name_keys_.size(); ++i) {
    if (name_keys_[i] == name || names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  name_keys_.push_back(name);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
  const std::uint64_t parent_op =
      parent == kNoParent ? op : (op != 0 ? op : spans_[parent].op);
  spans_.push_back(
      Record{intern(name), now_ns(), 0, parent, parent_op, 0u, true});
  stack_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench tracer: span closed out of order");
  }
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::envelope(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t op,
                      std::uint32_t lane) {
  spans_.push_back(
      Record{intern(name), start_ns, end_ns, kNoParent, op, lane, false});
}

Tracer::Accounting Tracer::account() const {
  // Children are recorded after their parent and lie inside it, so one
  // pass subtracting each child's duration from its parent gives self time.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = 1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.accounted && r.parent != kNoParent) {
      self[r.parent] -= 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  Accounting acc;
  acc.rows.resize(names_.size());
  for (std::size_t n = 0; n < names_.size(); ++n) acc.rows[n].name = names_[n];
  std::vector<bool> used(names_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (!r.accounted) continue;
    LayerRow& row = acc.rows[r.name];
    used[r.name] = true;
    ++row.count;
    row.total_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    row.self_s += self[i];
    acc.self_sum_s += self[i];
  }
  std::vector<LayerRow> rows;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (used[n]) rows.push_back(std::move(acc.rows[n]));
  }
  std::sort(rows.begin(), rows.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  acc.rows = std::move(rows);
  acc.wall_s = 1e-9 * static_cast<double>(window_ns_);
  acc.residual_s = acc.wall_s - acc.self_sum_s;
  return acc;
}

double Tracer::total_s(const char* name) const {
  double sum = 0.0;
  for (const Record& r : spans_) {
    if (r.accounted && names_[r.name] == name) {
      sum += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  return sum;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& process_name) const {
  std::ofstream os{path, std::ios::trunc};
  if (!os) throw std::runtime_error("perfbench: cannot open " + path);
  std::int64_t first = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Record& r : spans_) first = std::min(first, r.start_ns);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\""
     << process_name << "\"}}";
  char buf[256];
  for (const Record& r : spans_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                  names_[r.name].c_str(), r.lane,
                  1e-3 * static_cast<double>(r.start_ns - first),
                  1e-3 * static_cast<double>(r.end_ns - r.start_ns),
                  static_cast<unsigned long long>(r.op));
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("perfbench: write failed for " + path);
}

void print_accounting(std::ostream& os, const Tracer::Accounting& acc,
                      double overhead_frac) {
  char line[200];
  std::snprintf(line, sizeof line, "%-32s %10s %12s %12s %8s\n", "layer span",
                "count", "total ms", "self ms", "self %");
  os << line;
  const double wall = acc.wall_s > 0.0 ? acc.wall_s : 1.0;
  for (const auto& r : acc.rows) {
    std::snprintf(line, sizeof line, "%-32s %10llu %12.3f %12.3f %7.2f%%\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.count),
                  1e3 * r.total_s, 1e3 * r.self_s, 100.0 * r.self_s / wall);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-32s %10s %12s %12.3f %7.2f%%\n",
                "(residual: untimed glue)", "", "", 1e3 * acc.residual_s,
                100.0 * acc.residual_s / wall);
  os << line;
  std::snprintf(line, sizeof line,
                "traced wall %.3f ms = self %.3f ms + residual %.3f ms; "
                "tracing overhead %+.2f%% of untraced time\n",
                1e3 * acc.wall_s, 1e3 * acc.self_sum_s, 1e3 * acc.residual_s,
                100.0 * overhead_frac);
  os << line;
}

}  // namespace perfbench
