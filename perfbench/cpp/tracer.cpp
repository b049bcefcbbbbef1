#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last: the parent of a
/// new span is the top of this stack.
thread_local std::vector<std::size_t> open_spans;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::size_t Tracer::begin(const std::string& name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_spans.empty() ? kNoParent : open_spans.back();
  std::size_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = spans_.size();
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  // Stamp last so the bookkeeping above is not inside the span.
  const double start = ms_between(origin_, Clock::now()) * 1e6;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].start_ns = start;
  return index;
}

void Tracer::end(std::size_t span) {
  const double end = ms_between(origin_, Clock::now()) * 1e6;
  if (open_spans.empty() || open_spans.back() != span) {
    throw std::logic_error("spans must close innermost first");
  }
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[span].end_ns = end;
}

void Tracer::add(const std::string& name, std::uint64_t id,
                 Clock::time_point start, Clock::time_point end,
                 std::size_t parent) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.start_ns = ms_between(origin_, start) * 1e6;
  span.end_ns = ms_between(origin_, end) * 1e6;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_ms(name)) total += d;
  return total;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Time covered by each span's children: the union of their intervals
  // (request spans of one pass overlap each other).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered_to = -1.0;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, covered_to);
      if (hi > from) child_ns[i] += hi - from;
      covered_to = std::max(covered_to, hi);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Summary& sum = out[s.name];
    ++sum.count;
    sum.wall_ms += (s.end_ns - s.start_ns) * 1e-6;
    sum.self_ms += (s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  for (const auto& [name, s] : summarize()) {
    std::printf("span %-36s count %7llu  wall %10.3f ms  self %10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.wall_ms, s.self_ms);
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":"
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ",\"start_ns\":" << static_cast<long long>(s.start_ns)
        << ",\"end_ns\":" << static_cast<long long>(s.end_ns) << "}\n";
  }
}

}  // namespace perfbench
