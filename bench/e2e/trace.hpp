// trace.hpp — the span recorder of the end-to-end benchmark.
//
// A span is one timed call into a layer's public function, recorded from
// the benchmark's own code: name, start, end and the span that caused it.
// Every thread records into its own Lane (no locking on the hot path);
// spans stay in memory and are analysed after the threads joined: per
// name the count, the total time and the self time (duration minus the
// union of its children's intervals, which may run on other threads).
// The same spans are written out as Chrome trace JSON.
//
// Untraced runs pass a null Lane*; every Scope then costs one branch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace likwid::e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  int lane = 0;
};

/// One thread's span buffer; only the owning thread records into it.
class Lane {
 public:
  Lane(int index, std::uint64_t root_parent)
      : index_(index), root_parent_(root_parent) {}

  /// Open a span under the innermost open span of this lane (or under
  /// the lane's root parent) and return its id.
  std::uint64_t begin(const char* name) {
    Span span;
    span.name = name;
    span.id = (static_cast<std::uint64_t>(index_ + 1) << 40) |
              static_cast<std::uint64_t>(spans_.size() + 1);
    span.parent = open_.empty() ? root_parent_ : spans_[open_.back()].id;
    span.lane = index_;
    open_.push_back(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = now_ns();
    return span.id;
  }

  /// Close the innermost open span.
  void end() {
    const std::int64_t t = now_ns();
    spans_[open_.back()].end_ns = t;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  int index_;
  std::uint64_t root_parent_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null lane records nothing.
class Scope {
 public:
  Scope(Lane* lane, const char* name) : lane_(lane) {
    if (lane_ != nullptr) id_ = lane_->begin(name);
  }
  ~Scope() {
    if (lane_ != nullptr) lane_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Id of this span (0 when untraced) — the root parent of lanes that
  /// other threads open on its behalf.
  std::uint64_t id() const noexcept { return id_; }

 private:
  Lane* lane_;
  std::uint64_t id_ = 0;
};

/// Per-name aggregate of the recorded spans.
struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double child_ns = 0;  ///< union of the children's intervals, summed
};

class Tracer {
 public:
  /// A new lane for the calling thread; its outermost spans hang under
  /// `root_parent` (a span id of another lane, or 0).
  Lane* lane(std::uint64_t root_parent = 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>(static_cast<int>(lanes_.size()),
                                            root_parent));
    return lanes_.back().get();
  }

  /// Aggregate every span by name. Call only after all recording threads
  /// joined.
  std::map<std::string, LayerTime> layers() const {
    std::vector<const Span*> all;
    for (const auto& lane : lanes_) {
      for (const Span& span : lane->spans()) all.push_back(&span);
    }
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) index[all[i]->id] = i;
    std::vector<std::vector<std::size_t>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto parent = index.find(all[i]->parent);
      if (parent != index.end()) children[parent->second].push_back(i);
    }
    std::map<std::string, LayerTime> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& span = *all[i];
      intervals.clear();
      for (const std::size_t c : children[i]) {
        const std::int64_t lo = std::max(all[c]->start_ns, span.start_ns);
        const std::int64_t hi = std::min(all[c]->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t covered = 0;
      std::int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : intervals) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      LayerTime& layer = out[span.name];
      ++layer.count;
      layer.total_ns += duration;
      layer.child_ns += static_cast<double>(covered);
      layer.self_ns += duration - static_cast<double>(covered);
    }
    return out;
  }

  /// Every span as a Chrome trace "complete" event (chrome://tracing,
  /// Perfetto). Call only after all recording threads joined.
  void write_chrome(std::ostream& out) const {
    std::int64_t origin = 0;
    bool first = true;
    for (const auto& lane : lanes_) {
      for (const Span& span : lane->spans()) {
        if (first || span.start_ns < origin) origin = span.start_ns;
        first = false;
      }
    }
    out << "{\"traceEvents\":[";
    first = true;
    for (const auto& lane : lanes_) {
      for (const Span& span : lane->spans()) {
        out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.lane
            << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
            << ",\"dur\":"
            << static_cast<double>(span.end_ns - span.start_ns) / 1e3 << "}";
        first = false;
      }
    }
    out << "\n]}\n";
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace likwid::e2e
