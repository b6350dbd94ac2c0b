// Named perf counters and log2-bucket latency histograms (DESIGN.md
// §11). Components register at Simulator::add() time through
// Component::on_register(); drivers register in their constructors via
// CpuContext::simulator(). Two registration styles:
//
//   * counter(name)/histogram(name): the registry owns the storage and
//     hands back a stable pointer the instrumented code mutates inline.
//   * register_fn(name, fn): zero-overhead export of a value a
//     component already maintains (e.g. Icap::words()) — the sampled
//     getter is only evaluated at snapshot/PerfRegs-read time, so the
//     hot path is untouched. register_fields() does this for a whole
//     Stats struct.
//
// Owned counters only grow. A sampled entry reads whatever its getter
// returns, so it may also be a gauge (a queue depth, a mean) that
// falls as well as rises.
//
// Registration order is deterministic (SoC construction order), which
// gives every counter a stable index — the contract the PerfRegs MMIO
// window relies on.
#pragma once

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.hpp"

namespace rvcap::obs {

/// Registry-owned event/volume counter; only ever grows.
class Counter {
 public:
  void add(u64 n = 1) { value_ += n; }
  u64 value() const { return value_; }

 private:
  u64 value_ = 0;
};

/// Latency histogram with log2 buckets. Bucket 0 holds exact-zero
/// samples ("zero-width"); bucket i (1..32) holds [2^(i-1), 2^i);
/// samples at or above 2^32 saturate into the top bucket. Exact
/// min/max/sum ride alongside so mean() is not bucket-quantised.
class Histogram {
 public:
  static constexpr usize kBuckets = 34;  // 0, 1..32, saturating top

  static usize bucket_index(u64 v) {
    if (v == 0) return 0;
    const usize w = static_cast<usize>(std::bit_width(v));
    return std::min<usize>(w, kBuckets - 1);
  }

  /// Inclusive upper bound of a bucket (for rendering).
  static u64 bucket_bound(usize i) {
    if (i == 0) return 0;
    if (i >= kBuckets - 1) return ~u64{0};
    return (u64{1} << i) - 1;
  }

  void record(u64 v) {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const Histogram& o) {
    for (usize i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  u64 count() const { return count_; }
  u64 sum() const { return sum_; }
  u64 min() const { return count_ == 0 ? 0 : min_; }
  u64 max() const { return max_; }
  u64 mean() const { return count_ == 0 ? 0 : sum_ / count_; }
  u64 bucket(usize i) const { return i < kBuckets ? buckets_[i] : 0; }

  /// Smallest bucket upper bound covering fraction p (0..1) of the
  /// samples — a quantised percentile, clamped to the exact max.
  u64 percentile(double p) const {
    if (count_ == 0) return 0;
    const u64 target =
        static_cast<u64>(p * static_cast<double>(count_) + 0.5);
    u64 seen = 0;
    for (usize i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return std::min(bucket_bound(i), max_);
    }
    return max_;
  }

 private:
  u64 buckets_[kBuckets] = {};
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~u64{0};
  u64 max_ = 0;
};

/// Registry of named counters and histograms with stable pointers and
/// deterministic indices.
class CounterRegistry {
 public:
  /// Find-or-create a registry-owned counter.
  Counter* counter(std::string_view name) {
    for (Entry& e : entries_) {
      if (e.name == name) return &e.owned;
    }
    entries_.push_back(Entry{std::string(name), {}, nullptr});
    return &entries_.back().owned;
  }

  /// Export an externally maintained value as a sampled counter. A
  /// name already present is rebound to `fn`, not added again.
  void register_fn(std::string_view name, std::function<u64()> fn) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.fn = std::move(fn);
        return;
      }
    }
    entries_.push_back(Entry{std::string(name), {}, std::move(fn)});
  }

  /// Export u64 fields of a Stats struct as sampled counters named
  /// `prefix` + field name. `s` must outlive every later read.
  template <class S>
  void register_fields(
      std::string_view prefix, const S& s,
      std::initializer_list<std::pair<std::string_view, u64 S::*>> fields) {
    for (const auto& [name, field] : fields) {
      register_fn(std::string(prefix).append(name),
                  [&s, field] { return s.*field; });
    }
  }

  /// Find-or-create a named histogram.
  Histogram* histogram(std::string_view name) {
    for (HistEntry& h : hists_) {
      if (h.name == name) return &h.hist;
    }
    hists_.push_back(HistEntry{std::string(name), {}});
    return &hists_.back().hist;
  }

  // ---- indexed access (registration order; PerfRegs window) ----
  usize counter_count() const { return entries_.size(); }
  std::string_view counter_name(usize i) const { return entries_[i].name; }
  u64 counter_value(usize i) const {
    const Entry& e = entries_[i];
    return e.fn ? e.fn() : e.owned.value();
  }
  /// Index of a named counter, or counter_count() when absent.
  usize counter_index(std::string_view name) const {
    for (usize i = 0; i < entries_.size(); ++i) {
      if (entries_[i].name == name) return i;
    }
    return entries_.size();
  }

  usize histogram_count() const { return hists_.size(); }
  std::string_view histogram_name(usize i) const { return hists_[i].name; }
  const Histogram& histogram_at(usize i) const { return hists_[i].hist; }

 private:
  struct Entry {
    std::string name;
    Counter owned;
    std::function<u64()> fn;  // when set, shadows `owned`
  };
  struct HistEntry {
    std::string name;
    Histogram hist;
  };

  // deque: growth never invalidates handed-out pointers.
  std::deque<Entry> entries_;
  std::deque<HistEntry> hists_;
};

}  // namespace rvcap::obs
