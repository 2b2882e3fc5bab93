// asyncmac/util/histogram.h
//
// Streaming histogram over non-negative integer samples (ticks, slot
// counts, queue sizes). Exact min/max/mean plus quantiles from
// power-of-two-ish logarithmic buckets — adequate for latency tails where
// only the order of magnitude matters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asyncmac::util {

/// Exact signed 128-bit accumulator for int64 samples (two's complement
/// split into a high signed word and a low unsigned word). A plain
/// `double` running sum silently drops low bits once the magnitude
/// exceeds 2^53, which long-horizon tick sums reach routinely; this keeps
/// every bit until the caller converts at the reporting boundary.
struct Int128Sum {
  std::int64_t hi = 0;
  std::uint64_t lo = 0;

  void add(std::int64_t v) noexcept {
    const std::uint64_t old = lo;
    lo += static_cast<std::uint64_t>(v);
    hi += (v < 0 ? -1 : 0) + (lo < old ? 1 : 0);
  }

  void add(const Int128Sum& o) noexcept {
    const std::uint64_t old = lo;
    lo += o.lo;
    hi += o.hi + (lo < old ? 1 : 0);
  }

  void clear() noexcept { hi = 0; lo = 0; }

  /// Lossy conversion for reporting (hi * 2^64 + lo as a double).
  double to_double() const noexcept;

  friend bool operator==(const Int128Sum& a, const Int128Sum& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

class Histogram {
 public:
  Histogram();

  void add(std::int64_t sample);
  void merge(const Histogram& other);
  void clear();

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  std::int64_t min() const;
  std::int64_t max() const;
  double mean() const;
  /// Running sample sum as a double (reporting only — see sum_exact()).
  double sum() const noexcept { return sum_.to_double(); }
  /// Bit-exact running sample sum; survives past 2^53 where a double
  /// accumulator starts dropping increments.
  const Int128Sum& sum_exact() const noexcept { return sum_; }

  /// Approximate quantile q in [0,1]; exact at q=0 and q=1.
  std::int64_t quantile(double q) const;

  /// One-line human-readable summary: "n=… min=… p50=… p99=… max=…".
  std::string summary() const;

  /// Exact internal state, for checkpoint/resume (snapshot/checkpoint.h).
  /// restore() replaces everything; the bucket vector length must match
  /// this build's bucket layout (it is fixed at construction).
  struct State {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    Int128Sum sum;
    std::int64_t min = 0;
    std::int64_t max = 0;
  };
  State state() const { return {buckets_, count_, sum_, min_, max_}; }
  void restore(State s);

  bool operator==(const Histogram&) const = default;

 private:
  static std::size_t bucket_of(std::int64_t v) noexcept;
  static std::int64_t bucket_upper(std::size_t b) noexcept;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  Int128Sum sum_;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace asyncmac::util
