#pragma once

#include <cstddef>
#include <vector>

namespace agentloc::util {

/// Accumulates a sample set and reports what the experiment harness prints:
/// the mean, the maximum and exact percentiles.
///
/// Samples are retained so exact percentiles can be computed; experiment
/// sample counts are in the low thousands, so memory is not a concern.
class Summary {
 public:
  void add(double value);

  /// Merge another summary's samples into this one.
  void merge(const Summary& other);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double mean() const noexcept;
  double max() const noexcept;

  /// Exact percentile by nearest-rank on the sorted samples; `p` in [0, 100].
  double percentile(double p) const;

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
};

}  // namespace agentloc::util
