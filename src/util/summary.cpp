#include "util/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agentloc::util {

void Summary::add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_valid_ = false;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_valid_ = false;
}

double Summary::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("Summary::percentile: p outside [0, 100]");
  }
  ensure_sorted();
  const auto n = static_cast<double>(sorted_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) --rank;
  if (rank >= sorted_.size()) rank = sorted_.size() - 1;
  return sorted_[rank];
}

}  // namespace agentloc::util
