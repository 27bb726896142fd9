#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace agentloc::sim {

/// A point (or span) on the simulated clock.
///
/// Stored as integer nanoseconds so event ordering is exact and runs replay
/// bit-identically; helpers convert to the milliseconds in which the paper
/// reports location times. Arithmetic is closed over the type — a difference
/// of two times is again a `SimTime` used as a duration, which matches how
/// the experiment code consumes it.
class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime nanos(std::int64_t n) { return SimTime(n); }
  static constexpr SimTime micros(std::int64_t us) {
    return SimTime(us * 1000);
  }
  static constexpr SimTime millis(double ms) {
    return SimTime(static_cast<std::int64_t>(ms * 1e6));
  }
  static constexpr SimTime seconds(double s) {
    return SimTime(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr SimTime zero() { return SimTime(0); }

  /// Largest representable time; used as "no deadline".
  static constexpr SimTime infinity() {
    return SimTime(INT64_MAX);
  }

  constexpr std::int64_t as_nanos() const { return nanos_; }
  constexpr double as_millis() const { return static_cast<double>(nanos_) / 1e6; }
  constexpr double as_seconds() const { return static_cast<double>(nanos_) / 1e9; }

  constexpr SimTime operator+(SimTime other) const {
    return SimTime(nanos_ + other.nanos_);
  }
  constexpr SimTime operator-(SimTime other) const {
    return SimTime(nanos_ - other.nanos_);
  }
  constexpr SimTime operator*(std::int64_t k) const {
    return SimTime(nanos_ * k);
  }
  constexpr SimTime operator/(std::int64_t k) const {
    return SimTime(nanos_ / k);
  }
  SimTime& operator+=(SimTime other) {
    nanos_ += other.nanos_;
    return *this;
  }
  SimTime& operator-=(SimTime other) {
    nanos_ -= other.nanos_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  /// "12.345ms" rendering for logs.
  std::string str() const;

 private:
  explicit constexpr SimTime(std::int64_t nanos) : nanos_(nanos) {}
  std::int64_t nanos_ = 0;
};

std::ostream& operator<<(std::ostream& os, SimTime t);

}  // namespace agentloc::sim
