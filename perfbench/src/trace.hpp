#pragma once

// Span tracing from outside the program: the benchmark wraps its calls into
// each layer's public functions in `Span`s. Spans nest on one thread; a
// span's self time is its duration minus the time its child spans cover.
// Per-name counts, inclusive and self time are aggregated online; the first
// `kKept` span records are kept in memory and written out at the end
// (name, start, end, parent, request id).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using NameId = std::uint32_t;

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< inclusive
    std::uint64_t self_ns = 0;   ///< minus child spans
  };

  /// Span records kept for the dump; aggregates cover every span.
  static constexpr std::size_t kKept = 200'000;

  Tracer();

  /// Intern a span name ("layer.operation"); call once per name.
  NameId name(const std::string& span_name);

  void begin(NameId name, std::uint64_t request = 0);
  void end();

  /// Totals by name (0 when the name was never interned).
  Totals totals(const std::string& span_name) const;

  /// Sum of self time over every span whose name starts with `layer` +
  /// "." (or equals `layer`).
  std::uint64_t layer_self_ns(const std::string& layer) const;

  /// Sum of the durations of spans with no parent (= sum of all self times).
  std::uint64_t top_level_ns() const noexcept { return top_level_ns_; }
  std::uint64_t spans_recorded() const noexcept { return next_id_ - 1; }

  /// Write kept records as TSV: id, parent, name, start_ns, end_ns, request.
  bool write(const std::string& path) const;

 private:
  struct Open {
    NameId name;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t request;
  };
  struct Kept {
    std::uint64_t id;
    std::uint64_t parent;
    NameId name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
  };

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::uint64_t next_id_ = 1;
  std::uint64_t top_level_ns_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, Tracer::NameId name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, request);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
