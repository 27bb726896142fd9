#include "trace.hpp"

#include <fstream>

#include "report.hpp"

namespace perfbench {

Tracer::Tracer() {
  kept_.reserve(kKept);
  stack_.reserve(64);
}

Tracer::NameId Tracer::name(const std::string& span_name) {
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i] == span_name) return i;
  }
  names_.push_back(span_name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::begin(NameId name, std::uint64_t request) {
  stack_.push_back(Open{name, next_id_++, now_ns(), 0, request});
}

void Tracer::end() {
  const std::uint64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end_ns - open.start_ns;
  Totals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  std::uint64_t parent = 0;
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  if (kept_.size() < kKept) {
    kept_.push_back(
        Kept{open.id, parent, open.name, open.start_ns, end_ns, open.request});
  }
}

Tracer::Totals Tracer::totals(const std::string& span_name) const {
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i] == span_name) return totals_[i];
  }
  return {};
}

std::uint64_t Tracer::layer_self_ns(const std::string& layer) const {
  std::uint64_t sum = 0;
  for (NameId i = 0; i < names_.size(); ++i) {
    const std::string& n = names_[i];
    if (n == layer || (n.size() > layer.size() && n.compare(0, layer.size(),
                                                            layer) == 0 &&
                       n[layer.size()] == '.')) {
      sum += totals_[i].self_ns;
    }
  }
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\tname\tstart_ns\tend_ns\trequest\n";
  for (const Kept& k : kept_) {
    out << k.id << '\t' << k.parent << '\t' << names_[k.name] << '\t'
        << k.start_ns << '\t' << k.end_ns << '\t' << k.request << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
