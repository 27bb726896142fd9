#include "core/tracker_table.hpp"

#include "core/config.hpp"

namespace agentloc::core {

Predicate predicate_of(const hashtree::HashTree& tree,
                       hashtree::IAgentId leaf) {
  // The tree extracts (position, valid-bit) pairs straight off the node
  // path — no hyper-label segments are materialized.
  Predicate predicate;
  predicate.valid_bits = tree.valid_bits(leaf);
  predicate.compile();
  return predicate;
}

void LoadWindow::record(platform::AgentId agent) {
  ++open_counts_[agent];
  ++open_total_;
}

void LoadWindow::roll() {
  closed_counts_ = std::move(open_counts_);
  open_counts_.clear();  // restore a consistent (empty) moved-from state
  closed_total_ = open_total_;
  open_total_ = 0;
  ++rolls_;
}

double LoadWindow::rate() const noexcept {
  return static_cast<double>(closed_total_) / kStatsWindow.as_seconds();
}

std::vector<AgentLoad> LoadWindow::loads() const {
  std::vector<AgentLoad> out;
  out.reserve(closed_counts_.size());
  closed_counts_.for_each([&](platform::AgentId agent, std::uint32_t count) {
    out.push_back(AgentLoad{agent, count});
  });
  return out;
}

}  // namespace agentloc::core
