#include "core/tracker_table.hpp"

#include <algorithm>

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

void LoadWindow::roll() {
  open_log_.swap(closed_log_);
  open_log_.clear();
  ++rolls_;
}

double LoadWindow::rate() const noexcept {
  return static_cast<double>(total()) / kStatsWindow.as_seconds();
}

std::vector<AgentLoad> LoadWindow::loads() const {
  std::vector<platform::AgentId> ids = closed_log_;
  std::sort(ids.begin(), ids.end());
  std::vector<AgentLoad> out;
  for (const platform::AgentId agent : ids) {
    if (out.empty() || out.back().agent != agent) {
      out.push_back(AgentLoad{agent, 0});
    }
    ++out.back().requests;
  }
  return out;
}

}  // namespace agentloc::core
