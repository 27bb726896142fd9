// Human-readable renderings of the hash tree: ASCII art for the figure
// benches (reproducing the paper's Figures 1 and 3–6) and GraphViz dot.

#include <sstream>

#include "hashtree/tree.hpp"

namespace agentloc::hashtree {

namespace {
std::string default_name(hashtree::IAgentId id) {
  return "IA" + std::to_string(id);
}
}  // namespace

std::string HashTree::render_ascii(const LeafNamer& namer) const {
  std::ostringstream os;
  const LeafNamer& name = namer ? namer : LeafNamer(default_name);

  struct Walker {
    const HashTree& tree;
    std::ostringstream& os;
    const LeafNamer& name;

    void walk(std::uint32_t slot, const std::string& prefix, bool is_last,
              bool is_root) {
      const Node& node = tree.nodes_[slot];
      const util::BitString& label = tree.labels_[slot];
      std::string line;
      if (!is_root) {
        line = prefix + (is_last ? "`-- " : "|-- ") + label.to_string();
      } else {
        line = "(root";
        if (!label.empty()) line += " pad=" + label.to_string();
        line += ")";
      }
      if (node.is_leaf()) {
        line += " -> " + name(node.iagent) + " @node" +
                std::to_string(node.location);
      }
      os << line << "\n";
      if (!node.is_leaf()) {
        const std::string child_prefix =
            is_root ? std::string{} : prefix + (is_last ? "    " : "|   ");
        walk(node.child[0], child_prefix, false, false);
        walk(node.child[1], child_prefix, true, false);
      }
    }
  };

  Walker{*this, os, name}.walk(root_, "", true, true);
  return os.str();
}

std::string HashTree::render_dot(const LeafNamer& namer) const {
  std::ostringstream os;
  const LeafNamer& name = namer ? namer : LeafNamer(default_name);
  os << "digraph hashtree {\n  node [shape=circle];\n";

  struct Walker {
    const HashTree& tree;
    std::ostringstream& os;
    const LeafNamer& name;
    int counter = 0;

    int walk(std::uint32_t slot) {
      const Node& node = tree.nodes_[slot];
      const int id = counter++;
      if (node.is_leaf()) {
        os << "  n" << id << " [shape=box,label=\"" << name(node.iagent)
           << "\\nnode " << node.location << "\"];\n";
      } else {
        os << "  n" << id << " [label=\"\"];\n";
      }
      if (!node.is_leaf()) {
        const int left = walk(node.child[0]);
        const int right = walk(node.child[1]);
        os << "  n" << id << " -> n" << left << " [label=\""
           << tree.labels_[node.child[0]].to_string() << "\"];\n";
        os << "  n" << id << " -> n" << right << " [label=\""
           << tree.labels_[node.child[1]].to_string() << "\"];\n";
      }
      return id;
    }
  };

  Walker walker{*this, os, name};
  if (!labels_[root_].empty()) {
    os << "  pad [shape=plaintext,label=\"pad " << labels_[root_].to_string()
       << "\"];\n";
  }
  walker.walk(root_);
  os << "}\n";
  return os.str();
}

}  // namespace agentloc::hashtree
