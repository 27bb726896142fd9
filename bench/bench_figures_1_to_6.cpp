// Figures 1-6 (paper §3-§4): the hash tree of the running example and each
// worked split/merge transformation, regenerated from the library and
// printed as ASCII art next to the paper's hyper-label notation.
//
// Flags: --json-out=BENCH_figures_1_to_6.json

#include <cstdio>
#include <stdexcept>
#include <string>

#include "hashtree/paper_figures.hpp"
#include "util/bench_report.hpp"
#include "util/bitstring.hpp"
#include "util/flags.hpp"

using namespace agentloc;
using namespace agentloc::hashtree;

namespace {

void print_tree(const char* title, const HashTree& tree) {
  std::printf("%s\n%s", title, tree.render_ascii(paper_name).c_str());
  std::printf("hyper-labels:");
  for (const IAgentId leaf : tree.leaves()) {
    std::printf("  %s=%s", paper_name(leaf).c_str(),
                tree.hyper_label(leaf).c_str());
  }
  std::printf("\n\n");
}

util::BenchReport::Row& add_figure_row(util::BenchReport& report,
                                       const char* figure,
                                       const HashTree& tree) {
  return report.add_row()
      .set("figure", figure)
      .set("leaves", static_cast<std::uint64_t>(tree.leaf_count()))
      .set("version", tree.version());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::string json_out;
  try {
    json_out = flags.get_string("json-out", "BENCH_figures_1_to_6.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_figures_1_to_6: %s\n", error.what());
    return 2;
  }
  util::BenchReport report("figures_1_to_6");

  std::printf("=== Figure 1: the hash tree of the running example ===\n\n");
  const HashTree figure1 = figure1_tree();
  print_tree("Figure 1 (leaves IA0..IA6):", figure1);
  add_figure_row(report, "1", figure1);

  std::printf("=== Figure 2: prefix/hyper-label compatibility ===\n\n");
  const util::BitString prefix = util::BitString::parse("00110");
  std::printf("id prefix          : %s\n", prefix.to_string().c_str());
  std::printf("IA2's hyper-label  : %s (valid bits at positions 0, 1, 4)\n",
              figure1.hyper_label(kIA2).c_str());
  std::printf("compatible(IA2)    : %s\n",
              figure1.compatible(prefix, kIA2) ? "yes" : "no");
  std::printf("lookup(%s)      -> %s\n\n", prefix.to_string().c_str(),
              paper_name(figure1.lookup(prefix).iagent).c_str());
  add_figure_row(report, "2", figure1)
      .set("compatible_ia2", figure1.compatible(prefix, kIA2) ? "yes" : "no")
      .set("lookup", paper_name(figure1.lookup(prefix).iagent));

  std::printf("=== Figure 3: simple split of IA3 (hyper-label 1.0) ===\n\n");
  HashTree fig3 = figure1_tree();
  fig3.simple_split(kIA3, 1, kIA7, 7);
  fig3.validate();
  print_tree("After simple split (IA3 keeps 1.0.0, IA7 takes 1.0.1):", fig3);
  add_figure_row(report, "3", fig3);

  std::printf(
      "=== Figure 4: complex split of IA1 (hyper-label 0.10) ===\n\n");
  HashTree fig4 = figure1_tree();
  const auto candidates = fig4.complex_split_candidates(kIA1);
  std::printf("padding bits available on IA1's path: %zu\n",
              candidates.size());
  fig4.complex_split(kIA1, candidates.front(), kIA7, 7);
  fig4.validate();
  print_tree("After complex split (label 10 splits into 1 . 0|1):", fig4);
  add_figure_row(report, "4", fig4)
      .set("split_candidates", static_cast<std::uint64_t>(candidates.size()));

  std::printf("=== Figure 5: simple merge of IA6 into IA5 ===\n\n");
  HashTree fig5 = figure1_tree();
  const MergeResult simple = fig5.merge(kIA6);
  fig5.validate();
  std::printf("merge kind: %s, absorbed by %s\n",
              simple.kind == MergeResult::Kind::kSimple ? "simple" : "complex",
              paper_name(simple.into_iagent).c_str());
  print_tree("After simple merge (IA5 moves up to serve prefix 11):", fig5);
  add_figure_row(report, "5", fig5)
      .set("merge_kind",
           simple.kind == MergeResult::Kind::kSimple ? "simple" : "complex");

  std::printf(
      "=== Figure 6: complex merge of IA1 into its sibling subtree ===\n\n");
  HashTree fig6 = figure1_tree();
  const MergeResult complex_merge = fig6.merge(kIA1);
  fig6.validate();
  std::printf("merge kind: %s\n",
              complex_merge.kind == MergeResult::Kind::kSimple ? "simple"
                                                               : "complex");
  print_tree(
      "After complex merge (label 0 absorbs 011; IA1's agents redistribute):",
      fig6);
  add_figure_row(report, "6", fig6)
      .set("merge_kind", complex_merge.kind == MergeResult::Kind::kSimple
                             ? "simple"
                             : "complex");

  std::printf("GraphViz rendering of Figure 1 (for the paper's diagram):\n%s\n",
              figure1_tree().render_dot(paper_name).c_str());

  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
