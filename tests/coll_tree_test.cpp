// Tree builders and SMP embedding: structural properties, parameterized
// over sizes and roots.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "coll/ops.hpp"
#include "coll/tree.hpp"
#include "util/align.hpp"

namespace srm::coll {
namespace {

using machine::Topology;

using TreeParam = std::tuple<TreeKind, int, int>;  // kind, n, root

class TreeProps : public ::testing::TestWithParam<TreeParam> {};

TEST_P(TreeProps, ValidSpanningTree) {
  auto [kind, n, root] = GetParam();
  Tree t = build_tree(kind, n, root);
  t.validate();
  EXPECT_EQ(t.root, root);
  EXPECT_EQ(t.subtree_size(root), n);
}

TEST_P(TreeProps, HeightBounds) {
  auto [kind, n, root] = GetParam();
  Tree t = build_tree(kind, n, root);
  int h = t.height();
  switch (kind) {
    case TreeKind::binomial:
      // Max depth of a binomial tree over n vertices is floor(log2(n)).
      EXPECT_EQ(h, util::log2_floor(static_cast<unsigned>(n)));
      break;
    case TreeKind::flat:
      EXPECT_EQ(h, n == 1 ? 0 : 1);
      break;
    case TreeKind::binary:
      EXPECT_LE(h, 2 * util::log2_ceil(static_cast<unsigned>(n)) + 1);
      break;
    case TreeKind::fibonacci:
      // Postal trees are deeper than binomial but still logarithmic-ish.
      EXPECT_LE(h, n == 1 ? 0 : 2 * util::log2_ceil(static_cast<unsigned>(n)) + 2);
      break;
    case TreeKind::bine:
      // Bounded dissemination plus the flat straggler tier.
      EXPECT_LE(h, n == 1 ? 0 : 2 * util::log2_ceil(static_cast<unsigned>(n)) + 4);
      break;
  }
}

std::string tree_param_name(const ::testing::TestParamInfo<TreeParam>& info) {
  return std::string(tree_kind_name(std::get<0>(info.param))) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_r" +
         std::to_string(std::get<2>(info.param));
}

/// Every kind x size x root with the root inside the tree.
std::vector<TreeParam> tree_params() {
  std::vector<TreeParam> out;
  for (TreeKind kind : {TreeKind::binomial, TreeKind::binary,
                        TreeKind::fibonacci, TreeKind::flat, TreeKind::bine}) {
    for (int n : {1, 2, 3, 5, 8, 13, 16, 31, 32, 100, 256}) {
      for (int root : {0, 1, 7, 255}) {
        if (root < n) out.emplace_back(kind, n, root);
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeProps, ::testing::ValuesIn(tree_params()),
                         tree_param_name);

TEST(BinomialTree, MatchesHandComputedEightRanks) {
  // vrank children: 0 -> {1,2,4}, 2 -> {3}, 4 -> {5,6}, 6 -> {7}.
  Tree t = binomial_tree(8, 0);
  EXPECT_EQ(t.children[0], (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(t.children[2], (std::vector<int>{3}));
  EXPECT_EQ(t.children[4], (std::vector<int>{5, 6}));
  EXPECT_EQ(t.children[6], (std::vector<int>{7}));
  EXPECT_TRUE(t.children[1].empty());
  EXPECT_EQ(t.parent[7], 6);
}

TEST(BinomialTree, NonZeroRootRotates) {
  Tree t = binomial_tree(8, 3);
  EXPECT_EQ(t.parent[3], -1);
  // vrank 1 is rank 4, child of the root.
  EXPECT_EQ(t.parent[4], 3);
  t.validate();
}

TEST(FlatTree, RootParentsEveryone) {
  Tree t = flat_tree(5, 2);
  for (int v = 0; v < 5; ++v) {
    if (v == 2) continue;
    EXPECT_EQ(t.parent[static_cast<std::size_t>(v)], 2);
  }
  EXPECT_EQ(t.children[2].size(), 4u);
}

TEST(FibonacciTree, InformedCountsFollowFibonacci) {
  // Informed counts per postal step are 1, 2, 3, 5, 8, 13: reaching 13
  // vertices takes 5 steps, so no root-to-leaf path exceeds 5 edges, and a
  // Fibonacci tree is strictly deeper than the binomial tree's 3.
  Tree t = fibonacci_tree(13, 0);
  t.validate();
  EXPECT_LE(t.height(), 5);
  EXPECT_GE(t.height(), util::log2_floor(13u));
  // The root keeps sending every step; with 5 steps it has 5 children.
  EXPECT_EQ(t.children[0].size(), 5u);
}

TEST(BineTree, PowerOfTwoInformsInLogSteps) {
  // On a power of two the negabinary distance walk never collides: the
  // informed count doubles every step, so the height matches binomial.
  for (int n : {2, 4, 8, 16, 32}) {
    Tree t = bine_tree(n, 0);
    t.validate();
    EXPECT_EQ(t.height(), util::log2_floor(static_cast<unsigned>(n)))
        << "n=" << n;
    EXPECT_EQ(t.subtree_size(0), n);
  }
}

TEST(BineTree, SpansEveryCountAndRoot) {
  for (int n = 1; n <= 33; ++n) {
    for (int root : {0, n - 1, n / 2}) {
      Tree t = bine_tree(n, root);
      t.validate();
      EXPECT_EQ(t.root, root);
      EXPECT_EQ(t.subtree_size(root), n);
    }
  }
}

TEST(TreeKindNames, RoundTrip) {
  for (TreeKind k : {TreeKind::binomial, TreeKind::binary, TreeKind::fibonacci,
                     TreeKind::flat, TreeKind::bine}) {
    TreeKind out;
    ASSERT_TRUE(tree_kind_from_name(tree_kind_name(k), out));
    EXPECT_EQ(out, k);
  }
  TreeKind out;
  EXPECT_FALSE(tree_kind_from_name("nope", out));
}

TEST(Embedding, PaperFigureOneShape) {
  // 8 nodes x 16 tasks (the paper's Figure 1, 128 processors).
  Topology topo(8, 16);
  Embedding e = embed(topo, 0, TreeKind::binomial, TreeKind::binomial);
  e.internode.validate();
  for (const auto& t : e.intranode) t.validate();
  // Embedding adds no height: log2(128) = 7 = log2(8) + log2(16).
  EXPECT_EQ(e.height(topo), 7);
  EXPECT_EQ(e.internode.height(), 3);
  for (const auto& t : e.intranode) EXPECT_EQ(t.height(), 4);
}

TEST(Embedding, LeadersAreMastersExceptRootNode) {
  Topology topo(4, 16);
  Embedding e = embed(topo, 37, TreeKind::binomial, TreeKind::binomial);
  EXPECT_EQ(e.leader[0], 0);
  EXPECT_EQ(e.leader[1], 16);
  EXPECT_EQ(e.leader[2], 37);  // root 37 lives on node 2 and leads it
  EXPECT_EQ(e.leader[3], 48);
  // Intranode tree on node 2 is rooted at the root's local rank.
  EXPECT_EQ(e.intranode[2].root, 5);
}

TEST(Embedding, FifteenOfSixteenStillOptimal) {
  // The paper's "leave one CPU for daemons" configuration: 15 tasks/node.
  Topology topo(8, 15);
  Embedding e = embed(topo, 0, TreeKind::binomial, TreeKind::binomial);
  // Embedding height log2(8) + floor(log2(15)) = 6 does not exceed the flat
  // binomial tree's ceil bound for 120 ranks (the paper's optimality claim).
  EXPECT_EQ(e.height(topo), 6);
  EXPECT_LE(e.height(topo), util::log2_ceil(120u));
}

TEST(Embedding, SingleNodeDegeneratesToIntranodeTree) {
  Topology topo(1, 16);
  Embedding e = embed(topo, 3, TreeKind::binomial, TreeKind::binomial);
  EXPECT_EQ(e.internode.n, 1);
  EXPECT_EQ(e.height(topo), 4);
  EXPECT_EQ(e.leader[0], 3);
}

TEST(Ops, CombineSumDoubles) {
  double a[4] = {1, 2, 3, 4};
  double b[4] = {10, 20, 30, 40};
  combine(RedOp::sum, Dtype::f64, a, b, 4);
  EXPECT_EQ(a[0], 11);
  EXPECT_EQ(a[3], 44);
}

TEST(Ops, CombineMinMaxInt) {
  std::int32_t a[3] = {5, -2, 7};
  std::int32_t b[3] = {3, 0, 9};
  std::int32_t a2[3] = {5, -2, 7};
  combine(RedOp::min, Dtype::i32, a, b, 3);
  EXPECT_EQ(a[0], 3);
  EXPECT_EQ(a[1], -2);
  EXPECT_EQ(a[2], 7);
  combine(RedOp::max, Dtype::i32, a2, b, 3);
  EXPECT_EQ(a2[0], 5);
  EXPECT_EQ(a2[2], 9);
}

TEST(Ops, CombineProdFloat) {
  float a[2] = {2.0f, 3.0f};
  float b[2] = {4.0f, 0.5f};
  combine(RedOp::prod, Dtype::f32, a, b, 2);
  EXPECT_FLOAT_EQ(a[0], 8.0f);
  EXPECT_FLOAT_EQ(a[1], 1.5f);
}

TEST(Ops, DtypeSizes) {
  EXPECT_EQ(dtype_size(Dtype::f64), 8u);
  EXPECT_EQ(dtype_size(Dtype::f32), 4u);
  EXPECT_EQ(dtype_size(Dtype::i32), 4u);
  EXPECT_EQ(dtype_size(Dtype::i64), 8u);
}

machine::TopologyParams two_socket() {
  machine::TopologyParams tp;
  tp.cores_per_l3 = 4;
  tp.l3_per_socket = 2;
  tp.sockets = 2;
  return tp;
}

TEST(TopoTree, SingleDomainIsFlat) {
  machine::TopologyParams tp;  // one 16-core crossbar domain
  Tree t = topo_tree(tp, 8, 3);
  t.validate();
  for (int v = 0; v < 8; ++v) {
    if (v != 3) {
      EXPECT_EQ(t.parent[static_cast<std::size_t>(v)], 3);
    }
  }
}

TEST(TopoTree, SingleDomainBinomialMatchesBinomialTree) {
  machine::TopologyParams tp;
  for (int root : {0, 5}) {
    Tree t = topo_tree(tp, 16, root, /*binomial=*/true);
    Tree b = binomial_tree(16, root);
    EXPECT_EQ(t.parent, b.parent) << "root=" << root;
  }
}

TEST(TopoTree, EveryDomainBoundaryCrossedExactlyOnce) {
  machine::TopologyParams tp = two_socket();
  for (bool binomial : {false, true}) {
    for (int root : {0, 5}) {
      Tree t = topo_tree(tp, 16, root, binomial);
      t.validate();
      int cross_socket = 0;
      int cross_l3 = 0;
      for (int v = 0; v < 16; ++v) {
        int p = t.parent[static_cast<std::size_t>(v)];
        if (p < 0) continue;
        if (tp.socket_of(v) != tp.socket_of(p)) {
          ++cross_socket;
        } else if (tp.l3_of(v) != tp.l3_of(p)) {
          ++cross_l3;
        }
      }
      // One edge into each non-root socket; one edge into each L3 slice
      // that is not its socket leader's own.
      EXPECT_EQ(cross_socket, tp.sockets - 1)
          << "root=" << root << " binomial=" << binomial;
      EXPECT_EQ(cross_l3, tp.sockets * (tp.l3_per_socket - 1))
          << "root=" << root << " binomial=" << binomial;
    }
  }
}

TEST(TopoTree, RootLeadsItsOwnDomains) {
  machine::TopologyParams tp = two_socket();
  // Root 5 lives in L3 slice 1 of socket 0: it must head both, with no
  // detour through the lowest-numbered task.
  Tree t = topo_tree(tp, 16, 5);
  t.validate();
  EXPECT_EQ(t.parent[5], -1);
  // The other socket's leader (its lowest task) hangs directly off the root.
  EXPECT_EQ(t.parent[8], 5);
  // Socket 0's other L3 slice (tasks 0..3) is led by task 0, also off root.
  EXPECT_EQ(t.parent[0], 5);
}

TEST(TopoTree, TruncatedNodeStaysSpanning) {
  // Fewer local tasks than the described topology: domains simply go
  // unpopulated and the tree still spans.
  machine::TopologyParams tp = two_socket();
  for (int n : {3, 6, 11}) {
    for (bool binomial : {false, true}) {
      Tree t = topo_tree(tp, n, 0, binomial);
      t.validate();
      EXPECT_EQ(t.subtree_size(0), n);
    }
  }
}

}  // namespace
}  // namespace srm::coll
