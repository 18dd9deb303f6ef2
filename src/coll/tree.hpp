// Communication-tree builders and the SMP cluster embedding (paper §2.1).
//
// Binomial ("distance power-of-two"), binary, Fibonacci, flat, bine and chain
// trees over an arbitrary vertex count and root. The Embedding assembles the
// paper's Figure-1 structure: a tree over *nodes* (binomial in the paper)
// connecting one leader task per node; each node then runs an intra-node
// tree over its local tasks, rooted at its leader, which the protocol builds
// for its own node. With binomial trees and p tasks on every node, the
// embedding adds no height: log(n*p) >= log(n) + log(p).
#pragma once

#include <string_view>
#include <vector>

#include "machine/params.hpp"
#include "machine/topology.hpp"
#include "util/check.hpp"

namespace srm::coll {

enum class TreeKind { binomial, binary, fibonacci, flat, bine, chain };

const char* tree_kind_name(TreeKind k);
/// Parse @p s into @p out; false (out untouched) when unknown.
bool tree_kind_from_name(std::string_view s, TreeKind& out);

/// Rooted tree over vertices [0, n). Children are stored in the order a
/// reduce expects arrivals (small subtrees first for binomial); a broadcast
/// should iterate them in reverse (largest subtree first).
struct Tree {
  int n = 0;
  int root = 0;
  std::vector<int> parent;                 ///< parent[v]; -1 for the root
  std::vector<std::vector<int>> children;  ///< children[v], construction order

  /// Longest root-to-leaf edge count.
  int height() const;
  /// Size of the subtree rooted at v (v itself included).
  int subtree_size(int v) const;
  /// Structural validation: spanning, acyclic, consistent parent/children.
  void validate() const;
};

/// Build a tree of @p kind over @p n vertices rooted at @p root.
Tree build_tree(TreeKind kind, int n, int root);

Tree binomial_tree(int n, int root);
Tree binary_tree(int n, int root);
Tree fibonacci_tree(int n, int root);
Tree flat_tree(int n, int root);
/// Chain (segmented-pipeline) tree: virtual rank v's parent is v - 1, so
/// every vertex has at most one child and the height is n - 1. A chunk
/// pipeline over it runs at the rate of one combine (or one forward) per
/// vertex, where a k-ary root handles k per chunk.
Tree chain_tree(int n, int root);

/// Bine ("binomial negabinary", PAPERS.md 2508.17311) dissemination tree:
/// step k connects virtual rank u to u ± rho_k (mod n) with
/// rho_k = (1 - (-2)^(k+1)) / 3 and the sign set by u's parity, so
/// consecutive steps alternate direction and the informed set stays
/// contiguous on the ring — distance-1 edges dominate, which is what makes
/// the shape locality-friendly on non-power-of-two vertex counts where the
/// binomial tree's long edges go lopsided. Vertices the bounded dissemination
/// misses (possible off the power of two) attach flat to the root.
Tree bine_tree(int n, int root);

/// Hierarchy-aware intra-node tree over @p n local tasks: root -> socket
/// leaders -> L3 leaders -> cores. The root leads its own socket and L3
/// slice; every other domain is led by its lowest local task. Each leader's
/// group (itself, then its members ordered same-domain cores first, then L3
/// leaders, then socket leaders) is laid out as build_tree(@p kind, group
/// size, 0), so on a single-domain topology the result is exactly
/// build_tree(kind, n, root).
///
/// For a kind whose in-group parents precede their children (binomial,
/// binary, fibonacci, flat, chain), every cache-domain boundary is crossed
/// by exactly one tree edge: the single-copy protocols hang one
/// cross-domain window transfer on each such edge. bine's wrap-around edges
/// break that order, so a bine layout may cross a boundary more than once.
/// A chain layout strings each group along that order, so a domain leader
/// that is not last in its own leader's group has two children: the first
/// member of its own group, and its successor in the group above.
///
/// Fan-out consumers (broadcast pulls, which overlap on the bus anyway)
/// prefer the flat shape; fan-in work (reduce combines, serialized at every
/// parent) runs the calling row's intra-node tree.
Tree topo_tree(const machine::TopologyParams& tp, int n, int root,
               TreeKind kind = TreeKind::flat);

/// The SMP-aware embedding of collective trees into a cluster (Fig. 1): the
/// inter-node half. A node's intra-node tree is rooted at the local rank of
/// its leader.
struct Embedding {
  int root = 0;             ///< global root rank
  Tree internode;           ///< over node ids, rooted at node_of(root)
  std::vector<int> leader;  ///< per node: the network-facing rank
};

/// Build the embedding: an @p internode_kind tree over nodes and one leader
/// per node. The leader of the root's node is the root itself (arbitrary-root
/// support without extra copies, §2.2); every other node is led by its master
/// (local rank 0).
Embedding embed(const machine::Topology& topo, int root,
                TreeKind internode_kind);

}  // namespace srm::coll
