#include "net/topology_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/check.hpp"

namespace m2hew::net {

Topology make_line(NodeId n) {
  Topology t(n);
  for (NodeId i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
  t.finalize();
  return t;
}

Topology make_ring(NodeId n) {
  M2HEW_CHECK_MSG(n == 0 || n >= 3, "ring needs at least 3 nodes");
  Topology t(n);
  for (NodeId i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
  if (n >= 3) t.add_edge(n - 1, 0);
  t.finalize();
  return t;
}

Topology make_grid(NodeId rows, NodeId cols) {
  // rows and cols are 32-bit; their product must be computed in 64 bits or
  // a large grid silently wraps (e.g. 70000×70000 → a tiny node count).
  const std::uint64_t total =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  M2HEW_CHECK_MSG(total < kInvalidNode, "grid node count overflows NodeId");
  Topology t(static_cast<NodeId>(total));
  auto id = [cols](NodeId r, NodeId c) {
    return static_cast<NodeId>(static_cast<std::uint64_t>(r) * cols + c);
  };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) t.add_edge(id(r, c), id(r + 1, c));
    }
  }
  t.finalize();
  return t;
}

Topology make_star(NodeId n) {
  M2HEW_CHECK(n >= 1);
  Topology t(n);
  for (NodeId i = 1; i < n; ++i) t.add_edge(0, i);
  t.finalize();
  return t;
}

Topology make_clique(NodeId n) {
  Topology t(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) t.add_edge(i, j);
  }
  t.finalize();
  return t;
}

Topology make_erdos_renyi(NodeId n, double p, util::Rng& rng) {
  M2HEW_CHECK(p >= 0.0 && p <= 1.0);
  Topology t(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) t.add_edge(i, j);
    }
  }
  t.finalize();
  return t;
}

Topology make_erdos_renyi_sparse(NodeId n, double p, util::Rng& rng) {
  M2HEW_CHECK(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return make_clique(n);
  Topology t(n);
  if (p > 0.0 && n > 1) {
    // Batagelj–Brandes skip sampling: enumerate the pairs (v, w), w < v, in
    // lexicographic order and jump geometrically between successive edges.
    // O(n + m) instead of the O(n²) coin-per-pair loop — the only way an
    // N=10⁵–10⁶ sparse graph is affordable.
    const double log_skip = std::log1p(-p);
    std::uint64_t v = 1;
    std::int64_t w = -1;
    while (v < n) {
      const double r = rng.uniform_double();  // in [0, 1)
      w += 1 + static_cast<std::int64_t>(std::log1p(-r) / log_skip);
      while (v < n && w >= static_cast<std::int64_t>(v)) {
        w -= static_cast<std::int64_t>(v);
        ++v;
      }
      if (v < n) {
        t.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(w));
      }
    }
  }
  t.finalize();
  return t;
}

GeometricTopology make_unit_disk(NodeId n, double side, double radius,
                                 util::Rng& rng) {
  M2HEW_CHECK(side > 0.0 && radius > 0.0);
  GeometricTopology g;
  g.positions.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    g.positions.push_back(
        {rng.uniform_double(0.0, side), rng.uniform_double(0.0, side)});
  }
  g.topology = Topology(n);
  const double r2 = radius * radius;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (squared_distance(g.positions[i], g.positions[j]) <= r2) {
        g.topology.add_edge(i, j);
      }
    }
  }
  g.topology.finalize();
  return g;
}

Topology unit_disk_topology(std::span<const Point> positions, double side,
                            double radius) {
  M2HEW_CHECK(side > 0.0 && radius > 0.0);
  const auto n = static_cast<NodeId>(positions.size());
  Topology t(n);

  // Bucket nodes into a grid of cells at least `radius` wide, so a node's
  // neighbors can only lie in its own or the 8 adjacent cells. Expected
  // cost is O(n · density) versus the all-pairs O(n²) scan. The axis count
  // is capped near 2√n to keep the bucket array O(n) even for tiny radii;
  // capping only enlarges cells, which stays correct.
  const double ideal_cells = std::floor(side / radius);
  const auto cell_cap = static_cast<std::size_t>(
                            2.0 * std::sqrt(static_cast<double>(n))) +
                        1;
  // Capped before the cast: side / radius can exceed any integer type.
  const std::size_t cells_per_axis =
      ideal_cells < 1.0 ? 1
                        : static_cast<std::size_t>(std::min(
                              ideal_cells, static_cast<double>(cell_cap)));
  const double cell = side / static_cast<double>(cells_per_axis);
  auto cell_of = [&](const Point& pt) {
    auto cx = static_cast<std::size_t>(pt.x / cell);
    auto cy = static_cast<std::size_t>(pt.y / cell);
    cx = std::min(cx, cells_per_axis - 1);
    cy = std::min(cy, cells_per_axis - 1);
    return cy * cells_per_axis + cx;
  };
  // Counting sort of the node ids by cell: cell k's nodes, ascending, are
  // bucketed[bucket_off[k] .. bucket_off[k + 1]).
  std::vector<NodeId> bucket_off(cells_per_axis * cells_per_axis + 1, 0);
  for (NodeId i = 0; i < n; ++i) ++bucket_off[cell_of(positions[i]) + 1];
  std::partial_sum(bucket_off.begin(), bucket_off.end(), bucket_off.begin());
  std::vector<NodeId> bucketed(n);
  std::vector<NodeId> cursor(bucket_off.begin(), bucket_off.end() - 1);
  for (NodeId i = 0; i < n; ++i) bucketed[cursor[cell_of(positions[i])]++] = i;
  auto bucket = [&](std::size_t k) {
    return std::span<const NodeId>(bucketed).subspan(
        bucket_off[k], bucket_off[k + 1] - bucket_off[k]);
  };

  const double r2 = radius * radius;
  for (std::size_t cy = 0; cy < cells_per_axis; ++cy) {
    for (std::size_t cx = 0; cx < cells_per_axis; ++cx) {
      const auto mine = bucket(cy * cells_per_axis + cx);
      if (mine.empty()) continue;
      // Visit each unordered cell pair once: self cell plus the 4 forward
      // neighbors (E, SW, S, SE); the backward 4 are covered from the
      // other side.
      static constexpr int kDx[] = {0, 1, -1, 0, 1};
      static constexpr int kDy[] = {0, 0, 1, 1, 1};
      for (int d = 0; d < 5; ++d) {
        const auto nx = static_cast<std::int64_t>(cx) + kDx[d];
        const auto ny = static_cast<std::int64_t>(cy) + kDy[d];
        if (nx < 0 || ny < 0 ||
            nx >= static_cast<std::int64_t>(cells_per_axis) ||
            ny >= static_cast<std::int64_t>(cells_per_axis)) {
          continue;
        }
        const auto theirs = bucket(static_cast<std::size_t>(ny) *
                                       cells_per_axis +
                                   static_cast<std::size_t>(nx));
        const bool same_cell = d == 0;
        for (std::size_t a = 0; a < mine.size(); ++a) {
          const std::size_t b_start = same_cell ? a + 1 : 0;
          for (std::size_t b = b_start; b < theirs.size(); ++b) {
            const NodeId i = mine[a];
            const NodeId j = theirs[b];
            if (squared_distance(positions[i], positions[j]) <= r2) {
              t.add_edge(i, j);
            }
          }
        }
      }
    }
  }
  t.finalize();
  return t;
}

GeometricTopology make_unit_disk_bucketed(NodeId n, double side,
                                          double radius, util::Rng& rng) {
  M2HEW_CHECK(side > 0.0 && radius > 0.0);
  GeometricTopology g;
  // Positions are drawn exactly as in make_unit_disk (same stream, same
  // order), so the two generators place identical points for a given Rng
  // state; only the edge-finding strategy differs.
  g.positions.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    g.positions.push_back(
        {rng.uniform_double(0.0, side), rng.uniform_double(0.0, side)});
  }
  g.topology = unit_disk_topology(g.positions, side, radius);
  return g;
}

GeometricTopology make_connected_unit_disk(NodeId n, double side,
                                           double radius, util::Rng& rng,
                                           int attempts) {
  GeometricTopology g;
  for (int k = 0; k < attempts; ++k) {
    g = make_unit_disk(n, side, radius, rng);
    if (g.topology.is_connected()) return g;
  }
  return g;
}

Topology make_watts_strogatz(NodeId n, NodeId k, double beta,
                             util::Rng& rng) {
  M2HEW_CHECK_MSG(k % 2 == 0, "k must be even");
  M2HEW_CHECK(k >= 2 && k < n);
  M2HEW_CHECK(beta >= 0.0 && beta <= 1.0);
  Topology t(n);
  // Ring lattice: node i connects to i+1 .. i+k/2 (mod n); each such edge
  // is rewired to a uniform random non-duplicate endpoint w.p. beta.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 1; j <= k / 2; ++j) {
      // 64-bit sum: i + j can wrap uint32 when n approaches 2^32.
      NodeId target = static_cast<NodeId>(
          (static_cast<std::uint64_t>(i) + j) % n);
      if (rng.bernoulli(beta)) {
        // Rewire: pick a fresh endpoint avoiding self-loops/duplicates.
        for (int attempt = 0; attempt < 64; ++attempt) {
          const auto candidate = static_cast<NodeId>(rng.uniform(n));
          if (candidate != i && !t.has_arc(i, candidate)) {
            target = candidate;
            break;
          }
        }
      }
      if (target != i && !t.has_arc(i, target)) {
        t.add_edge(i, target);
      }
    }
  }
  t.finalize();
  return t;
}

Topology make_barabasi_albert(NodeId n, NodeId m, util::Rng& rng) {
  M2HEW_CHECK(m >= 1 && m < n);
  Topology t(n);
  // Seed with a small clique of m+1 nodes, then attach preferentially.
  // `endpoints` repeats each node once per incident edge, so sampling it
  // uniformly is degree-proportional sampling.
  std::vector<NodeId> endpoints;
  for (NodeId i = 0; i <= m; ++i) {
    for (NodeId j = i + 1; j <= m; ++j) {
      t.add_edge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  for (NodeId v = m + 1; v < n; ++v) {
    NodeId added = 0;
    int attempts = 0;
    while (added < m && attempts < 1000) {
      ++attempts;
      const NodeId candidate = endpoints[static_cast<std::size_t>(
          rng.uniform(endpoints.size()))];
      if (candidate == v || t.has_arc(v, candidate)) continue;
      t.add_edge(v, candidate);
      endpoints.push_back(v);
      endpoints.push_back(candidate);
      ++added;
    }
  }
  t.finalize();
  return t;
}

Topology make_asymmetric(const Topology& symmetric, double drop_probability,
                         util::Rng& rng) {
  M2HEW_CHECK(drop_probability >= 0.0 && drop_probability <= 1.0);
  M2HEW_CHECK_MSG(symmetric.is_symmetric(),
                  "input topology must be symmetric");
  Topology t(symmetric.node_count());
  for (const auto& [u, v] : symmetric.edges()) {
    if (rng.bernoulli(drop_probability)) {
      // Keep one random direction.
      if (rng.bernoulli(0.5)) {
        t.add_arc(u, v);
      } else {
        t.add_arc(v, u);
      }
    } else {
      t.add_edge(u, v);
    }
  }
  t.finalize();
  return t;
}

}  // namespace m2hew::net
