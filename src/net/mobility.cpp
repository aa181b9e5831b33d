#include "net/mobility.hpp"

#include <cmath>

#include "util/check.hpp"

namespace m2hew::net {

void validate_mobility_config(const MobilityConfig& config) {
  M2HEW_CHECK_MSG(config.nodes >= 1, "mobility needs at least one node");
  M2HEW_CHECK(config.side > 0.0 && config.radius > 0.0);
  M2HEW_CHECK(config.speed_min >= 0.0);
  M2HEW_CHECK(config.speed_max >= config.speed_min);
  M2HEW_CHECK_MSG(config.epochs >= 1, "mobility needs at least one epoch");
}

RandomWaypointModel::RandomWaypointModel(const MobilityConfig& config,
                                         std::uint64_t seed)
    : config_(config) {
  validate_mobility_config(config);
  const util::SeedSequence seeds(seed);
  positions_.reserve(config.nodes);
  motion_.reserve(config.nodes);
  for (NodeId u = 0; u < config.nodes; ++u) {
    NodeMotion m{util::Rng(seeds.derive(u, kMobilityStreamSalt)),
                 Point{}, 0.0, 0};
    positions_.push_back({m.rng.uniform_double(0.0, config.side),
                          m.rng.uniform_double(0.0, config.side)});
    m.waypoint = {m.rng.uniform_double(0.0, config.side),
                  m.rng.uniform_double(0.0, config.side)};
    m.speed = m.rng.uniform_double(config.speed_min, config.speed_max);
    motion_.push_back(std::move(m));
  }
}

void RandomWaypointModel::advance_epoch() {
  for (NodeId u = 0; u < config_.nodes; ++u) {
    NodeMotion& m = motion_[u];
    if (m.pause_left > 0) {
      --m.pause_left;
      continue;
    }
    Point& pos = positions_[u];
    double budget = m.speed;  // distance available this epoch
    // A leg may end mid-epoch; the remaining budget continues on the next
    // leg unless a pause was drawn at the waypoint.
    while (budget > 0.0) {
      const double dx = m.waypoint.x - pos.x;
      const double dy = m.waypoint.y - pos.y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist > budget) {
        pos.x += dx * (budget / dist);
        pos.y += dy * (budget / dist);
        break;
      }
      pos = m.waypoint;
      budget -= dist;
      if (config_.pause_epochs > 0) {
        m.pause_left = static_cast<std::uint64_t>(m.rng.uniform_range(
            0, static_cast<std::int64_t>(config_.pause_epochs)));
      }
      m.waypoint = {m.rng.uniform_double(0.0, config_.side),
                    m.rng.uniform_double(0.0, config_.side)};
      m.speed = m.rng.uniform_double(config_.speed_min, config_.speed_max);
      if (m.pause_left > 0) break;  // parked: drop the rest of the budget
      if (m.speed <= 0.0) break;    // zero-speed leg: parked until redrawn
    }
  }
}

}  // namespace m2hew::net
