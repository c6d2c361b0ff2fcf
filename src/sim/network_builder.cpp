#include "sim/network_builder.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/graph_stats.h"
#include "geo/placement.h"
#include "mobility/random_walk.h"
#include "mobility/random_waypoint.h"
#include "mobility/static_mobility.h"
#include "sim/fault_injector.h"

namespace byzcast::sim {

namespace {

/// Byzantine flooding node: reads everything, forwards nothing. All
/// adversary kinds collapse to this under the flooding baseline — the
/// baseline has no recovery machinery for subtler attacks to target.
class DroppingFloodingNode final : public baselines::FloodingNode {
 public:
  using FloodingNode::FloodingNode;

 protected:
  void on_packet(const FloodPacket& /*packet*/, NodeId /*from*/) override {}
};

/// Byzantine multi-overlay node: same silence, applied per overlay copy.
class DroppingMultiOverlayNode final : public baselines::MultiOverlayNode {
 public:
  using MultiOverlayNode::MultiOverlayNode;

 protected:
  void on_packet(const CopyPacket& /*packet*/, NodeId /*from*/) override {}
};

/// Aggregate gauge row over every node's ImpairedTransport — the same
/// counters Network::impairment_stats() totals at end of run, polled
/// per Timeline tick so --report artifacts show when the chaos hit.
class ImpairmentGauges final : public obs::GaugeSource {
 public:
  explicit ImpairmentGauges(const Network& net) : net_(net) {}

  void poll_gauges(obs::GaugeVisitor& visitor) const override {
    const net::ImpairmentStats stats = net_.impairment_stats();
    visitor.gauge("impair_forwarded",
                  static_cast<std::int64_t>(stats.forwarded));
    visitor.gauge("impair_dropped", static_cast<std::int64_t>(stats.dropped));
    visitor.gauge("impair_duplicated",
                  static_cast<std::int64_t>(stats.duplicated));
    visitor.gauge("impair_reordered",
                  static_cast<std::int64_t>(stats.reordered));
    visitor.gauge("impair_delayed", static_cast<std::int64_t>(stats.delayed));
    visitor.gauge("impair_corrupted",
                  static_cast<std::int64_t>(stats.corrupted));
  }

 private:
  const Network& net_;
};

// Clustered placement: two disks of kClusterRadius m joined by a corridor
// of kCorridorNodes nodes. Ring placement: a ring of kRingRadius m.
constexpr double kClusterRadius = 80;
constexpr std::size_t kCorridorNodes = 3;
constexpr double kRingRadius = 180;

std::vector<geo::Vec2> make_placement(const ScenarioConfig& config,
                                      des::Rng& rng) {
  switch (config.placement) {
    case PlacementKind::kUniformConnected:
      return geo::connected_uniform_placement(config.n, config.area,
                                              config.tx_range, rng);
    case PlacementKind::kGrid:
      return geo::grid_placement(config.n, config.area);
    case PlacementKind::kChain:
      return geo::chain_placement(config.n, config.chain_spacing);
    case PlacementKind::kClustered:
      return geo::clustered_placement(config.n, config.area, kCorridorNodes,
                                      kClusterRadius, rng);
    case PlacementKind::kRing:
      return geo::ring_placement(config.n, config.area, kRingRadius);
  }
  throw std::invalid_argument("unknown placement kind");
}

/// One recorder serves the whole fleet on the DES, so the per-message
/// event cap — a per-*node* budget in MsgTraceConfig — scales by n.
obs::MsgTraceConfig fleet_msg_trace_config(const ScenarioConfig& config) {
  obs::MsgTraceConfig trace = config.msg_trace;
  trace.max_events_per_message *= std::max<std::size_t>(config.n, 1);
  return trace;
}

}  // namespace

Network::Network(const ScenarioConfig& config)
    : config_(config),
      sim_(config.seed),
      msg_trace_(fleet_msg_trace_config(config)) {
  const std::size_t n = config.n;
  if (n == 0) throw std::invalid_argument("Network: n must be > 0");
  if (config.byzantine_count() >= n) {
    throw std::invalid_argument("Network: all nodes Byzantine");
  }
  if (config.enable_msg_trace) {
    obs::MsgTraceAnchor anchor;  // whole-fleet DES trace: sim clock
    anchor.n = static_cast<std::uint32_t>(n);
    msg_trace_.set_anchor(anchor);
  }

  pki_ = std::make_unique<crypto::Pki>(sim_.split_rng());

  // --- positions & mobility ------------------------------------------------
  des::Rng placement_rng = sim_.split_rng();
  std::vector<geo::Vec2> positions = make_placement(config, placement_rng);
  // Chain placements can exceed the configured area; size the mobility
  // models' world to fit either way.
  geo::Area world = config.area;
  for (const geo::Vec2& p : positions) {
    world.width = std::max(world.width, p.x + 1);
    world.height = std::max(world.height, p.y + 1);
  }

  mobility_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (config.mobility) {
      case MobilityKind::kStatic:
        mobility_.push_back(
            std::make_unique<mobility::StaticMobility>(positions[i]));
        break;
      case MobilityKind::kRandomWaypoint: {
        mobility::RandomWaypointConfig mc;
        mc.area = world;
        mc.min_speed_mps = config.min_speed_mps;
        mc.max_speed_mps = config.max_speed_mps;
        mc.pause = config.pause;
        mobility_.push_back(std::make_unique<mobility::RandomWaypoint>(
            positions[i], mc, sim_.split_rng()));
        break;
      }
      case MobilityKind::kRandomWalk: {
        mobility::RandomWalkConfig mc;
        mc.area = world;
        mc.speed_mps = std::max(config.max_speed_mps, 0.1);
        mobility_.push_back(std::make_unique<mobility::RandomWalk>(
            positions[i], mc, sim_.split_rng()));
        break;
      }
    }
  }

  // --- medium & radios --------------------------------------------------------
  std::unique_ptr<radio::PropagationModel> propagation;
  if (config.realistic_radio) {
    propagation = std::make_unique<radio::LogDistanceShadowing>();
  } else {
    propagation = std::make_unique<radio::UnitDisk>();
  }
  medium_ = std::make_unique<radio::Medium>(sim_, std::move(propagation),
                                            config.medium, &metrics_);
  radios_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    radios_.push_back(std::make_unique<radio::Radio>(
        *medium_, static_cast<NodeId>(i), *mobility_[i], config.tx_range));
  }

  // --- adversary assignment -----------------------------------------------------
  kinds_.assign(n, byz::AdversaryKind::kNone);
  {
    std::vector<NodeId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(i);
    des::Rng shuffle_rng = sim_.split_rng();
    for (std::size_t i = n - 1; i > 0; --i) {
      std::size_t j = shuffle_rng.next_below(i + 1);
      std::swap(ids[i], ids[j]);
    }
    std::size_t cursor = 0;
    for (const auto& [kind, count] : config.adversaries) {
      for (std::size_t c = 0; c < count; ++c) {
        kinds_[ids[cursor++]] = kind;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (kinds_[i] == byz::AdversaryKind::kNone) {
      correct_.push_back(static_cast<NodeId>(i));
    } else {
      byzantine_.push_back(static_cast<NodeId>(i));
    }
  }
  metrics_.set_tracked_accepts(correct_);

  std::size_t sender_count = std::max<std::size_t>(1, config.senders);
  sender_count = std::min(sender_count, correct_.size());
  senders_.assign(correct_.begin(),
                  correct_.begin() + static_cast<std::ptrdiff_t>(sender_count));

  alive_.assign(n, true);
  departed_.assign(n, false);

  // --- nodes ---------------------------------------------------------------------
  const std::size_t targets = correct_.size() - 1;
  switch (config.protocol) {
    case ProtocolKind::kByzcast: {
      byzcast_nodes_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        add_byzcast_node(static_cast<NodeId>(i), kinds_[i], targets);
      }
      break;
    }
    case ProtocolKind::kFlooding: {
      flooding_nodes_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        auto id = static_cast<NodeId>(i);
        crypto::Signer signer = pki_->register_node(id);
        if (kinds_[i] == byz::AdversaryKind::kNone) {
          flooding_nodes_[i] = std::make_unique<baselines::FloodingNode>(
              sim_, *radios_[i], *pki_, signer, &metrics_);
        } else {
          flooding_nodes_[i] = std::make_unique<DroppingFloodingNode>(
              sim_, *radios_[i], *pki_, signer, &metrics_);
        }
        flooding_nodes_[i]->set_expected_targets(targets);
      }
      break;
    }
    case ProtocolKind::kMultiOverlay: {
      auto adjacency = geo::unit_disk_adjacency(positions, config.tx_range);
      auto overlays = baselines::compute_disjoint_overlays(
          adjacency, config.multi_overlay_count);
      multi_nodes_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        auto id = static_cast<NodeId>(i);
        std::vector<bool> memberships(overlays.size(), false);
        for (std::size_t k = 0; k < overlays.size(); ++k) {
          memberships[k] = overlays[k].count(id) > 0;
        }
        crypto::Signer signer = pki_->register_node(id);
        if (kinds_[i] == byz::AdversaryKind::kNone) {
          multi_nodes_[i] = std::make_unique<baselines::MultiOverlayNode>(
              sim_, *radios_[i], *pki_, signer, std::move(memberships),
              &metrics_);
        } else {
          multi_nodes_[i] = std::make_unique<DroppingMultiOverlayNode>(
              sim_, *radios_[i], *pki_, signer, std::move(memberships),
              &metrics_);
        }
        multi_nodes_[i]->set_expected_targets(targets);
      }
      break;
    }
  }

  // Constructed last so every scheduled fault finds a fully built network.
  // Skipped entirely for empty schedules: the injector's mere existence
  // (its catch-up poll timer, its scheduled events) would perturb the
  // event sequence, and fault-free runs must stay trace-identical.
  if (!config.fault_schedule.empty()) {
    injector_ = std::make_unique<FaultInjector>(*this, config.fault_schedule);
  }

  // Flight recorder, opt-in for the same reason the injector is: its
  // sampling timer occupies slots in the deterministic event order, so
  // telemetry-free runs must not construct one.
  if (config.telemetry_interval > 0) {
    timeline_ = std::make_unique<obs::Timeline>(sim_, metrics_,
                                                config.telemetry_interval);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < byzcast_nodes_.size() && byzcast_nodes_[i]) {
        timeline_->add_source("node" + std::to_string(i), *byzcast_nodes_[i]);
      }
      timeline_->add_source("radio" + std::to_string(i), *radios_[i]);
    }
    // One aggregate decorator row (satellite of DESIGN.md §15): chaos
    // counters show up per tick in --report artifacts, not only as
    // end-of-run totals. Only when decorators exist — an extra column
    // set would change telemetry snapshots of unimpaired runs.
    if (!impaired_.empty()) {
      impair_gauges_ = std::make_unique<ImpairmentGauges>(*this);
      timeline_->add_source("impair", *impair_gauges_);
    }
    timeline_->start();
  }
}

Network::~Network() = default;

obs::TimelineData Network::timeline_data() {
  if (!timeline_) return {};
  timeline_->sample_now();
  return timeline_->data();
}

core::ByzcastNode* Network::byzcast_node(NodeId node) {
  if (node >= byzcast_nodes_.size()) return nullptr;
  return byzcast_nodes_[node].get();
}

net::ImpairmentStats Network::impairment_stats() const {
  net::ImpairmentStats total;
  for (const auto& transport : impaired_) {
    const net::ImpairmentStats& s = transport->stats();
    total.forwarded += s.forwarded;
    total.dropped += s.dropped;
    total.duplicated += s.duplicated;
    total.reordered += s.reordered;
    total.delayed += s.delayed;
    total.corrupted += s.corrupted;
  }
  return total;
}

geo::Vec2 Network::position_of(NodeId node) const {
  return mobility_.at(node)->position_at(sim_.now());
}

void Network::broadcast_from(NodeId node, std::vector<std::uint8_t> payload) {
  if (kinds_.at(node) != byz::AdversaryKind::kNone) {
    throw std::invalid_argument(
        "broadcast_from: workload broadcasts must come from correct nodes");
  }
  if (!alive_[node]) return;  // sender is down: nothing happens
  switch (config_.protocol) {
    case ProtocolKind::kByzcast:
      byzcast_nodes_[node]->broadcast(std::move(payload));
      break;
    case ProtocolKind::kFlooding:
      flooding_nodes_[node]->broadcast(std::move(payload));
      break;
    case ProtocolKind::kMultiOverlay:
      multi_nodes_[node]->broadcast(std::move(payload));
      break;
  }
}

void Network::crash_node(NodeId node) {
  if (!alive_.at(node)) return;
  alive_[node] = false;
  if (node < byzcast_nodes_.size() && byzcast_nodes_[node]) {
    byzcast_nodes_[node]->stop();
  }
  medium_->set_attached(node, false);
  metrics_.on_node_down(node, sim_.now());
}

void Network::recover_node(NodeId node) {
  if (alive_.at(node) || departed_[node]) return;
  alive_[node] = true;
  medium_->set_attached(node, true);
  if (node < byzcast_nodes_.size() && byzcast_nodes_[node]) {
    byzcast_nodes_[node]->restart();
  }
  metrics_.on_node_up(node, sim_.now());
}

void Network::set_radio_attached(NodeId node, bool attached) {
  const bool alive = alive_.at(node);
  if (medium_->attached(node) == attached) return;
  medium_->set_attached(node, attached);
  // A crashed node's downtime is already being accounted; only report
  // outages of otherwise-live nodes.
  if (!alive) return;
  if (attached) {
    metrics_.on_node_up(node, sim_.now());
  } else {
    metrics_.on_node_down(node, sim_.now());
  }
}

void Network::partition_at(double wall_x) {
  medium_->set_partition_wall(wall_x);
}

void Network::heal_partition() { medium_->clear_partition_wall(); }

NodeId Network::join_node(geo::Vec2 position) {
  if (config_.protocol != ProtocolKind::kByzcast) {
    throw std::logic_error("join_node: churn is only modelled for byzcast");
  }
  auto id = static_cast<NodeId>(kinds_.size());
  mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
  radios_.push_back(std::make_unique<radio::Radio>(
      *medium_, id, *mobility_.back(), config_.tx_range));
  kinds_.push_back(byz::AdversaryKind::kNone);
  alive_.push_back(true);
  departed_.push_back(false);
  // Its broadcasts target the tracked (seed-correct) nodes; it is not a
  // target itself, so delivery ratios stay defined over seed membership.
  add_byzcast_node(id, byz::AdversaryKind::kNone, correct_.size());
  return id;
}

void Network::add_byzcast_node(NodeId id, byz::AdversaryKind kind,
                               std::size_t targets) {
  crypto::Signer signer = pki_->register_node(id);
  net::Transport* transport = radios_[id].get();
  // Transport-level message adversary (DESIGN.md §14): when the scenario
  // configures impairment, every node — joiners included — runs over a
  // seeded ImpairedTransport. Each decorator draws one rng split, so
  // inert configs must build none (golden hashes).
  if (config_.impairment.any() || config_.impairment_matrix.any()) {
    // The matrix specializes the fleet-wide base config per receiver,
    // so "1<-0 drop=1" deafens only node 1's ear for 0.
    net::ImpairmentConfig effective = config_.impairment;
    config_.impairment_matrix.apply_to(id, effective);
    impaired_.push_back(std::make_unique<net::ImpairedTransport>(
        sim_, *transport, std::move(effective)));
    transport = impaired_.back().get();
  }
  std::unique_ptr<core::ByzcastNode> node = byz::make_adversary(
      kind, sim_, *transport, *pki_, signer, config_.protocol_config,
      &metrics_, config_.adversary_params);
  node->set_expected_targets(targets);
  if (config_.enable_msg_trace) node->set_msg_trace(&msg_trace_);
  node->start();
  byzcast_nodes_.push_back(std::move(node));
}

void Network::leave_node(NodeId node) {
  if (departed_.at(node)) return;
  departed_[node] = true;
  crash_node(node);  // same mechanics, but recover_node now refuses it
}

bool Network::node_running(NodeId node) const {
  return node < alive_.size() && alive_[node] && medium_->attached(node);
}

std::vector<NodeId> Network::live_correct_nodes() const {
  std::vector<NodeId> live;
  for (NodeId node : correct_) {
    if (node_running(node)) live.push_back(node);
  }
  return live;
}

std::vector<NodeId> Network::overlay_members() const {
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < byzcast_nodes_.size(); ++i) {
    if (byzcast_nodes_[i] && byzcast_nodes_[i]->in_overlay()) {
      members.push_back(static_cast<NodeId>(i));
    }
  }
  return members;
}

bool Network::correct_graph_connected() const {
  std::vector<geo::Vec2> points;
  points.reserve(correct_.size());
  for (NodeId node : correct_) points.push_back(position_of(node));
  return geo::unit_disk_connected(points, config_.tx_range);
}

bool Network::correct_overlay_connected_and_dominating() const {
  std::vector<bool> in_overlay(node_count(), false);
  for (NodeId m : overlay_members()) in_overlay[m] = true;
  // Vertices: every seed-correct node, then each joiner (ids past the
  // seed fleet, all correct) that serves as a member. Members dominate
  // themselves, so "every vertex dominated" asks it of the seed nodes.
  std::vector<geo::Vec2> points;
  std::vector<std::uint8_t> member;
  for (NodeId node : correct_) {
    points.push_back(position_of(node));
    member.push_back(in_overlay[node] ? 1 : 0);
  }
  for (NodeId node = static_cast<NodeId>(config_.n); node < node_count();
       ++node) {
    if (!in_overlay[node]) continue;
    points.push_back(position_of(node));
    member.push_back(1);
  }
  const analysis::CdsCheck check = analysis::check_cds(
      geo::unit_disk_adjacency(points, config_.tx_range), member);
  return check.dominating && check.backbone_connected;
}

}  // namespace byzcast::sim
