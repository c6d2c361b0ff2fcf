// Assembles a runnable network from a ScenarioConfig and owns every piece
// of it: simulator, metrics, PKI, medium, mobility models, radios, nodes.
//
// The Network is the harness's view of the world — it also provides the
// ground-truth graph analyses (overlay connectivity/domination) that the
// paper's lemmas are tested against. Protocol nodes never see any of
// this; they learn the topology from beacons like real devices.
#pragma once

#include <memory>
#include <vector>

#include "baselines/flooding_node.h"
#include "baselines/multi_overlay_node.h"
#include "byz/adversary.h"
#include "core/byzcast_node.h"
#include "crypto/signature.h"
#include "des/simulator.h"
#include "mobility/mobility_model.h"
#include "net/impairment.h"
#include "obs/timeline.h"
#include "radio/medium.h"
#include "radio/radio.h"
#include "sim/hot_state.h"
#include "sim/scenario.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace byzcast::sim {

class FaultInjector;

class Network {
 public:
  /// Builds and starts everything. Nodes begin beaconing at time ~0.
  /// When config.fault_schedule is non-empty a FaultInjector is armed;
  /// otherwise none is constructed and the run is event-for-event
  /// identical to a fault-free build.
  explicit Network(const ScenarioConfig& config);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] des::Simulator& simulator() { return sim_; }
  [[nodiscard]] stats::Metrics& metrics() { return metrics_; }
  /// Populated when config.enable_trace is set (empty otherwise).
  [[nodiscard]] trace::TraceRecorder& trace() { return trace_; }
  /// The fleet-wide message-lifecycle recorder (obs/msg_trace.h),
  /// populated when config.enable_msg_trace is set (empty otherwise).
  /// On the DES the whole fleet shares one recorder — sim time is
  /// already globally aligned, so its anchor is the trivial sim clock.
  [[nodiscard]] obs::MsgTraceRecorder& msg_trace() { return msg_trace_; }
  /// The flight recorder, armed when config.telemetry_interval > 0
  /// (nullptr otherwise).
  [[nodiscard]] obs::Timeline* timeline() { return timeline_.get(); }
  /// Copies the recorded timeline out, closing the final partial bucket
  /// with one last sample first. Empty when telemetry is off.
  [[nodiscard]] obs::TimelineData timeline_data();
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }

  /// Invokes the protocol-appropriate broadcast on `node` (must be
  /// correct; broadcasting from a Byzantine node throws). A silent no-op
  /// when `node` is currently crashed or departed, so scheduled workload
  /// broadcasts survive fault schedules that take senders down.
  void broadcast_from(NodeId node, std::vector<std::uint8_t> payload);

  // --- node lifecycle (driven by the FaultInjector; callable directly) -----
  /// Crash-stop: halts the node's protocol code and detaches its radio.
  /// Idempotent. For non-byzcast protocols only the radio detaches.
  void crash_node(NodeId node);
  /// Crash-recover: reattaches the radio and restarts the node with its
  /// volatile state wiped (keys and sequence counter survive). No-op for
  /// a node that is running or has departed.
  void recover_node(NodeId node);
  /// Radio outage / restore: the node's code keeps running but hears and
  /// reaches nobody. Availability accounting treats it as down.
  void set_radio_attached(NodeId node, bool attached);
  /// Blocks every link crossing the vertical line x = wall_x.
  void partition_at(double wall_x);
  void heal_partition();
  /// Churn (byzcast only): a fresh node id joins at `position`, runs the
  /// honest protocol, and catches up like any late joiner. Joined nodes
  /// are excluded from delivery metrics and the ground-truth analyses,
  /// which are defined over the seed membership.
  NodeId join_node(geo::Vec2 position);
  /// Churn: `node` departs permanently. Counts as down for availability
  /// from this point on.
  void leave_node(NodeId node);
  /// False while crashed, radio-detached or departed.
  [[nodiscard]] bool node_running(NodeId node) const;
  /// Seed-membership correct nodes currently running with an attached
  /// radio — the reference set for catch-up measurement.
  [[nodiscard]] std::vector<NodeId> live_correct_nodes() const;

  [[nodiscard]] std::size_t node_count() const { return kinds_.size(); }
  [[nodiscard]] const std::vector<NodeId>& correct_nodes() const {
    return correct_;
  }
  [[nodiscard]] const std::vector<NodeId>& byzantine_nodes() const {
    return byzantine_;
  }
  [[nodiscard]] byz::AdversaryKind kind_of(NodeId node) const {
    return kinds_.at(node);
  }
  /// The correct originators the standard workload cycles through.
  [[nodiscard]] const std::vector<NodeId>& senders() const { return senders_; }

  /// Byzcast-protocol node access (nullptr for other protocols).
  [[nodiscard]] core::ByzcastNode* byzcast_node(NodeId node);

  /// Sum of every node's ImpairedTransport counters; all-zero when
  /// config.impairment is inert (no decorators were built).
  [[nodiscard]] net::ImpairmentStats impairment_stats() const;

  /// Current positions (sampled from mobility).
  [[nodiscard]] geo::Vec2 position_of(NodeId node) const;

  // --- ground-truth backbone analyses (Lemmas 3.5 / 3.9) -------------------
  /// Nodes currently considering themselves overlay members.
  [[nodiscard]] std::vector<NodeId> overlay_members() const;
  /// True when the *correct* overlay members form a connected graph and
  /// every correct node is a member or has a member within range.
  [[nodiscard]] bool correct_overlay_connected_and_dominating() const;
  /// True when the unit-disk graph over all correct nodes is connected
  /// (the paper's standing assumption).
  [[nodiscard]] bool correct_graph_connected() const;

 private:
  ScenarioConfig config_;
  des::Simulator sim_;
  stats::Metrics metrics_;
  trace::TraceRecorder trace_;
  obs::MsgTraceRecorder msg_trace_;
  std::unique_ptr<crypto::Pki> pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  /// Present only when the scenario impairs links: the per-node
  /// ImpairedTransport over each radio the byzcast nodes run on
  /// (DESIGN.md §14). Empty otherwise, so unimpaired runs construct
  /// nothing extra.
  std::vector<std::unique_ptr<net::ImpairedTransport>> impaired_;

  std::vector<std::unique_ptr<core::ByzcastNode>> byzcast_nodes_;
  std::vector<std::unique_ptr<baselines::FloodingNode>> flooding_nodes_;
  std::vector<std::unique_ptr<baselines::MultiOverlayNode>> multi_nodes_;

  std::vector<byz::AdversaryKind> kinds_;
  std::vector<NodeId> correct_;
  std::vector<NodeId> byzantine_;
  std::vector<NodeId> senders_;
  /// Builds, wires and starts byzcast node `id` (seed member or joiner)
  /// on its radio, behind an ImpairedTransport when links are impaired.
  /// `targets` is its expected-accept count for delivery metrics.
  void add_byzcast_node(NodeId id, byz::AdversaryKind kind,
                        std::size_t targets);
  /// Samples every mobility model into hot_.positions at now().
  void sample_positions() const;
  /// Flat SoA per-node state (positions, ranges, liveness bitsets) plus
  /// arena scratch for the analyses. Mutable: positions and scratch are
  /// caches refreshed from const analysis entry points.
  mutable HotState hot_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<obs::Timeline> timeline_;
  /// Aggregate "impair" gauge row over every decorator; built only when
  /// both telemetry and impairment are on.
  std::unique_ptr<obs::GaugeSource> impair_gauges_;
};

}  // namespace byzcast::sim
