// Per-node radio endpoint — the DES implementation of net::Transport
// (DESIGN.md §13), the way des::Simulator is the DES net::Env.
//
// Thin adapter between a protocol node and the Medium: `send` queues a
// broadcast, received frames arrive on the installed handler tagged with
// the transmitter's hardware id, which the medium enforces (a radio
// cannot spoof it). The radio also binds the node's mobility model so
// the medium can sample positions.
#pragma once

#include "mobility/mobility_model.h"
#include "net/transport.h"
#include "obs/gauge.h"
#include "radio/packet.h"
#include "util/node_id.h"

namespace byzcast::radio {

class Medium;

class Radio final : public net::Transport, public obs::GaugeSource {
 public:
  /// `mobility` must outlive the radio. Registers with the medium.
  Radio(Medium& medium, NodeId id, mobility::MobilityModel& mobility,
        double tx_range_m);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Broadcasts `payload` to the one-hop neighbourhood. The buffer is
  /// shared, not copied, all the way to every receiver's handler.
  void send(util::Buffer payload) override;

  /// Powers the radio on/off on the medium (fault injection: crashes and
  /// radio outages). While detached the radio neither transmits nor
  /// receives; frames in flight towards it are lost.
  void attach();
  void detach();
  [[nodiscard]] bool attached() const;

  /// Installs the upper-layer receive callback (one consumer).
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  [[nodiscard]] NodeId local_id() const override { return id_; }
  [[nodiscard]] double range() const { return range_; }
  [[nodiscard]] geo::Vec2 position_at(des::SimTime t) const {
    return mobility_.position_at(t);
  }

  /// Gauge: 1 while attached to the medium, 0 during outages — the
  /// obs::Timeline's view of fault-injection downtime.
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 private:
  friend class Medium;
  void deliver(const Frame& frame) {
    if (handler_) handler_(frame);
  }

  Medium& medium_;
  NodeId id_;
  mobility::MobilityModel& mobility_;
  double range_;
  ReceiveHandler handler_;
};

}  // namespace byzcast::radio
