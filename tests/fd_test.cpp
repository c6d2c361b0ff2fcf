#include <gtest/gtest.h>

#include "des/simulator.h"
#include "fd/mute_fd.h"
#include "fd/trust_fd.h"
#include "fd/verbose_fd.h"

namespace byzcast::fd {
namespace {

constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kGossip = 2;

MessageHeader header(std::uint8_t type, NodeId origin, std::uint32_t seq) {
  return MessageHeader{type, origin, seq};
}

HeaderPattern exact(std::uint8_t type, NodeId origin, std::uint32_t seq) {
  return HeaderPattern{type, origin, seq};
}

// ---------------------------------------------------------------------------
// HeaderPattern
// ---------------------------------------------------------------------------

TEST(HeaderPattern, WildcardsMatch) {
  HeaderPattern any{};
  EXPECT_TRUE(any.matches(header(kData, 3, 7)));

  HeaderPattern by_type{kData, std::nullopt, std::nullopt};
  EXPECT_TRUE(by_type.matches(header(kData, 1, 1)));
  EXPECT_FALSE(by_type.matches(header(kGossip, 1, 1)));

  HeaderPattern full = exact(kData, 3, 7);
  EXPECT_TRUE(full.matches(header(kData, 3, 7)));
  EXPECT_FALSE(full.matches(header(kData, 3, 8)));
  EXPECT_FALSE(full.matches(header(kData, 4, 7)));
}

// ---------------------------------------------------------------------------
// MuteFd
// ---------------------------------------------------------------------------

MuteFdConfig fast_mute() {
  MuteFdConfig config;
  config.expect_timeout = des::millis(100);
  config.suspicion_threshold = 2;
  config.suspicion_interval = des::seconds(5);
  config.aging_period = des::seconds(60);  // effectively off for these tests
  return config;
}

TEST(MuteFd, SuspectsSilentNodeAfterThresholdMisses) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  NodeId suspected_node = kInvalidNode;
  fd.set_on_suspect([&](NodeId n) { suspected_node = n; });

  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);
  sim.run_until(des::millis(200));
  EXPECT_FALSE(fd.suspected(5));  // one miss, below threshold

  fd.expect(exact(kData, 1, 1), {5}, MuteFd::Mode::kOne);
  sim.run_until(des::millis(400));
  EXPECT_TRUE(fd.suspected(5));
  EXPECT_EQ(suspected_node, 5u);
  EXPECT_EQ(fd.suspects(), (std::vector<NodeId>{5}));
}

TEST(MuteFd, ObservationDischargesExpectation) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    fd.expect(exact(kData, 1, seq), {5}, MuteFd::Mode::kOne);
    fd.observe(header(kData, 1, seq), 5);
  }
  sim.run_until(des::seconds(10));
  EXPECT_FALSE(fd.suspected(5));
  EXPECT_EQ(fd.pending_expectations(), 0u);
}

TEST(MuteFd, ModeOneAnyListedSenderSatisfies) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    fd.expect(exact(kData, 1, seq), {5, 6, 7}, MuteFd::Mode::kOne);
    fd.observe(header(kData, 1, seq), 6);  // only node 6 ever sends
  }
  sim.run_until(des::seconds(10));
  EXPECT_FALSE(fd.suspected(5));
  EXPECT_FALSE(fd.suspected(7));
}

TEST(MuteFd, ModeAllRequiresEveryListedSender) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    fd.expect(exact(kData, 1, seq), {5, 6}, MuteFd::Mode::kAll);
    fd.observe(header(kData, 1, seq), 5);  // 6 stays silent
  }
  // Check inside the suspicion interval (it expires after 5 s).
  sim.run_until(des::seconds(1));
  EXPECT_FALSE(fd.suspected(5));
  EXPECT_TRUE(fd.suspected(6));
}

TEST(MuteFd, UnlistedSenderDoesNotSatisfyStrictExpectation) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    fd.expect(exact(kData, 1, seq), {5}, MuteFd::Mode::kOne,
              MuteFd::Satisfy::kListedOnly);
    fd.observe(header(kData, 1, seq), 9);  // someone else sends
  }
  sim.run_until(des::seconds(1));
  EXPECT_TRUE(fd.suspected(5));
}

TEST(MuteFd, AnySenderSatisfyClearsOnForeignSender) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    fd.expect(exact(kData, 1, seq), {5}, MuteFd::Mode::kOne,
              MuteFd::Satisfy::kAnySender);
    fd.observe(header(kData, 1, seq), 9);  // message arrived from elsewhere
  }
  sim.run_until(des::seconds(10));
  EXPECT_FALSE(fd.suspected(5));
}

TEST(MuteFd, SuspicionExpiresAfterInterval) {
  des::Simulator sim(1);
  MuteFdConfig config = fast_mute();
  config.suspicion_threshold = 1;
  config.suspicion_interval = des::seconds(2);
  MuteFd fd(sim, config);
  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);
  sim.run_until(des::millis(200));
  EXPECT_TRUE(fd.suspected(5));
  sim.run_until(des::seconds(3));
  EXPECT_FALSE(fd.suspected(5));  // interval semantics: suspicion healed
}

TEST(MuteFd, AgingForgivesOldMisses) {
  des::Simulator sim(1);
  MuteFdConfig config = fast_mute();
  config.suspicion_threshold = 2;
  config.aging_period = des::millis(500);
  MuteFd fd(sim, config);
  // One miss, then a long quiet period, then another miss: the aging pass
  // decremented the counter in between, so no suspicion.
  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);
  sim.run_until(des::seconds(2));
  fd.expect(exact(kData, 1, 1), {5}, MuteFd::Mode::kOne);
  sim.run_until(des::seconds(4));
  EXPECT_FALSE(fd.suspected(5));
}

TEST(MuteFd, ForgetDropsPendingExpectations) {
  des::Simulator sim(1);
  MuteFdConfig config = fast_mute();
  config.suspicion_threshold = 1;
  MuteFd fd(sim, config);
  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);
  fd.forget(5);
  sim.run_until(des::seconds(1));
  EXPECT_FALSE(fd.suspected(5));
  EXPECT_EQ(fd.pending_expectations(), 0u);
}

TEST(MuteFd, DuplicateExpectationsNotDoubleCounted) {
  des::Simulator sim(1);
  MuteFdConfig config = fast_mute();
  config.suspicion_threshold = 2;
  MuteFd fd(sim, config);
  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);
  fd.expect(exact(kData, 1, 0), {5}, MuteFd::Mode::kOne);  // dedup
  EXPECT_EQ(fd.pending_expectations(), 1u);
  sim.run_until(des::seconds(1));
  EXPECT_FALSE(fd.suspected(5));  // single miss only
}

TEST(MuteFd, EmptyNodeSetIgnored) {
  des::Simulator sim(1);
  MuteFd fd(sim, fast_mute());
  fd.expect(exact(kData, 1, 0), {}, MuteFd::Mode::kOne);
  EXPECT_EQ(fd.pending_expectations(), 0u);
}

// ---------------------------------------------------------------------------
// VerboseFd
// ---------------------------------------------------------------------------

VerboseFdConfig fast_verbose() {
  VerboseFdConfig config;
  config.suspicion_threshold = 3;
  config.suspicion_interval = des::seconds(5);
  config.aging_period = des::seconds(60);
  return config;
}

TEST(VerboseFd, IndictmentsAccumulateToSuspicion) {
  des::Simulator sim(1);
  VerboseFd fd(sim, fast_verbose());
  NodeId suspected_node = kInvalidNode;
  fd.set_on_suspect([&](NodeId n) { suspected_node = n; });
  fd.indict(7);
  fd.indict(7);
  EXPECT_FALSE(fd.suspected(7));
  fd.indict(7);
  EXPECT_TRUE(fd.suspected(7));
  EXPECT_EQ(suspected_node, 7u);
  EXPECT_EQ(fd.indictment_count(7), 3);
}

TEST(VerboseFd, MinSpacingRuleIndictsFastSenders) {
  des::Simulator sim(1);
  VerboseFd fd(sim, fast_verbose());
  fd.set_min_spacing(kGossip, des::millis(100));
  // 5 packets 10 ms apart: 4 spacing violations -> above threshold 3.
  for (int i = 0; i < 5; ++i) {
    fd.observe(header(kGossip, 1, 0), 7);
    sim.run_until(sim.now() + des::millis(10));
  }
  EXPECT_TRUE(fd.suspected(7));
}

TEST(VerboseFd, WellSpacedSendersUnpunished) {
  des::Simulator sim(1);
  VerboseFd fd(sim, fast_verbose());
  fd.set_min_spacing(kGossip, des::millis(100));
  for (int i = 0; i < 10; ++i) {
    fd.observe(header(kGossip, 1, 0), 7);
    sim.run_until(sim.now() + des::millis(200));
  }
  EXPECT_FALSE(fd.suspected(7));
  EXPECT_EQ(fd.indictment_count(7), 0);
}

TEST(VerboseFd, TypesWithoutRuleIgnored) {
  des::Simulator sim(1);
  VerboseFd fd(sim, fast_verbose());
  for (int i = 0; i < 20; ++i) fd.observe(header(kData, 1, 0), 7);
  EXPECT_FALSE(fd.suspected(7));
}

TEST(VerboseFd, AgingDecrementsIndictments) {
  des::Simulator sim(1);
  VerboseFdConfig config = fast_verbose();
  config.aging_period = des::millis(100);
  VerboseFd fd(sim, config);
  fd.indict(7);
  fd.indict(7);
  sim.run_until(des::seconds(1));  // several aging passes
  EXPECT_EQ(fd.indictment_count(7), 0);
  fd.indict(7);
  EXPECT_FALSE(fd.suspected(7));
}

TEST(VerboseFd, SuspicionExpires) {
  des::Simulator sim(1);
  VerboseFdConfig config = fast_verbose();
  config.suspicion_threshold = 1;
  config.suspicion_interval = des::millis(500);
  VerboseFd fd(sim, config);
  fd.indict(7);
  EXPECT_TRUE(fd.suspected(7));
  sim.run_until(des::seconds(1));
  EXPECT_FALSE(fd.suspected(7));
}

// ---------------------------------------------------------------------------
// TrustFd
// ---------------------------------------------------------------------------

TEST(TrustFd, DirectSuspicionMakesUntrusted) {
  des::Simulator sim(1);
  TrustFd fd(sim, {});
  EXPECT_EQ(fd.level(3), TrustLevel::kTrusted);
  fd.suspect(3, SuspicionReason::kBadSignature);
  EXPECT_EQ(fd.level(3), TrustLevel::kUntrusted);
  EXPECT_TRUE(fd.suspects(3));
  EXPECT_EQ(fd.untrusted(), (std::vector<NodeId>{3}));
  EXPECT_EQ(fd.suspicion_events(SuspicionReason::kBadSignature), 1u);
}

TEST(TrustFd, NeighborReportMakesUnknown) {
  des::Simulator sim(1);
  TrustFd fd(sim, {});
  fd.neighbor_report(/*reporter=*/2, /*about=*/3);
  EXPECT_EQ(fd.level(3), TrustLevel::kUnknown);
  // Unknown nodes are not in the untrusted list.
  EXPECT_TRUE(fd.untrusted().empty());
}

TEST(TrustFd, ReportFromUntrustedReporterIgnored) {
  des::Simulator sim(1);
  TrustFd fd(sim, {});
  fd.suspect(2, SuspicionReason::kMute);
  fd.neighbor_report(2, 3);  // 2 is untrusted: ignore its gossip
  EXPECT_EQ(fd.level(3), TrustLevel::kTrusted);
}

TEST(TrustFd, ReportAboutAlreadyUntrustedKeepsUntrusted) {
  des::Simulator sim(1);
  TrustFd fd(sim, {});
  fd.suspect(3, SuspicionReason::kVerbose);
  fd.neighbor_report(2, 3);
  EXPECT_EQ(fd.level(3), TrustLevel::kUntrusted);  // not downgraded to unknown
}

TEST(TrustFd, SuspicionAndReportsExpire) {
  des::Simulator sim(1);
  TrustFdConfig config;
  config.suspicion_interval = des::millis(500);
  config.report_interval = des::millis(300);
  TrustFd fd(sim, config);
  fd.suspect(3, SuspicionReason::kMute);
  fd.neighbor_report(2, 4);
  sim.run_until(des::millis(400));
  EXPECT_EQ(fd.level(4), TrustLevel::kTrusted);    // report expired
  EXPECT_EQ(fd.level(3), TrustLevel::kUntrusted);  // suspicion still live
  sim.run_until(des::seconds(1));
  EXPECT_EQ(fd.level(3), TrustLevel::kTrusted);
}

TEST(TrustFd, ReasonNamesAreStable) {
  EXPECT_STREQ(suspicion_reason_name(SuspicionReason::kMute), "mute");
  EXPECT_STREQ(suspicion_reason_name(SuspicionReason::kBadSignature),
               "bad-signature");
}

}  // namespace
}  // namespace byzcast::fd
