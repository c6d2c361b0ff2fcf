#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "crypto/signature.h"
#include "crypto/siphash.h"
#include "util/bytes.h"

namespace byzcast::crypto {
namespace {

// ---------------------------------------------------------------------------
// SipHash-2-4 — checked against the reference test vectors from the
// SipHash paper (key 000102...0f, messages 00, 0001, 000102, ...).
// ---------------------------------------------------------------------------

TEST(SipHash, ReferenceVectors) {
  SipKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  // First eight vectors of the official test-vector table (little endian).
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL,
  };
  std::vector<std::uint8_t> msg;
  for (std::size_t len = 0; len < 8; ++len) {
    EXPECT_EQ(siphash24(key, msg), expected[len]) << "len=" << len;
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

TEST(SipHash, KeySensitivity) {
  auto data = util::to_bytes("the same message");
  std::uint64_t t1 = siphash24({1, 2}, data);
  std::uint64_t t2 = siphash24({1, 3}, data);
  EXPECT_NE(t1, t2);
}

TEST(SipHash, MessageSensitivity) {
  SipKey key{42, 43};
  EXPECT_NE(siphash24(key, util::to_bytes("a")),
            siphash24(key, util::to_bytes("b")));
  // Length extension of zero bytes changes the tag too.
  std::vector<std::uint8_t> m1{0};
  std::vector<std::uint8_t> m2{0, 0};
  EXPECT_NE(siphash24(key, m1), siphash24(key, m2));
}

// ---------------------------------------------------------------------------
// fnv1a / mix64
// ---------------------------------------------------------------------------

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, SpanAndStringAgree) {
  auto bytes = util::to_bytes("payload");
  EXPECT_EQ(fnv1a(bytes), fnv1a(std::string_view{"payload"}));
}

TEST(Hash, Mix64Scrambles) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(0, 0), 0u);
}

// ---------------------------------------------------------------------------
// Pki / Signer
// ---------------------------------------------------------------------------

TEST(Signature, SignVerifyRoundTrip) {
  Pki pki(des::Rng(1));
  Signer alice = pki.register_node(1);
  auto msg = util::to_bytes("broadcast me");
  Signature sig = alice.sign(msg);
  EXPECT_TRUE(pki.verify(1, msg, sig));
}

TEST(Signature, RejectsTamperedMessage) {
  Pki pki(des::Rng(1));
  Signer alice = pki.register_node(1);
  auto msg = util::to_bytes("broadcast me");
  Signature sig = alice.sign(msg);
  auto tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(pki.verify(1, tampered, sig));
}

TEST(Signature, RejectsWrongSigner) {
  Pki pki(des::Rng(1));
  Signer alice = pki.register_node(1);
  pki.register_node(2);
  auto msg = util::to_bytes("impersonation attempt");
  Signature sig = alice.sign(msg);
  // Bob cannot claim Alice's signature as his own, nor vice versa.
  EXPECT_FALSE(pki.verify(2, msg, sig));
  EXPECT_TRUE(pki.verify(1, msg, sig));
}

TEST(Signature, RejectsUnknownSignerAndForgeries) {
  Pki pki(des::Rng(1));
  pki.register_node(1);
  auto msg = util::to_bytes("m");
  EXPECT_FALSE(pki.verify(99, msg, Signature{123}));
  // Random tags essentially never verify.
  des::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(pki.verify(1, msg, Signature{rng.next_u64()}));
  }
}

TEST(Signature, DoubleRegistrationThrows) {
  Pki pki(des::Rng(1));
  pki.register_node(5);
  EXPECT_THROW(pki.register_node(5), std::invalid_argument);
  EXPECT_EQ(pki.registered_count(), 1u);
}

TEST(Signature, DifferentNodesProduceDifferentTags) {
  Pki pki(des::Rng(1));
  Signer a = pki.register_node(1);
  Signer b = pki.register_node(2);
  auto msg = util::to_bytes("same content");
  EXPECT_NE(a.sign(msg).tag, b.sign(msg).tag);
}

}  // namespace
}  // namespace byzcast::crypto
