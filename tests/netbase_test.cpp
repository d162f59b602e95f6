// Unit tests for the netbase foundation: byte codecs, addresses, prefixes,
// MACs, time, RNG determinism.
#include <gtest/gtest.h>

#include "netbase/bytes.h"
#include "netbase/ip.h"
#include "netbase/mac.h"
#include "netbase/prefix.h"
#include "netbase/rand.h"
#include "netbase/time.h"

namespace peering {
namespace {

TEST(ByteWriter, BigEndianEncoding) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0x56);
  EXPECT_EQ(b[3], 0x78);
  EXPECT_EQ(b[4], 0x9a);
  EXPECT_EQ(b[5], 0xbc);
  EXPECT_EQ(b[6], 0xde);
}

TEST(ByteWriter, PatchU16) {
  ByteWriter w;
  auto pos = w.reserve_u16();
  w.u32(0xdeadbeef);
  w.patch_u16(pos, 0x1234);
  EXPECT_EQ(w.bytes()[0], 0x12);
  EXPECT_EQ(w.bytes()[1], 0x34);
}

TEST(ByteReader, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xcdef);
  w.u32(0x01234567);
  w.u64(0x89abcdef01234567ull);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.u8(), 0xab);
  EXPECT_EQ(*r.u16(), 0xcdef);
  EXPECT_EQ(*r.u32(), 0x01234567u);
  EXPECT_EQ(*r.u64(), 0x89abcdef01234567ull);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, UnderrunReportsErrorWithoutAdvancing) {
  Bytes data{0x01};
  ByteReader r(data);
  EXPECT_FALSE(r.u16().ok());
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_EQ(*r.u8(), 0x01);
}

TEST(ByteReader, SubReaderIsolatesRange) {
  ByteWriter w;
  w.u16(0x1122);
  w.u16(0x3344);
  ByteReader r(w.bytes());
  auto sub = r.sub(2);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*sub->u16(), 0x1122);
  EXPECT_TRUE(sub->empty());
  EXPECT_EQ(*r.u16(), 0x3344);
}

TEST(Ipv4Address, FormatAndParse) {
  Ipv4Address a(192, 168, 0, 1);
  EXPECT_EQ(a.str(), "192.168.0.1");
  auto parsed = Ipv4Address::parse("192.168.0.1");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, a);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("256.0.0.1").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").ok());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").ok());
  EXPECT_FALSE(Ipv4Address::parse("").ok());
  EXPECT_FALSE(Ipv4Address::parse("1..2.3").ok());
}

TEST(Ipv6Address, ParseFullAndCompressed) {
  auto full = Ipv6Address::parse("2804:269c:0:0:0:0:0:1");
  ASSERT_TRUE(full.ok());
  auto compressed = Ipv6Address::parse("2804:269c::1");
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(full->bytes(), compressed->bytes());
}

TEST(Ipv4Prefix, CanonicalizesHostBits) {
  Ipv4Prefix p(Ipv4Address(10, 1, 2, 3), 16);
  EXPECT_EQ(p.address(), Ipv4Address(10, 1, 0, 0));
  EXPECT_EQ(p.str(), "10.1.0.0/16");
}

TEST(Ipv4Prefix, ContainsAndCovers) {
  auto p = *Ipv4Prefix::parse("184.164.224.0/23");
  EXPECT_TRUE(p.contains(Ipv4Address(184, 164, 225, 7)));
  EXPECT_FALSE(p.contains(Ipv4Address(184, 164, 226, 0)));
  EXPECT_TRUE(p.covers(*Ipv4Prefix::parse("184.164.224.0/24")));
  EXPECT_TRUE(p.covers(*Ipv4Prefix::parse("184.164.225.0/24")));
  EXPECT_FALSE(p.covers(*Ipv4Prefix::parse("184.164.0.0/16")));
}

TEST(Ipv4Prefix, ZeroLengthMatchesEverything) {
  Ipv4Prefix def(Ipv4Address(), 0);
  EXPECT_TRUE(def.contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(def.contains(Ipv4Address()));
}

TEST(Ipv4Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").ok());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").ok());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/x").ok());
}

TEST(MacAddress, FormatParseRoundTrip) {
  MacAddress m(0x02, 0x50, 0x00, 0x00, 0x00, 0x2a);
  EXPECT_EQ(m.str(), "02:50:00:00:00:2a");
  auto parsed = MacAddress::parse("02:50:00:00:00:2a");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, m);
}

TEST(MacAddress, FromIdIsDeterministicAndLocal) {
  MacAddress a = MacAddress::from_id(7);
  MacAddress b = MacAddress::from_id(7);
  MacAddress c = MacAddress::from_id(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.bytes()[0] & 0x02, 0x02);  // locally administered
  EXPECT_EQ(a.bytes()[0] & 0x01, 0x00);  // unicast
}

TEST(MacAddress, BroadcastDetection) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::from_id(1).is_broadcast());
}

TEST(Duration, ArithmeticAndConversion) {
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ((Duration::millis(1) + Duration::micros(500)).ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(Duration::millis(250).to_seconds(), 0.25);
  EXPECT_EQ(Duration::minutes(2), Duration::seconds(120));
}

TEST(SimTime, Ordering) {
  SimTime t0;
  SimTime t1 = t0 + Duration::seconds(1);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).ns(), Duration::seconds(1).ns());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, RangeBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, StepsAreMix64OfTheState) {
  // splitmix64's published first output for seed 0 pins the constants the
  // export-group fingerprint hashes with.
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
  Rng rng(42);
  EXPECT_EQ(rng.next(), mix64(42));
  EXPECT_EQ(rng.next(), mix64(42 + 0x9e3779b97f4a7c15ull));
}

TEST(Hex, Rendering) {
  Bytes data{0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(data), "deadbeef");
}

}  // namespace
}  // namespace peering
