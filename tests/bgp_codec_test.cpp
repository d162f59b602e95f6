// BGP wire-codec tests: OPEN capability negotiation fields, UPDATE
// attribute round-trips (4-byte and 2-byte ASN modes, ADD-PATH), the
// incremental stream decoder, and randomized encode/decode property tests.
#include <gtest/gtest.h>

#include "bgp/message.h"
#include "netbase/rand.h"

namespace peering::bgp {
namespace {

TEST(OpenCodec, RoundTripWithCapabilities) {
  OpenMessage open;
  open.asn = 47065;
  open.hold_time = 90;
  open.router_id = Ipv4Address(10, 0, 0, 1);
  open.add_four_byte_asn(4200000001);
  open.add_addpath_ipv4(AddPathMode::kBoth);

  auto decoded = OpenMessage::decode_body(open.encode_body());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->hold_time, 90);
  EXPECT_EQ(decoded->router_id, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(decoded->four_byte_asn(), 4200000001u);
  EXPECT_EQ(decoded->addpath_ipv4(), AddPathMode::kBoth);
}

TEST(OpenCodec, LargeAsnUsesAsTransInTwoByteField) {
  OpenMessage open;
  open.asn = 4200000001;  // does not fit 16 bits
  Bytes body = open.encode_body();
  auto decoded = OpenMessage::decode_body(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->asn, kAsTrans);
}

TEST(OpenCodec, NoAddPathMeansNone) {
  OpenMessage open;
  open.asn = 65001;
  auto decoded = OpenMessage::decode_body(open.encode_body());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->addpath_ipv4(), AddPathMode::kNone);
  EXPECT_FALSE(decoded->four_byte_asn().has_value());
}

TEST(OpenCodec, RejectsBadHoldTime) {
  OpenMessage open;
  open.asn = 65001;
  open.hold_time = 2;  // 1 and 2 are illegal per RFC 4271
  EXPECT_FALSE(OpenMessage::decode_body(open.encode_body()).ok());
}

PathAttributes sample_attrs() {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath({65001, 65002, 4200000077});
  attrs.next_hop = Ipv4Address(192, 0, 2, 1);
  attrs.med = 50;
  attrs.local_pref = 200;
  attrs.communities = {Community(47065, 11), kNoExport};
  attrs.large_communities = {{47065, 1, 2}};
  return attrs;
}

TEST(AttrCodec, RoundTripFourByte) {
  AttrCodecOptions options{.four_byte_asn = true};
  auto attrs = sample_attrs();
  auto decoded = decode_attributes(encode_attributes(attrs, options), options);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, attrs);
}

TEST(AttrCodec, TwoByteModeReconstructsViaAs4Path) {
  AttrCodecOptions options{.four_byte_asn = false};
  auto attrs = sample_attrs();
  auto decoded = decode_attributes(encode_attributes(attrs, options), options);
  ASSERT_TRUE(decoded.ok());
  // The 4-byte ASN must survive the AS_TRANS + AS4_PATH dance.
  EXPECT_EQ(decoded->as_path.flatten(),
            (std::vector<Asn>{65001, 65002, 4200000077}));
}

TEST(AttrCodec, AsSetRoundTrip) {
  PathAttributes attrs;
  attrs.as_path.segments().push_back(
      {AsPathSegmentType::kSequence, {65001}});
  attrs.as_path.segments().push_back(
      {AsPathSegmentType::kSet, {65002, 65003}});
  attrs.next_hop = Ipv4Address(1, 2, 3, 4);
  AttrCodecOptions options{.four_byte_asn = true};
  auto decoded = decode_attributes(encode_attributes(attrs, options), options);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->as_path, attrs.as_path);
  EXPECT_EQ(decoded->as_path.decision_length(), 2u);  // SET counts as 1
}

TEST(AttrCodec, UnknownTransitiveAttributePreservedWithPartialBit) {
  PathAttributes attrs;
  attrs.as_path = AsPath({65001});
  attrs.next_hop = Ipv4Address(1, 2, 3, 4);
  attrs.unknown.push_back(
      RawAttribute{kFlagOptional | kFlagTransitive, 99, Bytes{1, 2, 3}});
  AttrCodecOptions options{.four_byte_asn = true};
  auto decoded = decode_attributes(encode_attributes(attrs, options), options);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->unknown.size(), 1u);
  EXPECT_EQ(decoded->unknown[0].type, 99);
  EXPECT_EQ(decoded->unknown[0].value, (Bytes{1, 2, 3}));
  EXPECT_TRUE(decoded->unknown[0].flags & kFlagPartial);
}

TEST(AttrCodec, UnknownNonTransitiveDropped) {
  PathAttributes attrs;
  attrs.as_path = AsPath({65001});
  attrs.next_hop = Ipv4Address(1, 2, 3, 4);
  attrs.unknown.push_back(RawAttribute{kFlagOptional, 200, Bytes{7}});
  AttrCodecOptions options{.four_byte_asn = true};
  auto decoded = decode_attributes(encode_attributes(attrs, options), options);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->unknown.empty());
}

TEST(AttrCodec, UnknownWellKnownIsError) {
  // flags without the optional bit + unknown type => well-known unrecognized
  ByteWriter w;
  w.u8(kFlagTransitive);
  w.u8(77);
  w.u8(1);
  w.u8(0);
  AttrCodecOptions options{.four_byte_asn = true};
  EXPECT_FALSE(decode_attributes(w.bytes(), options).ok());
}

UpdateCodecOptions options_with(bool add_path, bool four_byte = true) {
  UpdateCodecOptions o;
  o.add_path = add_path;
  o.attrs.four_byte_asn = four_byte;
  return o;
}

TEST(UpdateCodec, RoundTripPlain) {
  UpdateMessage update;
  update.attributes = sample_attrs();
  update.nlri = {{0, *Ipv4Prefix::parse("184.164.224.0/24")}};
  update.withdrawn = {{0, *Ipv4Prefix::parse("184.164.240.0/24")}};
  auto options = options_with(false);
  auto decoded = UpdateMessage::decode_body(update.encode_body(options), options);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, update);
}

TEST(UpdateCodec, RoundTripAddPathIds) {
  UpdateMessage update;
  update.attributes = sample_attrs();
  update.nlri = {{7, *Ipv4Prefix::parse("184.164.224.0/24")},
                 {9, *Ipv4Prefix::parse("184.164.225.0/24")}};
  auto options = options_with(true);
  auto decoded = UpdateMessage::decode_body(update.encode_body(options), options);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nlri[0].path_id, 7u);
  EXPECT_EQ(decoded->nlri[1].path_id, 9u);
}

TEST(UpdateCodec, NlriWithoutAttributesIsError) {
  UpdateMessage update;
  update.nlri = {{0, *Ipv4Prefix::parse("10.0.0.0/8")}};
  auto options = options_with(false);
  Bytes body = update.encode_body(options);
  EXPECT_FALSE(UpdateMessage::decode_body(body, options).ok());
}

TEST(UpdateCodec, PrefixLengthEncodingUsesMinimalBytes) {
  UpdateMessage update;
  update.withdrawn = {{0, *Ipv4Prefix::parse("10.0.0.0/8")}};
  auto options = options_with(false);
  Bytes body = update.encode_body(options);
  // withdrawn len (2) + [len byte + 1 address byte] + attrs len (2)
  EXPECT_EQ(body.size(), 2u + 2u + 2u);
}

TEST(UpdateCodec, WithdrawalsIntoMatchesEncodeMessage) {
  for (bool add_path : {false, true}) {
    UpdateMessage update;
    update.withdrawn = {{3, *Ipv4Prefix::parse("10.0.0.0/8")},
                        {4, *Ipv4Prefix::parse("184.164.224.0/24")}};
    auto options = options_with(add_path);
    Bytes out = {0xab};  // appends after what is already there
    encode_withdrawals_into(out, update.withdrawn, options);
    Bytes want = {0xab};
    const Bytes message = encode_message(update, options);
    want.insert(want.end(), message.begin(), message.end());
    EXPECT_EQ(out, want) << "add_path=" << add_path;
  }
}

TEST(NotificationCodec, RoundTrip) {
  NotificationMessage msg;
  msg.code = NotificationCode::kHoldTimerExpired;
  msg.subcode = 0;
  msg.data = Bytes{'h', 'i'};
  auto decoded = NotificationMessage::decode_body(msg.encode_body());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(decoded->str(), "hold-expired/0");
}

TEST(MessageDecoder, ReassemblesSplitStream) {
  UpdateMessage update;
  update.attributes = sample_attrs();
  update.nlri = {{0, *Ipv4Prefix::parse("184.164.224.0/24")}};
  auto options = options_with(false);
  Bytes wire = encode_message(update, options);

  MessageDecoder decoder;
  decoder.set_options(options);
  // Feed one byte at a time: no message until the last byte.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(std::span(&wire[i], 1));
    auto r = decoder.poll();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value());
  }
  decoder.feed(std::span(&wire[wire.size() - 1], 1));
  auto r = decoder.poll();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_TRUE(std::holds_alternative<UpdateMessage>(**r));
}

TEST(MessageDecoder, MultipleMessagesInOneChunk) {
  auto options = options_with(false);
  Bytes wire = encode_message(KeepaliveMessage{}, options);
  Bytes two = wire;
  two.insert(two.end(), wire.begin(), wire.end());
  MessageDecoder decoder;
  decoder.feed(two);
  EXPECT_TRUE(decoder.poll()->has_value());
  EXPECT_TRUE(decoder.poll()->has_value());
  EXPECT_FALSE(decoder.poll()->has_value());
}

TEST(MessageDecoder, BadMarkerIsFatal) {
  Bytes garbage(19, 0x00);
  MessageDecoder decoder;
  decoder.feed(garbage);
  EXPECT_FALSE(decoder.poll().ok());
}

TEST(MessageDecoder, BadLengthIsFatal) {
  Bytes header(19, 0xff);
  header[16] = 0;
  header[17] = 5;  // length < 19
  MessageDecoder decoder;
  decoder.feed(header);
  auto r = decoder.poll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(decoder.error_code(), NotificationCode::kMessageHeaderError);
  EXPECT_EQ(r.error().code, 2);  // Bad Message Length
}

TEST(MessageDecoder, ErrorsCarryTheirMessageClass) {
  auto options = options_with(false);
  UpdateMessage update;
  update.attributes = sample_attrs();
  update.nlri = {{0, *Ipv4Prefix::parse("184.164.224.0/24")}};
  Bytes wire = encode_message(update, options);
  // The /24's length byte (followed by 3 address bytes) now says /33.
  wire[wire.size() - 4] = 33;
  MessageDecoder decoder;
  decoder.set_options(options);
  decoder.feed(wire);
  auto r = decoder.poll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(decoder.error_code(), NotificationCode::kUpdateMessageError);
  EXPECT_EQ(r.error().code, 10);  // Invalid Network Field

  OpenMessage open;
  open.hold_time = 1;
  MessageDecoder open_decoder;
  open_decoder.feed(encode_message(open, options));
  auto o = open_decoder.poll();
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(open_decoder.error_code(), NotificationCode::kOpenMessageError);
  EXPECT_EQ(o.error().code, 6);  // Unacceptable Hold Time
}

/// Property test: random updates round-trip in every codec mode.
class UpdateRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(UpdateRoundTripTest, RandomizedRoundTrip) {
  auto [seed, add_path, four_byte] = GetParam();
  Rng rng(seed);
  auto options = options_with(add_path, four_byte);

  for (int iter = 0; iter < 200; ++iter) {
    UpdateMessage update;
    int nlri_count = static_cast<int>(rng.below(4));
    int withdrawn_count = static_cast<int>(rng.below(3));
    for (int i = 0; i < withdrawn_count; ++i) {
      update.withdrawn.push_back(
          {add_path ? static_cast<std::uint32_t>(rng.below(100)) : 0,
           Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                      static_cast<std::uint8_t>(rng.range(0, 32)))});
    }
    if (nlri_count > 0) {
      PathAttributes attrs;
      attrs.origin = static_cast<Origin>(rng.below(3));
      std::vector<Asn> path;
      for (std::uint64_t i = 0; i < rng.range(1, 6); ++i)
        path.push_back(four_byte ? static_cast<Asn>(rng.below(4200000000))
                                 : static_cast<Asn>(rng.range(1, 65000)));
      attrs.as_path = AsPath(path);
      attrs.next_hop = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
      if (rng.chance(0.5)) attrs.med = static_cast<std::uint32_t>(rng.below(1000));
      if (rng.chance(0.5))
        attrs.local_pref = static_cast<std::uint32_t>(rng.below(1000));
      for (std::uint64_t i = 0; i < rng.below(4); ++i)
        attrs.communities.push_back(
            Community(static_cast<std::uint32_t>(rng.next())));
      for (std::uint64_t i = 0; i < rng.below(3); ++i)
        attrs.large_communities.push_back(
            {static_cast<std::uint32_t>(rng.next()),
             static_cast<std::uint32_t>(rng.next()),
             static_cast<std::uint32_t>(rng.next())});
      update.attributes = attrs;
      for (int i = 0; i < nlri_count; ++i) {
        update.nlri.push_back(
            {add_path ? static_cast<std::uint32_t>(rng.below(100)) : 0,
             Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                        static_cast<std::uint8_t>(rng.range(8, 32)))});
      }
    }
    Bytes body = update.encode_body(options);
    auto decoded = UpdateMessage::decode_body(body, options);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    if (four_byte) {
      EXPECT_EQ(*decoded, update);
    } else if (update.attributes) {
      // 2-byte mode: AS path survives via AS4_PATH reconstruction.
      EXPECT_EQ(decoded->attributes->as_path.flatten(),
                update.attributes->as_path.flatten());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, UpdateRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool(),
                       ::testing::Bool()));

}  // namespace
}  // namespace peering::bgp
