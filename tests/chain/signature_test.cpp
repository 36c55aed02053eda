#include "chain/signature.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace asipfb::chain {
namespace {

using ir::ChainClass;

TEST(Signature, ToStringJoinsWithDashes) {
  Signature sig{{ChainClass::Multiply, ChainClass::Add}};
  EXPECT_EQ(sig.to_string(), "multiply-add");
  Signature sig3{{ChainClass::Add, ChainClass::Shift, ChainClass::Add}};
  EXPECT_EQ(sig3.to_string(), "add-shift-add");
}

TEST(Signature, PaperExamplesParse) {
  for (const char* name :
       {"multiply-add", "add-multiply", "add-add", "add-multiply-add",
        "multiply-add-add", "add-shift-add", "load-multiply-add",
        "fload-fmultiply", "fmultiply-fsub-fstore", "fload-fadd",
        "shift-add-subtract", "add-compare", "add-load"}) {
    const auto sig = parse_signature(name);
    ASSERT_TRUE(sig.has_value()) << name;
    EXPECT_EQ(sig->to_string(), name);
  }
}

TEST(Signature, RoundTripAllClasses) {
  for (int c = 0; c < static_cast<int>(ChainClass::None); ++c) {
    Signature sig{{static_cast<ChainClass>(c), ChainClass::Add}};
    const auto parsed = parse_signature(sig.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, sig);
  }
}

TEST(Signature, ParseRejectsUnknownClass) {
  EXPECT_FALSE(parse_signature("multiply-banana").has_value());
  EXPECT_FALSE(parse_signature("").has_value());
  EXPECT_FALSE(parse_signature("none").has_value());
}

TEST(Signature, OrderingIsLexicographic) {
  Signature a{{ChainClass::Add}};
  Signature b{{ChainClass::Add, ChainClass::Add}};
  Signature c{{ChainClass::Multiply}};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == a);
}

TEST(Signature, LengthMatchesClassCount) {
  EXPECT_EQ(parse_signature("add-add-add-add-add")->length(), 5u);
  EXPECT_EQ(parse_signature("load")->length(), 1u);
}

/// Every signature of length 1-2, plus a few of the longest length.
std::vector<Signature> packing_samples() {
  std::vector<Signature> out;
  const int classes = static_cast<int>(ChainClass::None);
  for (int a = 0; a < classes; ++a) {
    out.push_back(Signature{{static_cast<ChainClass>(a)}});
    for (int b = 0; b < classes; ++b) {
      out.push_back(Signature{{static_cast<ChainClass>(a), static_cast<ChainClass>(b)}});
    }
  }
  for (int a = 0; a < classes; a += 5) {
    Signature sig;
    for (int i = 0; i < kMaxSequenceLength; ++i) {
      sig.classes.push_back(static_cast<ChainClass>((a + 3 * i) % classes));
    }
    out.push_back(sig);
    sig.classes.pop_back();
    out.push_back(sig);
  }
  out.push_back(Signature{std::vector<ChainClass>(kMaxSequenceLength, ChainClass::FStore)});
  return out;
}

TEST(PackedSignature, RoundTripsAndOrdersLikeSignatures) {
  const auto samples = packing_samples();
  for (const Signature& a : samples) {
    ASSERT_EQ(unpack(pack(a)), a) << a.to_string();
    ASSERT_NE(pack(a), 0u);
    for (const Signature& b : samples) {
      ASSERT_EQ(pack(a) < pack(b), a < b) << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_EQ(pack(Signature{}), 0u);
  EXPECT_TRUE(unpack(0).classes.empty());
}

TEST(PackedSignature, IndexNumbersKeysInFirstSeenOrder) {
  SignatureIndex index;
  const auto samples = packing_samples();  // More keys than the first table holds.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(index.id(pack(samples[i])), i);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(index.id(pack(samples[i])), i);
    ASSERT_EQ(index.keys()[i], pack(samples[i]));
  }
  EXPECT_EQ(index.keys().size(), samples.size());
}

TEST(PackedSignature, MaxLengthMustLieInOneToEight) {
  EXPECT_THROW(check_max_length(0), std::invalid_argument);
  EXPECT_THROW(check_max_length(9), std::invalid_argument);
  EXPECT_NO_THROW(check_max_length(1));
  EXPECT_NO_THROW(check_max_length(kMaxSequenceLength));
}

}  // namespace
}  // namespace asipfb::chain
