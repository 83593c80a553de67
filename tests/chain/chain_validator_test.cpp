#include "chain/chain_validator.h"

#include <gtest/gtest.h>

#include <string>

namespace ethsm::chain {
namespace {

class ValidatorFixture : public ::testing::Test {
 protected:
  BlockId add(BlockId parent, MinerClass who, double when,
              std::vector<BlockId> refs = {}) {
    const BlockId id = t.append(parent, who, 0, when, std::move(refs));
    t.publish(id, when);
    return id;
  }
  BlockTree t;
  rewards::RewardConfig byz = rewards::RewardConfig::ethereum_byzantium();
};

TEST_F(ValidatorFixture, CleanChainPasses) {
  BlockId tip = t.genesis();
  for (int i = 0; i < 10; ++i) tip = add(tip, MinerClass::honest, 1.0 + i);
  const auto report = validate_chain(t, byz, tip);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST_F(ValidatorFixture, ValidUncleReferencePasses) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u = add(t.genesis(), MinerClass::selfish, 1.1);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u});
  const auto report = validate_chain(t, byz, b);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST_F(ValidatorFixture, DetectsReferenceBeyondHorizon) {
  const BlockId u = add(t.genesis(), MinerClass::honest, 1.0);
  BlockId tip = add(t.genesis(), MinerClass::honest, 1.1);
  for (int i = 0; i < 6; ++i) tip = add(tip, MinerClass::honest, 2.0 + i);
  // tip is at height 7; referencing u (height 1) means distance 7 > 6.
  const BlockId bad = add(tip, MinerClass::honest, 9.0, {u});
  const auto report = validate_chain(t, byz, bad);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("distance"), std::string::npos);
}

TEST_F(ValidatorFixture, DetectsAncestorReference) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId b = add(a, MinerClass::honest, 2.0, {a});
  const auto report = validate_chain(t, byz, b);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found = found || v.find("ancestor") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorFixture, DetectsUncleWhoseParentIsOffChain) {
  // u2's parent u1 is stale: u2 must not be referenced.
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u1 = add(t.genesis(), MinerClass::honest, 1.1);
  const BlockId u2 = add(u1, MinerClass::honest, 1.2);
  const BlockId b = add(a, MinerClass::honest, 2.0);
  const BlockId c = add(b, MinerClass::honest, 3.0, {u2});
  const auto report = validate_chain(t, byz, c);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found = found || v.find("parent not on") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorFixture, DetectsDoubleReferenceAlongChain) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u = add(t.genesis(), MinerClass::honest, 1.1);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u});
  const BlockId c = add(b, MinerClass::honest, 3.0, {u});  // double ref
  const auto report = validate_chain(t, byz, c);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found = found || v.find("twice") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorFixture, DetectsDoubleReferenceAcrossSeveralBlocks) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u = add(t.genesis(), MinerClass::honest, 1.1);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u});
  const BlockId c = add(b, MinerClass::honest, 3.0);
  add(c, MinerClass::honest, 3.5);  // a second leaf below b
  const BlockId d = add(c, MinerClass::honest, 4.0, {u});  // u again, d = 3
  const auto report = validate_chain(t, byz, d);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found = found || v.find("block " + std::to_string(b) + ": uncle "
                            "referenced twice") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorFixture, SameUncleOnSiblingBranchesPasses) {
  // Competing branches each reference u once: no chain holds both.
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u = add(t.genesis(), MinerClass::selfish, 1.1);
  const BlockId b1 = add(a, MinerClass::honest, 2.0, {u});
  add(a, MinerClass::selfish, 2.1, {u});
  const auto report = validate_chain(t, byz, b1);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST_F(ValidatorFixture, DetectsDuplicateReferenceWithinBlock) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u = add(t.genesis(), MinerClass::honest, 1.1);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u, u});
  const auto report = validate_chain(t, byz, b);
  ASSERT_FALSE(report.ok());
}

TEST_F(ValidatorFixture, DetectsTooManyReferences) {
  rewards::RewardConfig capped = byz;
  capped.max_uncles_per_block = 1;
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  const BlockId u1 = add(t.genesis(), MinerClass::honest, 1.1);
  const BlockId u2 = add(t.genesis(), MinerClass::honest, 1.2);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u1, u2});
  EXPECT_TRUE(validate_chain(t, byz, b).ok());      // unlimited: fine
  EXPECT_FALSE(validate_chain(t, capped, b).ok());  // cap 1: violation
}

TEST_F(ValidatorFixture, DetectsReferenceToInvisibleBlock) {
  const BlockId a = add(t.genesis(), MinerClass::honest, 1.0);
  // u is mined but published only *after* b references it.
  const BlockId u = t.append(t.genesis(), MinerClass::selfish, 0, 1.1);
  const BlockId b = add(a, MinerClass::honest, 2.0, {u});
  t.publish(u, 5.0);
  const auto report = validate_chain(t, byz, b);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found = found || v.find("visible") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ValidatorFixture, DetectsUnpublishedMainChain) {
  const BlockId a = t.append(t.genesis(), MinerClass::selfish, 0, 1.0);
  const auto report = validate_chain(t, byz, a);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("unpublished"), std::string::npos);
}

TEST_F(ValidatorFixture, SkipsMainChainChecksWithoutTip) {
  t.append(t.genesis(), MinerClass::selfish, 0, 1.0);  // unpublished
  EXPECT_TRUE(validate_chain(t, byz).ok());
}

}  // namespace
}  // namespace ethsm::chain
