// Model-based property tests: a PhTree under random insert / erase / find
// sequences must behave exactly like a std::map over the same keys, across
// dimensionalities, key widths and both value modes; the deep
// structural validator (prefix reconstruction, self-lookup, stats and arena
// accounting cross-checks) must hold after every batch.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

/// Part of each instance's name and a salt for its seed. Every tree
/// follows the one representation rule; the labels keep the instance names
/// (the suite's test IDs) stable.
enum class Label : uint8_t { kAdaptive, kLhcOnly, kHcOnly };

struct ModelParam {
  uint32_t dim;
  Label label;
  uint32_t key_bits;  // restrict keys to the low `key_bits` bits (collisions!)
  bool store_values = true;
};

std::string ParamName(const testing::TestParamInfo<ModelParam>& info) {
  const char* label = info.param.label == Label::kAdaptive  ? "Adaptive"
                      : info.param.label == Label::kLhcOnly ? "LhcOnly"
                                                            : "HcOnly";
  return "dim" + std::to_string(info.param.dim) + label + "bits" +
         std::to_string(info.param.key_bits) +
         (info.param.store_values ? "" : "Set");
}

class PhTreeModelTest : public testing::TestWithParam<ModelParam> {};

PhKey RandomKey(Rng& rng, uint32_t dim, uint32_t key_bits) {
  PhKey key(dim);
  for (auto& v : key) {
    v = rng.NextU64() & LowMask(key_bits);
  }
  return key;
}

TEST_P(PhTreeModelTest, MatchesStdMapUnderRandomOps) {
  const ModelParam p = GetParam();
  PhTreeConfig cfg;
  cfg.store_values = p.store_values;
  PhTree tree(p.dim, cfg);
  std::map<PhKey, uint64_t> model;
  Rng rng(0xC0FFEE ^ p.dim ^ (p.key_bits << 8) ^
          (static_cast<uint64_t>(p.label) << 16) ^
          (p.store_values ? 0 : 1u << 20));

  const int kIterations = 6000;
  for (int iter = 0; iter < kIterations; ++iter) {
    const uint64_t op = rng.NextBounded(10);
    PhKey key = RandomKey(rng, p.dim, p.key_bits);
    if (op < 5) {  // insert
      const uint64_t value = rng.NextU64();
      const bool expect_new = model.find(key) == model.end();
      EXPECT_EQ(tree.Insert(key, value), expect_new);
      if (expect_new) {
        model[key] = value;
      }
    } else if (op < 8) {  // erase (biased to existing keys half the time)
      if (!model.empty() && rng.NextBool(0.5)) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(model.size())));
        key = it->first;
      }
      const bool expect_hit = model.find(key) != model.end();
      EXPECT_EQ(tree.Erase(key), expect_hit);
      model.erase(key);
    } else {  // find
      if (!model.empty() && rng.NextBool(0.5)) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(model.size())));
        key = it->first;
      }
      const auto found = tree.Find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(found.has_value());
      } else {
        ASSERT_TRUE(found.has_value());
        // Key-only trees report presence but store no payload.
        EXPECT_EQ(*found, p.store_values ? it->second : 0);
      }
    }
    ASSERT_EQ(tree.size(), model.size());
    if (iter % 500 == 499) {
      ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "iteration " << iter;
    }
  }

  // Full content check via ForEach.
  std::map<PhKey, uint64_t> dumped;
  tree.ForEach([&](const PhKey& k, uint64_t v) { dumped[k] = v; });
  if (p.store_values) {
    EXPECT_EQ(dumped, model);
  } else {
    ASSERT_EQ(dumped.size(), model.size());
    for (const auto& [k, v] : dumped) {
      EXPECT_EQ(v, 0u);
      EXPECT_TRUE(model.count(k));
    }
  }

  // Drain the tree; every erase must succeed.
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(tree.Erase(key));
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PhTreeModelTest,
    testing::Values(
        // Full-width keys across dimensionalities.
        ModelParam{1, Label::kAdaptive, 64},
        ModelParam{2, Label::kAdaptive, 64},
        ModelParam{3, Label::kAdaptive, 64},
        ModelParam{8, Label::kAdaptive, 64},
        ModelParam{16, Label::kAdaptive, 64},
        ModelParam{40, Label::kAdaptive, 64},
        ModelParam{63, Label::kAdaptive, 64},
        ModelParam{2, Label::kLhcOnly, 64},
        ModelParam{8, Label::kLhcOnly, 64},
        ModelParam{2, Label::kHcOnly, 64},
        ModelParam{8, Label::kHcOnly, 64},
        // Narrow key ranges force deep prefix sharing and dense nodes.
        ModelParam{1, Label::kAdaptive, 4},
        ModelParam{2, Label::kAdaptive, 3},
        ModelParam{2, Label::kAdaptive, 8},
        ModelParam{3, Label::kAdaptive, 2},
        ModelParam{8, Label::kAdaptive, 1},
        ModelParam{16, Label::kAdaptive, 2},
        ModelParam{2, Label::kLhcOnly, 4},
        ModelParam{2, Label::kHcOnly, 4},
        ModelParam{8, Label::kHcOnly, 2},
        // Key-only ("set") mode: no payload slots for postfix entries.
        ModelParam{2, Label::kAdaptive, 64, false},
        ModelParam{3, Label::kAdaptive, 64, false},
        ModelParam{8, Label::kAdaptive, 64, false},
        ModelParam{2, Label::kAdaptive, 4, false},
        ModelParam{3, Label::kAdaptive, 2, false},
        ModelParam{8, Label::kAdaptive, 1, false},
        ModelParam{2, Label::kHcOnly, 4, false},
        ModelParam{2, Label::kLhcOnly, 4, false},
        ModelParam{16, Label::kAdaptive, 2, false}),
    ParamName);

TEST(PhTreeModelChurn, DeepValidatorHoldsUnderOscillatingChurn) {
  // Erasing and re-inserting the same half of the keys drives nodes back
  // and forth across representation boundaries.
  PhTree tree(3);
  Rng rng(99);
  std::vector<PhKey> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(RandomKey(rng, 3, 6));
  }
  for (const auto& k : keys) {
    tree.Insert(k, 1);
  }
  ASSERT_EQ(ValidatePhTreeDeep(tree), "");
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); i += 2) {
      tree.Erase(keys[i]);
    }
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "round " << round;
    for (size_t i = 0; i < keys.size(); i += 2) {
      tree.Insert(keys[i], 2);
    }
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "round " << round;
  }
}

}  // namespace
}  // namespace phtree
