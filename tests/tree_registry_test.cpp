// Registry contract tests: lookup round trips, uniqueness of the CLI and
// manifest surfaces, capability expectations for the built-ins, and factory
// presence over both contexts.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trees/registry.hpp"

namespace euno::tests {
namespace {

using trees::tree_registry;

TEST(TreeRegistry, NameLookupRoundTrip) {
  for (const auto& e : tree_registry().entries()) {
    EXPECT_EQ(tree_registry().by_name(e.name), &e) << e.name;
  }
}

TEST(TreeRegistry, UnknownNameIsNull) {
  EXPECT_EQ(tree_registry().by_name("no-such-tree"), nullptr);
  EXPECT_EQ(tree_registry().by_name(""), nullptr);
  EXPECT_EQ(tree_registry().by_name("Euno-B+Tree"), nullptr)
      << "display names are not CLI slugs";
}

TEST(TreeRegistry, SlugsAndDisplayNamesAreUnique) {
  std::set<std::string> names;
  std::set<std::string> displays;
  for (const auto& e : tree_registry().entries()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate slug " << e.name;
    EXPECT_TRUE(displays.insert(e.display).second)
        << "duplicate display name " << e.display;
  }
}

TEST(TreeRegistry, EveryEntryHasBothFactories) {
  for (const auto& e : tree_registry().entries()) {
    EXPECT_NE(e.make_sim, nullptr) << e.name;
    EXPECT_NE(e.make_native, nullptr) << e.name;
  }
}

TEST(TreeRegistry, StrFactoriesIffBytesDomain) {
  // The string factories and the bytes capability travel together: a kBytes
  // entry without them would crash the driver's bytes dispatch, and a kU64
  // entry with them would advertise a surface the trait layer can't serve.
  std::size_t bytes_entries = 0;
  for (const auto& e : tree_registry().entries()) {
    const bool is_bytes = e.caps.key_domain == trees::KeyDomain::kBytes;
    EXPECT_EQ(e.make_sim_str != nullptr, is_bytes) << e.name;
    EXPECT_EQ(e.make_native_str != nullptr, is_bytes) << e.name;
    if (is_bytes) {
      ++bytes_entries;
      // Codec-wrapped str trees are swept by the conformance battery and
      // the lin suite but stay out of the u64 figure sweeps.
      EXPECT_FALSE(e.caps.figure_default) << e.name;
      EXPECT_EQ(e.name.rfind("str-", 0), 0u)
          << e.name << ": bytes-domain slugs carry the str- prefix";
      EXPECT_EQ(e.display.rfind("Str-", 0), 0u) << e.display;
    }
  }
  EXPECT_GE(bytes_entries, 2u)
      << "acceptance floor: at least two bytes-domain trees registered";

  const auto* str_htm = tree_registry().by_name("str-htm-bptree");
  ASSERT_NE(str_htm, nullptr);
  EXPECT_TRUE(str_htm->caps.has_global_fallback);
  EXPECT_EQ(str_htm->display, "Str-HTM-B+Tree");

  const auto* str_mass = tree_registry().by_name("str-masstree");
  ASSERT_NE(str_mass, nullptr);
  EXPECT_FALSE(str_mass->caps.has_global_fallback);

  const auto* str_lock = tree_registry().by_name("str-lock-bptree");
  ASSERT_NE(str_lock, nullptr);
  EXPECT_FALSE(str_lock->caps.has_global_fallback);
}

TEST(TreeRegistry, BuiltinsPresentWithExpectedCaps) {
  // The paper's four figure trees plus 3Path-B+Tree.
  std::vector<std::string> figure;
  for (const auto& e : tree_registry().entries()) {
    if (e.caps.figure_default) figure.push_back(e.name);
  }
  EXPECT_EQ(figure, (std::vector<std::string>{"htm-bptree", "masstree",
                                              "htm-masstree", "euno",
                                              "3path-bptree"}));

  const auto* euno = tree_registry().by_name("euno");
  ASSERT_NE(euno, nullptr);
  EXPECT_TRUE(euno->caps.figure_default);
  EXPECT_EQ(euno->display, "Euno-B+Tree");

  const auto* lock = tree_registry().by_name("lock-bptree");
  ASSERT_NE(lock, nullptr);
  EXPECT_FALSE(lock->caps.figure_default);

  const auto* masstree = tree_registry().by_name("masstree");
  ASSERT_NE(masstree, nullptr);
  EXPECT_FALSE(masstree->caps.has_global_fallback)
      << "plain OLC never takes the global fallback lock";

  const auto* threepath = tree_registry().by_name("3path-bptree");
  ASSERT_NE(threepath, nullptr);
  EXPECT_TRUE(threepath->caps.figure_default);
  EXPECT_FALSE(threepath->caps.has_global_fallback)
      << "three-path degrades fast->middle->slow; the lock is terminal only";
  EXPECT_EQ(threepath->display, "3Path-B+Tree");

  EXPECT_FALSE(lock->caps.has_global_fallback);
}

TEST(TreeRegistry, RegistrationOrderIsTheBuiltinList) {
  // Listings, default sweeps and the golden fixtures depend on the paper's
  // trees and the Figure 13 ladder keeping their positions; post-refactor
  // structures append. This
  // binary registers nothing of its own, so the registry is exactly the
  // builtins.
  std::vector<std::string> names;
  for (const auto& e : tree_registry().entries()) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "htm-bptree", "masstree", "htm-masstree", "euno",
                       "euno-split", "euno-part", "euno-lockbits",
                       "euno-markbits", "lock-bptree", "3path-bptree",
                       "str-htm-bptree", "str-masstree", "str-lock-bptree"}));
}

TEST(TreeRegistry, NoTwoEntriesShareASimFactory) {
  // Two slugs over one factory are one tree under two names: every sweep
  // runs it twice and every golden pins the same manifest twice. A second
  // name for a tree belongs in the bench that needs it (fig13 labels its
  // last rung "+Adaptive"), not in the registry.
  std::set<decltype(trees::TreeEntry::make_sim)> factories;
  for (const auto& e : tree_registry().entries()) {
    EXPECT_TRUE(factories.insert(e.make_sim).second)
        << e.name << " reuses another entry's make_sim factory";
  }
}

}  // namespace
}  // namespace euno::tests
