#include "trees/registry.hpp"

#include "util/assert.hpp"

namespace euno::trees {

// Defined in builtin_trees.cpp.
void register_builtin_trees(TreeRegistry& reg);

void TreeRegistry::add(TreeEntry e) {
  EUNO_ASSERT_MSG(!e.name.empty() && !e.display.empty(),
                  "tree registration needs a name and a display name");
  EUNO_ASSERT_MSG(by_name(e.name) == nullptr, "duplicate tree name");
  EUNO_ASSERT_MSG(e.make_sim != nullptr && e.make_native != nullptr,
                  "tree registration needs both factories");
  entries_.push_back(std::move(e));
}

const TreeEntry* TreeRegistry::by_name(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

TreeRegistry& tree_registry() {
  // The builtins are added while the registry is built, so they precede any
  // EUNO_REGISTER_TREE entry whatever the static-initialization order.
  static TreeRegistry reg = [] {
    TreeRegistry r;
    register_builtin_trees(r);
    return r;
  }();
  return reg;
}

TreeRegistrar::TreeRegistrar(TreeEntry e) { tree_registry().add(std::move(e)); }

}  // namespace euno::trees
