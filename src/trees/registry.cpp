#include "trees/registry.hpp"

#include "util/assert.hpp"

namespace euno::trees {

// Defined in builtin_trees.cpp. Referencing it from here forces the linker
// to pull that archive member in, which runs its static TreeRegistrar
// objects — the standard fix for self-registration inside a static library.
void anchor_builtin_trees();

TreeRegistry& TreeRegistry::instance() {
  static TreeRegistry reg;
  return reg;
}

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
  anchor_builtin_trees();
  return TreeRegistry::instance();
}

TreeRegistrar::TreeRegistrar(TreeEntry e) {
  TreeRegistry::instance().add(std::move(e));
}

}  // namespace euno::trees
