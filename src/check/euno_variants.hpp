// Euno-B+Tree segment-count variants that only the checkers run: S=1, 2 and
// 8 under the markbits config, and S=2 under the full (adaptive) config. The
// builtin registry covers S=4 in every config (euno, euno-markbits, ...) and
// S=1 only without CCM (euno-split); these entries keep the other segment
// counts under the lin sweep and the property tests, and make every replay
// line those suites print resolve in lin_explore.
//
// Each entry registers at static-initialization time, so include this header
// from exactly one translation unit per binary (a second copy would register
// the slugs twice and trip the registry's duplicate-name assert). The
// euno_trees library does not include it: figure sweeps and listings never
// see these slugs.
#pragma once

#include "core/euno_config.hpp"
#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "trees/registry.hpp"
#include "trees/trees.hpp"

namespace euno::check {

EUNO_REGISTER_TREE(euno_s1_markbits, trees::TreeEntry{
    "euno-s1-markbits", "Euno S=1 markbits", trees::TreeCaps{},
    &trees::make_euno_bptree<ctx::SimCtx, 1, &core::EunoConfig::with_markbits>,
    &trees::make_euno_bptree<ctx::NativeCtx, 1, &core::EunoConfig::with_markbits>});

EUNO_REGISTER_TREE(euno_s2_markbits, trees::TreeEntry{
    "euno-s2-markbits", "Euno S=2 markbits", trees::TreeCaps{},
    &trees::make_euno_bptree<ctx::SimCtx, 2, &core::EunoConfig::with_markbits>,
    &trees::make_euno_bptree<ctx::NativeCtx, 2, &core::EunoConfig::with_markbits>});

EUNO_REGISTER_TREE(euno_s8_markbits, trees::TreeEntry{
    "euno-s8-markbits", "Euno S=8 markbits", trees::TreeCaps{},
    &trees::make_euno_bptree<ctx::SimCtx, 8, &core::EunoConfig::with_markbits>,
    &trees::make_euno_bptree<ctx::NativeCtx, 8, &core::EunoConfig::with_markbits>});

EUNO_REGISTER_TREE(euno_s2_adaptive, trees::TreeEntry{
    "euno-s2-adaptive", "Euno S=2 adaptive", trees::TreeCaps{},
    &trees::make_euno_bptree<ctx::SimCtx, 2, &core::EunoConfig::full>,
    &trees::make_euno_bptree<ctx::NativeCtx, 2, &core::EunoConfig::full>});

}  // namespace euno::check
