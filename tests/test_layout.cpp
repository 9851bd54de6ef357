// Storage-layout inference (src/static/layout): static slots with packed
// sub-word members (width inference from masks / CALLER comparisons,
// caller-guard attribution, write-value provenance, range overlap),
// keccak-derived mapping/array slot families, the reliability contract,
// AnalysisCache memoization, and the source-free family-collision mode's
// equivalence with the declared-layout mode.
#include <gtest/gtest.h>

#include <memory>

#include "chain/blockchain.h"
#include "core/analysis_cache.h"
#include "core/storage_collision.h"
#include "crypto/eth.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"
#include "evm/disassembler.h"
#include "sourcemeta/source.h"
#include "static/layout.h"

namespace {

using namespace proxion;
using chain::Blockchain;
using core::StorageCollisionConfig;
using core::StorageCollisionDetector;
using datagen::Assembler;
using datagen::BodyKind;
using datagen::ContractFactory;
using evm::Address;
using evm::Bytes;
using evm::Opcode;
using evm::U256;
using static_analysis::AbstractValue;
using static_analysis::LayoutMember;
using static_analysis::SlotFamily;
using static_analysis::StorageLayout;
using static_analysis::WriteOrigin;

StorageLayout infer(const Bytes& code) {
  return static_analysis::infer_layout(evm::Disassembly(code));
}

/// The member with exactly this byte range on `slot`, or nullptr.
const LayoutMember* member(const StorageLayout& layout, const U256& slot,
                           std::uint8_t offset, std::uint8_t width) {
  for (const LayoutMember& m : layout.members_at(slot)) {
    if (m.offset == offset && m.width == width) return &m;
  }
  return nullptr;
}

LayoutMember view(std::uint64_t slot, std::uint8_t offset,
                  std::uint8_t width) {
  LayoutMember m;
  m.slot = U256{slot};
  m.offset = offset;
  m.width = width;
  return m;
}

const SlotFamily* mapping_family(const StorageLayout& layout,
                                 std::uint64_t base) {
  return layout.family(U256{base}, /*depth=*/1, /*path=*/1);
}

// ---------------------------------------------------------------------------
// Static slots and packed members

TEST(LayoutInference, TokenContractStaticSlots) {
  const StorageLayout layout = infer(ContractFactory::token_contract(7));
  ASSERT_TRUE(layout.cfg_complete);
  EXPECT_EQ(layout.unresolved_accesses, 0u);
  EXPECT_TRUE(layout.reliable());
  // owner() reads slot 0 as an address; balanceOf/transfer hit slot 2 whole.
  EXPECT_TRUE(layout.admits_slot(U256{0}));
  EXPECT_TRUE(layout.admits_slot(U256{2}));
  bool found_address_view = false;
  for (const auto& m : layout.members) {
    if (m.slot == U256{0} && m.offset == 0 && m.width == 20) {
      found_address_view = true;
    }
  }
  EXPECT_TRUE(found_address_view) << layout.to_string();
}

TEST(LayoutInference, PackedConfigRecoversSubWordMembers) {
  const StorageLayout layout = infer(ContractFactory::packed_config_contract());
  ASSERT_TRUE(layout.reliable()) << layout.to_string();
  // paused() reads (sload(0) >> 160) & 0xff: byte 20, width 1.
  bool found_bool = false;
  bool found_address = false;
  for (const auto& m : layout.members) {
    if (m.slot != U256{0}) continue;
    if (m.offset == 20 && m.width == 1) found_bool = true;
    if (m.offset == 0 && m.width == 20) found_address = true;
  }
  EXPECT_TRUE(found_bool) << layout.to_string();
  EXPECT_TRUE(found_address) << layout.to_string();
  // values(uint256) walks the dynamic array rooted at slot 1.
  EXPECT_NE(layout.family(U256{1}, 1, /*path=*/0), nullptr)
      << layout.to_string();
}

TEST(LayoutInference, GuardFactsOnPackedWrite) {
  const StorageLayout layout = infer(ContractFactory::packed_config_contract());
  // pause() writes byte 20 of slot 0 with no caller guard; setOwner() writes
  // the address range behind a CALLER-equality check.
  bool packed_write_unguarded = false;
  bool address_caller_compared = false;
  for (const auto& m : layout.members) {
    if (m.slot != U256{0}) continue;
    if (m.offset == 20 && m.width == 1 && m.written && m.unguarded_write) {
      packed_write_unguarded = true;
    }
    if (m.width == 20 && m.caller_compared) address_caller_compared = true;
  }
  EXPECT_TRUE(packed_write_unguarded) << layout.to_string();
  EXPECT_TRUE(address_caller_compared) << layout.to_string();
}

// ---------------------------------------------------------------------------
// Typed views: widths from masks, CALLER comparisons and writes

TEST(LayoutMembers, AddressReadWidthFromMask) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "owner()", .body = BodyKind::kReturnStorageAddress,
        .slot = U256{0}}}));
  const LayoutMember* m = member(layout, U256{0}, 0, 20);  // 2^160-1 mask
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->read);
  EXPECT_FALSE(m->written);
}

TEST(LayoutMembers, BoolReadWidthFromByteMask) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "flag()", .body = BodyKind::kReturnStorageBool,
        .slot = U256{0}}}));
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u) << layout.to_string();
  EXPECT_NE(member(layout, U256{0}, 0, 1), nullptr) << layout.to_string();
}

TEST(LayoutMembers, UnmaskedReadIsFullWidth) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "value()", .body = BodyKind::kReturnStorageWord,
        .slot = U256{3}}}));
  EXPECT_NE(member(layout, U256{3}, 0, 32), nullptr) << layout.to_string();
}

TEST(LayoutMembers, CallerWriteIsAddressWidthAndCallerOrigin) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "claim()", .body = BodyKind::kStoreCaller,
        .slot = U256{7}}}));
  const LayoutMember* m = member(layout, U256{7}, 0, 20);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->written);
  EXPECT_EQ(m->write_origin, WriteOrigin::kCaller);
  EXPECT_TRUE(m->caller_written);
  EXPECT_TRUE(m->sensitive());
  EXPECT_TRUE(m->unguarded_write);
}

TEST(LayoutMembers, CallerWriteStaysSensitiveWhenWriteOriginsDisagree) {
  // Two writes of one range, one CALLER-derived and one from calldata: the
  // merged write_origin degrades to unknown, but the CALLER write must still
  // make the range sensitive.
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "claim()", .body = BodyKind::kStoreCaller,
        .slot = U256{7}},
       {.prototype = "set(address)", .body = BodyKind::kStoreArgAddress,
        .slot = U256{7}}}));
  const LayoutMember* m = member(layout, U256{7}, 0, 20);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_EQ(m->write_origin, WriteOrigin::kUnknown);
  EXPECT_TRUE(m->caller_written);
  EXPECT_FALSE(m->caller_compared);
  EXPECT_TRUE(m->sensitive());
}

TEST(LayoutMembers, MaskedArgWriteIsAddressWidth) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "set(address)", .body = BodyKind::kStoreArgAddress,
        .slot = U256{2}}}));
  const LayoutMember* m = member(layout, U256{2}, 0, 20);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->written);
  EXPECT_EQ(m->write_origin, WriteOrigin::kCalldata);
  EXPECT_FALSE(m->sensitive());
}

TEST(LayoutMembers, GuardedWriteDetected) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "upgradeTo(address)",
        .body = BodyKind::kGuardedStoreArgAddress, .slot = U256{1},
        .aux = U256{0}}}));
  // The owner slot read is caller-compared (sensitive)...
  const LayoutMember* owner = member(layout, U256{0}, 0, 20);
  ASSERT_NE(owner, nullptr) << layout.to_string();
  EXPECT_TRUE(owner->caller_compared);
  EXPECT_TRUE(owner->sensitive());
  // ... and the write into the implementation slot is guarded.
  const auto impl = layout.members_at(U256{1});
  ASSERT_FALSE(impl.empty()) << layout.to_string();
  for (const LayoutMember& m : impl) {
    EXPECT_TRUE(m.written);
    EXPECT_FALSE(m.unguarded_write);
  }
}

TEST(LayoutMembers, AudiusLogicShowsTheBugSignature) {
  const StorageLayout layout = infer(ContractFactory::audius_style_logic());
  // Listing 2's signature: a 1-byte read of slot 0 plus an *unguarded*
  // 20-byte caller write of the same slot.
  const LayoutMember* flag = member(layout, U256{0}, 0, 1);
  ASSERT_NE(flag, nullptr) << layout.to_string();
  EXPECT_TRUE(flag->read);
  const LayoutMember* owner = member(layout, U256{0}, 0, 20);
  ASSERT_NE(owner, nullptr) << layout.to_string();
  EXPECT_TRUE(owner->written);
  EXPECT_TRUE(owner->unguarded_write);
  EXPECT_EQ(owner->write_origin, WriteOrigin::kCaller);
  EXPECT_TRUE(owner->sensitive());
  EXPECT_TRUE(flag->overlaps(*owner));
}

TEST(LayoutMembers, AudiusProxyReadsSlotZeroAsAddress) {
  const StorageLayout layout = infer(ContractFactory::audius_style_proxy());
  const auto views = layout.members_at(U256{0});
  ASSERT_FALSE(views.empty()) << layout.to_string();
  for (const LayoutMember& m : views) {
    EXPECT_EQ(m.width, 20) << layout.to_string();
  }
}

TEST(LayoutMembers, MappingAccessesAreNotStaticSlots) {
  // The facet lookup SLOADs a keccak-derived slot: it is a family, and it
  // leaves no bogus concrete slot-0 member behind.
  const StorageLayout layout = infer(ContractFactory::diamond_proxy());
  EXPECT_FALSE(layout.families.empty()) << layout.to_string();
  EXPECT_FALSE(layout.admits_slot(U256{})) << layout.to_string();
}

TEST(LayoutMembers, ProxyFallbackReadsImplSlotAsAddress) {
  const StorageLayout layout = infer(ContractFactory::slot_proxy(U256{0}));
  const LayoutMember* m = member(layout, U256{0}, 0, 20);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->read);
  EXPECT_FALSE(m->written);
}

TEST(LayoutMembers, Eip1967SlotIsConcreteHugeConstant) {
  const StorageLayout layout = infer(ContractFactory::eip1967_proxy());
  EXPECT_TRUE(layout.admits_slot(ContractFactory::eip1967_slot()))
      << layout.to_string();
}

TEST(LayoutMembers, MembersAtGroupsViewsBySlot) {
  const StorageLayout layout = infer(ContractFactory::plain_contract({
      {.prototype = "a()", .body = BodyKind::kReturnStorageBool,
       .slot = U256{0}},
      {.prototype = "b()", .body = BodyKind::kReturnStorageWord,
       .slot = U256{1}},
  }));
  ASSERT_EQ(layout.members.size(), 2u) << layout.to_string();
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u);
  EXPECT_EQ(layout.members_at(U256{0})[0].width, 1);
  ASSERT_EQ(layout.members_at(U256{1}).size(), 1u);
  EXPECT_EQ(layout.members_at(U256{1})[0].width, 32);
  EXPECT_TRUE(layout.members_at(U256{999}).empty());
}

TEST(LayoutMembers, PackedReadAtOffsetRecovered) {
  // (sload(0) >> 8) & 0xff: the Listing-2 `initializing` flag at byte 1.
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "initializing()",
        .body = BodyKind::kReturnStorageBoolAtOffset, .slot = U256{0},
        .aux = U256{1}}}));
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u) << layout.to_string();
  EXPECT_NE(member(layout, U256{0}, 1, 1), nullptr) << layout.to_string();
}

TEST(LayoutMembers, OffsetZeroPackedReadIsPlainBool) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "flag()", .body = BodyKind::kReturnStorageBoolAtOffset,
        .slot = U256{0}, .aux = U256{0}}}));
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u) << layout.to_string();
  EXPECT_NE(member(layout, U256{0}, 0, 1), nullptr) << layout.to_string();
}

TEST(LayoutMembers, DistinctViewsOfOneSlot) {
  const StorageLayout layout = infer(ContractFactory::plain_contract({
      {.prototype = "a()", .body = BodyKind::kReturnStorageBool,
       .slot = U256{0}},
      {.prototype = "b()", .body = BodyKind::kReturnStorageBoolAtOffset,
       .slot = U256{0}, .aux = U256{1}},
      {.prototype = "c()", .body = BodyKind::kReturnStorageAddress,
       .slot = U256{0}},
  }));
  // [0,1), [0,20) and [1,2), in (offset, width) order.
  const auto views = layout.members_at(U256{0});
  ASSERT_EQ(views.size(), 3u) << layout.to_string();
  EXPECT_TRUE(views[0].same_range(view(0, 0, 1)));
  EXPECT_TRUE(views[1].same_range(view(0, 0, 20)));
  EXPECT_TRUE(views[2].same_range(view(0, 1, 1)));
}

TEST(LayoutMembers, RangeOverlapSemantics) {
  const LayoutMember addr = view(0, 0, 20);          // bytes [0, 20)
  const LayoutMember flag_inside = view(0, 1, 1);    // byte [1, 2)
  const LayoutMember flag_outside = view(0, 20, 1);  // packs NEXT to addr
  const LayoutMember other_slot = view(7, 1, 1);

  EXPECT_TRUE(addr.overlaps(flag_inside));
  EXPECT_TRUE(flag_inside.overlaps(addr));
  EXPECT_FALSE(addr.overlaps(flag_outside));
  EXPECT_FALSE(addr.overlaps(other_slot));
  EXPECT_FALSE(addr.same_range(flag_inside));
  EXPECT_TRUE(addr.same_range(addr));
}

TEST(LayoutMembers, PackedWriteIdiomRecovered) {
  // sstore(slot, (sload & ~(0xff<<8)) | (1<<8)): a bool write at byte 1.
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "setInitializing()",
        .body = BodyKind::kStoreBoolPackedAt, .slot = U256{0},
        .aux = U256{1}}}));
  // The RMW's carrier read is refined to the written range, not 32 bytes,
  // so the slot has exactly one view.
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u) << layout.to_string();
  const LayoutMember* m = member(layout, U256{0}, 1, 1);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->read);
  EXPECT_TRUE(m->written);
  EXPECT_EQ(m->write_origin, WriteOrigin::kConstant);
}

TEST(LayoutMembers, PackedWriteAtOffsetZero) {
  const StorageLayout layout = infer(ContractFactory::plain_contract(
      {{.prototype = "setFlag()", .body = BodyKind::kStoreBoolPackedAt,
        .slot = U256{3}, .aux = U256{0}}}));
  const LayoutMember* m = member(layout, U256{3}, 0, 1);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->written);
}

TEST(LayoutMembers, PackedWriteCompatibilityInCollisionTerms) {
  // A packed bool write at byte 20 does NOT overlap an address at [0,20).
  LayoutMember packed = view(0, 20, 1);
  packed.written = true;
  EXPECT_FALSE(view(0, 0, 20).overlaps(packed));
}

// ---------------------------------------------------------------------------
// Keccak slot families

TEST(LayoutInference, MappingTokenRecoversFamilies) {
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(3));
  ASSERT_TRUE(layout.reliable()) << layout.to_string();
  // balances: mapping at slot 2, calldata-derived key, read and written.
  const SlotFamily* balances = mapping_family(layout, 2);
  ASSERT_NE(balances, nullptr) << layout.to_string();
  EXPECT_EQ(balances->key_origin, AbstractValue::KeyOrigin::kCalldata);
  EXPECT_TRUE(balances->read);
  EXPECT_TRUE(balances->written);
  EXPECT_TRUE(balances->unguarded_write);
  // approvals: mapping at slot 3, caller-derived key (origin stays unknown —
  // the lattice only distinguishes const/calldata keys).
  const SlotFamily* approvals = mapping_family(layout, 3);
  ASSERT_NE(approvals, nullptr) << layout.to_string();
  EXPECT_TRUE(approvals->written);
}

TEST(LayoutInference, DiamondSelectorMappingIsAFamily) {
  const StorageLayout layout = infer(ContractFactory::diamond_proxy());
  const SlotFamily* facets =
      layout.family(ContractFactory::diamond_base_slot(), 1, /*path=*/1);
  ASSERT_NE(facets, nullptr) << layout.to_string();
  EXPECT_TRUE(facets->read);
  EXPECT_FALSE(facets->written);
}

TEST(LayoutInference, FamilyElementSlotsAreAdmittedNowhereStatically) {
  // Family membership is not static-slot membership: keccak image slots must
  // not appear as members (they are unbounded), only as the family.
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(1));
  for (const auto& m : layout.members) {
    EXPECT_LT(m.slot, U256{1} << U256{32}) << layout.to_string();
  }
}

// ---------------------------------------------------------------------------
// Reliability posture

TEST(LayoutInference, ComputedJumpContractIsUnreliable) {
  // The calldata-derived computed jump defeats CFG recovery; the layout must
  // say so instead of making claims it cannot back.
  const StorageLayout layout =
      infer(ContractFactory::computed_jump_contract(U256{0}));
  EXPECT_FALSE(layout.reliable());
}

TEST(LayoutInference, UnresolvedSlotDisablesReliability) {
  // sstore(calldataload(4), 1): the slot is attacker-chosen — no layout can
  // cover it, so the access must count as unresolved.
  Assembler a;
  a.push(U256{1}, 1);
  a.push(U256{4}, 1).op(Opcode::CALLDATALOAD);
  a.op(Opcode::SSTORE).op(Opcode::STOP);
  const StorageLayout layout = infer(a.assemble());
  EXPECT_GT(layout.unresolved_accesses, 0u);
  EXPECT_FALSE(layout.reliable());
}

TEST(LayoutInference, EmptyCodeIsReliablyEmpty) {
  const StorageLayout layout = infer(Bytes{});
  EXPECT_TRUE(layout.members.empty());
  EXPECT_TRUE(layout.families.empty());
  EXPECT_TRUE(layout.reliable());
}

// ---------------------------------------------------------------------------
// Regressions: a packed address read typed by a CALLER compare must carry the
// SHR-derived byte offset, not claim bytes [0, 20).

TEST(LayoutRegression, ShiftedCallerCompareKeepsPackedOffset) {
  // if (address(uint160(sload(0) >> 64)) == msg.sender) { sstore(1, 1) }
  Assembler a;
  a.push(U256{0}, 1).op(Opcode::SLOAD);
  a.push(U256{64}, 1).op(Opcode::SHR);
  a.op(Opcode::CALLER).op(Opcode::EQ);
  a.push_label("ok").op(Opcode::JUMPI);
  a.push(U256{0}, 1).push(U256{0}, 1).op(Opcode::REVERT);
  a.jumpdest("ok");
  a.push(U256{1}, 1).push(U256{1}, 1).op(Opcode::SSTORE).op(Opcode::STOP);
  const StorageLayout layout = infer(a.assemble());

  // 64 bits = 8 bytes up; the slot has no other view.
  ASSERT_EQ(layout.members_at(U256{0}).size(), 1u) << layout.to_string();
  const LayoutMember* m = member(layout, U256{0}, 8, 20);
  ASSERT_NE(m, nullptr) << layout.to_string();
  EXPECT_TRUE(m->caller_compared);
}

TEST(LayoutRegression, FullWordReadOverlapsEveryPackedMember) {
  // An unmasked 32-byte read must overlap both a low-packed bool and a
  // high-packed address — the misleading-offset bug reported overlap with
  // only one of them.
  const LayoutMember whole = view(0, 0, 32);
  const LayoutMember low_bool = view(0, 0, 1);
  const LayoutMember high_addr = view(0, 12, 20);
  EXPECT_TRUE(whole.overlaps(low_bool));
  EXPECT_TRUE(whole.overlaps(high_addr));
  EXPECT_FALSE(low_bool.overlaps(high_addr));
}

// ---------------------------------------------------------------------------
// Memoization (AnalysisCache)

TEST(LayoutCache, LayoutIsMemoizedPerCodeHash) {
  core::AnalysisCache cache;
  const Bytes code = ContractFactory::mapping_token_contract(5);
  const crypto::Hash256 hash = crypto::keccak256(code);

  const auto first = cache.layout(hash, code);
  const auto second = cache.layout(hash, code);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.layout_misses, 1u);
  EXPECT_EQ(stats.layout_hits, 1u);
}

TEST(LayoutCache, LayoutDoesNotInflateStaticTriageCounters) {
  core::AnalysisCache cache;
  const Bytes code = ContractFactory::token_contract(1);
  const crypto::Hash256 hash = crypto::keccak256(code);
  (void)cache.layout(hash, code);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.static_hits, 0u);
  EXPECT_EQ(stats.static_misses, 0u);
}

// ---------------------------------------------------------------------------
// Source-free family collision mode

sourcemeta::SourceRecord mapping_token_record() {
  sourcemeta::SourceRecord rec;
  rec.contract_name = "MappingToken";
  rec.functions = {{.prototype = "totalSupply()"},
                   {.prototype = "balanceOf(address)"},
                   {.prototype = "transfer(address,uint256)"},
                   {.prototype = "approve(uint256)"},
                   {.prototype = "owner()"}};
  rec.storage = {{.name = "owner", .type = "address"},
                 {.name = "reserved", .type = "uint256"},
                 {.name = "balances", .type = "mapping(address=>uint256)"},
                 {.name = "approvals", .type = "mapping(address=>uint256)"}};
  sourcemeta::layout_storage(rec.storage);
  return rec;
}

TEST(FamilyCollision, DeclaredAndInferredFamiliesShareIdentity) {
  const auto declared =
      StorageCollisionDetector::declared_families(mapping_token_record());
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(2));
  const auto inferred = StorageCollisionDetector::inferred_families(layout);

  // Every declared mapping identity is recovered from bytecode alone.
  for (const auto& d : declared) {
    const bool matched = std::any_of(
        inferred.begin(), inferred.end(),
        [&](const core::FamilyView& i) { return d.same_identity(i); });
    EXPECT_TRUE(matched) << "declared base slot not inferred: "
                         << layout.to_string();
  }
}

TEST(FamilyCollision, SourceFreeModeMatchesSourceAttachedVerdict) {
  Blockchain chain;
  const Address deployer = Address::from_label("layout.deployer");
  const Address proxy_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(1));
  const Address logic_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(9));
  const Bytes proxy_code = chain.get_code(proxy_addr);
  const Bytes logic_code = chain.get_code(logic_addr);
  const crypto::Hash256 proxy_hash = crypto::keccak256(proxy_code);
  const crypto::Hash256 logic_hash = crypto::keccak256(logic_code);

  StorageCollisionConfig config;
  config.compare_families = true;

  // Source-attached: both sides have declared layouts.
  sourcemeta::SourceRepository sources;
  sources.publish(proxy_addr, mapping_token_record());
  sources.publish(logic_addr, mapping_token_record());
  core::AnalysisCache cache_attached;
  StorageCollisionDetector attached(chain, config, &cache_attached, &sources);
  const auto attached_result =
      attached.detect(proxy_addr, proxy_code, &proxy_hash, logic_addr,
                      logic_code, &logic_hash);
  EXPECT_TRUE(attached_result.family_checked);
  EXPECT_FALSE(attached_result.family_source_free);

  // Source-free: same pair, sourcemeta detached.
  core::AnalysisCache cache_free;
  StorageCollisionDetector source_free(chain, config, &cache_free, nullptr);
  const auto free_result =
      source_free.detect(proxy_addr, proxy_code, &proxy_hash, logic_addr,
                         logic_code, &logic_hash);
  EXPECT_TRUE(free_result.family_checked);
  EXPECT_TRUE(free_result.family_source_free);

  // Core contract of the source-free mode: bit-identical verdicts.
  EXPECT_EQ(attached_result.has_family_collision(),
            free_result.has_family_collision());
  EXPECT_EQ(attached_result.has_collision(), free_result.has_collision());
}

TEST(FamilyCollision, NoFindingWhenFamiliesAgree) {
  Blockchain chain;
  const Address deployer = Address::from_label("layout.deployer2");
  const Address a_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(4));
  const Address b_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(8));
  const Bytes a_code = chain.get_code(a_addr);
  const Bytes b_code = chain.get_code(b_addr);

  StorageCollisionConfig config;
  config.compare_families = true;
  core::AnalysisCache cache;
  StorageCollisionDetector detector(chain, config, &cache, nullptr);
  const crypto::Hash256 a_hash = crypto::keccak256(a_code);
  const crypto::Hash256 b_hash = crypto::keccak256(b_code);
  const auto result =
      detector.detect(a_addr, a_code, &a_hash, b_addr, b_code, &b_hash);
  EXPECT_TRUE(result.family_checked);
  EXPECT_FALSE(result.has_family_collision());
}

}  // namespace
