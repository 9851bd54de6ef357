#include "datagen/population.h"

#include <algorithm>
#include <random>

#include "crypto/eth.h"
#include "datagen/contract_factory.h"

namespace proxion::datagen {

using chain::Blockchain;
using evm::Address;
using evm::U256;
using sourcemeta::FunctionDecl;
using sourcemeta::SourceRecord;
using sourcemeta::VariableDecl;

std::string_view to_string(Archetype a) noexcept {
  switch (a) {
    case Archetype::kMinimalProxy: return "minimal-proxy";
    case Archetype::kEip1967Proxy: return "eip1967-proxy";
    case Archetype::kTransparentProxy: return "transparent-proxy";
    case Archetype::kEip1822Proxy: return "eip1822-proxy";
    case Archetype::kCustomSlotProxy: return "custom-slot-proxy";
    case Archetype::kBeaconProxy: return "beacon-proxy";
    case Archetype::kWyvernCloneProxy: return "wyvern-clone-proxy";
    case Archetype::kHoneypotProxy: return "honeypot-proxy";
    case Archetype::kAudiusProxy: return "audius-proxy";
    case Archetype::kDiamondProxy: return "diamond-proxy";
    case Archetype::kLibraryUser: return "library-user";
    case Archetype::kLibrary: return "library";
    case Archetype::kToken: return "token";
    case Archetype::kGarbagePush4: return "garbage-push4";
    case Archetype::kLogicImpl: return "logic-impl";
    case Archetype::kBroken: return "broken";
  }
  return "?";
}

std::vector<core::SweepInput> Population::sweep_inputs() const {
  std::vector<core::SweepInput> out;
  out.reserve(contracts.size());
  for (const DeployedContract& c : contracts) {
    out.push_back({c.address, c.year, c.has_source, c.has_tx});
  }
  return out;
}

namespace {

/// Relative share of all deployments landing in each year (Fig 2's growth:
/// pre-2021 holds nearly half the cumulative mass, mostly non-proxies).
constexpr double kYearWeight[9] = {0.5, 2.0, 5.0, 7.5, 8.0,
                                   9.0, 13.0, 14.0, 13.0};
/// Fraction of that year's deployments that are proxies (§7.2: ~12% of the
/// pre-2020 mass, >93% by 2022; overall 54.2%).
constexpr double kProxyFraction[9] = {0.02, 0.05, 0.12, 0.15, 0.15,
                                      0.25, 0.80, 0.93, 0.93};
/// Fraction of that year's deployments with verified source (aggregate <20%).
constexpr double kSourceFraction[9] = {0.60, 0.55, 0.50, 0.45, 0.42,
                                       0.38, 0.25, 0.16, 0.15};
/// Fraction with at least one past transaction (aggregate ~53%).
constexpr double kTxFraction[9] = {0.90, 0.85, 0.80, 0.75, 0.70,
                                   0.60, 0.50, 0.40, 0.35};

/// Proxy sub-archetype weights per year index. Columns:
/// {cointool-clone, xen-clone, generic-minimal, wyvern-clone, eip1967,
///  transparent, eip1822, custom-slot, diamond, honeypot, audius}
struct ProxyMix {
  double cointool, xen, minimal, wyvern, eip1967, transparent, eip1822,
      custom, diamond, honeypot, audius;
};
ProxyMix proxy_mix(int year_index) {
  if (year_index <= 2) {  // 2015-2017: pre-EIP, hand-rolled slots
    return {0, 0, 0.30, 0, 0, 0, 0, 0.66, 0, 0.02, 0.02};
  }
  if (year_index <= 4) {  // 2018-2019: standardization phase
    return {0, 0, 0.55, 0.20, 0.06, 0.02, 0.01, 0.12, 0.005, 0.02, 0.015};
  }
  if (year_index == 5) {  // 2020
    return {0.02, 0, 0.60, 0.16, 0.05, 0.02, 0.005, 0.12, 0.005, 0.01, 0.01};
  }
  if (year_index == 6) {  // 2021: clone explosion begins
    return {0.19, 0.07, 0.58, 0.10, 0.012, 0.004, 0.001, 0.032, 0.003, 0.004,
            0.004};
  }
  // 2022-2023: minimal clones dominate
  return {0.25, 0.17, 0.52, 0.04, 0.007, 0.003, 0.001, 0.016, 0.002, 0.002,
          0.002};
}

class Generator {
 public:
  Generator(const PopulationSpec& spec)
      : spec_(spec),
        rng_(spec.seed),
        deployer_(Address::from_label("proxion.deployer")) {}

  Population run() {
    pop_.chain = std::make_unique<Blockchain>();
    chain_ = pop_.chain.get();
    chain_->set_chain_id(spec_.chain_id);
    chain_->fund(deployer_, U256{1} << U256{96});

    deploy_shared_infrastructure();

    double total_weight = 0;
    for (const double w : kYearWeight) total_weight += w;

    for (int yi = 0; yi < 9; ++yi) {
      const std::uint64_t year_start =
          static_cast<std::uint64_t>(yi) * PopulationGenerator::kBlocksPerYear;
      chain_->mine_until(year_start + 1);
      const auto count = static_cast<std::uint32_t>(
          spec_.total_contracts * kYearWeight[yi] / total_weight);
      refresh_logic_pool(yi);
      for (std::uint32_t i = 0; i < count; ++i) {
        generate_contract(yi);
        // Spread deployments across the year's block range.
        if (i % 7 == 0) chain_->mine_block();
      }
      chain_->mine_until(year_start + PopulationGenerator::kBlocksPerYear - 1);
    }
    return std::move(pop_);
  }

 private:
  double roll() { return std::uniform_real_distribution<double>(0, 1)(rng_); }
  std::uint64_t roll_u64() { return rng_(); }

  // ---- shared "famous" contracts ---------------------------------------
  void deploy_shared_infrastructure() {
    chain_->mine_until(1);
    // The three mega clone families' logic contracts and the wyvern logic.
    cointool_logic_ = chain_->deploy_runtime(
        deployer_, ContractFactory::token_contract(0xC017001));
    xen_logic_ = chain_->deploy_runtime(
        deployer_, ContractFactory::token_contract(0x0E40001));
    wyvern_logic_ = chain_->deploy_runtime(deployer_, wyvern_logic_code());
    honeypot_logic_ = chain_->deploy_runtime(
        deployer_,
        ContractFactory::honeypot_logic(
            crypto::selector_u32("free_ether_withdrawal()")));
    audius_logic_ = chain_->deploy_runtime(
        deployer_, ContractFactory::audius_style_logic());
    library_ = chain_->deploy_runtime(deployer_,
                                      ContractFactory::math_library());
    record_infra(cointool_logic_, Archetype::kLogicImpl, true);
    record_infra(xen_logic_, Archetype::kLogicImpl, true);
    record_infra(wyvern_logic_, Archetype::kLogicImpl, true);
    record_infra(honeypot_logic_, Archetype::kLogicImpl, true);
    record_infra(audius_logic_, Archetype::kLogicImpl, true);
    record_infra(library_, Archetype::kLibrary, true);
    publish_wyvern_logic_source(wyvern_logic_);
    publish_audius_logic_source(audius_logic_);
    publish_token_source(cointool_logic_);
    publish_token_source(xen_logic_);
    publish_honeypot_logic_source(honeypot_logic_);
    publish_library_source(library_);
  }

  void publish_honeypot_logic_source(const Address& address) {
    SourceRecord rec;
    rec.contract_name = "Logic";
    rec.functions = {{.prototype = "free_ether_withdrawal()"}};
    finalize_record(rec, false);
    pop_.sources.publish(address, std::move(rec));
  }

  void publish_library_source(const Address& address) {
    SourceRecord rec;
    rec.contract_name = "MathLib";
    rec.functions = {{.prototype = "add(uint256,uint256)"},
                     {.prototype = "mul(uint256,uint256)"}};
    finalize_record(rec, false);
    pop_.sources.publish(address, std::move(rec));
  }

  static Bytes wyvern_logic_code() {
    // Shares proxyType()/implementation()/upgradeabilityOwner() with the
    // clone proxies — §7.2's dominant (inheritance-caused) collision family.
    return ContractFactory::plain_contract({
        {.prototype = "proxyType()", .body = BodyKind::kReturnConstant,
         .aux = U256{2}},
        {.prototype = "implementation()",
         .body = BodyKind::kReturnStorageAddress, .slot = U256{2}},
        {.prototype = "upgradeabilityOwner()",
         .body = BodyKind::kReturnStorageAddress, .slot = U256{0}},
        {.prototype = "user()", .body = BodyKind::kReturnStorageAddress,
         .slot = U256{3}},
        {.prototype = "setUser(address)", .body = BodyKind::kStoreArgAddress,
         .slot = U256{3}},
    });
  }

  static Bytes wyvern_proxy_code() {
    return ContractFactory::slot_proxy(
        U256{2}, {
                     {.prototype = "proxyType()",
                      .body = BodyKind::kReturnConstant, .aux = U256{2}},
                     {.prototype = "implementation()",
                      .body = BodyKind::kReturnStorageAddress,
                      .slot = U256{2}},
                     {.prototype = "upgradeabilityOwner()",
                      .body = BodyKind::kReturnStorageAddress,
                      .slot = U256{0}},
                 });
  }

  void record_infra(const Address& a, Archetype kind, bool has_source) {
    DeployedContract c;
    c.address = a;
    c.archetype = kind;
    c.year = 2015;
    c.has_source = has_source;
    c.has_tx = true;
    pop_.contracts.push_back(c);
  }

  // ---- per-year logic pool ----------------------------------------------
  void refresh_logic_pool(int year_index) {
    const int pool_size = 4 + year_index * 3;
    while (static_cast<int>(logic_pool_.size()) < pool_size) {
      // Roughly half the pool reuses a handful of popular codebases: logic
      // contracts get cloned too (Fig 5b's two >10k-duplicate logics).
      const std::uint64_t salt = roll() < 0.5
                                     ? 0x0F00 + (roll_u64() % 3)
                                     : 0x100000 + logic_pool_.size();
      const Address impl = chain_->deploy_runtime(
          deployer_, ContractFactory::token_contract(salt));
      DeployedContract c;
      c.address = impl;
      c.archetype = Archetype::kLogicImpl;
      c.year = PopulationGenerator::kFirstYear + year_index;
      c.has_source = roll() < 0.5;
      c.has_tx = true;
      if (c.has_source) publish_token_source(impl);
      pop_.contracts.push_back(c);
      logic_pool_.push_back(impl);
    }
  }

  Address pick_pool_logic() {
    // Zipf-ish: low indices far more popular (drives Fig 5's mid-tail).
    const double r = roll();
    const auto idx = static_cast<std::size_t>(
        r * r * static_cast<double>(logic_pool_.size()));
    return logic_pool_[std::min(idx, logic_pool_.size() - 1)];
  }

  // ---- one contract ------------------------------------------------------
  void generate_contract(int year_index) {
    DeployedContract c;
    c.year = PopulationGenerator::kFirstYear + year_index;
    if (roll() < 0.035) {  // §7.1: ~4.9% of contracts fail EVM emulation
      generate_broken(year_index, c);
      return;
    }
    const bool is_proxy_roll = roll() < kProxyFraction[year_index];
    if (is_proxy_roll) {
      generate_proxy(year_index, c);
    } else {
      generate_non_proxy(year_index, c);
    }
  }

  void generate_broken(int year_index, DeployedContract& c) {
    c.archetype = Archetype::kBroken;
    // Two fault flavours, both containing DELEGATECALL so they pass the
    // phase-1 prefilter and then fault during emulation: a bare stack
    // underflow, and an infinite loop.
    Bytes code;
    if (roll() < 0.5) {
      code = {0x5b, 0xf4};  // JUMPDEST; DELEGATECALL on empty stack
    } else {
      Assembler a;
      a.jumpdest("loop");
      a.push_label("loop").op(evm::Opcode::JUMP);
      a.op(evm::Opcode::DELEGATECALL);  // unreachable
      code = a.assemble();
    }
    c.address = chain_->deploy_runtime(deployer_, std::move(code));
    // A few broken blobs are nevertheless "verified" (hand-written
    // assembly with published source) — these are the contracts where
    // Proxion's emulation fails although USCHunt could read the source.
    c.has_source = roll() < kSourceFraction[year_index] * 0.4;
    if (c.has_source) {
      SourceRecord rec;
      rec.contract_name = "HandAssembled";
      finalize_record(rec, /*is_proxy=*/false);
      pop_.sources.publish(c.address, std::move(rec));
    }
    c.has_tx = roll() < kTxFraction[year_index];
    pop_.contracts.push_back(c);
  }

  void generate_proxy(int year_index, DeployedContract& c) {
    const ProxyMix mix = proxy_mix(year_index);
    double r = roll();
    auto take = [&](double w) {
      if (r < w) return true;
      r -= w;
      return false;
    };

    if (take(mix.cointool)) {
      make_minimal(c, cointool_logic_, Archetype::kMinimalProxy);
    } else if (take(mix.xen)) {
      make_minimal(c, xen_logic_, Archetype::kMinimalProxy);
    } else if (take(mix.wyvern)) {
      make_wyvern(c);
    } else if (take(mix.eip1967)) {
      make_slot_proxy(c, Archetype::kEip1967Proxy,
                      ContractFactory::eip1967_slot(),
                      ContractFactory::eip1967_proxy());
    } else if (take(mix.transparent)) {
      make_transparent(c);
    } else if (take(mix.eip1822)) {
      make_slot_proxy(c, Archetype::kEip1822Proxy,
                      ContractFactory::eip1822_slot(),
                      ContractFactory::eip1822_proxy());
    } else if (take(mix.custom)) {
      // One in six "non-standard" proxies uses beacon indirection.
      if (roll() < 0.16) {
        make_beacon(c);
      } else {
        make_slot_proxy(c, Archetype::kCustomSlotProxy, U256{0},
                        ContractFactory::slot_proxy(U256{0}));
      }
    } else if (take(mix.diamond)) {
      make_diamond(c);
    } else if (take(mix.honeypot)) {
      make_honeypot(c);
    } else if (take(mix.audius)) {
      make_audius(c);
    } else {
      make_minimal(c, pick_pool_logic(), Archetype::kMinimalProxy);
    }

    finish_contract(year_index, c);
  }

  void generate_non_proxy(int year_index, DeployedContract& c) {
    const double r = roll();
    if (r < 0.05) {
      c.archetype = Archetype::kLibraryUser;
      c.address = chain_->deploy_runtime(
          deployer_, ContractFactory::library_user(library_));
    } else if (r < 0.10) {
      c.archetype = Archetype::kGarbagePush4;
      c.address = chain_->deploy_runtime(
          deployer_, ContractFactory::garbage_push4_contract());
    } else {
      c.archetype = Archetype::kToken;
      // 60% duplicates of a handful of popular token codebases, 40% unique.
      const std::uint64_t salt =
          roll() < 0.6 ? (roll_u64() % 8) : (0x5A17 + unique_counter_++);
      c.address = chain_->deploy_runtime(
          deployer_, ContractFactory::token_contract(salt));
    }
    finish_contract(year_index, c);
  }

  void make_minimal(DeployedContract& c, const Address& logic,
                    Archetype kind) {
    c.archetype = kind;
    c.is_proxy_truth = true;
    c.logic_truth = logic;
    c.address = chain_->deploy_runtime(
        deployer_, ContractFactory::minimal_proxy(logic));
  }

  void make_slot_proxy(DeployedContract& c, Archetype kind, const U256& slot,
                       Bytes code) {
    c.archetype = kind;
    c.is_proxy_truth = true;
    c.logic_truth = pick_pool_logic();
    c.address = chain_->deploy_runtime(deployer_, std::move(code));
    chain_->set_storage(c.address, slot, c.logic_truth.to_word());
    maybe_upgrade(c, slot);
  }

  void make_transparent(DeployedContract& c) {
    c.archetype = Archetype::kTransparentProxy;
    c.is_proxy_truth = true;
    c.logic_truth = pick_pool_logic();
    c.address = chain_->deploy_runtime(deployer_,
                                       ContractFactory::transparent_proxy());
    chain_->set_storage(c.address, ContractFactory::eip1967_slot(),
                        c.logic_truth.to_word());
    const U256 admin_slot =
        evm::to_u256(crypto::eip1967_admin_slot());
    chain_->set_storage(c.address, admin_slot,
                        Address::from_label("proxy.admin").to_word());
    maybe_upgrade(c, ContractFactory::eip1967_slot());
  }

  void make_wyvern(DeployedContract& c) {
    c.archetype = Archetype::kWyvernCloneProxy;
    c.is_proxy_truth = true;
    c.logic_truth = wyvern_logic_;
    c.function_collision_truth = true;  // the 3 inherited selectors collide
    c.address = chain_->deploy_runtime(deployer_, wyvern_proxy_code());
    chain_->set_storage(c.address, U256{2}, wyvern_logic_.to_word());
    chain_->set_storage(c.address, U256{0},
                        Address::from_label("wyvern.owner").to_word());
  }

  void make_honeypot(DeployedContract& c) {
    c.archetype = Archetype::kHoneypotProxy;
    c.is_proxy_truth = true;
    c.logic_truth = honeypot_logic_;
    c.function_collision_truth = true;
    c.address = chain_->deploy_runtime(
        deployer_, ContractFactory::honeypot_proxy(
                       U256{1},
                       crypto::selector_u32("free_ether_withdrawal()")));
    chain_->set_storage(c.address, U256{1}, honeypot_logic_.to_word());
    chain_->set_storage(c.address, U256{0},
                        Address::from_label("honeypot.owner").to_word());
  }

  void make_audius(DeployedContract& c) {
    c.archetype = Archetype::kAudiusProxy;
    c.is_proxy_truth = true;
    c.logic_truth = audius_logic_;
    c.storage_collision_truth = true;
    c.address = chain_->deploy_runtime(deployer_,
                                       ContractFactory::audius_style_proxy());
    chain_->set_storage(c.address, U256{1}, audius_logic_.to_word());
    chain_->set_storage(c.address, U256{0},
                        Address::from_label("audius.owner").to_word());
  }

  void make_beacon(DeployedContract& c) {
    c.archetype = Archetype::kBeaconProxy;
    c.is_proxy_truth = true;
    c.logic_truth = pick_pool_logic();
    const Address beacon =
        chain_->deploy_runtime(deployer_, ContractFactory::beacon());
    chain_->set_storage(beacon, U256{0}, c.logic_truth.to_word());
    chain_->set_storage(beacon, U256{1},
                        Address::from_label("beacon.owner").to_word());
    c.address =
        chain_->deploy_runtime(deployer_, ContractFactory::beacon_proxy());
    chain_->set_storage(c.address,
                        evm::to_u256(crypto::eip1967_beacon_slot()),
                        beacon.to_word());
    // Record the beacon itself as infrastructure.
    DeployedContract b;
    b.address = beacon;
    b.archetype = Archetype::kLogicImpl;
    b.year = c.year;
    b.has_tx = false;
    pop_.contracts.push_back(b);
  }

  void make_diamond(DeployedContract& c) {
    c.archetype = Archetype::kDiamondProxy;
    c.is_proxy_truth = true;  // ground truth: it IS a proxy; Proxion misses it
    c.logic_truth = pick_pool_logic();
    c.address = chain_->deploy_runtime(deployer_,
                                       ContractFactory::diamond_proxy());
    // Register the facet for selector totalSupply() in the diamond mapping.
    const std::uint32_t selector = crypto::selector_u32("totalSupply()");
    std::array<std::uint8_t, 64> preimage{};
    const auto sel_word = U256{selector}.to_be_bytes();
    std::copy(sel_word.begin(), sel_word.end(), preimage.begin());
    const auto base = ContractFactory::diamond_base_slot().to_be_bytes();
    std::copy(base.begin(), base.end(), preimage.begin() + 32);
    const U256 slot = evm::to_u256(crypto::keccak256(preimage));
    chain_->set_storage(c.address, slot, c.logic_truth.to_word());
  }

  void maybe_upgrade(DeployedContract& c, const U256& slot) {
    if (roll() >= 0.05) return;  // Fig 6: the vast majority never upgrade
    // Paper: upgraded proxies average only 1.32 logic contracts, with a
    // tiny long tail reaching ~80 upgrades.
    std::uint32_t upgrades = 1;
    const double tail = roll();
    if (tail < 0.005) {
      upgrades = 20 + static_cast<std::uint32_t>(roll() * 60);  // rare whales
    } else if (tail < 0.20) {
      upgrades = 2 + static_cast<std::uint32_t>(roll() * 2);
    }
    for (std::uint32_t u = 0; u < upgrades; ++u) {
      // Most upgrades keep the layout; ~a quarter rewrite the contract and
      // drift the storage types (§2.3's upgrade-induced collisions).
      const bool drifts = roll() < 0.25;
      const Bytes impl_code =
          drifts
              ? ContractFactory::audius_style_logic()
              : ContractFactory::token_contract(0xAB0000 + unique_counter_++);
      // The Audius-style logic types slot 0 as packed bools; a proxy that
      // keeps its implementation address there now collides with it (§2.3).
      if (drifts && slot == U256{0}) c.storage_collision_truth = true;
      const Address impl = chain_->deploy_runtime(deployer_, impl_code);
      chain_->mine_block();
      chain_->set_storage(c.address, slot, impl.to_word());
      c.logic_truth = impl;
    }
    c.upgrades_truth = upgrades;
  }

  // ---- availability + bookkeeping ---------------------------------------
  void finish_contract(int year_index, DeployedContract& c) {
    c.has_source = roll() < source_probability(year_index, c.archetype);
    c.has_tx = roll() < kTxFraction[year_index];
    if (c.has_source) publish_source(c);
    if (c.has_tx) issue_transaction(c);
    pop_.contracts.push_back(c);
  }

  static double source_probability(int year_index, Archetype kind) {
    // Clone families are deployed as raw bytecode: effectively never
    // verified. Wyvern clones inherit the verified source (§7.2).
    switch (kind) {
      case Archetype::kMinimalProxy: return 0.01;
      case Archetype::kWyvernCloneProxy: return 0.60;
      default: return kSourceFraction[year_index];
    }
  }

  void issue_transaction(const DeployedContract& c) {
    const Address user = Address::from_label("population.user");
    Bytes calldata;
    auto with_selector = [&](std::uint32_t sel) {
      calldata.assign(36, 0);
      calldata[0] = static_cast<std::uint8_t>(sel >> 24);
      calldata[1] = static_cast<std::uint8_t>(sel >> 16);
      calldata[2] = static_cast<std::uint8_t>(sel >> 8);
      calldata[3] = static_cast<std::uint8_t>(sel);
    };
    switch (c.archetype) {
      case Archetype::kLibraryUser:
        with_selector(crypto::selector_u32("compute(uint256)"));
        break;
      case Archetype::kDiamondProxy:
      case Archetype::kToken:
      case Archetype::kLogicImpl:
        with_selector(crypto::selector_u32("totalSupply()"));
        break;
      default:
        // Any unmatched selector exercises proxy fallbacks.
        with_selector(0x12345678);
        break;
    }
    chain_->call(user, c.address, calldata);
  }

  // ---- source records ----------------------------------------------------
  void publish_source(const DeployedContract& c) {
    switch (c.archetype) {
      case Archetype::kMinimalProxy:
        publish_proxy_source(c.address, "MinimalProxy", {}, {});
        break;
      case Archetype::kEip1967Proxy:
      case Archetype::kTransparentProxy:
        publish_proxy_source(c.address, "ERC1967Proxy", {}, {});
        break;
      case Archetype::kEip1822Proxy:
        publish_proxy_source(c.address, "UUPSProxy", {}, {});
        break;
      case Archetype::kCustomSlotProxy:
        publish_proxy_source(
            c.address, "LegacyProxy",
            {},
            {{.name = "logic", .type = "address"}});
        break;
      case Archetype::kWyvernCloneProxy:
        publish_proxy_source(
            c.address, "OwnableDelegateProxy",
            {{.prototype = "proxyType()"},
             {.prototype = "implementation()"},
             {.prototype = "upgradeabilityOwner()"}},
            {{.name = "owner", .type = "address"},
             {.name = "reserved", .type = "uint256"},
             {.name = "impl", .type = "address"}});
        break;
      case Archetype::kHoneypotProxy:
        publish_proxy_source(
            c.address, "Proxy",
            {{.prototype = "impl_LUsXCWD2AKCc()"}, {.prototype = "owner()"}},
            {{.name = "owner", .type = "address"},
             {.name = "logic", .type = "address"}});
        break;
      case Archetype::kAudiusProxy:
        publish_proxy_source(
            c.address, "AudiusAdminUpgradeabilityProxy",
            {{.prototype = "owner()"}, {.prototype = "upgradeTo(address)"}},
            {{.name = "owner", .type = "address"},
             {.name = "logic", .type = "address"}});
        break;
      case Archetype::kDiamondProxy:
        publish_proxy_source(c.address, "Diamond", {}, {});
        break;
      case Archetype::kLibraryUser: {
        SourceRecord rec;
        rec.contract_name = "LibraryUser";
        rec.functions = {{.prototype = "compute(uint256)"},
                         {.prototype = "result()"}};
        rec.storage = {{.name = "result", .type = "uint256"}};
        finalize_record(rec, /*is_proxy=*/false);
        pop_.sources.publish(c.address, std::move(rec));
        break;
      }
      case Archetype::kGarbagePush4: {
        SourceRecord rec;
        rec.contract_name = "MagicStore";
        rec.functions = {{.prototype = "store(uint256)"},
                         {.prototype = "magic()"},
                         {.prototype = "value()"}};
        rec.storage = {{.name = "value", .type = "uint256"}};
        finalize_record(rec, false);
        pop_.sources.publish(c.address, std::move(rec));
        break;
      }
      default:
        publish_token_source(c.address);
        break;
    }
  }

  void publish_proxy_source(const Address& address, std::string name,
                            std::vector<FunctionDecl> funcs,
                            std::vector<VariableDecl> vars) {
    SourceRecord rec;
    rec.contract_name = std::move(name);
    rec.functions = std::move(funcs);
    rec.storage = std::move(vars);
    finalize_record(rec, /*is_proxy=*/true);
    pop_.sources.publish(address, std::move(rec));
  }

  void publish_token_source(const Address& address) {
    SourceRecord rec;
    rec.contract_name = "Token";
    rec.functions = {{.prototype = "totalSupply()"},
                     {.prototype = "balanceOf(address)"},
                     {.prototype = "transfer(address,uint256)"},
                     {.prototype = "owner()"}};
    rec.storage = {{.name = "owner", .type = "address"},
                   {.name = "reserved", .type = "uint256"},
                   {.name = "balances", .type = "mapping"}};
    finalize_record(rec, false);
    pop_.sources.publish(address, std::move(rec));
  }

  void publish_wyvern_logic_source(const Address& address) {
    SourceRecord rec;
    rec.contract_name = "AuthenticatedProxy";
    rec.functions = {{.prototype = "proxyType()"},
                     {.prototype = "implementation()"},
                     {.prototype = "upgradeabilityOwner()"},
                     {.prototype = "user()"},
                     {.prototype = "setUser(address)"}};
    rec.storage = {{.name = "owner", .type = "address"},
                   {.name = "reserved", .type = "uint256"},
                   {.name = "impl", .type = "address"},
                   {.name = "user", .type = "address"}};
    finalize_record(rec, false);
    pop_.sources.publish(address, std::move(rec));
  }

  void publish_audius_logic_source(const Address& address) {
    SourceRecord rec;
    rec.contract_name = "DelegateManager";
    rec.functions = {{.prototype = "initialize()"},
                     {.prototype = "initialized()"},
                     {.prototype = "work(uint256)"}};
    rec.storage = {{.name = "initialized", .type = "bool"},
                   {.name = "initializing", .type = "bool"}};
    finalize_record(rec, false);
    pop_.sources.publish(address, std::move(rec));
  }

  void finalize_record(SourceRecord& rec, bool is_proxy) {
    sourcemeta::layout_storage(rec.storage);
    rec.fallback_delegates =
        is_proxy && roll() >= spec_.obscure_source_fraction;
    if (roll() < spec_.unknown_compiler_fraction) {
      rec.compiler_version = "unknown";
    }
  }

  const PopulationSpec& spec_;
  std::mt19937_64 rng_;
  Address deployer_;
  Population pop_;
  Blockchain* chain_ = nullptr;

  Address cointool_logic_, xen_logic_, wyvern_logic_, honeypot_logic_,
      audius_logic_, library_;
  std::vector<Address> logic_pool_;
  std::uint64_t unique_counter_ = 0;
};

}  // namespace

Population PopulationGenerator::generate(const PopulationSpec& spec) const {
  Generator generator(spec);
  return generator.run();
}

}  // namespace proxion::datagen
