// Table 2 reproduction: storage- and function-collision detection accuracy
// (TP/FP/TN/FN) of Proxion vs USCHunt vs CRUSH on a labelled ground-truth
// dataset modelled on the Smart Contract Sanctuary evaluation (§6.3).
//
// The dataset deliberately contains the error sources the paper documents:
//   - deliberate storage padding and renamed-but-compatible variables
//     (USCHunt's name-based check FPs),
//   - benign width mismatches that look exploitable at the bytecode level
//     (Proxion/CRUSH FPs),
//   - collisions hiding in keccak-derived mapping slots (Proxion FNs),
//   - proxies whose emulation faults (Proxion function-collision FNs),
//   - library pairs reachable only through tx mining (CRUSH FPs),
//   - sources that fail to compile or obscure the delegation (USCHunt FNs).
#include <cstdio>
#include <random>
#include <vector>

#include "baselines/crush.h"
#include "baselines/uschunt.h"
#include "chain/blockchain.h"
#include "core/function_collision.h"
#include "core/proxy_detector.h"
#include "core/storage_collision.h"
#include "crypto/eth.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"
#include "sourcemeta/source.h"

namespace {

using namespace proxion;
using chain::Blockchain;
using datagen::Assembler;
using datagen::BodyKind;
using datagen::ContractFactory;
using evm::Address;
using evm::Bytes;
using evm::Opcode;
using evm::U256;

struct LabelledPair {
  Address proxy;
  Address logic;
  bool truth = false;      // ground truth: real (exploitable) collision?
  bool is_proxy_pair = true;  // ground truth: is `proxy` actually a proxy?
  const char* category = "";
};

struct Confusion {
  int tp = 0, fp = 0, tn = 0, fn = 0;
  void add(bool truth, bool reported) {
    if (truth && reported) ++tp;
    else if (!truth && reported) ++fp;
    else if (!truth && !reported) ++tn;
    else ++fn;
  }
  double accuracy() const {
    const int total = tp + fp + tn + fn;
    return total == 0 ? 0 : 100.0 * (tp + tn) / total;
  }
};

class DatasetBuilder {
 public:
  DatasetBuilder(Blockchain& chain, sourcemeta::SourceRepository& sources)
      : chain_(chain), sources_(sources), rng_(7) {}

  Address deploy(Bytes code) {
    return chain_.deploy_runtime(deployer_, std::move(code));
  }

  void send_probe_tx(const Address& proxy, std::uint32_t selector) {
    Bytes calldata(36, 0);
    calldata[0] = static_cast<std::uint8_t>(selector >> 24);
    calldata[1] = static_cast<std::uint8_t>(selector >> 16);
    calldata[2] = static_cast<std::uint8_t>(selector >> 8);
    calldata[3] = static_cast<std::uint8_t>(selector);
    chain_.call(user_, proxy, calldata);
  }

  void publish(const Address& a, sourcemeta::SourceRecord rec,
               bool obscure_delegation = false) {
    // Model USCHunt's environment: ~30% unknown compiler versions and
    // occasional sources whose delegation Slither cannot see (§6.2/§6.3).
    if (roll() < 0.30) rec.compiler_version = "unknown";
    if (obscure_delegation) rec.fallback_delegates = false;
    sources_.publish(a, std::move(rec));
  }

  double roll() { return std::uniform_real_distribution<double>(0, 1)(rng_); }

  sourcemeta::SourceRecord proxy_source(
      std::vector<sourcemeta::VariableDecl> vars,
      std::vector<sourcemeta::FunctionDecl> funcs = {}) {
    sourcemeta::SourceRecord rec;
    rec.contract_name = "Proxy";
    rec.fallback_delegates = true;
    rec.functions = std::move(funcs);
    rec.storage = std::move(vars);
    sourcemeta::layout_storage(rec.storage);
    return rec;
  }

  sourcemeta::SourceRecord logic_source(
      std::vector<sourcemeta::VariableDecl> vars,
      std::vector<sourcemeta::FunctionDecl> funcs = {}) {
    sourcemeta::SourceRecord rec;
    rec.contract_name = "Logic";
    rec.functions = std::move(funcs);
    rec.storage = std::move(vars);
    sourcemeta::layout_storage(rec.storage);
    return rec;
  }

  Blockchain& chain_;
  sourcemeta::SourceRepository& sources_;
  std::mt19937_64 rng_;
  Address deployer_ = Address::from_label("t2.deployer");
  Address user_ = Address::from_label("t2.user");
};

// ---- storage-collision dataset ---------------------------------------------

std::vector<LabelledPair> build_storage_dataset(DatasetBuilder& b) {
  std::vector<LabelledPair> pairs;

  // (1) Real exploitable collisions: the Audius shape. truth = true.
  for (int i = 0; i < 35; ++i) {
    LabelledPair p;
    p.category = "audius";
    p.truth = true;
    p.logic = b.deploy(ContractFactory::audius_style_logic());
    p.proxy = b.deploy(ContractFactory::audius_style_proxy());
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy,
              b.proxy_source({{.name = "owner", .type = "address"},
                              {.name = "logic", .type = "address"}},
                             {{.prototype = "owner()"},
                              {.prototype = "upgradeTo(address)"}}));
    b.publish(p.logic,
              b.logic_source({{.name = "initialized", .type = "bool"},
                              {.name = "initializing", .type = "bool"}},
                             {{.prototype = "initialize()"},
                              {.prototype = "initialized()"},
                              {.prototype = "work(uint256)"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (2) Deliberate padding: proxy reserves slot 0 as a gap it never touches;
  // logic uses slot 0. Name-based comparison flags it; it is benign.
  for (int i = 0; i < 60; ++i) {
    LabelledPair p;
    p.category = "padding";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(U256{1}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "counter()", .body = BodyKind::kReturnStorageWord,
          .slot = U256{0}},
         {.prototype = "bump(uint256)", .body = BodyKind::kStoreArgWord,
          .slot = U256{0}}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source(
                           {{.name = "__gap0", .type = "uint256",
                             .is_padding = true},
                            {.name = "logic", .type = "address"}}));
    b.publish(p.logic,
              b.logic_source({{.name = "counter", .type = "uint256"}},
                             {{.prototype = "counter()"},
                              {.prototype = "bump(uint256)"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (3) Renamed but layout-compatible variables. Benign.
  for (int i = 0; i < 55; ++i) {
    LabelledPair p;
    p.category = "renamed";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(
        U256{1}, {{.prototype = "owner()",
                   .body = BodyKind::kReturnStorageAddress,
                   .slot = U256{0}}}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "admin()", .body = BodyKind::kReturnStorageAddress,
          .slot = U256{0}}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source({{.name = "owner", .type = "address"},
                                       {.name = "logic", .type = "address"}},
                                      {{.prototype = "owner()"}}));
    b.publish(p.logic, b.logic_source({{.name = "admin", .type = "address"}},
                                      {{.prototype = "admin()"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (4) Benign width mismatch that *looks* exploitable at bytecode level:
  // logic keeps a caller-written bool cache in slot 5 that the proxy merely
  // reports in a getter. Manual audit: benign (Proxion/CRUSH FP source).
  for (int i = 0; i < 30; ++i) {
    LabelledPair p;
    p.category = "benign-width";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(
        U256{1}, {{.prototype = "status()",
                   .body = BodyKind::kReturnStorageWord, .slot = U256{5}}}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "ping()", .body = BodyKind::kStoreCaller,
          .slot = U256{5}},
         {.prototype = "pinged()", .body = BodyKind::kReturnStorageBool,
          .slot = U256{5}}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source({{.name = "status", .type = "uint256"},
                                       {.name = "logic", .type = "address"}},
                                      {{.prototype = "status()"}}));
    b.publish(p.logic, b.logic_source({{.name = "status", .type = "uint256"}},
                                      {{.prototype = "ping()"},
                                       {.prototype = "pinged()"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (5) Real collision hidden in a keccak-derived mapping slot: both sides
  // write mapping entries of incompatible types. Proxion's static-slot
  // comparison skips hashed slots (FN source); source-level layouts still
  // reveal the drift to name-based tools.
  for (int i = 0; i < 25; ++i) {
    LabelledPair p;
    p.category = "hashed";
    p.truth = true;
    // Bytecode: accesses via KECCAK256-derived slots only.
    Assembler logic_asm;
    ContractFactory::emit_dispatcher(
        logic_asm, {{.prototype = "put(uint256)", .body = BodyKind::kStop}});
    logic_asm.jumpdest("fallback");
    logic_asm.push(U256{0}, 1).push(U256{0}, 1).op(Opcode::REVERT);
    logic_asm.jumpdest("fn0");
    // store caller into mapping slot keccak(arg . 2)
    logic_asm.push(U256{4}, 1).op(Opcode::CALLDATALOAD);
    logic_asm.push(U256{0}, 1).op(Opcode::MSTORE);
    logic_asm.push(U256{2}, 1).push(U256{0x20}, 1).op(Opcode::MSTORE);
    logic_asm.op(Opcode::CALLER);
    logic_asm.push(U256{0x40}, 1).push(U256{0}, 1).op(Opcode::KECCAK256);
    logic_asm.op(Opcode::SSTORE).op(Opcode::STOP);
    p.logic = b.deploy(logic_asm.assemble());
    p.proxy = b.deploy(ContractFactory::slot_proxy(U256{1}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source({{.name = "logic", .type = "address"},
                                       {.name = "balances",
                                        .type = "mapping(uint=>uint)"}}));
    b.publish(p.logic,
              b.logic_source({{.name = "logic", .type = "address"},
                              {.name = "holders",
                               .type = "mapping(uint=>address)"}},
                             {{.prototype = "put(uint256)"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (6) Fully compatible pairs. Benign.
  for (int i = 0; i < 25; ++i) {
    LabelledPair p;
    p.category = "safe";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(
        U256{1}, {{.prototype = "owner()",
                   .body = BodyKind::kReturnStorageAddress,
                   .slot = U256{0}}}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "owner()", .body = BodyKind::kReturnStorageAddress,
          .slot = U256{0}}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source({{.name = "owner", .type = "address"},
                                       {.name = "logic", .type = "address"}},
                                      {{.prototype = "owner()"}}));
    b.publish(p.logic, b.logic_source({{.name = "owner", .type = "address"}},
                                      {{.prototype = "owner()"}}));
    if (b.roll() < 0.6) b.send_probe_tx(p.proxy, 0x01020304);
    pairs.push_back(p);
  }

  // (7) Library pairs: tx mining discovers them, §2.2 says they are not
  // proxy pairs at all; any collision reported on them is a false positive.
  for (int i = 0; i < 45; ++i) {
    LabelledPair p;
    p.category = "library";
    p.truth = false;
    p.is_proxy_pair = false;
    // Library whose helper caches the caller in slot 7 (bool-read +
    // caller-write = "exploitable-looking"), used via delegatecall from a
    // *named* function. Per §2.2 this is not a proxy pair at all.
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "helper()", .body = BodyKind::kStoreCaller,
          .slot = U256{7}},
         {.prototype = "helped()", .body = BodyKind::kReturnStorageBool,
          .slot = U256{7}}}));
    p.proxy = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "compute(uint256)", .body = BodyKind::kDelegateToLibrary,
          .aux = p.logic.to_word()},
         {.prototype = "status()", .body = BodyKind::kReturnStorageWord,
          .slot = U256{7}}}));
    b.send_probe_tx(p.proxy, crypto::selector_u32("compute(uint256)"));
    pairs.push_back(p);
  }

  return pairs;
}

// ---- function-collision dataset ---------------------------------------------

std::vector<LabelledPair> build_function_dataset(DatasetBuilder& b) {
  std::vector<LabelledPair> pairs;
  const std::uint32_t lure = crypto::selector_u32("free_ether_withdrawal()");

  // (1) Honeypots: proxy function shadows the logic lure. truth = true.
  for (int i = 0; i < 250; ++i) {
    LabelledPair p;
    p.category = "honeypot";
    p.truth = true;
    const std::uint32_t selector = lure + static_cast<std::uint32_t>(i);
    p.logic = b.deploy(ContractFactory::honeypot_logic(selector));
    p.proxy = b.deploy(ContractFactory::honeypot_proxy(U256{1}, selector));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy,
              b.proxy_source({{.name = "owner", .type = "address"},
                              {.name = "logic", .type = "address"}},
                             {{.prototype = "impl_LUsXCWD2AKCc()"},
                              {.prototype = "owner()"}}),
              /*obscure_delegation=*/b.roll() < 0.15);
    b.publish(p.logic, b.logic_source(
                           {}, {{.prototype = "free_ether_withdrawal()"}}));
    pairs.push_back(p);
  }
  // (2) Wyvern-style inheritance collisions. truth = true.
  for (int i = 0; i < 150; ++i) {
    LabelledPair p;
    p.category = "wyvern";
    p.truth = true;
    const std::vector<datagen::FunctionSpec> shared = {
        {.prototype = "proxyType()", .body = BodyKind::kReturnConstant,
         .aux = U256{2}},
        {.prototype = "implementation()",
         .body = BodyKind::kReturnStorageAddress, .slot = U256{2}},
        {.prototype = "upgradeabilityOwner()",
         .body = BodyKind::kReturnStorageAddress, .slot = U256{0}},
    };
    p.proxy = b.deploy(ContractFactory::slot_proxy(U256{2}, shared));
    auto logic_funcs = shared;
    logic_funcs.push_back({.prototype = "user()",
                           .body = BodyKind::kReturnStorageAddress,
                           .slot = U256{3}});
    p.logic = b.deploy(ContractFactory::plain_contract(logic_funcs));
    b.chain_.set_storage(p.proxy, U256{2}, p.logic.to_word());
    b.publish(p.proxy,
              b.proxy_source({{.name = "owner", .type = "address"},
                              {.name = "reserved", .type = "uint256"},
                              {.name = "impl", .type = "address"}},
                             {{.prototype = "proxyType()"},
                              {.prototype = "implementation()"},
                              {.prototype = "upgradeabilityOwner()"}}),
              b.roll() < 0.15);
    b.publish(p.logic,
              b.logic_source({{.name = "owner", .type = "address"},
                              {.name = "reserved", .type = "uint256"},
                              {.name = "impl", .type = "address"},
                              {.name = "user", .type = "address"}},
                             {{.prototype = "proxyType()"},
                              {.prototype = "implementation()"},
                              {.prototype = "upgradeabilityOwner()"},
                              {.prototype = "user()"}}));
    pairs.push_back(p);
  }

  // (3) Disjoint selector sets. truth = false.
  for (int i = 0; i < 100; ++i) {
    LabelledPair p;
    p.category = "disjoint";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(
        U256{1}, {{.prototype = "admin()",
                   .body = BodyKind::kReturnStorageAddress,
                   .slot = U256{0}}}));
    p.logic = b.deploy(ContractFactory::token_contract(
        static_cast<std::uint64_t>(i) + 9000));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy,
              b.proxy_source({{.name = "admin", .type = "address"},
                              {.name = "logic", .type = "address"}},
                             {{.prototype = "admin()"}}),
              b.roll() < 0.15);
    b.publish(p.logic,
              b.logic_source({{.name = "owner", .type = "address"}},
                             {{.prototype = "totalSupply()"},
                              {.prototype = "balanceOf(address)"},
                              {.prototype = "transfer(address,uint256)"},
                              {.prototype = "owner()"}}));
    pairs.push_back(p);
  }

  // (4) PUSH4 garbage traps: the proxy body embeds the logic's selector as
  // a data constant. Naive PUSH4 extraction reports a collision; the
  // dispatcher-pattern extractor must not. truth = false.
  for (int i = 0; i < 50; ++i) {
    LabelledPair p;
    p.category = "garbage";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(
        U256{1}, {{.prototype = "magic()", .body = BodyKind::kPush4Garbage}}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "deadBeef()", .body = BodyKind::kStop,
          .raw_selector = 0xdeadbeef}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.proxy, b.proxy_source({{.name = "logic", .type = "address"}},
                                      {{.prototype = "magic()"}}),
              b.roll() < 0.15);
    b.publish(p.logic, b.logic_source({}, {{.prototype = "deadBeef()"}}));
    pairs.push_back(p);
  }

  // (5) Proxies whose emulation faults: a dispatcher collision hidden
  // behind code Proxion cannot emulate — the paper's three FNs (§6.3).
  for (int i = 0; i < 3; ++i) {
    LabelledPair p;
    p.category = "emu-error";
    p.truth = true;
    Assembler bad;
    // GASPRICE-family preamble then a stack underflow before the fallback.
    bad.op(Opcode::DELEGATECALL);  // 6 pops on an empty stack
    p.proxy = b.deploy(bad.assemble());
    p.logic = b.deploy(ContractFactory::honeypot_logic(lure));
    pairs.push_back(p);
  }

  // (6) A functionless proxy whose source the attacker withheld: negative
  // case exercised in bytecode mode on the proxy side only.
  {
    LabelledPair p;
    p.category = "no-proxy-src";
    p.truth = false;
    p.proxy = b.deploy(ContractFactory::slot_proxy(U256{1}));
    p.logic = b.deploy(ContractFactory::plain_contract(
        {{.prototype = "doWork()", .body = BodyKind::kStop}}));
    b.chain_.set_storage(p.proxy, U256{1}, p.logic.to_word());
    b.publish(p.logic, b.logic_source({}, {{.prototype = "doWork()"}}));
    pairs.push_back(p);
  }

  return pairs;
}

void print_confusion(const char* tool, const Confusion& c) {
  std::printf("  %-12s TP=%-4d FP=%-4d TN=%-4d FN=%-4d accuracy=%.1f%%\n",
              tool, c.tp, c.fp, c.tn, c.fn, c.accuracy());
}

}  // namespace

int main() {
  Blockchain chain;
  sourcemeta::SourceRepository sources;
  DatasetBuilder builder(chain, sources);

  const auto storage_pairs = build_storage_dataset(builder);
  const auto function_pairs = build_function_dataset(builder);

  core::ProxyDetector proxion_detector(chain);
  baselines::UschuntAnalyzer uschunt(sources);
  baselines::CrushAnalyzer crush(chain);
  const auto crush_pairs = crush.find_proxy_pairs();
  auto crush_discovered = [&](const Address& proxy) {
    for (const auto& cp : crush_pairs) {
      if (cp.proxy == proxy) return true;
    }
    return false;
  };

  // ---- storage collisions -------------------------------------------------
  Confusion proxion_st, uschunt_st, crush_st;
  for (const LabelledPair& p : storage_pairs) {
    const Bytes proxy_code = chain.get_code(p.proxy);
    const Bytes logic_code = chain.get_code(p.logic);

    // Proxion: must first classify the contract as a proxy (emulation),
    // then reports exploitable width mismatches.
    bool proxion_report = false;
    if (proxion_detector.analyze(p.proxy).is_proxy()) {
      core::StorageCollisionDetector detector(chain);
      const auto result =
          detector.detect(p.proxy, proxy_code, p.logic, logic_code);
      for (const auto& f : result.findings) {
        proxion_report |= f.exploitable;
      }
    }
    proxion_st.add(p.truth, proxion_report);

    // USCHunt: source-only, name-based.
    const auto ur = uschunt.analyze_pair(p.proxy, p.logic);
    uschunt_st.add(p.truth, ur.status == baselines::UschuntStatus::kAnalyzed &&
                                ur.is_proxy && ur.storage_collision);

    // CRUSH: only pairs surfaced by tx mining; same slicing engine — but
    // no fallback-based proxy definition, so any mined pair's width
    // mismatch is reported (this is where the library callers hurt it).
    bool crush_report = false;
    if (crush_discovered(p.proxy)) {
      const auto cr = crush.analyze_pair(p.proxy, p.logic);
      crush_report = cr.storage_collision;
    }
    crush_st.add(p.truth, crush_report);
  }

  // ---- function collisions --------------------------------------------------
  Confusion proxion_fn, uschunt_fn;
  for (const LabelledPair& p : function_pairs) {
    const Bytes proxy_code = chain.get_code(p.proxy);
    const Bytes logic_code = chain.get_code(p.logic);

    bool proxion_report = false;
    if (proxion_detector.analyze(p.proxy).is_proxy()) {
      core::FunctionCollisionDetector detector(&sources);
      proxion_report =
          detector.detect(p.proxy, proxy_code, p.logic, logic_code)
              .has_collision();
    }
    proxion_fn.add(p.truth, proxion_report);

    const auto ur = uschunt.analyze_pair(p.proxy, p.logic);
    uschunt_fn.add(p.truth, ur.status == baselines::UschuntStatus::kAnalyzed &&
                                ur.is_proxy && ur.function_collision);
  }

  std::printf("Table 2: collision detection accuracy (paper: Proxion 78.2%% "
              "storage / 99.5%% function;\n         USCHunt 54.4%% / 53.3%%; "
              "CRUSH 54.4%% storage)\n\n");
  std::printf("Storage collisions (%zu labelled pairs):\n",
              storage_pairs.size());
  print_confusion("USCHunt", uschunt_st);
  print_confusion("CRUSH", crush_st);
  print_confusion("Proxion", proxion_st);
  std::printf("\nFunction collisions (%zu labelled pairs):\n",
              function_pairs.size());
  print_confusion("USCHunt", uschunt_fn);
  print_confusion("Proxion", proxion_fn);
  std::printf("\n[table2] expected shape: Proxion > USCHunt == CRUSH on "
              "storage; Proxion >> USCHunt on function.\n");
  return 0;
}
