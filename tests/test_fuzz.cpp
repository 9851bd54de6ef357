// Robustness fuzzing: random byte blobs and mutated factory contracts fed
// to the disassembler, interpreter, proxy detector, selector extractor, and
// storage profiler. Everything must terminate (fuses) and never crash;
// verdicts must stay deterministic.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/proxy_detector.h"
#include "core/selector_extractor.h"
#include "datagen/contract_factory.h"
#include "evm/disassembler.h"
#include "evm/host.h"
#include "evm/interpreter.h"
#include "static/layout.h"

namespace {

using namespace proxion;
using namespace proxion::evm;
using datagen::ContractFactory;

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Bytes random_blob(std::mt19937_64& rng, std::size_t max_len) {
    Bytes out(1 + rng() % max_len);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    return out;
  }

  /// Random blob biased toward real opcodes (more interesting paths).
  Bytes opcode_soup(std::mt19937_64& rng, std::size_t max_len) {
    static constexpr std::uint8_t kCommon[] = {
        0x60, 0x61, 0x63, 0x73, 0x7f, 0x50, 0x51, 0x52, 0x54, 0x55,
        0x56, 0x57, 0x5b, 0x80, 0x81, 0x90, 0x91, 0x01, 0x03, 0x14,
        0x15, 0x16, 0x33, 0x34, 0x35, 0x36, 0x3d, 0xf1, 0xf3, 0xf4,
        0xfd, 0x00, 0x1b, 0x1c, 0x20, 0x5f};
    Bytes out(1 + rng() % max_len);
    for (auto& b : out) {
      b = rng() % 4 == 0 ? static_cast<std::uint8_t>(rng())
                         : kCommon[rng() % sizeof(kCommon)];
    }
    return out;
  }

  ExecResult run_guarded(MemoryHost& host, const Address& a, Bytes calldata) {
    InterpreterConfig config;
    config.step_limit = 20'000;
    Interpreter interp(host, config);
    CallParams params;
    params.code_address = a;
    params.storage_address = a;
    params.caller = Address::from_label("fuzz.caller");
    params.calldata = std::move(calldata);
    params.gas = 1'000'000;
    return interp.execute(params);
  }
};

TEST_P(FuzzTest, DisassemblerNeverCrashesAndCoversAllBytes) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Bytes code = random_blob(rng, 512);
    Disassembly dis(code);
    // Linear sweep invariant: instructions tile the code exactly.
    std::size_t covered = 0;
    for (const auto& ins : dis.instructions()) {
      EXPECT_EQ(ins.pc, covered);
      covered += 1 + ins.immediate.size();
    }
    EXPECT_EQ(covered, code.size());
  }
}

TEST_P(FuzzTest, InterpreterTerminatesOnRandomBytecode) {
  std::mt19937_64 rng(GetParam());
  MemoryHost host;
  const Address a = Address::from_label("fuzz.target");
  for (int i = 0; i < 200; ++i) {
    host.set_code(a, opcode_soup(rng, 256));
    const ExecResult r = run_guarded(host, a, random_blob(rng, 68));
    // Any halt reason is fine; what matters is that we returned at all and
    // the reason is a defined enumerator.
    EXPECT_LE(static_cast<int>(r.halt),
              static_cast<int>(HaltReason::kStepLimit));
  }
}

TEST_P(FuzzTest, ProxyDetectorTerminatesAndIsDeterministic) {
  std::mt19937_64 rng(GetParam());
  MemoryHost host;
  for (int i = 0; i < 120; ++i) {
    const Address a = Address::from_label("fuzz." + std::to_string(i));
    host.set_code(a, opcode_soup(rng, 256));
    core::ProxyDetectorConfig config;
    config.step_limit = 20'000;
    core::ProxyDetector detector(host, config);
    const auto first = detector.analyze(a);
    const auto second = detector.analyze(a);
    EXPECT_EQ(first.verdict, second.verdict);
    EXPECT_EQ(first.probe_selector, second.probe_selector);
    if (first.is_proxy()) {
      // A proxy verdict from soup is possible (e.g. random DELEGATECALL
      // that forwards); it must carry a consistent report.
      EXPECT_TRUE(first.has_delegatecall_opcode);
      EXPECT_TRUE(first.calldata_forwarded);
    }
  }
}

TEST_P(FuzzTest, SelectorExtractorAndLayoutNeverCrash) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Bytes code = opcode_soup(rng, 512);
    const auto selectors = core::extract_selectors(code);
    EXPECT_TRUE(std::is_sorted(selectors.begin(), selectors.end()));
    const auto layout = static_analysis::infer_layout(evm::Disassembly(code));
    for (const auto& m : layout.members) {
      EXPECT_GE(m.width, 1);
      EXPECT_LE(m.width, 32);
      EXPECT_LE(m.offset + m.width, 32);
    }
    for (const auto& f : layout.families) {
      EXPECT_GE(f.value_width, 1);
      EXPECT_LE(f.value_offset + f.value_width, 32);
    }
  }
}

TEST_P(FuzzTest, MutatedRealContractsKeepDetectorSane) {
  // Flip bytes in real factory bytecode: the detector may change its
  // verdict but must never crash, hang, or return garbage enums.
  std::mt19937_64 rng(GetParam());
  MemoryHost host;
  const Bytes base = ContractFactory::eip1967_proxy();
  for (int i = 0; i < 150; ++i) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    }
    const Address a = Address::from_label("mut." + std::to_string(i));
    host.set_code(a, mutated);
    core::ProxyDetectorConfig config;
    config.step_limit = 20'000;
    core::ProxyDetector detector(host, config);
    const auto report = detector.analyze(a);
    EXPECT_LE(static_cast<int>(report.verdict),
              static_cast<int>(core::ProxyVerdict::kEmulationError));
    EXPECT_LE(static_cast<int>(report.standard),
              static_cast<int>(core::ProxyStandard::kOther));
  }
}

TEST_P(FuzzTest, RandomCalldataAgainstRealProxyStaysConsistent) {
  // Real proxies fed random calldata: every call must terminate, and calls
  // with unknown selectors must behave identically to the crafted probe
  // (forwarding through the fallback).
  std::mt19937_64 rng(GetParam());
  MemoryHost host;
  const Address logic = Address::from_label("fz.logic");
  host.set_code(logic, ContractFactory::token_contract(1));
  const Address proxy = Address::from_label("fz.proxy");
  host.set_code(proxy, ContractFactory::eip1967_proxy());
  host.set_storage(proxy, ContractFactory::eip1967_slot(), logic.to_word());

  for (int i = 0; i < 100; ++i) {
    const ExecResult r = run_guarded(host, proxy, random_blob(rng, 100));
    EXPECT_TRUE(r.halt == HaltReason::kReturn ||
                r.halt == HaltReason::kRevert ||
                r.halt == HaltReason::kStop)
        << to_string(r.halt);
  }
}

// ---------------------------------------------------------------------------
// Differential layout fuzzer (storage-layout inference soundness): random
// datagen contracts are executed with every dispatched selector, and every
// storage slot emulation actually touches must be admitted by the inferred
// StorageLayout — either as a static member or through a keccak family whose
// derivation the observer reconstructed — unless the layout itself declined
// to make claims (!reliable()). An inadmissible access under a reliable
// layout is a soundness bug: the layout would contradict real behavior.

struct LayoutFuzzObserver final : public TraceObserver {
  struct Family {
    U256 base;
    std::uint8_t depth = 1;
    std::uint8_t path = 0;
  };
  std::vector<U256> slots;               // depth-0 SLOAD/SSTORE slots
  std::map<U256, Family> keccak_images;  // hash -> reconstructed derivation

  void on_keccak(int /*depth*/, BytesView input, const U256& hash) override {
    Family fam;
    if (input.size() == 64) {
      fam.base = U256::from_be_slice(input.subspan(32));
      fam.path = 1;
    } else if (input.size() == 32) {
      fam.base = U256::from_be_slice(input);
    } else {
      return;
    }
    if (const auto it = keccak_images.find(fam.base);
        it != keccak_images.end() && it->second.depth < 8) {
      fam.base = it->second.base;
      fam.depth = static_cast<std::uint8_t>(it->second.depth + 1);
      fam.path = static_cast<std::uint8_t>(
          it->second.path | (fam.path != 0 ? 1u << it->second.depth : 0u));
    }
    keccak_images.emplace(hash, fam);
  }
  void on_sload(int depth, const Address&, const U256& slot,
                const U256&) override {
    if (depth == 0) slots.push_back(slot);
  }
  void on_sstore(int depth, const Address&, const U256& slot,
                 const U256&) override {
    if (depth == 0) slots.push_back(slot);
  }

  bool admitted(const static_analysis::StorageLayout& layout,
                const U256& slot) const {
    if (layout.admits_slot(slot)) return true;
    for (const auto& [hash, fam] : keccak_images) {
      if (slot < hash) continue;
      const U256 diff = slot - hash;
      if (!diff.fits_u64() || diff.low64() > 4096) continue;
      if (layout.family(fam.base, fam.depth, fam.path) != nullptr) return true;
    }
    return false;
  }
};

TEST_P(FuzzTest, InferredLayoutAdmitsEveryEmulatedAccess) {
  std::mt19937_64 rng(GetParam());
  static constexpr datagen::BodyKind kBodies[] = {
      datagen::BodyKind::kReturnStorageWord,
      datagen::BodyKind::kReturnStorageAddress,
      datagen::BodyKind::kReturnStorageBool,
      datagen::BodyKind::kReturnStorageBoolAtOffset,
      datagen::BodyKind::kStoreBoolPackedAt,
      datagen::BodyKind::kStoreArgWord,
      datagen::BodyKind::kStoreArgAddress,
      datagen::BodyKind::kStoreCaller,
      datagen::BodyKind::kGuardedStoreArgAddress,
      datagen::BodyKind::kMapReadArg,
      datagen::BodyKind::kMapWriteArg,
      datagen::BodyKind::kMapWriteCallerKey,
      datagen::BodyKind::kArrayReadArg,
  };
  for (int i = 0; i < 60; ++i) {
    std::vector<datagen::FunctionSpec> funcs;
    const int n = 1 + static_cast<int>(rng() % 5);
    for (int f = 0; f < n; ++f) {
      datagen::FunctionSpec spec;
      spec.prototype = "f" + std::to_string(f) + "_" + std::to_string(i) +
                       "(uint256,uint256)";
      spec.body = kBodies[rng() % std::size(kBodies)];
      spec.slot = U256{rng() % 6};
      spec.aux = U256{rng() % 28};  // packing offset / owner slot
      funcs.push_back(std::move(spec));
    }
    const Bytes code = ContractFactory::plain_contract(funcs);
    const auto layout = static_analysis::infer_layout(Disassembly(code));

    MemoryHost host;
    const Address a = Address::from_label("layoutfuzz." + std::to_string(i));
    host.set_code(a, code);
    LayoutFuzzObserver observer;
    for (const auto& func : funcs) {
      Bytes calldata(4 + 64);
      const std::uint32_t sel = func.selector();
      calldata[0] = static_cast<std::uint8_t>(sel >> 24);
      calldata[1] = static_cast<std::uint8_t>(sel >> 16);
      calldata[2] = static_cast<std::uint8_t>(sel >> 8);
      calldata[3] = static_cast<std::uint8_t>(sel);
      // Random argument *words* but small magnitudes: only the low byte of
      // each 32-byte word varies. Array indices are attacker-chosen, so an
      // unbounded random index would land arbitrarily far from the keccak
      // image and defeat the observer's family-distance reconstruction —
      // the admission contract itself is magnitude-independent.
      calldata[4 + 31] = static_cast<std::uint8_t>(rng());
      calldata[4 + 63] = static_cast<std::uint8_t>(rng());
      InterpreterConfig config;
      config.step_limit = 20'000;
      Interpreter interp(host, config);
      interp.set_observer(&observer);
      CallParams params;
      params.code_address = a;
      params.storage_address = a;
      params.caller = Address::from_label("fuzz.caller");
      params.calldata = std::move(calldata);
      params.gas = 1'000'000;
      (void)interp.execute(params);
    }

    if (!layout.reliable()) continue;  // no claim made, nothing to check
    for (const U256& slot : observer.slots) {
      EXPECT_TRUE(observer.admitted(layout, slot))
          << "contract " << i << " slot not admitted\n"
          << layout.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(0x5eedu, 0xfeedu, 0xc0ffeeu,
                                           20240920u));

}  // namespace
