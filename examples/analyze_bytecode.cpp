// proxion-analyze: a CLI that takes raw EVM runtime bytecode (hex, as you'd
// get from eth_getCode) and prints the full Proxion report: disassembly
// stats, proxy verdict, extracted function selectors, and the inferred
// storage layout. With a second bytecode it also runs the pair collision
// checks.
//
//   analyze_bytecode <proxy-hex> [logic-hex]
//   echo 363d3d37... | analyze_bytecode -
#include <cstdio>
#include <iostream>
#include <string>

#include "chain/blockchain.h"
#include "core/function_collision.h"
#include "core/proxy_detector.h"
#include "core/selector_extractor.h"
#include "core/storage_collision.h"
#include "crypto/keccak.h"
#include "evm/disassembler.h"
#include "static/layout.h"

using namespace proxion;
using evm::Bytes;

namespace {

Bytes read_hex_arg(const std::string& arg) {
  if (arg != "-") return crypto::from_hex(arg);
  std::string line;
  std::getline(std::cin, line);
  // Trim whitespace the shell may have left around the blob.
  const auto first = line.find_first_not_of(" \t\r\n");
  const auto last = line.find_last_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  return crypto::from_hex(line.substr(first, last - first + 1));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: %s <proxy-bytecode-hex | -> [logic-bytecode-hex]\n",
                 argv[0]);
    return 2;
  }

  Bytes proxy_code;
  try {
    proxy_code = read_hex_arg(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad bytecode hex: %s\n", e.what());
    return 2;
  }
  if (proxy_code.empty()) {
    std::fprintf(stderr, "empty bytecode\n");
    return 2;
  }

  chain::Blockchain chain;
  const evm::Address deployer = evm::Address::from_label("cli.deployer");
  const evm::Address address = chain.deploy_runtime(deployer, proxy_code);

  const evm::Disassembly dis(proxy_code);
  std::printf("bytecode: %zu bytes, %zu instructions, %zu basic blocks\n",
              proxy_code.size(), dis.instructions().size(),
              dis.blocks().size());
  const auto hash = evm::code_hash(proxy_code);
  std::printf("code hash: 0x%s\n",
              crypto::to_hex(std::span<const std::uint8_t>(hash)).c_str());

  core::ProxyDetector detector(chain);
  const auto report = detector.analyze_code(address, proxy_code);
  std::printf("\nproxy analysis:\n");
  std::printf("  has DELEGATECALL opcode: %s\n",
              report.has_delegatecall_opcode ? "yes" : "no");
  std::printf("  verdict:  %s\n",
              std::string(core::to_string(report.verdict)).c_str());
  if (report.is_proxy()) {
    std::printf("  standard: %s\n",
                std::string(core::to_string(report.standard)).c_str());
    std::printf("  logic:    %s\n", report.logic_address.to_hex().c_str());
    if (report.logic_source == core::LogicSource::kStorageSlot) {
      std::printf("  slot:     %s\n", report.logic_slot.to_hex().c_str());
    } else if (report.logic_source == core::LogicSource::kHardcoded) {
      std::printf("  slot:     (hard-coded in bytecode)\n");
    }
  } else if (report.verdict == core::ProxyVerdict::kEmulationError) {
    std::printf("  emulation halted: %s\n",
                std::string(evm::to_string(report.halt)).c_str());
  }

  const auto selectors = core::extract_selectors(dis);
  std::printf("\nfunction selectors (%zu, dispatcher-pattern):\n",
              selectors.size());
  for (const std::uint32_t s : selectors) {
    std::printf("  0x%08x\n", s);
  }

  std::printf("\nstorage layout:\n%s",
              static_analysis::infer_layout(dis).to_string().c_str());

  if (argc == 3) {
    Bytes logic_code;
    try {
      logic_code = crypto::from_hex(argv[2]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad logic bytecode hex: %s\n", e.what());
      return 2;
    }
    const evm::Address logic = chain.deploy_runtime(deployer, logic_code);
    if (report.logic_source == core::LogicSource::kStorageSlot) {
      chain.set_storage(address, report.logic_slot, logic.to_word());
    }

    core::FunctionCollisionDetector fn_detector;
    const auto fn = fn_detector.detect(address, proxy_code, logic, logic_code);
    std::printf("\npair analysis vs supplied logic bytecode:\n");
    std::printf("  function collisions: %zu\n", fn.colliding_selectors.size());
    for (const std::uint32_t s : fn.colliding_selectors) {
      std::printf("    0x%08x\n", s);
    }
    core::StorageCollisionDetector st_detector(chain);
    const auto st = st_detector.detect(address, proxy_code, logic, logic_code);
    std::printf("  storage collisions:  %zu\n", st.findings.size());
    for (const auto& f : st.findings) {
      std::printf("    slot %s: proxy bytes [%u,%u) vs logic bytes [%u,%u)"
                  "%s%s\n",
                  f.slot.to_hex().c_str(), f.proxy_offset,
                  f.proxy_offset + f.proxy_width, f.logic_offset,
                  f.logic_offset + f.logic_width,
                  f.exploitable ? "  EXPLOITABLE" : "",
                  f.verified ? " (verified)" : "");
    }
    return (fn.has_collision() || st.has_collision()) ? 1 : 0;
  }
  return report.is_proxy() ? 0 : 1;
}
