// golden_engine_gen — (re)generate the pinned engine-golden corpus under
// tests/golden/engine/. The corpus pins the engine's observable behaviour
// (serialized trace + RunStats JSON) and its snapshot layout (save_state
// bytes of a frequently pruned run) byte-for-byte, so regenerating it is
// only ever a conscious decision after an intentional semantics or
// format change — record the why in DESIGN.md when you do. Usage:
//
//   golden_engine_gen <output-dir>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "engine_golden_cases.h"

namespace {

bool write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << data)) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: golden_engine_gen <output-dir>\n";
    return 2;
  }
  const std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);
  for (const auto& c : asyncmac::testing::engine_golden_cases()) {
    if (!write_file(dir / (c.name + ".trace"),
                    asyncmac::testing::run_engine_golden_case(c)) ||
        !write_file(dir / (c.name + ".state"),
                    asyncmac::testing::run_engine_golden_state(c)))
      return 1;
  }
  return 0;
}
