#include "host.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      std::string flags = line.substr(line.find(':') + 1);
      flags.push_back(' ');
      return flags;
    }
  }
  return {};
}

// Size string of the first cache of the given level ("2048K"), or "".
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    std::ifstream lvl(dir + "level");
    int l = 0;
    if (!(lvl >> l)) break;
    std::ifstream type(dir + "type");
    std::string t;
    type >> t;
    if (l == level && t != "Instruction") {
      std::ifstream size(dir + "size");
      std::string s;
      size >> s;
      return s;
    }
  }
  return {};
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json(const std::string& commit) {
  const std::string flags = cpu_flags();
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"isa\":{";
  const char* isa[] = {"avx512f", "avx512_vnni", "avx512_bf16", "amx_tile"};
  for (int i = 0; i < 4; ++i) {
    const bool has = flags.find(std::string(" ") + isa[i] + " ") !=
                     std::string::npos;
    out << (i ? "," : "") << '"' << isa[i] << "\":" << (has ? "true" : "false");
  }
  out << "},\"l2\":\"" << escape(cache_size(2)) << "\",\"l3\":\""
      << escape(cache_size(3)) << "\",\"compiler\":\"" << escape(__VERSION__)
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
      << escape(commit) << "\"}";
  return out.str();
}

}  // namespace perfbench
