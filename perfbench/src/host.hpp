#pragma once
// Host fingerprint attached to every result: the facts a measurement
// depends on beyond the code itself.

#include <string>

namespace perfbench {

// One JSON object: nproc, ISA flags (avx512f / avx512_vnni / avx512_bf16 /
// amx_tile), L2 and L3 sizes, compiler, build type, and `commit`.
std::string host_fingerprint_json(const std::string& commit);

}  // namespace perfbench
