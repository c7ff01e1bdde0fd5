#ifndef MLCASK_COMMON_SHA256_INTERNAL_H_
#define MLCASK_COMMON_SHA256_INTERNAL_H_

// The SHA-256 block compressors behind `Sha256`, exposed for the
// differential test and the micro bench. Not part of the library's API.

#include <cstddef>
#include <cstdint>

namespace mlcask::sha256_internal {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
/// (FIPS 180-4 rounds in plain C++). Runs on every CPU; the reference the
/// hardware path is tested against.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);

/// True when CPUID reports the SHA extensions plus SSSE3 and SSE4.1, which
/// `CompressShaNi` needs. Detected once; always false off x86-64.
bool HasShaNi();

#if defined(__x86_64__)
/// Same contract as `CompressPortable`, using the x86 SHA extensions. Call
/// only when `HasShaNi()` is true.
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
#endif

}  // namespace mlcask::sha256_internal

#endif  // MLCASK_COMMON_SHA256_INTERNAL_H_
