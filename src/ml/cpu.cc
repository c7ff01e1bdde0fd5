#include "ml/cpu.h"

#if defined(MLCASK_X86_64)
#include <cpuid.h>
#endif

namespace mlcask::ml::cpu {

#if defined(MLCASK_X86_64)

namespace {

// XCR0, the state components the OS saves on a context switch.
unsigned Xcr0() {
  unsigned xcr0 = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  return xcr0;
}

}  // namespace

// Function-local statics, as HasShaNi: CPUID once, on first use.
bool HasFourLane() {
  static const bool usable = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const unsigned leaf1 = bit_FMA | bit_OSXSAVE | bit_AVX;
    if ((ecx & leaf1) != leaf1) return false;
    // The OS saves XMM (bit 1) and YMM (bit 2) state.
    if ((Xcr0() & 0x6) != 0x6) return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_AVX2) != 0;
  }();
  return usable;
}

bool HasEightLane() {
  static const bool usable = [] {
    if (!HasFourLane()) return false;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const unsigned leaf7 = bit_AVX512F | bit_AVX512DQ;
    if ((ebx & leaf7) != leaf7) return false;
    // The OS also saves opmask (bit 5) and ZMM (bits 6 and 7) state.
    return (Xcr0() & 0xe0) == 0xe0;
  }();
  return usable;
}

#else

bool HasFourLane() { return false; }
bool HasEightLane() { return false; }

#endif

}  // namespace mlcask::ml::cpu
