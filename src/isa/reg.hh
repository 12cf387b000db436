/**
 * @file
 * Register file specification.
 *
 * The machine exposes 32 architectural registers (r0..r31) plus 32
 * temp/shadow registers (t0..t31). The temp bank models the paper's
 * DBT assumption of "additional registers to hold speculative values"
 * (Sec. 2.2 item 3): the Decomposed Branch Transformation renames
 * hoisted speculative defs into the temp bank so the alternate path's
 * live-in values survive a misprediction.
 */

#ifndef VANGUARD_ISA_REG_HH
#define VANGUARD_ISA_REG_HH

#include <cstdint>
#include <string>

namespace vanguard {

using RegId = uint8_t;

inline constexpr unsigned kNumArchRegs = 32;
inline constexpr unsigned kNumTempRegs = 32;
inline constexpr unsigned kNumRegs = kNumArchRegs + kNumTempRegs;

/** Sentinel for "no register operand". */
inline constexpr RegId kNoReg = 0xff;

inline constexpr bool
isArchReg(RegId r)
{
    return r < kNumArchRegs;
}

inline constexpr bool
isTempReg(RegId r)
{
    return r >= kNumArchRegs && r < kNumRegs;
}

inline constexpr RegId
tempReg(unsigned index)
{
    return static_cast<RegId>(kNumArchRegs + index);
}

inline std::string
regName(RegId r)
{
    if (r == kNoReg)
        return "-";
    // Appended to a one-character string: GCC 12 -O3 falsely flags
    // operator+(const char *, std::string &&) under -Wrestrict.
    std::string name(1, isArchReg(r) ? 'r' : 't');
    name += std::to_string(isArchReg(r) ? r : r - kNumArchRegs);
    return name;
}

} // namespace vanguard

#endif // VANGUARD_ISA_REG_HH
