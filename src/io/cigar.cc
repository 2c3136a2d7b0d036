#include "io/cigar.h"

#include <cctype>

namespace gb {

char
cigarOpChar(CigarOp op)
{
    switch (op) {
      case CigarOp::kMatch: return 'M';
      case CigarOp::kInsertion: return 'I';
      case CigarOp::kDeletion: return 'D';
      case CigarOp::kSoftClip: return 'S';
      case CigarOp::kEqual: return '=';
      case CigarOp::kDiff: return 'X';
    }
    return '?';
}

namespace {

constexpr u32
opBit(CigarOp op)
{
    return 1u << static_cast<u32>(op);
}

constexpr u32 kRefOps = opBit(CigarOp::kMatch) | opBit(CigarOp::kDeletion) |
                        opBit(CigarOp::kEqual) | opBit(CigarOp::kDiff);
constexpr u32 kQueryOps =
    opBit(CigarOp::kMatch) | opBit(CigarOp::kInsertion) |
    opBit(CigarOp::kSoftClip) | opBit(CigarOp::kEqual) |
    opBit(CigarOp::kDiff);

/** Sum of the lengths of the units whose op is in `ops`. A mask, not
 *  a branch: long-read CIGARs alternate ops at random, and a
 *  mispredicted branch per unit would dominate the walk. */
u64
lengthOf(const std::vector<CigarUnit>& units, u32 ops)
{
    u64 n = 0;
    for (const auto& unit : units) {
        const u32 in = ops >> static_cast<u32>(unit.op) & 1;
        n += unit.len & (0u - in);
    }
    return n;
}

} // namespace

bool
consumesRef(CigarOp op)
{
    return (kRefOps & opBit(op)) != 0;
}

bool
consumesQuery(CigarOp op)
{
    return (kQueryOps & opBit(op)) != 0;
}

namespace {

CigarOp
opFromChar(char c)
{
    switch (c) {
      case 'M': return CigarOp::kMatch;
      case 'I': return CigarOp::kInsertion;
      case 'D': return CigarOp::kDeletion;
      case 'S': return CigarOp::kSoftClip;
      case '=': return CigarOp::kEqual;
      case 'X': return CigarOp::kDiff;
      default:
        throw InputError(std::string("CIGAR: unsupported op '") + c +
                         "'");
    }
}

} // namespace

Cigar
Cigar::parse(std::string_view text)
{
    Cigar out;
    if (text == "*" || text.empty()) return out;
    u64 len = 0;
    bool have_len = false;
    for (char c : text) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            len = len * 10 + static_cast<u64>(c - '0');
            requireInput(len <= 0xffffffffULL, "CIGAR: length overflow");
            have_len = true;
        } else {
            requireInput(have_len && len > 0,
                         "CIGAR: op without positive length in '" +
                             std::string(text) + "'");
            out.push(opFromChar(c), static_cast<u32>(len));
            len = 0;
            have_len = false;
        }
    }
    requireInput(!have_len,
                 "CIGAR: trailing length in '" + std::string(text) + "'");
    return out;
}

std::string
Cigar::str() const
{
    if (units_.empty()) return "*";
    std::string out;
    for (const auto& unit : units_) {
        out += std::to_string(unit.len);
        out += cigarOpChar(unit.op);
    }
    return out;
}

void
Cigar::push(CigarOp op, u32 len)
{
    if (len == 0) return;
    if (!units_.empty() && units_.back().op == op) {
        units_.back().len += len;
    } else {
        units_.push_back({len, op});
    }
}

u64
Cigar::refLen() const
{
    return lengthOf(units_, kRefOps);
}

u64
Cigar::queryLen() const
{
    return lengthOf(units_, kQueryOps);
}

} // namespace gb
