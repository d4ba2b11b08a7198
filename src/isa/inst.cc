#include "inst.hh"

#include <algorithm>
#include <cctype>

#include "base/logging.hh"

namespace pacman::isa
{

bool
condHolds(Cond cond, const Pstate &f)
{
    switch (cond) {
      case Cond::EQ: return f.z;
      case Cond::NE: return !f.z;
      case Cond::CS: return f.c;
      case Cond::CC: return !f.c;
      case Cond::MI: return f.n;
      case Cond::PL: return !f.n;
      case Cond::VS: return f.v;
      case Cond::VC: return !f.v;
      case Cond::HI: return f.c && !f.z;
      case Cond::LS: return !f.c || f.z;
      case Cond::GE: return f.n == f.v;
      case Cond::LT: return f.n != f.v;
      case Cond::GT: return !f.z && f.n == f.v;
      case Cond::LE: return f.z || f.n != f.v;
      case Cond::AL: return true;
      default: panic("condHolds: bad condition %u", unsigned(cond));
    }
}

std::string
condName(Cond cond)
{
    static const char *names[] = {
        "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
        "hi", "ls", "ge", "lt", "gt", "le", "al",
    };
    const auto idx = unsigned(cond);
    PACMAN_ASSERT(idx < 15, "bad condition code %u", idx);
    return names[idx];
}

std::optional<Cond>
parseCondName(const std::string &name)
{
    std::string low(name);
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    for (unsigned i = 0; i < 15; ++i) {
        if (low == condName(Cond(i)))
            return Cond(i);
    }
    return std::nullopt;
}

} // namespace pacman::isa
