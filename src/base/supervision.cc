#include "supervision.hh"

#include <charconv>
#include <cinttypes>
#include <string_view>

#include "base/stats.hh"

namespace pacman
{

const char *
workerFaultName(WorkerFaultKind kind)
{
    switch (kind) {
      case WorkerFaultKind::Hang: return "hang";
      case WorkerFaultKind::ReplicaCorrupt: return "replica-corrupt";
      case WorkerFaultKind::TransientFault: return "transient-fault";
      case WorkerFaultKind::PoisonedItem: return "poisoned-item";
      case WorkerFaultKind::EndpointDown: return "endpoint-down";
      case WorkerFaultKind::DispatchExhausted:
        return "dispatch-exhausted";
    }
    return "unknown";
}

std::optional<WorkerFaultKind>
parseWorkerFault(const std::string &name)
{
    for (WorkerFaultKind kind :
         {WorkerFaultKind::Hang, WorkerFaultKind::ReplicaCorrupt,
          WorkerFaultKind::TransientFault,
          WorkerFaultKind::PoisonedItem, WorkerFaultKind::EndpointDown,
          WorkerFaultKind::DispatchExhausted}) {
        if (name == workerFaultName(kind))
            return kind;
    }
    return std::nullopt;
}

std::string
QuarantineRecord::serialize() const
{
    // `detail` is the last field and consumes the rest of the line,
    // so it may contain spaces (but not newlines — it lives inside
    // one journal payload). The campaign name and the detail are
    // appended byte for byte: parse() keeps every byte of them, a NUL
    // included.
    return "campaign=" + campaign +
           strprintf(" seed=%016" PRIx64 " chunk=%" PRIu64
                     " first=%" PRIu64 " last=%" PRIu64
                     " stream=%016" PRIx64 " rekey=%s kind=%s detail=",
                     campaignSeed, chunkIndex, firstItem, lastItem,
                     streamSeed,
                     hasRekey ? strprintf("%016" PRIx64, rekeySeed).c_str()
                              : "-",
                     workerFaultName(kind)) +
           detail;
}

namespace
{

/** @p s whole as an unsigned number in @p base: digits only, no sign
 *  or prefix. */
bool
parseWhole(std::string_view s, uint64_t *value, int base = 10)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *value, base);
    return ec == std::errc() && ptr == end;
}

/** A seed as serialize() writes one: exactly 16 hex digits. */
bool
parseSeed(std::string_view s, uint64_t *value)
{
    return s.size() == 16 && parseWhole(s, value, 16);
}

} // anonymous namespace

std::optional<QuarantineRecord>
QuarantineRecord::parse(const std::string &line)
{
    // serialize()'s fields in its order, each "name=value" and one
    // space; detail takes the rest of the line.
    std::string_view rest = line, v[8];
    for (size_t i = 0; i < 8; ++i) {
        static constexpr std::string_view names[] = {
            "campaign=", "seed=",   "chunk=", "first=",
            "last=",     "stream=", "rekey=", "kind="};
        const size_t space = rest.find(' ');
        if (!rest.starts_with(names[i]) || space == rest.npos)
            return std::nullopt;
        v[i] = rest.substr(names[i].size(), space - names[i].size());
        rest.remove_prefix(space + 1);
    }
    QuarantineRecord rec;
    rec.hasRekey = v[6] != "-";
    const auto kind = parseWorkerFault(std::string(v[7]));
    if (!parseSeed(v[1], &rec.campaignSeed) ||
        !parseWhole(v[2], &rec.chunkIndex) ||
        !parseWhole(v[3], &rec.firstItem) ||
        !parseWhole(v[4], &rec.lastItem) ||
        !parseSeed(v[5], &rec.streamSeed) ||
        (rec.hasRekey && !parseSeed(v[6], &rec.rekeySeed)) || !kind ||
        !rest.starts_with("detail="))
        return std::nullopt;
    rec.campaign = v[0];
    rec.kind = *kind;
    rec.detail = rest.substr(7);
    return rec;
}

} // namespace pacman
