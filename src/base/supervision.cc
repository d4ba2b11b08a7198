#include "supervision.hh"

#include <cinttypes>
#include <cstdio>

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
    // one journal payload). It is appended byte for byte: parse()
    // keeps every byte after "detail=", a NUL included.
    return strprintf(
               "campaign=%s seed=%016" PRIx64 " chunk=%" PRIu64
               " first=%" PRIu64 " last=%" PRIu64 " stream=%016" PRIx64
               " rekey=%s kind=%s detail=",
               campaign.c_str(), campaignSeed, chunkIndex, firstItem,
               lastItem, streamSeed,
               hasRekey ? strprintf("%016" PRIx64, rekeySeed).c_str()
                        : "-",
               workerFaultName(kind)) +
           detail;
}

std::optional<QuarantineRecord>
QuarantineRecord::parse(const std::string &line)
{
    QuarantineRecord rec;
    char campaign[32] = {0};
    char rekey[32] = {0};
    char kind[32] = {0};
    int detail_off = -1;
    const int n = std::sscanf(
        line.c_str(),
        "campaign=%31s seed=%" SCNx64 " chunk=%" SCNu64
        " first=%" SCNu64 " last=%" SCNu64 " stream=%" SCNx64
        " rekey=%31s kind=%31s detail=%n",
        campaign, &rec.campaignSeed, &rec.chunkIndex, &rec.firstItem,
        &rec.lastItem, &rec.streamSeed, rekey, kind, &detail_off);
    if (n != 8 || detail_off < 0)
        return std::nullopt;
    rec.campaign = campaign;
    if (std::string(rekey) != "-") {
        rec.hasRekey = true;
        if (std::sscanf(rekey, "%" SCNx64, &rec.rekeySeed) != 1)
            return std::nullopt;
    }
    const auto parsed_kind = parseWorkerFault(kind);
    if (!parsed_kind)
        return std::nullopt;
    rec.kind = *parsed_kind;
    rec.detail = line.substr(size_t(detail_off));
    return rec;
}

} // namespace pacman
