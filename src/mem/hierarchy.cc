#include "hierarchy.hh"

#include "base/logging.hh"

namespace pacman::mem
{

namespace
{

/** Physical address of @p va inside physical page @p ppn. */
Addr
framePa(uint64_t ppn, Addr va)
{
    return (ppn << isa::PageShift) | isa::pageOffset(isa::vaPart(va));
}

} // anonymous namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg, Random *rng)
    : cfg_(cfg), rng_(rng),
      l1i_(cfg.l1i, cfg.replPolicy, rng),
      l1d_(cfg.l1d, cfg.replPolicy, rng),
      l2_(cfg.l2, cfg.replPolicy, rng),
      slc_(cfg.slc, cfg.replPolicy, rng),
      itlbEl0_(cfg.itlb, cfg.replPolicy, rng),
      itlbEl1_(cfg.itlb, cfg.replPolicy, rng),
      dtlb_(cfg.dtlb, cfg.replPolicy, rng),
      l2tlb_(cfg.l2tlb, cfg.replPolicy, rng)
{
}

void
MemoryHierarchy::mapPage(Addr va, PageFlags flags)
{
    pt_.map(va, flags);
}

void
MemoryHierarchy::mapRange(Addr va, uint64_t bytes, PageFlags flags)
{
    const Addr start = isa::vaPart(va) & ~isa::PageMask;
    const Addr end = isa::vaPart(va) + bytes;
    for (Addr page = start; page < end; page += isa::PageSize)
        pt_.map(isa::withExt(page, isa::canonicalExt(va)), flags);
}

void
MemoryHierarchy::mapDevice(Addr va, Device *device)
{
    const uint64_t index = devices_.size();
    devices_.push_back(device);
    PageFlags flags;
    flags.user = true;
    flags.writable = true;
    flags.device = true;
    pt_.mapTo(va, (DevicePhysBase >> isa::PageShift) + index, flags);
}

Fault
MemoryHierarchy::checkPerms(AccessKind kind, const PageFlags &flags,
                            unsigned el) const
{
    if (el == 0 && !flags.user)
        return Fault::Permission;
    if (kind == AccessKind::Store && !flags.writable)
        return Fault::Permission;
    if (kind == AccessKind::Fetch && !flags.executable)
        return Fault::Permission;
    return Fault::None;
}

void
MemoryHierarchy::finishFromEntry(AccessKind kind, const TlbEntry &entry,
                                 Addr va, unsigned el,
                                 AccessResult &res) const
{
    res.fault = checkPerms(kind, PageFlags{
        .user = entry.asid == Asid::User,
        .writable = entry.writable,
        .executable = entry.executable,
        .device = false}, el);
    if (res.fault == Fault::None)
        res.pa = framePa(entry.ppn, va);
}

AccessResult
MemoryHierarchy::translateTimed(AccessKind kind, Addr va, unsigned el,
                                bool speculative, AccessTrace *trace)
{
    AccessResult res;

    // Non-canonical pointers (e.g. an aut-poisoned pointer) fail
    // before any structure is consulted: nothing is allocated, no
    // side effect is left. This is the "speculative exception" arm of
    // the PACMAN gadget timeline.
    if (!isa::isCanonical(va)) {
        res.fault = Fault::Translation;
        res.latency = 1;
        return res;
    }

    const uint64_t vpn = isa::pageNumber(isa::vaPart(va));
    const Asid asid = isa::isKernelVa(va) ? Asid::Kernel : Asid::User;
    const bool fill_ok = !(cfg_.delayOnMiss && speculative);

    // L1 TLB lookup: iTLB (per-EL) for fetches, shared dTLB for data.
    Tlb &l1 = kind == AccessKind::Fetch ? itlb(el) : dtlb_;
    if (auto entry = l1.lookup(vpn, asid)) {
        finishFromEntry(kind, *entry, va, el, res);
        if (res.fault != Fault::None)
            res.latency = 1;
        else if (trace)
            trace->l1TlbHit = true;
        return res;
    }

    // Fetch misses probe the dTLB next: Section 7.3 finds the dTLB
    // acting as a non-inclusive backing store for the iTLBs. The
    // entry migrates back into the iTLB; the iTLB's victim spills
    // into the dTLB.
    if (kind == AccessKind::Fetch) {
        if (auto entry = dtlb_.remove(vpn, asid)) {
            res.latency += cfg_.lat.itlbSpillProbe;
            if (trace)
                trace->spillServed = true;
            if (fill_ok) {
                if (auto spilled = itlb(el).insert(*entry))
                    dtlb_.insert(*spilled);
            } else {
                dtlb_.insert(*entry); // put it back, no movement
            }
            finishFromEntry(kind, *entry, va, el, res);
            return res;
        }
    }

    // L2 TLB.
    bool from_walk = false;
    std::optional<TlbEntry> entry = l2tlb_.lookup(vpn, asid);
    if (entry) {
        res.latency += cfg_.lat.l1TlbMissPenalty;
        if (trace)
            trace->l2TlbHit = true;
    } else {
        // Page-table walk.
        res.latency += cfg_.lat.walkPenalty;
        if (trace)
            trace->walked = true;
        const auto mapping = pt_.translate(vpn);
        if (!mapping) {
            res.fault = Fault::Translation;
            return res;
        }
        if (mapping->flags.device) {
            // Pinned translation: no TLB state, bypasses caches.
            const Fault perm = checkPerms(kind, mapping->flags, el);
            if (perm != Fault::None) {
                res.fault = perm;
                return res;
            }
            res.pa = framePa(mapping->ppn, va);
            res.isDevice = true;
            res.latency = cfg_.lat.device;
            return res;
        }
        entry = TlbEntry{vpn, asid, mapping->ppn,
                         mapping->flags.writable,
                         mapping->flags.executable};
        from_walk = true;
    }

    finishFromEntry(kind, *entry, va, el, res);
    if (res.fault != Fault::None)
        return res;

    // Fill the TLBs; iTLB victims spill into the dTLB.
    if (fill_ok && from_walk)
        l2tlb_.insert(*entry);
    if (fill_ok) {
        if (kind == AccessKind::Fetch) {
            if (auto spilled = itlb(el).insert(*entry))
                dtlb_.insert(*spilled);
        } else {
            dtlb_.insert(*entry);
        }
    }
    return res;
}

uint64_t
MemoryHierarchy::cacheAccess(AccessKind kind, Addr pa, bool speculative,
                             AccessTrace *trace)
{
    (void)speculative; // cache fills are never gated in this model
    Cache &l1 = kind == AccessKind::Fetch ? l1i_ : l1d_;
    if (l1.access(pa)) {
        if (trace)
            trace->l1CacheHit = true;
        return cfg_.lat.l1Hit;
    }
    if (l2_.access(pa)) {
        if (trace)
            trace->l2CacheHit = true;
        return cfg_.lat.l2Hit;
    }
    if (slc_.access(pa)) {
        if (trace)
            trace->slcHit = true;
        return cfg_.lat.slcHit;
    }
    return cfg_.lat.dram;
}

uint64_t
MemoryHierarchy::fetchLineAccess(Addr pa, Cache::Line **line)
{
    bool hit = false;
    *line = l1i_.accessRef(pa, &hit);
    if (hit)
        return cfg_.lat.l1Hit;
    if (l2_.access(pa))
        return cfg_.lat.l2Hit;
    if (slc_.access(pa))
        return cfg_.lat.slcHit;
    return cfg_.lat.dram;
}

AccessResult
MemoryHierarchy::access(AccessKind kind, Addr va, unsigned el,
                        bool speculative, AccessTrace *trace)
{
    AccessResult res = translateTimed(kind, va, el, speculative, trace);
    if (res.fault != Fault::None || res.isDevice)
        return res;
    res.latency += cacheAccess(kind, res.pa, speculative, trace);
    return res;
}

void
MemoryHierarchy::attachTouchLog(TouchLog *log)
{
    touchLog_ = log;
    l1i_.attachTouchLog(log, TouchL1I);
    l1d_.attachTouchLog(log, TouchL1D);
    l2_.attachTouchLog(log, TouchL2);
    slc_.attachTouchLog(log, TouchSlc);
    itlbEl0_.attachTouchLog(log, TouchITlb0);
    itlbEl1_.attachTouchLog(log, TouchITlb1);
    dtlb_.attachTouchLog(log, TouchDTlb);
    l2tlb_.attachTouchLog(log, TouchL2Tlb);
}

uint64_t
MemoryHierarchy::loadValue(const AccessResult &res, Addr va, unsigned size)
{
    PACMAN_ASSERT(res.fault == Fault::None, "loadValue after fault");
    if (touchLog_)
        touchLog_->load(res.pa, size);
    if (res.isDevice) {
        const uint64_t index =
            (res.pa >> isa::PageShift) - (DevicePhysBase >> isa::PageShift);
        PACMAN_ASSERT(index < devices_.size(), "bad device index");
        return devices_[index]->read(isa::pageOffset(va), size);
    }
    return phys_.read(res.pa, size);
}

void
MemoryHierarchy::storeValue(const AccessResult &res, Addr va,
                            uint64_t value, unsigned size)
{
    PACMAN_ASSERT(res.fault == Fault::None, "storeValue after fault");
    if (touchLog_)
        touchLog_->spoil();
    if (res.isDevice) {
        const uint64_t index =
            (res.pa >> isa::PageShift) - (DevicePhysBase >> isa::PageShift);
        PACMAN_ASSERT(index < devices_.size(), "bad device index");
        devices_[index]->write(isa::pageOffset(va), value, size);
        return;
    }
    phys_.write(res.pa, value, size);
}

std::optional<Addr>
MemoryHierarchy::translateFunctional(Addr va) const
{
    if (!isa::isCanonical(va))
        return std::nullopt;
    const auto mapping = pt_.translate(isa::pageNumber(isa::vaPart(va)));
    if (!mapping)
        return std::nullopt;
    return framePa(mapping->ppn, va);
}

uint64_t
MemoryHierarchy::readVirt(Addr va, unsigned size) const
{
    const auto pa = translateFunctional(va);
    if (!pa)
        fatal("readVirt: unmapped address 0x%llx", (unsigned long long)va);
    return phys_.read(*pa, size);
}

void
MemoryHierarchy::writeVirt(Addr va, uint64_t value, unsigned size)
{
    const auto pa = translateFunctional(va);
    if (!pa)
        fatal("writeVirt: unmapped address 0x%llx",
              (unsigned long long)va);
    phys_.write(*pa, value, size);
}

MemoryHierarchy::Snapshot
MemoryHierarchy::takeSnapshot() const
{
    Snapshot snap;
    snap.phys = phys_.takeSnapshot();
    snap.pt = pt_.takeSnapshot();
    snap.l1i = l1i_.takeSnapshot();
    snap.l1d = l1d_.takeSnapshot();
    snap.l2 = l2_.takeSnapshot();
    snap.slc = slc_.takeSnapshot();
    snap.itlbEl0 = itlbEl0_.takeSnapshot();
    snap.itlbEl1 = itlbEl1_.takeSnapshot();
    snap.dtlb = dtlb_.takeSnapshot();
    snap.l2tlb = l2tlb_.takeSnapshot();
    snap.flushEpoch = flushEpoch_;
    return snap;
}

PhysMem::RestoreStats
MemoryHierarchy::restore(const Snapshot &snap)
{
    const PhysMem::RestoreStats stats = phys_.restore(snap.phys);
    pt_.restore(snap.pt);
    l1i_.restore(snap.l1i);
    l1d_.restore(snap.l1d);
    l2_.restore(snap.l2);
    slc_.restore(snap.slc);
    itlbEl0_.restore(snap.itlbEl0);
    itlbEl1_.restore(snap.itlbEl1);
    dtlb_.restore(snap.dtlb);
    l2tlb_.restore(snap.l2tlb);
    flushEpoch_ = snap.flushEpoch;
    return stats;
}

void
MemoryHierarchy::flushAll()
{
    l1i_.flushAll();
    l1d_.flushAll();
    l2_.flushAll();
    slc_.flushAll();
    itlbEl0_.flushAll();
    itlbEl1_.flushAll();
    dtlb_.flushAll();
    l2tlb_.flushAll();
    ++flushEpoch_;
}

} // namespace pacman::mem
