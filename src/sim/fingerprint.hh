/**
 * @file
 * State-fingerprint checksums for replica integrity (DESIGN.md §4g).
 *
 * FIPAC (arXiv 2104.14993) protects control flow with cheap running
 * checksums verified at recovery points; the campaign supervisor
 * applies the same idea to whole replicas. A fingerprint is a 64-bit
 * FNV-1a digest over the state a work item's result is a pure
 * function of:
 *
 *   - both machine RNG stream positions and the e-core flag,
 *   - the core's run state, through Core::RunState's lists:
 *     registers, flags, pc, EL, the system registers (so the PAC
 *     keys), the fetch-group phase, the cycle and the scoreboard,
 *   - the thread-timer device state,
 *   - every backed physical page's contents (frame-sorted, so the
 *     digest is independent of hash-map iteration order),
 *   - the oracle's host-side snapshot (threshold, calibration band,
 *     derived address lists, counters, argument-array placement).
 *
 * Page write generations and the decoded-instruction cache are
 * deliberately excluded: generations are never reused across a
 * restore (PR 4) and the decode cache is a host-side warm-up detail,
 * so including either would make the post-restore fingerprint differ
 * from the post-provision one by construction. The contract the
 * recovery ladder relies on — proven by
 * tests/runner/test_supervision.cc — is the converse: a checkpoint
 * restore reproduces the provisioning fingerprint bit-exactly, so a
 * mismatch between rungs means the replica (or its checkpoint) is
 * corrupt and the ladder must escalate to a full re-provision.
 */

#ifndef PACMAN_SIM_FINGERPRINT_HH
#define PACMAN_SIM_FINGERPRINT_HH

#include <cstdint>
#include <cstring>

#include "attack/oracle.hh"
#include "kernel/machine.hh"

namespace pacman::sim
{

/**
 * Incremental FNV-1a-style digest over typed fields.
 *
 * Fields fold in word-at-a-time on a single xor-multiply chain. Bulk
 * buffers (physical pages) run four independent lanes over 32-byte
 * strides, seeded from and folded back into the chain, because the
 * serial multiply dependency otherwise caps throughput at one
 * multiply per word — at a full fingerprint per provisioning this was
 * the single hottest function of snapshot-mode campaigns. The digest
 * is an internal integrity checksum: its exact value has no external
 * consumers, only equality between provision time and restore time
 * matters.
 */
class StateDigest
{
  public:
    void
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        if (len >= 32) {
            uint64_t l0 = hash_ ^ 0x9E3779B97F4A7C15ull;
            uint64_t l1 = hash_ ^ 0xC2B2AE3D27D4EB4Full;
            uint64_t l2 = hash_ ^ 0x165667B19E3779F9ull;
            uint64_t l3 = hash_ ^ 0x27D4EB2F165667C5ull;
            do {
                uint64_t w0, w1, w2, w3;
                std::memcpy(&w0, p, 8);
                std::memcpy(&w1, p + 8, 8);
                std::memcpy(&w2, p + 16, 8);
                std::memcpy(&w3, p + 24, 8);
                l0 = (l0 ^ w0) * Prime;
                l1 = (l1 ^ w1) * Prime;
                l2 = (l2 ^ w2) * Prime;
                l3 = (l3 ^ w3) * Prime;
                p += 32;
                len -= 32;
            } while (len >= 32);
            hash_ = (hash_ ^ l0) * Prime;
            hash_ = (hash_ ^ l1) * Prime;
            hash_ = (hash_ ^ l2) * Prime;
            hash_ = (hash_ ^ l3) * Prime;
        }
        for (size_t i = 0; i < len; ++i)
            hash_ = (hash_ ^ p[i]) * Prime;
    }

    void u64(uint64_t v) { hash_ = (hash_ ^ v) * Prime; }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    uint64_t value() const { return hash_; }

  private:
    static constexpr uint64_t Prime = 0x100000001B3ull;

    uint64_t hash_ = 0xCBF29CE484222325ull; // FNV offset basis
};

/** Digest of the complete simulated machine state (see file docs). */
uint64_t machineFingerprint(const kernel::Machine &machine);

/** Digest of the oracle's host-side snapshot (includes the attacker
 *  process's argument-array placement). */
uint64_t oracleFingerprint(const attack::PacOracle &oracle);

/** The supervisor's replica integrity checksum: machine + oracle. */
uint64_t replicaFingerprint(const kernel::Machine &machine,
                            const attack::PacOracle &oracle);

} // namespace pacman::sim

#endif // PACMAN_SIM_FINGERPRINT_HH
