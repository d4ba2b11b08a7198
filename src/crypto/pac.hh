/**
 * @file
 * Pointer Authentication Code computation on top of QARMA-64.
 *
 * A PAC is the truncation of QARMA-64(key, pointer, modifier) to the
 * pointer's unused upper bits. On the modelled platform (48-bit VA,
 * macOS-style configuration) the PAC is 16 bits wide, matching the
 * paper's measurements on macOS 12.2.1 / M1.
 */

#ifndef PACMAN_CRYPTO_PAC_HH
#define PACMAN_CRYPTO_PAC_HH

#include <cstdint>

#include "crypto/qarma64.hh"

namespace pacman::crypto
{

/** A 128-bit pointer-authentication key (w0 || k0). */
struct PacKey
{
    uint64_t w0 = 0;
    uint64_t k0 = 0;

    bool operator==(const PacKey &) const = default;
};

/**
 * The five ARMv8.3 PA keys: two instruction keys, two data keys, and
 * the generic key. Which key an instruction uses is encoded in its
 * opcode (e.g. pacIA uses IA).
 */
enum class PacKeySelect : uint8_t
{
    IA = 0,
    IB = 1,
    DA = 2,
    DB = 3,
    GA = 4,

    NumKeys = 5,
};

/** Human-readable key name ("IA", ...). */
const char *pacKeyName(PacKeySelect sel);

/**
 * Stateless PAC function: computes the @p pac_bits -bit PAC of
 * @p canonical_ptr (extension bits already canonicalized by the caller)
 * under @p modifier and @p key — the top @p pac_bits of
 * Qarma64(key, rounds).encrypt(canonical_ptr, modifier).
 *
 * Results are memoized in a thread-local two-way table keyed by the
 * full (pointer, modifier, key, width, rounds) tuple: the attack's
 * training loops authenticate the same pointer thousands of times,
 * and skipping the repeated QARMA key schedule and rounds is the
 * single largest hot-path win. A hit requires the whole tuple to
 * match, so the memo cannot change a result (the
 * PacMemo.MatchesUncachedCipher test checks every memo path against
 * Qarma64), and it needs no flush on Machine::restore() or
 * Kernel::rekey(): an entry for an old key can only be hit by a
 * query using that key. Being thread-local, the memo is neither
 * shared nor contended by parallel campaign workers.
 *
 * @param canonical_ptr Pointer with its PAC field holding the canonical
 *                      extension (the value hashed by hardware).
 * @param modifier      64-bit context/salt (e.g. SP for return.
 *                      addresses, object address for vtable pointers).
 * @param key           128-bit PA key.
 * @param pac_bits      PAC width; 16 on the modelled platform.
 * @param rounds        QARMA forward-round count (7, as deployed).
 */
uint16_t computePac(uint64_t canonical_ptr, uint64_t modifier,
                    const PacKey &key, unsigned pac_bits = 16,
                    int rounds = 7);

} // namespace pacman::crypto

#endif // PACMAN_CRYPTO_PAC_HH
