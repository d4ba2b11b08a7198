/**
 * @file
 * Field lists (DESIGN.md §4l). A record with a list has a static
 * member template `forEachField(f, r...)` that calls
 * `f(name, r.field...)` once per field, in list order, passing that
 * field of each record; a config whose list covers only the fields
 * that cross the wire calls it `forEachWireField`. Merges, the
 * tagged-line codecs (runner/protocol.hh), fingerprints and report
 * rows visit the list, so a new counter or wire field is one line.
 */

#ifndef PACMAN_BASE_FIELDS_HH
#define PACMAN_BASE_FIELDS_HH

#include <cstddef>
#include <cstdint>

namespace pacman
{

/** Marks a seed or an address in a list, as `Hex{r.seed}`: the codecs
 *  write it as 16 hex digits rather than decimal. */
template <typename T>
struct Hex
{
    T &value;
};

/** How many fields R's list has. */
template <typename R>
constexpr size_t
fieldCount()
{
    size_t n = 0;
    R r{};
    R::forEachField([&n](auto &&...) { ++n; }, r);
    return n;
}

/** True when R's list covers every member of R, a record of
 *  Counters only. Such records assert it, so an unlisted counter
 *  fails to build. */
template <typename R, typename Counter = uint64_t>
constexpr bool listsEveryMember =
    fieldCount<R>() * sizeof(Counter) == sizeof(R);

/** Add each listed counter of @p b into @p a. */
template <typename R>
constexpr void
addFields(R &a, const R &b)
{
    R::forEachField([](auto, uint64_t &x, uint64_t y) { x += y; }, a, b);
}

} // namespace pacman

#endif // PACMAN_BASE_FIELDS_HH
