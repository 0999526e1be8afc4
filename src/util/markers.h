/**
 * @file
 * Generation-stamped marker arrays, an implementation detail of the
 * sampler, the micro-batch walk and the multi-device sharder rather
 * than an API for callers.
 *
 * The sampler numbers a block's sources over graph node ids, and the
 * micro-batch walk numbers them over a full block's local indices.
 * The sharder (train/multi_device.cc) keeps one array per device as
 * that device's input working set over graph node ids, for the
 * placement overlap counts and the duplication factor. All need "has
 * id s been placed yet, and where?" for ids in [0, n), cleared before
 * every pass, at a cost proportional to the pass and not to n.
 */
#ifndef BETTY_UTIL_MARKERS_H
#define BETTY_UTIL_MARKERS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace betty {

/**
 * stamp[s] == generation marks id s as placed, at index local[s].
 * Bumping the generation clears every mark at once, so the arrays are
 * kept across passes and grow only to the largest id range seen.
 */
struct Markers
{
    std::vector<uint64_t> stamp;
    std::vector<int64_t> local;
    uint64_t generation = 0;

    /** Clear all marks for a pass over ids [0, num_ids). */
    void
    reset(int64_t num_ids)
    {
        if (stamp.size() < size_t(num_ids)) {
            stamp.resize(size_t(num_ids), 0);
            local.resize(size_t(num_ids));
        }
        ++generation;
    }

    bool seen(int64_t s) const { return stamp[size_t(s)] == generation; }

    void
    mark(int64_t s, int64_t local_index)
    {
        stamp[size_t(s)] = generation;
        local[size_t(s)] = local_index;
    }
};

} // namespace betty

#endif // BETTY_UTIL_MARKERS_H
