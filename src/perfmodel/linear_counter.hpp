/**
 * @file
 * Approximate distinct counting for the runtime oracle's pattern scans.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/common.hpp"

namespace waco {

/**
 * Approximate distinct counting via linear counting over a fixed bitmap
 * (Whang et al.): insert hashes, then estimate n ≈ -m * ln(empty/m).
 * Replaces exact hash sets in the hot path of the oracle — the estimate is
 * within a few percent for the cardinalities we see, and the bitmap makes
 * one measurement O(nnz) with a small constant.
 *
 * Serial inserts also record each word they turn nonzero and keep a
 * running count of set bits, so reset() and estimate() cost O(words
 * touched) instead of a sweep over the whole 512 KiB bitmap. Atomic
 * inserts cannot keep that bookkeeping race-free: the caller of a
 * parallel scan marks the bitmap all-dirty first, and the next reset()
 * and estimate() sweep it.
 */
class LinearCounter
{
  public:
    LinearCounter() : bits_(kWords, 0), touched_(kWords + 1) {}

    void
    reset()
    {
        if (allDirty_) {
            std::fill(bits_.begin(), bits_.end(), 0);
            allDirty_ = false;
        } else {
            for (u64 t = 0; t < numTouched_; ++t)
                bits_[touched_[t]] = 0;
        }
        numTouched_ = 0;
        setBits_ = 0;
    }

    /** Branch-free: the word index is always stored past the end of the
     *  touched list, which only grows when the word was empty. */
    void
    insert(u64 h)
    {
        u64 bit = mix(h);
        u64 word = bit >> 6;
        u64 mask = 1ull << (bit & 63);
        u64 old = bits_[word];
        bits_[word] = old | mask;
        touched_[numTouched_] = static_cast<u32>(word);
        numTouched_ += (old == 0);
        setBits_ += ((old & mask) == 0);
    }

    /** Must precede a batch of insertAtomic() calls, on the caller. */
    void markAllDirty() { allDirty_ = true; }

    /** Thread-safe insert: OR is commutative, so concurrent insertion is
     *  deterministic regardless of interleaving. */
    void
    insertAtomic(u64 h)
    {
        u64 bit = mix(h);
        __atomic_fetch_or(&bits_[bit >> 6], 1ull << (bit & 63),
                          __ATOMIC_RELAXED);
    }

    double
    estimate() const
    {
        u64 set = setBits_;
        if (allDirty_) {
            set = 0;
            for (u64 w : bits_)
                set += static_cast<u64>(__builtin_popcountll(w));
        }
        if (set == 0)
            return 0.0;
        if (set >= kBits)
            return static_cast<double>(kBits);
        double m = static_cast<double>(kBits);
        return -m * std::log((m - static_cast<double>(set)) / m);
    }

  private:
    static u64
    mix(u64 h)
    {
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
        return h & (kBits - 1);
    }

    static constexpr u64 kBits = 1ull << 22; // 4M bits = 512 KiB
    static constexpr u64 kWords = kBits / 64;
    std::vector<u64> bits_;
    /** Words turned nonzero since reset(); one spare slot for the
     *  unconditional store when every word is already set. */
    std::vector<u32> touched_;
    u64 numTouched_ = 0;
    u64 setBits_ = 0;
    bool allDirty_ = false;
};

} // namespace waco
