/**
 * @file
 * Chained hash table for Perl associative arrays.
 *
 * Implemented from scratch (rather than std::unordered_map) so the
 * interpreter can surface the real memory traffic of an associative
 * lookup: the per-character hash function, the bucket-head load and
 * the chain walk. §3.3 reports ~210 native instructions per hash
 * translation in Perl 4; the interpreter charges this table's actual
 * work through its instrumentation hooks.
 */

#ifndef INTERP_PERLISH_HASH_TABLE_HH
#define INTERP_PERLISH_HASH_TABLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perlish/value.hh"

namespace interp::perlish {

/** One string->Scalar chained hash table. */
class HashTable
{
  public:
    HashTable();

    /** Perl 4's hash function (multiply-accumulate per character). */
    static uint32_t hashKey(const std::string &key);

    /**
     * Find or create the entry for @p key.
     * @param chain_steps out: nodes visited (for cost accounting)
     * @return the value slot.
     */
    Scalar &lookup(const std::string &key, int &chain_steps);

    /** Find without creating; null if absent. */
    Scalar *find(const std::string &key, int &chain_steps);

    /** Remove a key; returns true if present. */
    bool erase(const std::string &key);

    /** All keys, in bucket order (Perl's unordered `keys`). */
    std::vector<std::string> keys() const;

    size_t size() const { return count; }
    size_t bucketCount() const { return buckets.size(); }

    /** True if @p p points into the live bucket array (testing aid). */
    bool ownsBucketAddr(const void *p) const
    {
        auto addr = (uintptr_t)p;
        auto base = (uintptr_t)buckets.data();
        return addr >= base &&
               addr < base + buckets.size() * sizeof(buckets[0]);
    }

    /** Host addresses touched by the last lookup, for d-cache realism. */
    const void *lastBucketAddr = nullptr;

  private:
    struct Node
    {
        std::string key;
        Scalar value;
        std::unique_ptr<Node> next;
    };

    void grow();

    std::vector<std::unique_ptr<Node>> buckets;
    size_t count = 0;
};

} // namespace interp::perlish

#endif // INTERP_PERLISH_HASH_TABLE_HH
