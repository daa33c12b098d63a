/**
 * @file
 * Persistent on-disk cache of design-point evaluation results.
 *
 * The design-space sweeps simulate the same lattice points over and
 * over: interrupted sweeps restart from zero, a re-sweep after one
 * axis changed re-simulates every unchanged point, and `carbonx
 * explain` re-runs the coarse sweep it just reported. ResultCache
 * removes that waste: every evaluation is appended to a binary cache
 * file keyed by the FNV-1a config digest (see common/fnv.h and the
 * provenance layer) plus the point's coordinates, and any later run
 * with the same digest reuses the stored payload bit-for-bit.
 *
 * File format (host endianness, fixed-width fields):
 *
 *   header:  magic "CXRCACHE" | u32 version | u32 payload_width
 *            | u64 config_digest | u64 kernel_fingerprint
 *            | u32 provenance_size | u32 reserved
 *            | provenance bytes | u64 header_digest (FNV-1a over all
 *            preceding bytes)
 *   blocks:  u32 block_magic | u32 record_count
 *            | key columns  (4 x double[record_count])
 *            | payload columns (payload_width x double[record_count])
 *            | u64 block_digest (FNV-1a over magic, count, columns)
 *
 * Within a block the layout is columnar — every column is one
 * contiguous double array, so an mmap of the file can stride through
 * any single column without touching the rest. Appends happen a
 * whole block at a time (one buffered write + flush per checkpoint),
 * which is what makes interrupted sweeps resumable: a crash mid-
 * append leaves a truncated tail block that the next open detects by
 * digest and drops, keeping every fully flushed record.
 *
 * Corruption policy: any header mismatch (magic, version, digest,
 * payload width, config digest, kernel fingerprint) rebuilds the
 * cache from empty; any bad block drops that block and everything
 * after it. Both paths are detected by digest, reported via
 * rebuildReason(), and never crash or silently serve stale data.
 *
 * Not thread-safe: the sweep drivers call it only from the
 * coordinating thread, between parallel evaluation waves.
 */

#ifndef CARBONX_COMMON_RESULT_CACHE_H
#define CARBONX_COMMON_RESULT_CACHE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace carbonx
{

class ResultCache
{
  public:
    /** Bumped on any layout change; mismatches trigger a rebuild. */
    static constexpr uint32_t kFormatVersion = 2;

    /** Number of key coordinates per record. */
    static constexpr size_t kKeyWidth = 4;

    /** A record key: the design point's four axis coordinates. */
    using Key = std::array<double, kKeyWidth>;

    /**
     * Open (or prepare to create) the cache file at @p path.
     * An existing file is loaded when its header matches @p
     * config_digest, @p kernel_fingerprint and @p payload_width;
     * otherwise the cache starts empty and the file is rewritten on
     * the next flush(), with the reason available from
     * rebuildReason().
     *
     * @param kernel_fingerprint Identifies the code that computed the
     *        payloads (BatchedSimulationEngine::kernelFingerprint for
     *        sweep results), so results never outlive the kernel that
     *        produced them.
     * @param provenance Free-form manifest text (typically the JSON
     *        provenance of the producing run) embedded in the header
     *        of a newly created file.
     */
    ResultCache(std::string path, uint64_t config_digest,
                uint64_t kernel_fingerprint, uint32_t payload_width,
                std::string provenance = "");

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Best-effort flush; never throws. */
    ~ResultCache();

    /**
     * The stored payload for @p key (payloadWidth() doubles), or
     * nullptr on a miss. The pointer is invalidated by insert().
     */
    const double *find(const Key &key) const;

    /**
     * Store @p payload (payloadWidth() doubles) under @p key, buffered
     * until the next flush(). Duplicate keys keep the first payload
     * and return false.
     */
    bool insert(const Key &key, const double *payload);

    /**
     * Append every record buffered since the last flush as one block
     * (rewriting the whole file first when the header was invalid).
     * @throws UserError when the file cannot be written.
     */
    void flush();

    /** Records resident (loaded + inserted). */
    size_t size() const { return coords_.size(); }

    /** Records recovered from the file at construction. */
    size_t loadedFromDisk() const { return loaded_from_disk_; }

    /**
     * Why the on-disk state was (fully or partially) discarded at
     * construction; empty when the load was clean.
     */
    const std::string &rebuildReason() const { return rebuild_reason_; }

    /** Provenance text read from a valid existing file (else ours). */
    const std::string &provenance() const { return provenance_; }

    const std::string &path() const { return path_; }
    uint64_t configDigest() const { return config_digest_; }
    uint32_t payloadWidth() const { return payload_width_; }

  private:
    void load();
    void writeFreshFile();
    void appendBlock(size_t first, size_t count);
    uint64_t keyHash(const Key &key) const;
    /** find() without the hit/miss telemetry (used by insert()). */
    const double *lookup(const Key &key) const;

    std::string path_;
    uint64_t config_digest_ = 0;
    uint64_t kernel_fingerprint_ = 0;
    uint32_t payload_width_ = 0;
    std::string provenance_;

    std::vector<Key> coords_;
    std::vector<double> payloads_; ///< size() * payload_width_ flat.
    std::unordered_multimap<uint64_t, uint32_t> index_;

    size_t loaded_from_disk_ = 0;
    size_t flushed_records_ = 0;
    /** Byte length of the valid on-disk prefix (header + blocks). */
    uint64_t good_prefix_bytes_ = 0;
    /** True when the file must be rewritten from scratch on flush. */
    bool rewrite_needed_ = true;
    /** True when a valid file has a corrupt tail to truncate away. */
    bool truncate_needed_ = false;
    std::string rebuild_reason_;
};

} // namespace carbonx

#endif // CARBONX_COMMON_RESULT_CACHE_H
