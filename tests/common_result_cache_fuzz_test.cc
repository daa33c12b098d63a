/**
 * @file
 * Corruption fuzzing for the persistent result cache and the CSV
 * trace reader. The contract under attack: a damaged cache file must
 * never crash, never serve stale or corrupt payloads, and always
 * degrade to either a clean prefix of fully flushed records or a
 * full rebuild; a damaged trace CSV must either parse to a valid
 * table or throw a typed error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/result_cache.h"
#include "common/rng.h"
#include "core/explorer.h"
#include "support/temp_dir.h"

namespace carbonx
{
namespace
{

constexpr uint64_t kDigest = 0x5eedf00ddeadbeefULL;
constexpr uint64_t kFingerprint = 0x6b65726e656c3031ULL;
constexpr uint32_t kWidth = 3;

std::string
tempPath(const std::string &name)
{
    return testsupport::uniqueTestDir() + name;
}

ResultCache::Key
keyOf(size_t i)
{
    return ResultCache::Key{static_cast<double>(i),
                            static_cast<double>(2 * i), 0.5, 0.0};
}

std::array<double, kWidth>
payloadOf(size_t i)
{
    return {static_cast<double>(i) + 0.25,
            1000.0 - static_cast<double>(i),
            static_cast<double>(i) * 3.5};
}

/** Write a cache with @p blocks flush batches of @p per records. */
void
writeReference(const std::string &path, size_t blocks, size_t per)
{
    std::remove(path.c_str());
    ResultCache cache(path, kDigest, kFingerprint, kWidth,
                      "fuzz-reference");
    size_t next = 0;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t r = 0; r < per; ++r, ++next)
            cache.insert(keyOf(next), payloadOf(next).data());
        cache.flush();
    }
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * The core invariant: however damaged the file, reopening never
 * crashes and every record it recovers is bit-identical to what the
 * reference run stored.
 */
void
expectCleanOrPrefix(const std::string &path, size_t total_records)
{
    const ResultCache cache(path, kDigest, kFingerprint, kWidth);
    EXPECT_LE(cache.loadedFromDisk(), total_records);
    size_t found = 0;
    for (size_t i = 0; i < total_records; ++i) {
        const double *p = cache.find(keyOf(i));
        if (p == nullptr)
            continue;
        ++found;
        const auto want = payloadOf(i);
        for (size_t c = 0; c < kWidth; ++c)
            EXPECT_EQ(p[c], want[c]) << "record " << i << " col " << c;
    }
    EXPECT_EQ(found, cache.loadedFromDisk());
}

TEST(ResultCacheFuzz, TruncationAtEveryBoundaryKeepsAPrefix)
{
    const std::string path = tempPath("rc_fuzz_trunc.cxrc");
    writeReference(path, 4, 8);
    const std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 64u);

    // Every truncation length from empty to full, stepping through
    // all header and block boundaries.
    for (size_t len = 0; len <= bytes.size();
         len += (len < 128 ? 1 : 7)) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<ptrdiff_t>(len));
        writeAll(path, cut);
        SCOPED_TRACE("truncated to " + std::to_string(len));
        expectCleanOrPrefix(path, 32);
    }
    std::remove(path.c_str());
}

TEST(ResultCacheFuzz, SingleByteFlipsNeverServeCorruptRecords)
{
    const std::string path = tempPath("rc_fuzz_flip.cxrc");
    writeReference(path, 3, 6);
    const std::vector<char> bytes = readAll(path);

    SplitMix64 rng(1234);
    for (size_t trial = 0; trial < 200; ++trial) {
        std::vector<char> mutated = bytes;
        const size_t pos =
            static_cast<size_t>(rng.next() % mutated.size());
        const char bit =
            static_cast<char>(1u << (rng.next() % 8));
        mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
        writeAll(path, mutated);
        SCOPED_TRACE("flip at byte " + std::to_string(pos));
        expectCleanOrPrefix(path, 18);
    }
    std::remove(path.c_str());
}

TEST(ResultCacheFuzz, GarbageTailFromCrashMidAppendIsDropped)
{
    const std::string path = tempPath("rc_fuzz_tail.cxrc");
    writeReference(path, 2, 5);
    std::vector<char> bytes = readAll(path);
    // Simulate a crash mid-append: half a block of arbitrary bytes.
    for (size_t i = 0; i < 100; ++i)
        bytes.push_back(static_cast<char>(i * 37));
    writeAll(path, bytes);

    const ResultCache cache(path, kDigest, kFingerprint, kWidth);
    EXPECT_EQ(cache.loadedFromDisk(), 10u);
    EXPECT_FALSE(cache.rebuildReason().empty());
    std::remove(path.c_str());
}

TEST(ResultCacheFuzz, HeaderMismatchesRebuildFromEmpty)
{
    const std::string path = tempPath("rc_fuzz_header.cxrc");

    // Config digest mismatch: a cache written for another study.
    writeReference(path, 1, 4);
    {
        const ResultCache other(path, kDigest + 1, kFingerprint, kWidth);
        EXPECT_EQ(other.loadedFromDisk(), 0u);
        EXPECT_FALSE(other.rebuildReason().empty());
    }

    // Payload width mismatch: same study, different record layout.
    writeReference(path, 1, 4);
    {
        const ResultCache wider(path, kDigest, kFingerprint, kWidth + 2);
        EXPECT_EQ(wider.loadedFromDisk(), 0u);
        EXPECT_FALSE(wider.rebuildReason().empty());
    }

    // Version mismatch: bump the u32 version field that follows the
    // 8-byte magic.
    writeReference(path, 1, 4);
    {
        std::vector<char> bytes = readAll(path);
        ASSERT_GT(bytes.size(), 12u);
        bytes[8] = static_cast<char>(bytes[8] + 1);
        writeAll(path, bytes);
        const ResultCache bumped(path, kDigest, kFingerprint, kWidth);
        EXPECT_EQ(bumped.loadedFromDisk(), 0u);
        EXPECT_FALSE(bumped.rebuildReason().empty());
    }
    std::remove(path.c_str());
}

TEST(ResultCacheFuzz, KernelFingerprintMismatchRebuilds)
{
    // Same study, same layout, but the payloads were computed by a
    // different simulation kernel: the cache must not serve them.
    const std::string path = tempPath("rc_fuzz_kernel.cxrc");
    writeReference(path, 2, 4);
    {
        const ResultCache same(path, kDigest, kFingerprint, kWidth);
        EXPECT_EQ(same.loadedFromDisk(), 8u);
        EXPECT_TRUE(same.rebuildReason().empty());
    }
    {
        ResultCache other(path, kDigest, kFingerprint + 1, kWidth);
        EXPECT_EQ(other.loadedFromDisk(), 0u);
        EXPECT_NE(other.rebuildReason().find("kernel"), std::string::npos)
            << other.rebuildReason();
        other.insert(keyOf(0), payloadOf(0).data());
    }
    // The rebuilt file now belongs to the new kernel only.
    const ResultCache rebuilt(path, kDigest, kFingerprint + 1, kWidth);
    EXPECT_EQ(rebuilt.loadedFromDisk(), 1u);
    EXPECT_TRUE(rebuilt.rebuildReason().empty());
    const ResultCache old_kernel(path, kDigest, kFingerprint, kWidth);
    EXPECT_EQ(old_kernel.loadedFromDisk(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheFuzz, RebuildAfterCorruptionWritesAUsableFile)
{
    const std::string path = tempPath("rc_fuzz_rebuild.cxrc");
    writeReference(path, 2, 4);
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() / 2); // destroy the tail block
    writeAll(path, bytes);

    {
        ResultCache cache(path, kDigest, kFingerprint, kWidth);
        const size_t kept = cache.loadedFromDisk();
        EXPECT_LT(kept, 8u);
        // Re-insert what was lost and flush a repaired file.
        for (size_t i = 0; i < 8; ++i)
            cache.insert(keyOf(i), payloadOf(i).data());
        cache.flush();
    }
    const ResultCache repaired(path, kDigest, kFingerprint, kWidth);
    EXPECT_EQ(repaired.loadedFromDisk(), 8u);
    EXPECT_TRUE(repaired.rebuildReason().empty());
    std::remove(path.c_str());
}

/** A valid 8760-row trace CSV as a string, for mutation. */
std::string
referenceTraceCsv()
{
    CsvTable csv({"hour", "dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    for (size_t h = 0; h < 8760; ++h) {
        const double hour = static_cast<double>(h % 24);
        csv.addNumericRow({static_cast<double>(h), 20.0,
                           hour >= 6 && hour < 18 ? 100.0 : 0.0,
                           40.0 + (h % 7), 320.0 + hour});
    }
    std::ostringstream out;
    csv.write(out);
    return out.str();
}

TEST(CsvReaderFuzz, TruncatedTraceFilesParseOrThrowTypedErrors)
{
    const std::string text = referenceTraceCsv();
    const std::string path = tempPath("csv_fuzz_trunc.csv");
    // Cut mid-header, mid-row, mid-number, and at a row boundary.
    for (const size_t len :
         {size_t{0}, size_t{3}, size_t{40}, size_t{41},
          text.size() / 2, text.size() - 5}) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << text.substr(0, len);
        }
        SCOPED_TRACE("truncated to " + std::to_string(len));
        try {
            const ExternalTraces traces =
                ExternalTraces::fromCsv(path, 2021);
            // Acceptable only if the file still had a full year.
            EXPECT_EQ(traces.dc_power.size(), 8760u);
        } catch (const Error &) {
            // Typed rejection is the expected outcome.
        }
    }
    std::remove(path.c_str());
}

TEST(CsvReaderFuzz, MutatedCellsNeverCrashTheReader)
{
    const std::string text = referenceTraceCsv();
    const std::string path = tempPath("csv_fuzz_mut.csv");
    SplitMix64 rng(99);
    const std::string garbage = "x,\"\n;#\0NaN";
    for (size_t trial = 0; trial < 100; ++trial) {
        std::string mutated = text;
        const size_t pos =
            static_cast<size_t>(rng.next() % mutated.size());
        mutated[pos] = garbage[rng.next() % garbage.size()];
        {
            std::ofstream out(path, std::ios::trunc);
            out << mutated;
        }
        SCOPED_TRACE("mutation at " + std::to_string(pos));
        try {
            const ExternalTraces traces =
                ExternalTraces::fromCsv(path, 2021);
            EXPECT_EQ(traces.dc_power.size(), 8760u);
        } catch (const Error &) {
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace carbonx
