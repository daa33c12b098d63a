/**
 * @file
 * Corruption fuzzing for the sweep decision journal, mirroring the
 * result-cache fuzz contract: a damaged journal must never crash,
 * never surface rows that differ from what was written, and always
 * degrade to either a typed error (corrupt header — nothing is
 * trustworthy) or a clean prefix of fully flushed blocks with the
 * drop reason reported.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/journal.h"
#include "support/temp_dir.h"

namespace carbonx
{
namespace
{

constexpr uint64_t kDigest = 0x5eedf00ddeadbeefULL;

std::string
tempPath(const std::string &name)
{
    return testsupport::uniqueTestDir() + name;
}

obs::DecisionRow
rowOf(size_t i)
{
    obs::DecisionRow row;
    row.point_id = 0x4242 + i * 7;
    row.wave = static_cast<uint32_t>(i / 6);
    row.worker = static_cast<uint16_t>(i % 4);
    row.lane = static_cast<uint16_t>(i % 6);
    row.verdict = static_cast<obs::DecisionVerdict>(
        i % obs::kDecisionVerdicts);
    row.predicted_kg = 100.0 + static_cast<double>(i);
    row.actual_kg = 200.0 + static_cast<double>(i);
    row.margin_kg = static_cast<double>(i) * 0.5;
    row.ts_us = i * 11;
    return row;
}

/** Write a journal with @p blocks flush batches of @p per rows. */
void
writeReference(const std::string &path, size_t blocks, size_t per)
{
    std::remove(path.c_str());
    obs::DecisionJournal journal(path, kDigest, "fuzz-reference");
    size_t next = 0;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t r = 0; r < per; ++r, ++next)
            journal.sink(0).record(rowOf(next));
        journal.flush();
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
 * The core invariant: however damaged the file, reading either
 * throws a typed Error (nothing trustworthy) or returns a prefix of
 * the reference rows, every surviving field bit-identical.
 */
void
expectErrorOrPrefix(const std::string &path, size_t total_rows)
{
    obs::JournalData data;
    try {
        data = obs::readJournal(path);
    } catch (const Error &) {
        return; // corrupt header: a typed refusal is correct
    }
    EXPECT_LE(data.rows.size(), total_rows);
    for (size_t i = 0; i < data.rows.size(); ++i) {
        const obs::DecisionRow want = rowOf(i);
        const obs::DecisionRow &got = data.rows[i];
        EXPECT_EQ(got.point_id, want.point_id) << "row " << i;
        EXPECT_EQ(got.wave, want.wave) << "row " << i;
        EXPECT_EQ(got.worker, want.worker) << "row " << i;
        EXPECT_EQ(got.lane, want.lane) << "row " << i;
        EXPECT_EQ(got.verdict, want.verdict) << "row " << i;
        EXPECT_EQ(got.predicted_kg, want.predicted_kg) << "row " << i;
        EXPECT_EQ(got.actual_kg, want.actual_kg) << "row " << i;
        EXPECT_EQ(got.margin_kg, want.margin_kg) << "row " << i;
        EXPECT_EQ(got.ts_us, want.ts_us) << "row " << i;
    }
    // Partial blocks never surface: the clean prefix is whole flush
    // batches only.
    EXPECT_EQ(data.rows.size() % 8, 0u);
}

TEST(JournalFuzz, TruncationAtEveryBoundaryKeepsAPrefix)
{
    const std::string path = tempPath("journal_fuzz_trunc.cxj");

    // A rows-free journal is just the header; measuring it gives the
    // exact header and block sizes without hardcoding the layout.
    writeReference(path, 0, 0);
    const size_t header_size = readAll(path).size();
    writeReference(path, 4, 8);
    const std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), header_size);
    ASSERT_EQ((bytes.size() - header_size) % 4, 0u);
    const size_t block_size = (bytes.size() - header_size) / 4;

    // Every truncation length from empty to full, stepping through
    // all header and block boundaries.
    for (size_t len = 0; len <= bytes.size();
         len += (len < 128 ? 1 : 7)) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<ptrdiff_t>(len));
        writeAll(path, cut);
        SCOPED_TRACE("truncated to " + std::to_string(len));
        expectErrorOrPrefix(path, 32);
        // A cut at the header end or a whole-block boundary is
        // indistinguishable from a shorter legitimate journal; any
        // other length must be reported, not silently dropped.
        const bool clean_boundary =
            len >= header_size &&
            (len - header_size) % block_size == 0;
        if (len < bytes.size() && !clean_boundary) {
            try {
                const obs::JournalData data = obs::readJournal(path);
                EXPECT_FALSE(data.truncation_reason.empty())
                    << "silent tail drop at " << len;
            } catch (const Error &) {
            }
        }
    }
    std::remove(path.c_str());
}

TEST(JournalFuzz, SingleByteFlipsNeverServeCorruptRows)
{
    const std::string path = tempPath("journal_fuzz_flip.cxj");
    writeReference(path, 3, 8);
    const std::vector<char> bytes = readAll(path);

    SplitMix64 rng(1234);
    for (size_t trial = 0; trial < 200; ++trial) {
        std::vector<char> mutated = bytes;
        const size_t pos =
            static_cast<size_t>(rng.next() % mutated.size());
        const char bit = static_cast<char>(1u << (rng.next() % 8));
        mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
        writeAll(path, mutated);
        SCOPED_TRACE("flip at byte " + std::to_string(pos));
        expectErrorOrPrefix(path, 24);
    }
    std::remove(path.c_str());
}

TEST(JournalFuzz, GarbageTailFromCrashMidAppendIsDropped)
{
    const std::string path = tempPath("journal_fuzz_tail.cxj");
    writeReference(path, 2, 8);
    std::vector<char> bytes = readAll(path);
    // Simulate a crash mid-append: half a block of arbitrary bytes.
    for (size_t i = 0; i < 100; ++i)
        bytes.push_back(static_cast<char>(i * 37));
    writeAll(path, bytes);

    const obs::JournalData data = obs::readJournal(path);
    EXPECT_EQ(data.rows.size(), 16u);
    EXPECT_FALSE(data.truncation_reason.empty());
    std::remove(path.c_str());
}

TEST(JournalFuzz, HeaderVersionAndMagicMismatchesThrow)
{
    const std::string path = tempPath("journal_fuzz_header.cxj");

    // Version bump: the u32 that follows the 8-byte magic.
    writeReference(path, 1, 4);
    {
        std::vector<char> bytes = readAll(path);
        ASSERT_GT(bytes.size(), 12u);
        bytes[8] = static_cast<char>(bytes[8] + 1);
        writeAll(path, bytes);
        EXPECT_THROW(obs::readJournal(path), Error);
    }

    // Wrong magic: some other tool's file.
    writeReference(path, 1, 4);
    {
        std::vector<char> bytes = readAll(path);
        bytes[0] = 'X';
        writeAll(path, bytes);
        EXPECT_THROW(obs::readJournal(path), Error);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace carbonx
