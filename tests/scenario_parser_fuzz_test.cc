/**
 * @file
 * Robustness suite for the scenario parser and registry loader.
 *
 * The format contract says a malformed scenario file can never crash
 * or silently change a study: every failure is an Error (usually a
 * UserError) whose message names the offending file and — for field
 * level problems — the dotted field path. This suite drives that
 * contract mechanically: truncations of a valid document at every
 * byte, a type-confusion matrix over every section, unknown keys at
 * every nesting level, out-of-range values at each validated bound,
 * and the seeded-invalid fixture corpus under
 * CARBONX_SCENARIO_FIXTURE_DIR (cyclic extends, duplicate ids, ...).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "support/temp_dir.h"

namespace carbonx::scenario
{
namespace
{

namespace fs = std::filesystem;

/** A valid scenario document exercising every known section. */
const char *const kValidDoc = R"({
  "id": "fuzz-base",
  "name": "Fuzz seed document",
  "description": "Uses every known top-level section.",
  "tags": ["fuzz", "seed"],
  "site": { "ba": "PACE", "dc_avg_mw": 19.0, "year": 2020, "seed": 7 },
  "workload": { "flexible_ratio": 0.4, "slo_hours": 24.0 },
  "components": {
    "renewable_reach": 8.0,
    "solar": { "min": 0.0, "max": 152.0, "steps": 7 },
    "battery": { "steps": 5 },
    "chemistry": "lfp",
    "grid_charge_policy": "below_intensity",
    "grid_charge_threshold_gkwh": 200.0
  },
  "objective": { "strategy": "combined", "attribution": "consumed" },
  "sweep": { "mode": "adaptive", "refine_rounds": 1 },
  "expect": { "min_coverage_pct": 10.0, "max_coverage_pct": 100.0 }
})";

/** Parse+apply+validate a raw document; what the registry does per file. */
void
loadOne(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    Scenario s;
    applyScenarioJson(s, doc, "fuzz.json", /*meta=*/true);
    validateScenario(s);
}

/** Expect loadOne to throw carbonx::Error (never crash / leak through). */
void
expectRejected(const std::string &text, const std::string &what)
{
    try {
        loadOne(text);
        FAIL() << "accepted malformed input: " << what;
    } catch (const Error &) {
        // Expected: structured diagnostic.
    } catch (const std::exception &e) {
        FAIL() << what << ": escaped as non-carbonx exception: "
               << e.what();
    }
}

TEST(ScenarioParserFuzz, ValidSeedDocumentLoads)
{
    EXPECT_NO_THROW(loadOne(kValidDoc));
}

TEST(ScenarioParserFuzz, TruncationAtEveryByteIsAnError)
{
    const std::string doc = kValidDoc;
    for (size_t len = 0; len < doc.size(); ++len) {
        const std::string cut = doc.substr(0, len);
        try {
            loadOne(cut);
            // A prefix that still parses AND validates would have to
            // be a complete object — impossible before the final '}'.
            FAIL() << "accepted truncation at byte " << len;
        } catch (const Error &) {
            // Structured rejection — the contract.
        } catch (const std::exception &e) {
            FAIL() << "truncation at byte " << len
                   << " escaped as: " << e.what();
        }
    }
}

TEST(ScenarioParserFuzz, TypeConfusionNamesFileAndField)
{
    struct Case
    {
        const char *doc;
        const char *field; ///< Dotted path the diagnostic must name.
    };
    const std::vector<Case> cases = {
        {R"({"id": 42})", "id"},
        {R"({"id": "x", "tags": "paper"})", "tags"},
        {R"({"id": "x", "tags": [1, 2]})", "tags"},
        {R"({"id": "x", "site": "PACE"})", "site"},
        {R"({"id": "x", "site": {"ba": 12}})", "site.ba"},
        {R"({"id": "x", "site": {"dc_avg_mw": "nineteen"}})",
         "site.dc_avg_mw"},
        {R"({"id": "x", "site": {"year": 2020.5}})", "site.year"},
        {R"({"id": "x", "site": {"seed": true}})", "site.seed"},
        {R"({"id": "x", "workload": {"flexible_ratio": "most"}})",
         "workload.flexible_ratio"},
        {R"({"id": "x", "components": {"solar": 5}})",
         "components.solar"},
        {R"({"id": "x", "components": {"solar": {"steps": 2.5}}})",
         "components.solar.steps"},
        {R"({"id": "x", "components": {"chemistry": ["lfp"]}})",
         "components.chemistry"},
        {R"({"id": "x", "objective": {"strategy": 3}})",
         "objective.strategy"},
        {R"({"id": "x", "sweep": {"mode": false}})", "sweep.mode"},
        {R"({"id": "x", "sweep": {"refine_rounds": "two"}})",
         "sweep.refine_rounds"},
        {R"({"id": "x", "expect": {"best_total_kg": "low"}})",
         "expect.best_total_kg"},
        {R"({"id": "x", "abstract": "yes"})", "abstract"},
        {R"({"id": "x", "extends": {}})", "extends"},
        {R"([1, 2, 3])", ""}, // Root must be an object.
    };
    for (const Case &c : cases) {
        try {
            loadOne(c.doc);
            FAIL() << "accepted type confusion: " << c.doc;
        } catch (const Error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("fuzz.json"), std::string::npos)
                << "diagnostic does not name the file: " << msg;
            if (c.field[0] != '\0') {
                EXPECT_NE(msg.find(c.field), std::string::npos)
                    << "diagnostic does not name field '" << c.field
                    << "': " << msg;
            }
        }
    }
}

TEST(ScenarioParserFuzz, UnknownKeysAreRejectedAtEveryLevel)
{
    const std::vector<std::string> docs = {
        R"({"id": "x", "renewable_reach": 8.0})",    // top level
        R"({"id": "x", "site": {"region": "PACE"}})", // nested
        R"({"id": "x", "workload": {"slo": 24}})",
        R"({"id": "x", "components": {"renewable_rech": 8.0}})",
        R"({"id": "x", "components": {"solar": {"mid": 5.0}}})",
        R"({"id": "x", "objective": {"goal": "combined"}})",
        R"({"id": "x", "sweep": {"refinement": 1}})",
        R"({"id": "x", "expect": {"coverage": 80}})",
    };
    for (const std::string &doc : docs)
        expectRejected(doc, doc);
}

TEST(ScenarioParserFuzz, OutOfRangeValuesAreRejected)
{
    const std::vector<std::string> docs = {
        R"({"id": "UPPER"})",                              // id charset
        R"({"id": "x", "site": {"ba": "NOWHERE"}})",       // unknown BA
        R"({"id": "x", "site": {"dc_avg_mw": -3.0}})",
        R"({"id": "x", "site": {"dc_avg_mw": 0.0}})",
        R"({"id": "x", "site": {"year": 1800}})",
        R"({"id": "x", "workload": {"flexible_ratio": 1.5}})",
        R"({"id": "x", "workload": {"flexible_ratio": -0.1}})",
        R"({"id": "x", "workload": {"slo_hours": 0.0}})",
        R"({"id": "x", "workload": {"slo_hours": 9000.0}})",
        R"({"id": "x", "components": {"renewable_reach": 0.0}})",
        R"({"id": "x", "components": {"chemistry": "unobtainium"}})",
        R"({"id": "x", "components": {"grid_charge_policy": "always"}})",
        R"({"id": "x", "components": {"solar": {"min": -1.0}}})",
        R"({"id": "x", "components": {"solar": {"min": 9.0, "max": 3.0}}})",
        R"({"id": "x", "components": {"solar": {"steps": 0}}})",
        // Lattice blow-up: must trip the total-lattice cap.
        R"({"id": "x", "components": {
              "solar": {"steps": 200}, "wind": {"steps": 200},
              "battery": {"steps": 200}}})",
        R"({"id": "x", "sweep": {"refine_rounds": -1}})",
        R"({"id": "x", "sweep": {"refine_rounds": 99}})",
        R"({"id": "x", "expect": {"tolerance_pct": 0.0}})",
        R"({"id": "x", "expect": {"min_coverage_pct": 90.0,
                                   "max_coverage_pct": 10.0}})",
        // NaN/Infinity are not valid JSON numbers to begin with.
        R"({"id": "x", "site": {"dc_avg_mw": NaN}})",
        R"({"id": "x", "site": {"dc_avg_mw": 1e999}})",
    };
    for (const std::string &doc : docs)
        expectRejected(doc, doc);
}

TEST(ScenarioParserFuzz, GarbageMutationsNeverCrash)
{
    // Deterministic byte-level mutations of the valid document: flip
    // a byte to a structural character at a stride of positions. The
    // result either still loads or raises a structured Error.
    const std::string doc = kValidDoc;
    const std::string junk = "{}[]\",:x\x01\xff";
    size_t accepted = 0;
    size_t rejected = 0;
    for (size_t pos = 0; pos < doc.size(); pos += 3) {
        for (const char c : junk) {
            std::string mutated = doc;
            mutated[pos] = c;
            try {
                loadOne(mutated);
                ++accepted;
            } catch (const Error &) {
                ++rejected;
            } catch (const std::exception &e) {
                FAIL() << "mutation at " << pos << " ('" << c
                       << "') escaped as: " << e.what();
            }
        }
    }
    // The overwhelming majority of structural mutations must be
    // rejected; a handful are benign (inside string literals).
    EXPECT_GT(rejected, accepted);
}

/**
 * Every seeded-invalid fixture directory must fail registry load with
 * a UserError naming a file inside that directory.
 */
TEST(ScenarioParserFuzz, SeededInvalidFixturesAreDiagnosed)
{
    const fs::path root = CARBONX_SCENARIO_FIXTURE_DIR;
    ASSERT_TRUE(fs::is_directory(root))
        << "fixture corpus missing: " << root;

    size_t dirs = 0;
    for (const auto &entry : fs::directory_iterator(root)) {
        if (!entry.is_directory())
            continue;
        ++dirs;
        const std::string dir = entry.path().string();
        try {
            ScenarioRegistry::loadDirectory(dir);
            FAIL() << "fixture dir loaded cleanly: " << dir;
        } catch (const UserError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(".json"), std::string::npos)
                << dir << ": diagnostic does not name a file: " << msg;
        } catch (const std::exception &e) {
            FAIL() << dir << ": escaped as non-UserError: " << e.what();
        }
    }
    EXPECT_GE(dirs, 6u) << "fixture corpus shrank";
}

TEST(ScenarioParserFuzz, CyclicExtendsNamesTheChain)
{
    const fs::path dir =
        fs::path(CARBONX_SCENARIO_FIXTURE_DIR) / "cycle";
    try {
        ScenarioRegistry::loadDirectory(dir.string());
        FAIL() << "cycle fixture loaded cleanly";
    } catch (const UserError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cycle-a"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cycle-b"), std::string::npos) << msg;
    }
}

TEST(ScenarioParserFuzz, UnknownParentIsDiagnosed)
{
    const std::string dir =
        testsupport::uniqueTestDir() + "fuzz_unknown_parent";
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/orphan.json");
        out << R"({"id": "orphan", "extends": "no-such-base"})";
    }
    try {
        ScenarioRegistry::loadDirectory(dir);
        FAIL() << "orphan extends loaded cleanly";
    } catch (const UserError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-base"), std::string::npos) << msg;
    }
    fs::remove_all(dir);
}

TEST(ScenarioParserFuzz, MissingDirectoryYieldsEmptyRegistry)
{
    const ScenarioRegistry reg = ScenarioRegistry::loadDirectory(
        testsupport::uniqueTestDir() + "no_such_scenario_dir");
    EXPECT_TRUE(reg.empty());
}

} // namespace
} // namespace carbonx::scenario
