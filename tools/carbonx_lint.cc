/**
 * @file
 * carbonx-lint driver: walks the given files or directories, runs
 * every rule registered in tools/analyze/registry.h over each C++
 * source, and reports findings as text or SARIF 2.1.0.
 *
 * Usage:
 *   carbonx_lint [OPTIONS] PATH [PATH...]
 *
 * Options:
 *   --format=text|sarif   Output format (default text).
 *   --out=FILE            Write the report to FILE instead of stdout.
 *   --baseline=FILE       Demote findings matching the committed
 *                         baseline (see analyze/baseline.h); they are
 *                         reported but do not gate the exit code.
 *   --check-baseline=FILE Drift check: verify every baseline entry
 *                         still points at an existing file and line.
 *                         Exits 1 on drift, without linting.
 *   --list-rules          Print the rule table (name, severity, doc).
 *
 * Exit codes:
 *   0  clean (or only warnings / baselined findings)
 *   1  at least one non-baselined error-severity finding
 *   2  I/O or usage error: unknown flag, unreadable path or file,
 *      malformed baseline — an unreadable input is a hard error,
 *      never a silent skip
 *
 * Directories are walked recursively for *.h, *.cc, and *.cpp files.
 * Policy is derived from each file's path (see lint::classify).
 * CARBONX_SCOPE names are checked for uniqueness across
 * every file scanned in one invocation. Individual sites are waived
 * with a `// carbonx-lint: allow(rule)` comment on or above the
 * line.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_rules.h"

namespace
{

namespace fs = std::filesystem;

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitError = 2;

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/** Use forward slashes so classify() substrings match on any host. */
std::string
genericPath(const fs::path &p)
{
    return p.generic_string();
}

/**
 * Collect sources under the roots. An unreadable or nonexistent root
 * is a hard error (ok=false), not a skip: a typo in a CI path must
 * fail loudly instead of silently linting nothing.
 */
struct FileSet
{
    bool ok = true;
    std::vector<std::string> files;
};

FileSet
collectFiles(const std::vector<std::string> &roots, std::ostream &err)
{
    FileSet out;
    for (const std::string &root : roots) {
        const fs::path p(root);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end;
                 !ec && it != end; it.increment(ec)) {
                if (it->is_regular_file(ec) && isSourceFile(it->path()))
                    out.files.push_back(genericPath(it->path()));
            }
            if (ec) {
                err << "carbonx-lint: error walking " << root << ": "
                    << ec.message() << "\n";
                out.ok = false;
            }
        } else if (fs::is_regular_file(p, ec)) {
            out.files.push_back(genericPath(p));
        } else {
            err << "carbonx-lint: cannot read " << root << "\n";
            out.ok = false;
        }
    }
    std::sort(out.files.begin(), out.files.end());
    return out;
}

bool
readFile(const std::string &path, std::string &contents)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
    return !in.bad();
}

int
usage(std::ostream &os)
{
    os << "usage: carbonx_lint [--format=text|sarif] [--out=FILE]\n"
       << "                    [--baseline=FILE] "
          "[--check-baseline=FILE]\n"
       << "                    [--list-rules] PATH [PATH...]\n"
       << "Lints C++ sources against the carbonx-analyze rule "
          "table.\n"
       << "Exits 0 when clean, 1 on error-severity findings, 2 on "
          "I/O or usage errors.\n";
    return kExitError;
}

int
listRules()
{
    for (const carbonx::lint::RuleInfo &rule :
         carbonx::lint::ruleTable()) {
        std::cout << rule.name << " ["
                  << carbonx::lint::severityName(rule.severity)
                  << "]\n    " << rule.summary << "\n";
    }
    return kExitClean;
}

/**
 * Baseline drift check: every entry must reference a file that still
 * exists (under one of the roots, by path suffix) with at least that
 * many lines. Returns 1 on drift so CI can gate on it.
 */
int
checkBaselineDrift(const std::string &baseline_path,
                   const std::vector<std::string> &files)
{
    std::string text;
    if (!readFile(baseline_path, text)) {
        std::cerr << "carbonx-lint: cannot open baseline "
                  << baseline_path << "\n";
        return kExitError;
    }
    const carbonx::lint::BaselineParse parsed =
        carbonx::lint::parseBaseline(text);
    if (!parsed.ok) {
        std::cerr << "carbonx-lint: " << parsed.error << "\n";
        return kExitError;
    }
    size_t drifted = 0;
    for (const carbonx::lint::BaselineEntry &entry : parsed.entries) {
        if (entry.comment.empty()) {
            std::cerr << baseline_path << ":" << entry.baseline_line
                      << ": baseline entry for " << entry.file << ":"
                      << entry.line
                      << " lacks the required why-comment\n";
            ++drifted;
            continue;
        }
        const auto match = std::find_if(
            files.begin(), files.end(), [&](const std::string &f) {
                return carbonx::lint::pathSuffixMatches(f,
                                                        entry.file);
            });
        if (match == files.end()) {
            std::cerr << baseline_path << ":" << entry.baseline_line
                      << ": baseline references missing file "
                      << entry.file << "\n";
            ++drifted;
            continue;
        }
        std::string contents;
        if (!readFile(*match, contents)) {
            std::cerr << "carbonx-lint: cannot open " << *match
                      << "\n";
            return kExitError;
        }
        const size_t lines = static_cast<size_t>(std::count(
                                 contents.begin(), contents.end(),
                                 '\n')) +
                             1;
        if (entry.line > lines) {
            std::cerr << baseline_path << ":" << entry.baseline_line
                      << ": baseline references " << entry.file << ":"
                      << entry.line << " but the file has only "
                      << lines << " lines\n";
            ++drifted;
        }
    }
    if (drifted > 0) {
        std::cerr << "carbonx-lint: baseline drift: " << drifted
                  << " stale entr" << (drifted == 1 ? "y" : "ies")
                  << " in " << baseline_path << "\n";
        return kExitFindings;
    }
    std::cout << "carbonx-lint: baseline " << baseline_path
              << " is current (" << parsed.entries.size()
              << " entries)\n";
    return kExitClean;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string format = "text";
    std::string out_path;
    std::string baseline_path;
    std::string check_baseline_path;
    bool list_rules = false;
    std::vector<std::string> roots;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg.rfind("--format=", 0) == 0) {
            format = value("--format=");
            if (format != "text" && format != "sarif") {
                std::cerr << "carbonx-lint: unknown format '"
                          << format << "'\n";
                return usage(std::cerr);
            }
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = value("--out=");
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baseline_path = value("--baseline=");
        } else if (arg.rfind("--check-baseline=", 0) == 0) {
            check_baseline_path = value("--check-baseline=");
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "carbonx-lint: unknown option " << arg
                      << "\n";
            return usage(std::cerr);
        } else {
            roots.push_back(arg);
        }
    }

    if (list_rules)
        return listRules();
    if (roots.empty())
        return usage(std::cerr);

    const FileSet fileset = collectFiles(roots, std::cerr);
    if (!fileset.ok)
        return kExitError;
    if (fileset.files.empty()) {
        std::cerr << "carbonx-lint: no C++ sources found\n";
        return kExitError;
    }

    if (!check_baseline_path.empty())
        return checkBaselineDrift(check_baseline_path,
                                  fileset.files);

    std::vector<carbonx::lint::Diagnostic> diags;
    std::vector<
        std::pair<std::string, std::vector<carbonx::lint::PhaseUse>>>
        phase_uses;
    for (const std::string &file : fileset.files) {
        std::string contents;
        if (!readFile(file, contents)) {
            std::cerr << "carbonx-lint: cannot open " << file << "\n";
            return kExitError;
        }
        const auto file_diags =
            carbonx::lint::lintSource(file, contents);
        diags.insert(diags.end(), file_diags.begin(),
                     file_diags.end());
        phase_uses.emplace_back(
            file, carbonx::lint::collectProfilePhases(contents));
    }

    // Scope names must be unique tree-wide, not just within
    // each file; in-file duplicates were already reported above.
    for (const auto &d :
         carbonx::lint::crossFilePhaseDuplicates(phase_uses))
        diags.push_back(d);

    // Baseline: demote reviewed, deliberately tolerated findings.
    std::vector<carbonx::lint::BaselineEntry> baseline;
    if (!baseline_path.empty()) {
        std::string text;
        if (!readFile(baseline_path, text)) {
            std::cerr << "carbonx-lint: cannot open baseline "
                      << baseline_path << "\n";
            return kExitError;
        }
        const carbonx::lint::BaselineParse parsed =
            carbonx::lint::parseBaseline(text);
        if (!parsed.ok) {
            std::cerr << "carbonx-lint: " << parsed.error << "\n";
            return kExitError;
        }
        baseline = parsed.entries;
        carbonx::lint::applyBaseline(baseline, diags);
        for (const carbonx::lint::BaselineEntry &entry : baseline) {
            if (!entry.used) {
                std::cerr << "carbonx-lint: note: stale baseline "
                             "entry "
                          << entry.file << ":" << entry.line << " "
                          << entry.rule
                          << " matched nothing (run the "
                             "--check-baseline drift gate)\n";
            }
        }
    }

    size_t errors = 0;
    size_t warnings = 0;
    size_t baselined = 0;
    for (const carbonx::lint::Diagnostic &d : diags) {
        if (d.baselined)
            ++baselined;
        else if (d.severity == carbonx::lint::Severity::Error)
            ++errors;
        else
            ++warnings;
    }

    std::ostream *out = &std::cout;
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path, std::ios::binary);
        if (!out_file) {
            std::cerr << "carbonx-lint: cannot write " << out_path
                      << "\n";
            return kExitError;
        }
        out = &out_file;
    }

    if (format == "sarif") {
        *out << carbonx::lint::sarifReport(diags);
    } else {
        for (const carbonx::lint::Diagnostic &d : diags) {
            *out << d.format();
            if (d.baselined)
                *out << " (baselined)";
            else if (d.severity ==
                     carbonx::lint::Severity::Warning)
                *out << " (warning)";
            *out << "\n";
        }
        if (errors + warnings + baselined > 0) {
            *out << "carbonx-lint: " << errors << " error"
                 << (errors == 1 ? "" : "s") << ", " << warnings
                 << " warning" << (warnings == 1 ? "" : "s") << ", "
                 << baselined << " baselined in "
                 << fileset.files.size() << " files\n";
        } else {
            *out << "carbonx-lint: clean ("
                 << fileset.files.size() << " files)\n";
        }
    }

    return errors > 0 ? kExitFindings : kExitClean;
}
