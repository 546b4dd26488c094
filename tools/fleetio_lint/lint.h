/**
 * @file
 * fleetio-lint: project-specific static analysis enforcing the
 * invariants no compiler checks (DESIGN.md §10). Token/regex scanning
 * plus a lightweight include graph — no LLVM dependency, fast enough
 * to run as a tier-1 ctest over the whole tree.
 *
 * Rules (ids are what `// fleetio-lint: allow(<id>): <reason>` takes):
 *  - nondeterminism      (R1) banned wall-clock / libc RNG /
 *                             unordered or pointer-keyed ordered
 *                             containers under src/
 *  - hotpath             (R2) no std::function / iostream / throwing
 *                             std::stoi-family in src/{sim,ssd,virt}
 *  - obs-macro           (R3) obs emits outside src/obs go through
 *                             the ObsHub's FLEETIO_OBS
 *  - layering            (R4) src/{sim,ssd} must not reach
 *                             src/{rl,policies,harness,obs} headers
 *                             (include-graph transitive)
 *  - header-hygiene      (R5) #pragma once, no `using namespace` in
 *                             headers (--fix converts include guards)
 *  - build-registration  (R6) every .cc/.cpp is listed in a
 *                             CMakeLists.txt; every test is in ctest
 *  - journal-api         (R7) block-state mutations in
 *                             src/{ssd,harvest} (erase/retire/release/
 *                             close) go through FlashDevice's durable*
 *                             journal API, never straight at the chip
 *  - suppression              an allow() without a reason is itself a
 *                             violation
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace fleetio::lint {

struct Violation
{
    std::string rule;     ///< rule id ("hotpath", "layering", ...)
    std::string file;     ///< path relative to the scanned root
    int line = 0;         ///< 1-based
    std::string message;
};

struct Options
{
    /** Apply mechanical fixes (header-hygiene guard conversion) and
     *  write the files back instead of reporting them. */
    bool fix = false;

    /** Run only these rule ids (empty = every rule). */
    std::vector<std::string> rules;
};

struct Result
{
    std::vector<Violation> violations;   ///< sorted by (file, line)
    std::size_t files_scanned = 0;
    std::size_t suppressions_used = 0;
    std::vector<std::string> fixed_files;

    bool clean() const { return violations.empty(); }
};

struct RuleInfo
{
    const char *id;
    const char *issue_tag;  ///< "R1".."R7"
    const char *summary;
};

/** The rule registry, in R1..R7 order. */
const std::vector<RuleInfo> &rules();

/** Lint every source file under @p root (src/, tests/, bench/,
 *  examples/, tools/; build trees and tests/lint_fixtures excluded). */
Result runLint(const std::string &root, const Options &opts = {});

/** `file:line: [rule] message` lines plus a summary line. */
void writeHuman(std::ostream &os, const Result &r);

/** SARIF-ish JSON ("fleetio-lint-v1"). */
void writeJson(std::ostream &os, const Result &r, const std::string &root);

/**
 * Pure text transform behind --fix: rewrite a classic
 * `#ifndef/#define ... #endif` include guard as `#pragma once`.
 * Returns true when @p text was changed. Exposed for tests.
 */
bool fixHeaderGuard(std::string &text);

}  // namespace fleetio::lint
