/**
 * @file
 * Source-model layer of fleetio-lint (lint.{h,cc}): the
 * comment/string-stripping lexer, word/call matchers, inline
 * suppression parsing, and file I/O. Dependency-free — std:: only.
 *
 * Lexer guarantees (regression-tested in tests/test_source_model.cc):
 *  - stripCode() preserves byte length and every line break, so
 *    (line, column) positions survive stripping;
 *  - raw string literals, including encoding-prefixed forms
 *    (R"(..)", u8R"(..)", uR/UR/LR"(..)") and custom delimiters
 *    (R"x(..)x"), are blanked without desynchronizing the state
 *    machine even when the body contains //, /'*, quotes or both;
 *  - a backslash line-continuation extends a // comment onto the next
 *    physical line, exactly as the preprocessor splices it;
 *  - digit separators (1'000'000) are not char literals.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fleetio::srcmodel {

/** True for [A-Za-z0-9_]. */
bool isWordChar(char c);

/**
 * Blank out comment bodies and string/char literal contents so pattern
 * matching never fires inside them. Length- and newline-preserving.
 */
std::string stripCode(const std::string &text);

/** Split on '\n'; a trailing fragment without a newline is kept. */
std::vector<std::string> splitLines(const std::string &text);

/** Find @p needle at a word boundary (both ends) in @p hay. */
bool containsWord(const std::string &hay, const std::string &needle);

/** Match `name (` at a word boundary, e.g. callLike(line, "rand");
 *  with @p member, only a receiver-qualified `x.name(` / `x->name(`. */
bool callLike(const std::string &line, const std::string &name,
              bool member = false);

/** Slurp @p path into @p out. @return false on open failure. */
bool readFile(const std::string &path, std::string &out);

/** Overwrite @p path with @p text. @return false on open failure. */
bool writeFile(const std::string &path, const std::string &text);

/**
 * One parsed inline suppression: `<tag> allow(<rule>): <reason>`.
 * A trailing comment suppresses its own line; a comment-only line
 * suppresses the next code line (skipping the rest of the comment
 * block and blank lines).
 */
struct Suppress
{
    std::string rule;
    bool has_reason = false;
    bool used = false;
};

/**
 * Parse every suppression comment bearing @p tag (e.g. "fleetio-lint:")
 * out of a file. @p raw are the raw lines,
 * @p code the stripped lines (same count). Keys are 1-based line
 * numbers of the *suppressed* line.
 */
std::map<int, std::vector<Suppress>>
parseAllows(const std::vector<std::string> &raw,
            const std::vector<std::string> &code,
            const std::string &tag);

}  // namespace fleetio::srcmodel
