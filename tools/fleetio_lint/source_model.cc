#include "tools/fleetio_lint/source_model.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace fleetio::srcmodel {

bool
isWordChar(char c)
{
    return std::isalnum((unsigned char)c) || c == '_';
}

namespace {

/**
 * At @p quote (position of a '"'), decide whether the literal is a raw
 * string: the quote is preceded by 'R', optionally preceded by an
 * encoding prefix (u8, u, U, L), and whatever precedes *that* is not
 * an identifier character (so `FOOR"x"` is an identifier followed by
 * an ordinary string, but `u8R"(x)"` is raw).
 */
bool
isRawStringQuote(const std::string &text, std::size_t quote)
{
    if (quote == 0 || text[quote - 1] != 'R')
        return false;
    std::size_t r = quote - 1;  // position of 'R'
    if (r >= 2 && text[r - 2] == 'u' && text[r - 1] == '8')
        r -= 2;
    else if (r >= 1 && (text[r - 1] == 'u' || text[r - 1] == 'U' ||
                        text[r - 1] == 'L'))
        r -= 1;
    return r == 0 || !isWordChar(text[r - 1]);
}

/** A backslash-newline splice ends at @p nl (position of '\n'). */
bool
splicedNewline(const std::string &text, std::size_t nl)
{
    if (nl >= 1 && text[nl - 1] == '\\')
        return true;
    return nl >= 2 && text[nl - 1] == '\r' && text[nl - 2] == '\\';
}

}  // namespace

std::string
stripCode(const std::string &text)
{
    enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
    std::string out = text;
    St st = St::kCode;
    std::string raw_delim;  // for R"delim( ... )delim"
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::kCode:
            if (c == '/' && n == '/') {
                st = St::kLine;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::kBlock;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"' && isRawStringQuote(text, i)) {
                // R"delim( — capture delim up to the '('. A missing
                // '(' (ill-formed source) degrades to an ordinary
                // string so the state machine never wedges.
                std::size_t j = i + 1;
                raw_delim.clear();
                while (j < text.size() && text[j] != '(' &&
                       text[j] != '"' && text[j] != '\n' &&
                       raw_delim.size() < 16)
                    raw_delim += text[j++];
                if (j < text.size() && text[j] == '(') {
                    st = St::kRaw;
                    i = j;  // keep prefix visible; blank the body
                } else {
                    st = St::kStr;
                }
            } else if (c == '"') {
                st = St::kStr;
            } else if (c == '\'') {
                // A quote straight after an identifier/number char is
                // a digit separator (1'000'000), not a char literal.
                if (i == 0 || !isWordChar(text[i - 1]))
                    st = St::kChar;
            }
            break;
        case St::kLine:
            if (c == '\n') {
                // A backslash continuation splices the next physical
                // line into the comment (the preprocessor sees one
                // logical line); the newline itself is preserved.
                if (!splicedNewline(text, i))
                    st = St::kCode;
            } else {
                out[i] = ' ';
            }
            break;
        case St::kBlock:
            if (c == '*' && n == '/') {
                st = St::kCode;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::kStr:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::kChar:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::kRaw: {
            const std::string close = ")" + raw_delim + "\"";
            if (text.compare(i, close.size(), close) == 0) {
                st = St::kCode;
                i += close.size() - 1;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

bool
containsWord(const std::string &hay, const std::string &needle)
{
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + 1)) {
        const bool left_ok = pos == 0 || !isWordChar(hay[pos - 1]);
        const std::size_t end = pos + needle.size();
        const bool right_ok =
            end >= hay.size() || !isWordChar(hay[end]);
        if (left_ok && right_ok)
            return true;
    }
    return false;
}

bool
callLike(const std::string &line, const std::string &name, bool member)
{
    for (std::size_t pos = line.find(name); pos != std::string::npos;
         pos = line.find(name, pos + 1)) {
        if (pos > 0 && isWordChar(line[pos - 1]))
            continue;
        if (member && !(pos >= 1 && line[pos - 1] == '.') &&
            !(pos >= 2 && line.compare(pos - 2, 2, "->") == 0))
            continue;
        std::size_t j = pos + name.size();
        while (j < line.size() &&
               std::isspace((unsigned char)line[j]))
            ++j;
        if (j < line.size() && line[j] == '(')
            return true;
    }
    return false;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << text;
    return bool(out);
}

std::map<int, std::vector<Suppress>>
parseAllows(const std::vector<std::string> &raw,
            const std::vector<std::string> &code,
            const std::string &tag)
{
    std::map<int, std::vector<Suppress>> allows;
    for (std::size_t li = 0; li < raw.size(); ++li) {
        const std::string &line = raw[li];
        std::size_t pos = line.find(tag);
        while (pos != std::string::npos) {
            std::size_t p = line.find("allow(", pos);
            if (p == std::string::npos)
                break;
            p += 6;
            const std::size_t close = line.find(')', p);
            if (close == std::string::npos)
                break;
            Suppress s;
            s.rule = line.substr(p, close - p);
            // Anything but a kebab-case rule id (e.g. "allow(<id>)"
            // in prose or code that *talks about* suppressions) is
            // not a suppression attempt.
            const bool id_like =
                !s.rule.empty() &&
                std::all_of(s.rule.begin(), s.rule.end(), [](char c) {
                    return std::islower((unsigned char)c) ||
                           std::isdigit((unsigned char)c) || c == '-';
                });
            if (!id_like) {
                pos = line.find(tag, close);
                continue;
            }
            // Mandatory reason: "): <non-empty text>".
            std::size_t r = close + 1;
            while (r < line.size() &&
                   std::isspace((unsigned char)line[r]))
                ++r;
            if (r < line.size() && line[r] == ':') {
                ++r;
                while (r < line.size() &&
                       std::isspace((unsigned char)line[r]))
                    ++r;
                s.has_reason = r < line.size();
            }
            auto blank = [&](std::size_t lj) {
                const std::string &c = code[lj];
                return std::all_of(c.begin(), c.end(), [](char ch) {
                    return std::isspace((unsigned char)ch);
                });
            };
            std::size_t target = li;
            if (li < code.size() && blank(li)) {
                target = li + 1;
                while (target + 1 < code.size() && blank(target))
                    ++target;
            }
            allows[int(target) + 1].push_back(s);
            pos = line.find(tag, close);
        }
    }
    return allows;
}

}  // namespace fleetio::srcmodel
