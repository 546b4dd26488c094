/**
 * @file
 * A flat JSON object written as one line: the record format the cell
 * runner and the driver hand to run.py. Numbers keep all 17 significant
 * digits so host timings are never rounded to a constant.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace simbench {

class JsonLine
{
  public:
    JsonLine &num(const std::string &key, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonLine &count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonLine &str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(key, q + "\"");
    }
    /** @p json must already be valid JSON (a nested object/array). */
    JsonLine &raw(const std::string &key, const std::string &json)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += "\"" + key + "\": " + json;
        return *this;
    }
    std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

  private:
    std::string body_;
};

}  // namespace simbench
